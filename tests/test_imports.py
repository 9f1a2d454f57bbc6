"""Every module-level import in the package is used by its module, and the
CLI does not load the heavy scipy subpackages it has no use for."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import fischerlab

MODULES = sorted(p for p in Path(fischerlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports are re-exports


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import math\nfrom .polyalg import Poly, poly_to_dict\n\nx = Poly(math.pi)\n"
    assert unused_imports(source) == ["poly_to_dict (line 2)"]


def test_cli_import_skips_heavy_scipy_modules():
    # scipy.stats and scipy.optimize took most of the CLI's start-up time
    code = ("import sys, fischerlab.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(fischerlab.__file__).parents[1])
    assert out.stdout.strip() == "[]"
