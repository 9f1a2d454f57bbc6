"""Every module-level import in the package is used by its module, no
module reads the environment, the decomposition modules import nothing
from scipy, the CLI does not load the heavy scipy subpackages it has no
use for, and every name the benchmark's tracer patches exists."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import fischerlab

SOURCES = sorted(Path(fischerlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports are re-exports
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


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


def environment_reads(source: str) -> list:
    """os.environ / os.getenv uses, as attributes or names imported from os."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            hits.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits.extend(f"{alias.name} (line {node.lineno})" for alias in node.names
                        if alias.name in ENV_READERS)
    return sorted(hits)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # options are CLI flags or parameters, never environment variables
    assert environment_reads(path.read_text()) == []


def test_environment_read_is_reported():
    source = ("import os\nfrom os import getenv\n\n"
              "n = int(os.environ.get('N', '1')) + int(getenv('M', '0'))\n")
    assert environment_reads(source) == ["environ (line 4)", "getenv (line 2)"]


def scipy_imports(source: str) -> list:
    """Imports of scipy or a scipy subpackage, at any nesting level."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        hits.extend(f"{name} (line {node.lineno})" for name in names
                    if name == "scipy" or name.startswith("scipy."))
    return sorted(hits)


@pytest.mark.parametrize("name", ["polyalg.py", "fischer.py"])
def test_decompose_path_imports_no_scipy(name):
    # the decompose path stays free of scipy (numpy is fine: polyalg
    # assembles multiplication matrices with it); spectral loads scipy for
    # spectrum and ks-fit only
    source = (Path(fischerlab.__file__).parent / name).read_text()
    assert scipy_imports(source) == []


def test_scipy_import_is_reported():
    source = ("import numpy as np\nimport scipy.sparse\n\n"
              "def f():\n    from scipy.linalg import svd\n    return svd\n")
    assert scipy_imports(source) == ["scipy.linalg (line 5)", "scipy.sparse (line 2)"]


def test_cli_import_skips_heavy_scipy_modules():
    # scipy.stats and scipy.optimize took most of the CLI's start-up time,
    # then scipy.sparse, which only the spectral eigensolves use
    heavy = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg")
    code = ("import sys, fischerlab.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(fischerlab.__file__).parents[1])
    assert out.stdout.strip() == "[]"


def test_traced_layers_resolve():
    # bench/tracing.py patches these names from outside the package and
    # raises on a missing one; class methods are looked up in the class
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _ in tracing.LAYERS:
        module = importlib.import_module(f"fischerlab.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(module, cls_name, None), "__dict__", {})
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert tracing.LAYERS
    assert missing == []
