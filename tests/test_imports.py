"""Every module-level import in the package is used by its module, every
top-level function and class is used somewhere in the package (or is
named by README.md or the acceptance tests, or is patched by the
benchmark's tracer; a re-export by ``__init__`` is no use), no module
reads the environment, the decomposition modules import nothing from
scipy, the CLI does not load the heavy scipy subpackages it has no use
for (nor does ``ks-fit`` on a quadratic load ``scipy.sparse``), every name the benchmark's tracer patches exists, no file is
opened for writing outside ``polyalg.write_atomic``, only ``fields``
reads the parts of a ``GaussianRational`` by attribute, and the
unchecked ``Poly._canonical`` builds only results of ``polyalg``,
``fischer`` and ``entire``, never what a file or the command line
supplies, inside ``fischer`` only the front door ``_admit``
truncates a stream or promotes f to float, only ``polyalg``'s two
product kernels sum exponents termwise (``map(add, a, b)``), and every
slice map calls ``polyalg.check_slice`` before it lists a monomial,
the one place that compares a monomial count with a cap, and only the
log-domain norms (``apolar.log_norm_sq`` and ``entire``) call
``math.lgamma``, while ``apolar`` does without ``unit_scaled``, and two
polynomials meet by one rule: only ``polyalg._one_field`` (and
``Poly.__eq__``) compares two ``.field`` attributes, and only it,
``fischer._admit`` (p against f, streams included) and ``Poly.evaluate``
(a point) raise ``DimensionMismatchError``, and a common denominator
(``math.lcm``) is taken only by ``GaussianRational.__init__`` and
``Poly.numerators``, an exact polynomial's one reader of its numerators."""

import ast
import importlib
import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fischerlab
from fischerlab.polyalg import Poly, enumerate_monomials, save_poly

SOURCES = sorted(Path(fischerlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports are re-exports
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}
WRITER = "write_atomic"
GAUSSIAN_PARTS = {"_re", "_im", "_den"}
TRUSTED = "_canonical"
TRUSTED_MODULES = {"polyalg", "fischer", "entire"}
PARSERS = {"poly_from_dict", "stream_from_dict"}  # and every load_* function
FRONT_DOOR = "_admit"
PREPARATIONS = {"truncate", "to_float"}
PRODUCT_KERNELS = {"_gaussian_products", "_float_products"}  # in polyalg
SLICE_GUARD = "check_slice"
SLICE_MAPS = {"fischer_matrix", "orthonormal_operators", "kernel_basis", "mult_matrix",
              "sigma_extremes"}
LISTINGS = {"enumerate_monomials", "degree_table", "mult_pattern", "mult_entries",
            "_normal_form_gram"}
LOG_DOMAIN = {"apolar": {"log_norm_sq"}}  # and every function of entire
FIELD_MEETINGS = {"polyalg": {"_one_field", "__eq__"}}
DIMENSION_REFUSALS = {"polyalg": {"_one_field", "evaluate"}, "fischer": {"_admit"}}
LCM_OWNERS = {"fields": {"GaussianRational.__init__"}, "polyalg": {"Poly.numerators"}}


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


@pytest.mark.parametrize("degree,loaded", [(2, False), (3, True)])
def test_ks_fit_loads_scipy_sparse_only_off_quadratics(tmp_path, degree, loaded):
    # a quadratic's Gram blocks come from closed forms and, up to
    # spectral.DENSE_EIG_MAX, go to numpy's eigvalsh; a cubic's come from
    # a sparse product, so the check can fail
    pk = Poly(3, {alpha: complex(1 + i, 2 - i)
                  for i, alpha in enumerate(enumerate_monomials(3, degree))})
    save_poly(pk, tmp_path / "pk.json")
    argv = ["ks-fit", "--p", str(tmp_path / "pk.json"), "--m-min", "8", "--m-max", "11",
            "--out", str(tmp_path / "ks")]
    code = ("import sys; from fischerlab import cli; "
            f"print(cli.main({argv!r}), 'scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(fischerlab.__file__).parents[1])
    assert out.stdout.splitlines()[-1] == f"0 {loaded}"


def traced_layers() -> list:
    """bench/tracing.py's LAYERS: (module, attribute, span name) triples."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def _names(node) -> set:
    """Every name, attribute and imported name inside node."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def unreferenced_definitions(sources: dict, named=frozenset()) -> list:
    """module.name of each top-level function or class that no other
    top-level statement of ``sources`` (module name -> source) names, as a
    name, an attribute or an import, and that is not in ``named``; a
    function calling itself does not count, nor does a re-export by
    ``__init__``."""
    defined, refs = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, name))
            if module != "__init__":
                refs.append((module, name, _names(node)))
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in named and not any(name in names and (m, n) != (module, name)
                                                   for m, n, names in refs))


def documented_names() -> set:
    """The words of README.md's code spans and blocks, and the names that
    tests/test_acceptance.py uses: the surface a user is shown."""
    root = Path(__file__).parents[1]
    spans = re.findall(r"`([^`]+)`", (root / "README.md").read_text())
    return ({word for span in spans for word in re.findall(r"\w+", span)}
            | _names(ast.parse((root / "tests" / "test_acceptance.py").read_text())))


def test_package_definitions_are_used():
    # a name only __init__ re-exports counts as used when README or the
    # acceptance tests name it; a name the benchmark's tracer patches may
    # have no caller left in the package
    sources = {p.stem: p.read_text() for p in SOURCES}
    patched = {f"{module}.{attr.split('.')[0]}" for module, attr, _ in traced_layers()}
    assert [name for name in unreferenced_definitions(sources, documented_names())
            if name not in patched] == []


def test_unused_definition_is_reported():
    sources = {"a": "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h()\n\n"
                    "def k():\n    pass\n",
               "b": "from .a import g\n\nclass C:\n    pass\n\ndef h():\n    return C\n",
               "__init__": "from .a import f, k\n"}
    assert unreferenced_definitions(sources) == ["a.f", "a.k"]
    assert unreferenced_definitions(sources, named={"k"}) == ["a.f"]


def test_traced_layers_resolve():
    # bench/tracing.py patches these names from outside the package and
    # raises on a missing one; class methods are looked up in the class
    layers = traced_layers()
    missing = []
    for module_name, attr, _ in layers:
        module = importlib.import_module(f"fischerlab.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(getattr(module, cls_name, None), "__dict__", {})
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert layers
    assert missing == []


def file_writes(source: str) -> list:
    """Calls that open a file for writing outside the function WRITER:
    open, os.fdopen or a path's open method with a mode holding w, a, x or
    + (or a mode that is not a string literal), and write_text/write_bytes."""
    tree = ast.parse(source)
    allowed = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == WRITER for n in ast.walk(fn)}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            hits.append(f"{name} (line {node.lineno})")
        if name not in ("open", "fdopen"):
            continue
        # the mode follows the path or descriptor, except in a path's method
        method = isinstance(func, ast.Attribute) and not (
            isinstance(func.value, ast.Name) and func.value.id in ("os", "io", "codecs"))
        pos = 0 if method else 1
        mode = next((k.value for k in node.keywords if k.arg == "mode"),
                    node.args[pos] if len(node.args) > pos else None)
        if mode is None:
            continue  # read mode
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                or set(mode.value) & set("wax+"):
            hits.append(f"{name} (line {node.lineno})")
    return sorted(hits)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_files_are_written_by_one_writer(path):
    # every output goes through polyalg.write_atomic: a temporary file and
    # one rename, so no reader sees a partial report
    assert file_writes(path.read_text()) == []


def test_file_write_is_reported():
    source = ("import os\n\n"
              "def write_atomic(path, text):\n"
              "    with os.fdopen(3, 'w') as fh:\n"
              "        fh.write(text)\n\n"
              "def save(path, mode):\n"
              "    with open(path, 'w') as fh:\n"
              "        fh.write(open(path).read())\n"
              "    path.open(mode='a'), path.open('rb'), os.fdopen(4, mode)\n"
              "    path.write_text('x')\n")
    assert file_writes(source) == ["fdopen (line 10)", "open (line 10)", "open (line 8)",
                                   "write_text (line 11)"]


def gaussian_part_reads(source: str) -> list:
    """Attribute accesses to GaussianRational's private parts."""
    return sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in GAUSSIAN_PARTS)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_gaussian_parts_stay_inside_fields(path):
    # the canonical form (den > 0, gcd(re, im, den) == 1) is what makes
    # == sound; outside fields, parts() reads it and from_parts builds it
    assert gaussian_part_reads(path.read_text()) == []


def test_gaussian_part_read_is_reported():
    source = ("def scale(c, k):\n"
              "    re, im, den = c.parts()\n"
              "    c._den = den * k\n"
              "    return c._re * k + c.other._im, getattr(c, '_re')\n")
    assert gaussian_part_reads(source) == ["_den (line 3)", "_im (line 4)", "_re (line 4)"]


def untrusted_constructions(source: str, module: str) -> list:
    """Uses of Poly._canonical where input must be validated: anywhere in
    a module outside TRUSTED_MODULES, and inside the functions that read
    input (PARSERS and load_*) of any module."""
    tree = ast.parse(source)
    parsing = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               and (fn.name in PARSERS or fn.name.startswith("load_"))
               for n in ast.walk(fn)}
    return sorted(f"{TRUSTED} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == TRUSTED
                  and (module not in TRUSTED_MODULES or id(node) in parsing))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_unchecked_polys_are_built_only_from_package_results(path):
    # files and the public Poly(...) are validated; Poly._canonical wraps
    # terms the package built itself, so input never reaches it
    assert untrusted_constructions(path.read_text(), path.stem) == []


def test_untrusted_construction_is_reported():
    source = ("def poly_from_dict(obj):\n"
              "    return Poly._canonical(obj['dim'], obj['terms'], 'exact')\n\n"
              "def load_stream(path):\n"
              "    wrap = Poly._canonical\n\n"
              "def negate(p):\n"
              "    return p._canonical(p.dim, {}, p.field)\n")
    assert untrusted_constructions(source, "entire") == ["_canonical (line 2)",
                                                         "_canonical (line 5)"]
    assert untrusted_constructions(source, "cli") == [
        "_canonical (line 2)", "_canonical (line 5)", "_canonical (line 8)"]


def stray_preparations(source: str) -> list:
    """Uses of .truncate or .to_float outside the function FRONT_DOOR."""
    tree = ast.parse(source)
    allowed = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == FRONT_DOOR for n in ast.walk(fn)}
    return sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in PREPARATIONS
                  and id(node) not in allowed)


def test_fischer_prepares_input_only_at_its_front_door():
    # every route takes (p, f) through fischer._admit, which truncates a
    # stream and promotes f by one rule; a route with its own copy would
    # drift from it
    path = Path(fischerlab.__file__).parent / "fischer.py"
    assert stray_preparations(path.read_text()) == []


def test_stray_preparation_is_reported():
    source = ("def _admit(p, f):\n"
              "    return f.truncate(3).to_float()\n\n"
              "def route(p, f):\n"
              "    f = f.to_float() if p.field == 'float' else f\n"
              "    cut = f.truncate\n")
    assert stray_preparations(source) == ["to_float (line 5)", "truncate (line 6)"]


def exponent_sums(source: str, module: str) -> list:
    """Calls map(add, ...), the termwise exponent sum of a product loop,
    outside PRODUCT_KERNELS of polyalg: add by name or as operator.add."""
    tree = ast.parse(source)
    allowed = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and module == "polyalg"
               and fn.name in PRODUCT_KERNELS for n in ast.walk(fn)}
    return sorted(f"map(add) (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "map" and node.args
                  and (getattr(node.args[0], "id", None) == "add"
                       or getattr(node.args[0], "attr", None) == "add")
                  and id(node) not in allowed)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_term_products_run_only_in_polyalg_kernels(path):
    # Poly multiplication and the exp recurrences share one exact and one
    # float product loop; another copy would drift from them
    assert exponent_sums(path.read_text(), path.stem) == []


def test_exponent_sum_is_reported():
    source = ("from operator import add\nimport operator\n\n"
              "def _float_products(a, b):\n"
              "    return [tuple(map(add, x, y)) for x in a for y in b]\n\n"
              "def step(a, b):\n"
              "    return [tuple(map(operator.add, x, y)) for x in a for y in b]\n")
    assert exponent_sums(source, "polyalg") == ["map(add) (line 8)"]
    assert exponent_sums(source, "entire") == ["map(add) (line 5)", "map(add) (line 8)"]


def _callee(call) -> str:
    """The name a call calls: f(...) and obj.f(...) both give f."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def unguarded_slices(source: str) -> list:
    """In each function of SLICE_MAPS, the calls of LISTINGS that come
    before its first SLICE_GUARD call (all of them when it has none), and
    anywhere outside SLICE_GUARD, a comparison of count_monomials(...)."""
    tree = ast.parse(source)
    hits = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        calls = sorted((n.lineno, n.col_offset, _callee(n)) for n in ast.walk(fn)
                       if isinstance(n, ast.Call))
        if fn.name in SLICE_MAPS:
            guard = min(((line, col) for line, col, name in calls if name == SLICE_GUARD),
                        default=(math.inf, 0))
            hits += [f"{fn.name}: {name} (line {line})" for line, col, name in calls
                     if name in LISTINGS and (line, col) < guard]
        if fn.name != SLICE_GUARD:
            hits += [f"{fn.name}: count_monomials compared (line {node.lineno})"
                     for node in ast.walk(fn) if isinstance(node, ast.Compare)
                     and any(isinstance(side, ast.Call) and _callee(side) == "count_monomials"
                             for side in [node.left, *node.comparators])]
    return sorted(hits)


def test_every_slice_map_passes_the_slice_guard_first():
    # one guard (pk nonzero and homogeneous, m >= 0, the slice size under
    # the cap) runs before any monomial, degree table or pattern exists;
    # a slice map with its own check, or none, would drift from it
    found = set()
    for path in SOURCES:
        source = path.read_text()
        found |= {fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef) and fn.name in SLICE_MAPS}
        assert unguarded_slices(source) == [], path.name
    assert found == SLICE_MAPS


def test_unguarded_slice_is_reported():
    source = ("def check_slice(pk, m, cap):\n"
              "    return count_monomials(pk.dim, m) > cap\n\n"
              "def mult_matrix(pk, m):\n"
              "    cols = enumerate_monomials(pk.dim, m)\n"
              "    check_slice(pk, m, 9)\n"
              "    return polyalg.mult_entries(pk, cols)\n\n"
              "def kernel_basis(pk, m):\n"
              "    return degree_table(pk.dim, m)\n\n"
              "def sweep(pk, m, cap):\n"
              "    if cap < polyalg.count_monomials(pk.dim, m):\n"
              "        return mult_pattern(pk, m)\n")
    assert unguarded_slices(source) == ["kernel_basis: degree_table (line 10)",
                                        "mult_matrix: enumerate_monomials (line 5)",
                                        "sweep: count_monomials compared (line 13)"]


def lossy_range_paths(source: str, module: str) -> list:
    """Names lgamma outside the log-domain norms (LOG_DOMAIN, and all of
    entire), and in apolar any name unit_scaled: the lossy lgamma fallback
    and the norm's power-of-two retry that the exact retry replaced."""
    tree = ast.parse(source)
    allowed = {id(n) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name in LOG_DOMAIN.get(module, ())
               for n in ast.walk(fn)}
    banned = {"lgamma"} | ({"unit_scaled"} if module == "apolar" else set())
    names = [(getattr(node, "id", None) or getattr(node, "attr", None) or node.name, node)
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    return sorted(f"{name} (line {node.lineno})" for name, node in names
                  if name in banned and module != "entire"
                  and (name != "lgamma" or id(node) not in allowed))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_values_past_the_double_range_take_no_lossy_path(path):
    # past the double range a float apolar value is recomputed exactly and
    # rounded once; a log-domain or power-of-two copy would drift from it
    assert lossy_range_paths(path.read_text(), path.stem) == []


def test_lossy_range_path_is_reported():
    source = ("from math import lgamma\n"
              "from .polyalg import Poly, unit_scaled\n\n"
              "def log_norm_sq(p):\n"
              "    return math.lgamma(3)\n\n"
              "def norm(p):\n"
              "    return math.exp(math.lgamma(4)), polyalg.unit_scaled(p)\n")
    assert lossy_range_paths(source, "apolar") == ["lgamma (line 1)", "lgamma (line 8)",
                                                   "unit_scaled (line 2)", "unit_scaled (line 8)"]
    assert lossy_range_paths(source, "spectral") == ["lgamma (line 1)", "lgamma (line 5)",
                                                     "lgamma (line 8)"]
    assert lossy_range_paths(source, "entire") == []


def operand_rule_copies(source: str, module: str) -> list:
    """Comparisons of two .field attributes outside FIELD_MEETINGS, and
    raises of DimensionMismatchError outside DIMENSION_REFUSALS: a copy of
    the rule by which two polynomials meet."""
    tree = ast.parse(source)

    def inside(allowed):
        return {id(n) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and fn.name in allowed.get(module, ()) for n in ast.walk(fn)}

    meetings, refusals = inside(FIELD_MEETINGS), inside(DIMENSION_REFUSALS)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in meetings and sum(
                isinstance(side, ast.Attribute) and side.attr == "field"
                for side in [node.left, *node.comparators]) >= 2:
            hits.append(f"field comparison (line {node.lineno})")
        if isinstance(node, ast.Raise) and id(node) not in refusals and node.exc is not None \
                and "DimensionMismatchError" in _names(node.exc):
            hits.append(f"DimensionMismatchError (line {node.lineno})")
    return sorted(hits)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_two_polynomials_meet_by_one_rule(path):
    # polyalg._one_field checks the dimensions and promotes a mixed pair to
    # float; an operation with its own copy would drift from it
    assert operand_rule_copies(path.read_text(), path.stem) == []


def test_operand_rule_copy_is_reported():
    source = ("def _one_field(a, b):\n"
              "    if a.dim != b.dim:\n"
              "        raise DimensionMismatchError('dims')\n"
              "    return (a, b) if a.field == b.field else (a.to_float(), b.to_float())\n\n"
              "def __add__(self, other):\n"
              "    if self.dim != other.dim:\n"
              "        raise errors.DimensionMismatchError('dims')\n"
              "    if self.field != other.field and other.field == 'exact':\n"
              "        return None\n\n"
              "def apply(q, f):\n"
              "    return q.field == f.field == 'exact', f.field == 'float'\n")
    assert operand_rule_copies(source, "polyalg") == [
        "DimensionMismatchError (line 8)", "field comparison (line 13)",
        "field comparison (line 9)"]
    assert operand_rule_copies(source, "apolar") == [
        "DimensionMismatchError (line 3)", "DimensionMismatchError (line 8)",
        "field comparison (line 13)", "field comparison (line 4)", "field comparison (line 9)"]


def common_denominators(source: str, module: str) -> list:
    """module.scope of each name lcm (math.lcm, or lcm imported by name)
    outside LCM_OWNERS, the scope being the enclosing classes and functions
    joined by dots (<module> at the top level)."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = (getattr(child, "id", None) or getattr(child, "attr", None)
                    if isinstance(child, (ast.Name, ast.Attribute)) else
                    child.name if isinstance(child, ast.alias) else None)
            where = ".".join(scope)
            if name == "lcm" and where not in LCM_OWNERS.get(module, ()):
                hits.append(f"{module}.{where or '<module>'} (line {child.lineno})")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(hits)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numerators_have_one_reader(path):
    # an exact polynomial's numerators over one denominator are derived in
    # Poly.numerators and kept; a copy elsewhere would derive them again
    assert common_denominators(path.read_text(), path.stem) == []


def test_common_denominator_is_reported():
    source = ("import math\nfrom math import lcm\n\n"
              "class Poly:\n"
              "    def numerators(self):\n"
              "        return math.lcm(*self.dens)\n\n"
              "def gaussian_integers(values):\n"
              "    return math.lcm(*values)\n\n"
              "def components(inner):\n"
              "    def step(n):\n"
              "        return lcm(n, 2)\n"
              "    return step\n")
    assert common_denominators(source, "polyalg") == [
        "polyalg.<module> (line 2)", "polyalg.components.step (line 13)",
        "polyalg.gaussian_integers (line 9)"]
    assert common_denominators(source, "entire") == [
        "entire.<module> (line 2)", "entire.Poly.numerators (line 6)",
        "entire.components.step (line 13)", "entire.gaussian_integers (line 9)"]
