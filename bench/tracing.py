"""Spans and counters around fischerlab's layer functions.

The tracer wraps the public functions of each layer by patching module
(and class) attributes from outside the package; no code under src/
knows about it.  A function imported by name into another module (for
example ``fischer.bareiss_solve`` or ``entire.project_homogeneous``) is
patched there too, so no call goes uncounted.

Each call records a span (name, start, end, parent span, job id) in
flat arrays kept in memory; the harness writes them out when the run
ends.  A layer's self time is its span's duration minus the time its
direct child spans cover.  ``enumerate_monomials`` calls itself; its
inner calls run unwrapped inside the outer span, so its calls count the
callers' requests.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute, span name); attributes with a dot are class methods
LAYERS = [
    ("cli", "main", "cli.main"),
    ("cli", "emit_report", "cli.emit_report"),
    ("polyalg", "load_poly", "polyalg.load_poly"),
    ("polyalg", "save_poly", "polyalg.save_poly"),
    ("fischer", "decompose_direct", "fischer.decompose_direct"),
    ("fischer", "decompose_series", "fischer.decompose_series"),
    ("fischer", "project_homogeneous", "fischer.project_homogeneous"),
    ("fischer", "fischer_matrix", "fischer.fischer_matrix"),
    ("exactlinalg", "bareiss_solve", "exactlinalg.bareiss_solve"),
    ("exactlinalg", "exact_rref", "exactlinalg.exact_rref"),
    ("exactlinalg", "float_lstsq_solve", "exactlinalg.float_lstsq_solve"),
    ("polyalg", "Poly.__mul__", "polyalg.Poly.mul"),
    ("polyalg", "apply_diff_op", "polyalg.apply_diff_op"),
    ("polyalg", "enumerate_monomials", "polyalg.enumerate_monomials"),
    ("spectral", "mult_matrix", "spectral.mult_matrix"),
    ("spectral", "sigma_extremes", "spectral.sigma_extremes"),
    ("spectral", "kernel_basis", "spectral.kernel_basis"),
    ("entire", "TaylorStream.component", "entire.TaylorStream.component"),
    ("entire", "decompose_entire", "entire.decompose_entire"),
    ("entire", "order_estimate", "entire.order_estimate"),
    ("entire", "blambda_norm", "entire.blambda_norm"),
    ("sampling", "sphere_max", "sampling.sphere_max"),
    ("sampling", "poly_eval_array", "sampling.poly_eval_array"),
    ("apolar", "norm_sq", "apolar.norm_sq"),
    ("apolar", "inner_product", "apolar.inner_product"),
    ("apolar", "bargmann_mc_estimate", "apolar.bargmann_mc_estimate"),
]


# functions that call themselves: only the outermost call is a span
RECURSIVE = {"polyalg.enumerate_monomials"}

# counters kept besides calls / s / self_s; 0 on passes that never hit them
STATS = [
    "fischer.fischer_matrix.distinct",
    "exactlinalg.bareiss_solve.n_max",
    "exactlinalg.bareiss_solve.n3_sum",
    "exactlinalg.bareiss_solve.bits_max",
    "exactlinalg.float_lstsq_solve.cond_max",
    "fields.GaussianRational.init_calls",
    "spectral.mult_matrix.bytes_sum",
    "spectral.mult_matrix.bytes_max",
    "entire.TaylorStream.component.misses",
    "sampling.poly_eval_array.points",
    "apolar.bargmann_mc_estimate.samples",
]


def _bits(x):
    """Largest numerator or denominator bit length of a GaussianRational."""
    return max(max(part.numerator.bit_length(), part.denominator.bit_length())
               for part in (x.real, x.imag))


PACKAGE = "fischerlab"


class Tracer:
    """Installs wrappers, records spans and per-layer counters."""

    def __init__(self):
        self.names = []
        self.depth = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.job = -1
        self.stats = {}
        self._job_keys = set()
        self._restore = []
        self._hooks = {
            "fischer.fischer_matrix": (None, self._on_fischer_matrix),
            "exactlinalg.bareiss_solve": (None, self._on_bareiss),
            "exactlinalg.float_lstsq_solve": (None, self._on_lstsq),
            "spectral.mult_matrix": (None, self._on_mult_matrix),
            "entire.TaylorStream.component": (self._component_miss, self._on_component),
            "sampling.poly_eval_array": (None, self._on_eval),
            "apolar.bargmann_mc_estimate": (None, self._on_mc),
        }

    # -- counters ----------------------------------------------------------

    def _add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value

    def _max(self, key, value):
        self.stats[key] = max(self.stats.get(key, value), value)

    def _on_fischer_matrix(self, args, kwargs, result, _):
        key = (hash(args[0]), args[1])
        if key not in self._job_keys:
            self._job_keys.add(key)
            self._add("fischer.fischer_matrix.distinct", 1)

    def _on_bareiss(self, args, kwargs, result, _):
        n = len(args[0])
        self._max("exactlinalg.bareiss_solve.n_max", n)
        self._add("exactlinalg.bareiss_solve.n3_sum", n ** 3)
        if result:
            self._max("exactlinalg.bareiss_solve.bits_max", max(_bits(x) for x in result))

    def _on_lstsq(self, args, kwargs, result, _):
        self._max("exactlinalg.float_lstsq_solve.cond_max", result[1])

    def _on_mult_matrix(self, args, kwargs, result, _):
        rows, cols = result.matrix.shape
        self._add("spectral.mult_matrix.bytes_sum", rows * cols * 16)
        self._max("spectral.mult_matrix.bytes_max", rows * cols * 16)

    @staticmethod
    def _component_miss(args, kwargs):
        stream, m = args[0], args[1]
        return m not in stream._cache

    def _on_component(self, args, kwargs, result, miss):
        self._add("entire.TaylorStream.component.misses", int(miss))

    def _on_eval(self, args, kwargs, result, _):
        self._add("sampling.poly_eval_array.points", args[1].shape[0])

    def _on_mc(self, args, kwargs, result, _):
        self._add("apolar.bargmann_mc_estimate.samples", result.samples)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        self.depth.append(0)
        before, after = self._hooks.get(name, (None, None))
        recursive = name in RECURSIVE
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recursive and tr.depth[nid]:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_job.append(tr.job)
            tr.span_end.append(0.0)
            tr.stack.append(idx)
            tr.depth[nid] += 1
            tr.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[idx] = time.perf_counter()
                tr.depth[nid] -= 1
                tr.stack.pop()
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def _modules(self):
        return [mod for key, mod in list(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def install(self):
        """Patch every layer function wherever the package refers to it."""
        modules = self._modules()
        for module_name, attr, name in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._wrap(orig, name)
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        self._patch(cls, key, orig, wrapper)
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)
        self._count_inits(sys.modules[f"{PACKAGE}.fields"].GaussianRational)

    def _count_inits(self, cls):
        """GaussianRational construction: a count only, no span."""
        orig = cls.__dict__["__init__"]
        tr = self

        def __init__(obj, re=0, im=0):
            tr.stats["fields.GaussianRational.init_calls"] = (
                tr.stats.get("fields.GaussianRational.init_calls", 0) + 1)
            orig(obj, re, im)

        self._patch(cls, "__init__", orig, __init__)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- bookkeeping -------------------------------------------------------

    def start_job(self, job_id):
        self.job = job_id
        self._job_keys = set()

    def start_pass(self):
        """Reset counters; returns the index of the pass's first span."""
        self.stats = {}
        return len(self.span_start)

    def layer_table(self, first):
        """Per-layer metrics for spans recorded since index ``first``."""
        stop = len(self.span_start)
        child = {}
        for i in range(first, stop):
            parent = self.span_parent[i]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + self.span_end[i] - self.span_start[i]
        table = {}
        for name in self.names:
            table[f"{name}.calls"] = 0
            table[f"{name}.s"] = 0.0
            table[f"{name}.self_s"] = 0.0
        for i in range(first, stop):
            nid = self.span_name[i]
            name = self.names[nid]
            dur = self.span_end[i] - self.span_start[i]
            table[f"{name}.calls"] += 1
            table[f"{name}.self_s"] += dur - child.get(i, 0.0)
            # inclusive time counts a span nested in one of the same name once
            parent = self.span_parent[i]
            while parent >= first and self.span_name[parent] != nid:
                parent = self.span_parent[parent]
            if parent < first:
                table[f"{name}.s"] += dur
        table.update({key: self.stats.get(key, 0) for key in STATS})
        calls = table["fischer.fischer_matrix.calls"]
        distinct = table["fischer.fischer_matrix.distinct"]
        # share of Fischer matrices rebuilt although the same job built them before
        table["fischer.fischer_matrix.reuse"] = 1.0 - distinct / calls if calls else 0.0
        return table

    def write_spans(self, path, job_names):
        """Tab-separated spans: id, parent, job, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("# jobs: " + " ".join(f"{i}={n}" for i, n in sorted(job_names.items())) + "\n")
            fh.write("id\tparent\tjob\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_job[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")
