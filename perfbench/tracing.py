"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each boundary function with a wrapper in every
loaded ``fatpoints`` namespace that holds it (``fatpoints.unexpected.
system_dimension`` as well as ``fatpoints.linsys.system_dimension``), so
calls between layers go through the wrapper too.  A wrapper records a span
(name, start, end, parent) in memory; ``remove`` restores the originals.
Times are the CPU time of the calling thread.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

# metric name -> (module, attribute); the attribute is looked up, and
# wrapped, in every fatpoints namespace that holds the same object
BOUNDARIES = {
    "geom.analyze_lines": ("fatpoints.geom", "analyze_lines"),
    "geom.projective_equivalent": ("fatpoints.geom", "projective_equivalent"),
    "linsys.system_dimension": ("fatpoints.linsys", "system_dimension"),
    "linsys.conditions_matrix": ("fatpoints.linsys", "conditions_matrix"),
    "linsys.system_basis": ("fatpoints.linsys", "system_basis"),
    "linsys.symbolic_conditions_matrix": ("fatpoints.linsys", "symbolic_conditions_matrix"),
    "poly.rank_of_fraction_rows": ("fatpoints.poly", "rank_of_fraction_rows"),
    "poly.exact_rank": ("fatpoints.poly", "exact_rank"),
    "poly.nullspace_basis": ("fatpoints.poly", "nullspace_basis"),
    "poly.symbolic_rank_bound": ("fatpoints.poly", "symbolic_rank_bound"),
    "unexpected.detect_unexpected": ("fatpoints.unexpected", "detect_unexpected"),
    "unexpected.multiplicity_dim": ("fatpoints.unexpected", "multiplicity_dim"),
    "unexpected.fermat_unexpected_range": ("fatpoints.unexpected", "fermat_unexpected_range"),
    "configs.random_config": ("fatpoints.configs", "random_config"),
    "configs.family": ("fatpoints.configs", "family"),
    "configs.dual_fermat": ("fatpoints.configs", "dual_fermat"),
}

# boundary functions with a nonzero call count on each workload; every
# other boundary reports zero calls there (multiplicity_dim on all of them:
# no workload computes splitting types)
ACTIVE = {
    "search": {
        "geom.analyze_lines", "geom.projective_equivalent",
        "linsys.system_dimension", "linsys.conditions_matrix", "linsys.system_basis",
        "poly.rank_of_fraction_rows", "poly.nullspace_basis",
        "unexpected.detect_unexpected",
    },
    "detect": {
        "linsys.system_dimension", "linsys.conditions_matrix", "linsys.system_basis",
        "poly.rank_of_fraction_rows", "poly.nullspace_basis",
        "unexpected.detect_unexpected", "configs.random_config",
    },
    "cyclotomic": {
        "linsys.system_dimension", "linsys.conditions_matrix", "linsys.system_basis",
        "poly.exact_rank", "poly.nullspace_basis",
        "unexpected.detect_unexpected", "unexpected.fermat_unexpected_range",
        "configs.dual_fermat",
    },
    "certify": {
        "linsys.system_dimension", "linsys.conditions_matrix", "linsys.system_basis",
        "linsys.symbolic_conditions_matrix",
        "poly.rank_of_fraction_rows", "poly.exact_rank", "poly.nullspace_basis",
        "poly.symbolic_rank_bound",
        "unexpected.detect_unexpected", "configs.family", "configs.dual_fermat",
    },
}  # fmt: skip

# boundaries whose requested matrix size counts towards linsys.cells
LINSYS = ("linsys.system_dimension", "linsys.conditions_matrix", "linsys.system_basis",
          "linsys.symbolic_conditions_matrix")  # fmt: skip

COUNTS = (
    "field.scalar_mul.calls",
    "linsys.cells",
    "unexpected.samples_per_verdict",
    "unexpected.positives",
    "poly.symbolic.grid_bound",
    "trace.overhead_frac",
)

# unit by the last part of the metric name; any other is a count
UNITS = {"self_s": "s", "samples_per_verdict": "count/verdict", "overhead_frac": "ratio"}


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for b in BOUNDARIES:
        names += [f"{b}.calls", f"{b}.self_s"]
    return names + list(COUNTS)


def metric_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "count")


def _requested_cells(name, args):
    """rows x columns of the matrix a linsys entry point is asked for."""
    if name == "linsys.symbolic_conditions_matrix":
        Z, j, d = args[:3]
        return (len(Z) + comb(j + 1, 2)) * comb(d + 2, 2)
    X, d = args[:2]
    return X.condition_count() * comb(d + 2, 2)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.cells = 0
        self.positives = 0
        self.grid_bound = 0
        self.scalar_muls = [0]
        self.samples = [0]
        self.samples_before_queries = 0
        self._patched = []  # (namespace, attribute, original)

    # -- installation ---------------------------------------------------------

    def _patch(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fatpoints" and not mod_name.startswith("fatpoints."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for name, (mod_name, attr) in BOUNDARIES.items():
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._patch(original, self._span_wrapper(name, original))
        field = sys.modules["fatpoints.field"]
        self._patch_method(field.Scalar, ("__mul__", "__rmul__"), self.scalar_muls)
        unexpected = sys.modules["fatpoints.unexpected"]
        self._patch_method(unexpected.GeneralPointStrategy, ("sample_point",), self.samples)

    def _patch_method(self, cls, attrs, counter):
        for attr in attrs:
            original = cls.__dict__[attr]

            def counted(*args, _f=original, **kwargs):
                counter[0] += 1
                return _f(*args, **kwargs)

            self._patched.append((cls, attr, original))
            setattr(cls, attr, counted)

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> int:
        """Namespaces still holding a wrapper after remove (should be 0)."""
        return sum(1 for owner, attr, original in self._patched
                   if vars(owner)[attr] is not original)  # fmt: skip

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.thread_time_ns
        linsys = name in LINSYS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if linsys and (parent < 0 or spans[parent][0] not in LINSYS):
                self.cells += _requested_cells(name, args)
            index = len(spans)
            span = [name, clock(), 0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, result):
        if name == "unexpected.detect_unexpected" and result.unexpected:
            self.positives += 1
        elif name == "poly.symbolic_rank_bound":
            self.grid_bound += result.grid_points

    def mark_queries(self):
        """Input generation ends here; samples_per_verdict counts from now."""
        self.samples_before_queries = self.samples[0]

    # -- results -------------------------------------------------------------

    def coverage_mismatches(self, workload: str, verdicts: int) -> list:
        """Boundaries whose call count is zero where ACTIVE expects calls, or
        the other way round."""
        m = self.layer_metrics(verdicts, 0.0)
        return [
            f"{b}: {m[f'{b}.calls']} calls"
            for b in BOUNDARIES
            if bool(m[f"{b}.calls"]) != (b in ACTIVE[workload])
        ]

    def layer_metrics(self, verdicts: int, overhead_frac: float) -> dict:
        calls = {b: 0 for b in BOUNDARIES}
        self_ns = {b: 0 for b in BOUNDARIES}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        out = {}
        for b in BOUNDARIES:
            out[f"{b}.calls"] = calls[b]
            out[f"{b}.self_s"] = self_ns[b] / 1e9
        out["field.scalar_mul.calls"] = self.scalar_muls[0]
        out["linsys.cells"] = self.cells
        out["unexpected.samples_per_verdict"] = (self.samples[0] - self.samples_before_queries) / max(verdicts, 1)
        out["unexpected.positives"] = self.positives
        out["poly.symbolic.grid_bound"] = self.grid_bound
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)
