"""Spans and counters at the package's layer boundaries, for the traced run.

`install` replaces every `binform` module attribute that refers to one of
the boundary functions below with a wrapper that records a span.  Module
globals are looked up at call time, so the wrappers also see calls made
inside the package, including the `_raw_*` kernels that `wigner` and
`syzygy` import from `polycore`.  Untraced runs never import this module.

A span is (name, parent span, item, start, end), plus the number of terms
a raw kernel returned.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute) of every boundary that gets a span.  `MultiForm._make`
# is wrapped on the class and `NineJArray` through its __init__.
BOUNDARIES = (
    ("polycore", "_raw_mul"),
    ("polycore", "_raw_polarize"),
    ("polycore", "_raw_omega_power"),
    ("polycore", "_raw_substitute"),
    ("polycore", "MultiForm._make"),
    ("polycore", "mul"),
    ("polycore", "omega_power"),
    ("polycore", "add"),
    ("polycore", "scale"),
    ("polycore", "exact_divide"),
    ("transvectant", "transvect"),
    ("syzygy", "verify_table"),
    ("syzygy", "reconstruct"),
    ("syzygy", "_sample_pair"),
    ("syzygy", "kappa"),
    ("syzygy", "kappa_oracle"),
    ("wigner", "NineJArray"),
    ("wigner", "sqrt_factorial_ratio"),
    ("wigner", "ninej_operator"),
    ("wigner", "ninej_triple_sum"),
    ("wigner", "ninej_symmetry_check"),
    ("wigner", "kappa_via_ninej"),
    ("symgroup", "generator_matrices"),
    ("symgroup", "projection_matrix"),
    ("symgroup", "test_conjecture"),
)

RAW_KERNELS = ("_raw_mul", "_raw_polarize", "_raw_omega_power", "_raw_substitute")

_RAW_MOVES = ("wall_s, item_p50_ms, item_tail_ms on recoupling-grid; wall_s on form-syzygies; "
              "no change on sym-relations")
_FORM_MOVES = ("wall_s on form-syzygies; no change on recoupling-grid, whose raw chains "
               "bypass MultiForm, or on sym-relations")
_WIGNER_P50 = "item_p50_ms on recoupling-grid; no change on form-syzygies or sym-relations"
_WIGNER_WALL = ("wall_s, item_tail_ms on recoupling-grid; no change on form-syzygies "
                "or sym-relations")
_SYM_OTHERS = "; no change on recoupling-grid or form-syzygies"

# Every per-layer metric: (name, unit, better, what it should move).
LAYER_METRICS = (
    *((f"polycore.{k}.{stat}", unit, "lower", _RAW_MOVES)
      for k in RAW_KERNELS
      for stat, unit in (("calls", "count"), ("self_s", "s"), ("terms_out", "count"))),
    ("polycore.chain.peak_terms", "count", "lower", _RAW_MOVES),
    *((f"polycore.{f}.self_s", "s", "lower", _FORM_MOVES)
      for f in ("MultiForm._make", "mul", "omega_power", "add", "scale", "exact_divide")),
    ("transvectant.transvect.calls", "count", "lower", "wall_s, item_tail_ms on form-syzygies"),
    ("transvectant.transvect.us_per_call", "us", "lower", "wall_s, item_tail_ms on form-syzygies"),
    ("syzygy.verify_table.self_s", "s", "lower", "wall_s on form-syzygies"),
    ("syzygy.reconstruct.self_s", "s", "lower", "item_tail_ms on form-syzygies"),
    ("syzygy.draw_cache.hit_ratio", "ratio", "higher", "item_p50_ms, peak_rss_mb on form-syzygies"),
    ("syzygy.draw_cache.entries", "count", "lower", "item_p50_ms, peak_rss_mb on form-syzygies"),
    ("syzygy.kappa.us_per_call", "us", "lower", "item_tail_ms on recoupling-grid"),
    ("syzygy.kappa_oracle.us_per_call", "us", "lower", "item_tail_ms on recoupling-grid"),
    ("wigner.NineJArray.us_per_call", "us", "lower", _WIGNER_P50),
    ("wigner.sqrt_factorial_ratio.us_per_call", "us", "lower", _WIGNER_P50),
    ("wigner.sqrt_factorial_ratio.calls", "count", "lower", _WIGNER_P50),
    *((f"wigner.{f}.us_per_call", "us", "lower", _WIGNER_WALL)
      for f in ("ninej_operator", "ninej_triple_sum", "ninej_symmetry_check", "kappa_via_ninej")),
    ("symgroup.generator_matrices.self_s", "s", "lower", "item_p50_ms on sym-relations" + _SYM_OTHERS),
    ("symgroup.projection_matrix.self_s", "s", "lower",
     "wall_s, item_tail_ms on sym-relations" + _SYM_OTHERS),
    ("symgroup.test_conjecture.self_s", "s", "lower", "wall_s on sym-relations" + _SYM_OTHERS),
    *((f"symgroup.{c}_cache.hit_ratio", "ratio", "higher", "peak_rss_mb on sym-relations" + _SYM_OTHERS)
      for c in ("module", "coupling", "character")),
    ("bench.trace_overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list = []
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.terms = array("i")
        self._stack = [-1]
        self._item = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, func, count_terms: bool = False):
        nid = self._name_id(name)
        spans_name, parent, item = self.name, self.parent, self.item
        start, end, terms = self.start, self.end, self.terms
        stack, current_item = self._stack, self._item

        def traced(*args, **kwargs):
            i = len(spans_name)
            spans_name.append(nid)
            parent.append(stack[-1])
            item.append(current_item[0])
            terms.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count_terms:
                terms[i] = len(result)
            return result

        traced.__wrapped__ = func
        return traced

    def run_item(self, index: int, kind: str, fn, args):
        """Run one benchmark item under a root span shared by its children."""
        self._item[0] = index
        return self.wrap(f"bench.item.{kind}", fn)(*args)

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "binform" or n.startswith("binform."))]
        for modname, attr in BOUNDARIES:
            mod = importlib.import_module(f"binform.{modname}")
            span = f"{modname}.{attr}"
            if attr == "MultiForm._make":
                cls = mod.MultiForm
                cls._make = classmethod(self.wrap(span, cls.__dict__["_make"].__func__))
            elif attr == "NineJArray":
                cls = mod.NineJArray
                cls.__init__ = self.wrap(span, cls.__init__)
            else:
                func = getattr(mod, attr)
                traced = self.wrap(span, func, count_terms=attr in RAW_KERNELS)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is func:
                            setattr(m, key, traced)

    def totals(self) -> dict:
        """Per span name: calls, total and self seconds, terms out and the
        largest single output."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "terms_out": 0, "peak_terms": 0}
               for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered[i]
            t = self.terms[i]
            if t >= 0:
                agg["terms_out"] += t
                agg["peak_terms"] = max(agg["peak_terms"], t)
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,item,start_s,end_s,terms_out\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.item[i]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},{self.terms[i]}\n")


def cache_readings() -> dict:
    """Hit counts of the package's caches, read from outside; never cleared."""
    from binform import symgroup, syzygy

    out = {"syzygy.draw_cache.entries": len(syzygy._draw_cache)}
    for label, fn in (("module", symgroup._module), ("coupling", symgroup._coupling),
                      ("character", symgroup.character)):
        info = fn.cache_info()
        looked_up = info.hits + info.misses
        out[f"symgroup.{label}_cache.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
    return out


def layer_metrics(totals: dict, caches: dict) -> dict:
    """Every per-layer metric except bench.trace_overhead_s, which needs the
    untraced run too."""
    def agg(span: str) -> dict:
        return totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "terms_out": 0, "peak_terms": 0})

    out = {}
    for name, _unit, _better, _moves in LAYER_METRICS:
        span, _, stat = name.rpartition(".")
        if name in caches:
            out[name] = caches[name]
        elif name == "polycore.chain.peak_terms":
            out[name] = max(agg(f"polycore.{k}")["peak_terms"] for k in RAW_KERNELS)
        elif name == "syzygy.draw_cache.hit_ratio":
            calls = agg("syzygy._sample_pair")["calls"]
            entries = caches["syzygy.draw_cache.entries"]
            out[name] = (calls - entries) / calls if calls else 0.0
        elif stat == "us_per_call":
            a = agg(span)
            out[name] = 1e6 * a["total_s"] / a["calls"] if a["calls"] else 0.0
        elif stat in ("calls", "self_s", "terms_out"):
            out[name] = agg(span)[stat]
    return out
