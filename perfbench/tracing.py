"""
Per-layer tracing by replacing module attributes; the package is not edited.

Layer entry points get spans (name, parent, start, end), kept in memory and
written out with the worker's result.  The hot leaf calls get plain counters
only, because a span on each of their ~10^5 calls per pass costs more than
the work being measured.  Every call site in the package reaches these
functions through a module attribute or a module global, so replacing the
attribute reroutes all of them.

Self time of a span is its duration minus the durations of its direct child
spans; calls within one process run one at a time, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, function) pairs that get spans: calls, total_s and self_s each
SPANS = (
    ("orbits", "enumerate_orbits"),
    ("orbits", "hasse"),
    ("geometry", "is_smooth_closure"),
    ("geometry", "pyasetskii_dual"),
    ("geometry", "mw_involution"),
    ("bridge", "multiplicity_matrix"),
    ("bridge", "rationally_smooth"),
    ("arthur", "is_arthur_type"),
    ("arthur", "brute_force_arthur"),
    ("classical", "gl_multisegment_of_subset"),
    ("lattice", "stabilizer_component_group"),
    ("lattice", "center_image"),
    ("report", "assemble_report"),
    ("report", "report_json"),
    ("cli", "verify_battery"),
)

# counter metrics and their units; filled by the leaf wrappers below
COUNTERS = (
    ("orbits.closure_leq.calls", "count"),
    ("geometry.tangent_dim_at.calls", "count"),
    ("geometry.symbolic_fallbacks", "count"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.cells", "count"),
    ("linalg.rank.max_cells", "count"),
    ("linalg.nullspace.calls", "count"),
    ("kl.kl_poly.calls", "count"),
    ("kl.table_build_s", "s"),
)

# measured by the benchmark around whole traced passes, not by a wrapper
RUN_METRICS = (
    ("trace.analyze_s", "s"),
    ("trace.overhead", "ratio"),
)

KL_TABLE_N = 6  # kl.table_build_s times the first S_6 table lookup, which builds it


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for mod, fn in SPANS:
        out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.total_s", "s"),
                (f"{mod}.{fn}.self_s", "s")]
    return out + list(COUNTERS) + list(RUN_METRICS)


class Tracer:
    """Spans and counters for one worker process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def install(self) -> None:
        mods = {
            name: importlib.import_module(f"voganlab.{name}")
            for name in ("orbits", "geometry", "bridge", "arthur", "classical",
                         "lattice", "report", "cli", "linalg", "kl")
        }
        for mod, fn in SPANS:
            setattr(mods[mod], fn, self._span(f"{mod}.{fn}", getattr(mods[mod], fn)))
        self._count(mods["orbits"], "closure_leq", "orbits.closure_leq.calls")
        self._count(mods["geometry"], "tangent_dim_at", "geometry.tangent_dim_at.calls")
        self._count(mods["geometry"], "_symbolic_chain_dual", "geometry.symbolic_fallbacks")
        self._count(mods["linalg"], "nullspace", "linalg.nullspace.calls")
        self._wrap_rank(mods["linalg"])
        self._wrap_kl_poly(mods["kl"])

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), None]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def _count(self, module, attr: str, key: str) -> None:
        fn, counts = getattr(module, attr), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def _wrap_rank(self, linalg) -> None:
        fn, counts = linalg.rank, self.counts

        @functools.wraps(fn)
        def rank(m):
            cells = len(m) * len(m[0]) if len(m) else 0
            counts["linalg.rank.calls"] += 1
            counts["linalg.rank.cells"] += cells
            if cells > counts["linalg.rank.max_cells"]:
                counts["linalg.rank.max_cells"] = cells
            return fn(m)

        linalg.rank = rank

    def _wrap_kl_poly(self, kl) -> None:
        self._count(kl, "kl_poly", "kl.kl_poly.calls")
        build, counts, clock = kl._kl_table, self.counts, time.perf_counter

        @functools.wraps(build)
        def first_build(n):
            if n != KL_TABLE_N:
                return build(n)
            kl._kl_table = build  # time the build only, then step aside
            t0 = clock()
            table = build(n)
            counts["kl.table_build_s"] += clock() - t0
            return table

        kl._kl_table = first_build

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_totals(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over one traced analyze and verify pass."""
    out: dict[str, float] = {name: 0 for name, _ in per_layer_metrics()
                             if not name.startswith("trace.")}
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, _parent, t0, t1), covered in zip(spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += t1 - t0
            out[f"{name}.self_s"] += (t1 - t0) - covered
        for key, value in dump["counts"].items():
            if key == "linalg.rank.max_cells":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out
