"""Spans around hexaform's public functions, recorded from outside the
package, and the per-layer metrics derived from them.

Each traced function is replaced, for the duration of a traced pass, at
every module attribute of the hexaform package that refers to it, so a
call is recorded whichever module looks the name up.  Spans stay in memory
with their parent ids; self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _cells(rows, *_args, **_kw) -> dict:
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _kernel_name(system, *_args, **_kw) -> str:
    return "hexagon.kernel_z" if system.ring is None else "hexagon.kernel_gf"


def _kernel_attrs(system, *_args, **_kw) -> dict:
    ring = system.ring
    return {"q": None if ring is None else ring.q,
            "key": hash((system.triangulation.pentachora, system.triangulation.signs,
                         None if ring is None else (ring.p, ring.n)))}


# (module, function, span name or function of the arguments giving it,
#  function of the arguments giving span attributes)
TRACED = [
    ("linalg", "smith_normal_form", "linalg.snf", _cells),
    ("linalg", "hermite_columns", "linalg.hermite", None),
    ("linalg", "unimodular_inverse", "linalg.unimodular_inverse", None),
    ("hexagon", "build_constraints", "hexagon.build_constraints", None),
    ("hexagon", "solve_permitted", _kernel_name, _kernel_attrs),
    ("hexagon", "gram_matrix", "hexagon.gram", None),
    ("gf", "gf_nullspace", "gf.nullspace", _cells),
    ("invariants", "form_invariants", "invariants.form_invariants", None),
    ("invariants", "probability_distribution", "invariants.distribution", None),
    ("intersect", "solve_2cocycles", "intersect.cocycles", None),
    ("intersect", "cup_gram", "intersect.cup_gram", None),
    ("intersect", "reduced_cup_invariants", "intersect.reduce", None),
    ("triangulation", "find_moves", "triangulation.find_moves", None),
    ("triangulation", "apply_move", "triangulation.apply_move", None),
    ("triangulation", "load", "triangulation.load", None),
    ("cocycles", "is_hexagon_cocycle", "cocycles.check", None),
    ("cocycles", "specialize", "cocycles.specialize", None),
    ("cocycles", "specialize_double", "cocycles.specialize", None),
    ("cocycles", "reference_cubic", "cocycles.specialize", None),
    ("manifolds", "builtin_manifold", "manifolds.builtin", None),
]
# called d^2 times per Gram matrix: counted, not given a span each
COUNTED = [("hexagon", "action_value", "hexagon.action_value_calls")]

# per-layer metrics that are counts; they must repeat exactly for a seed
COUNT_METRICS = (
    "linalg.snf_calls", "linalg.snf_cells", "hexagon.action_value_calls",
    "hexagon.kernel_reuse_ratio", "gf.nullspace_cells", "gf.table_builds",
    "invariants.colorings", "triangulation.find_moves_calls", "cocycles.colorings",
)


class Tracer:
    """Records spans while installed (`with tracer:`); restores every
    patched attribute on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            span = self.open(span_name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            _record_result(span, result)
            return result
        return wrapper

    def _count(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_table(self, fn):
        @functools.wraps(fn)
        def wrapper(gf, name, build):
            if name in gf._tables:
                return fn(gf, name, build)
            span = self.open("gf.table", {"table": name, "q": gf.q})
            try:
                return fn(gf, name, build)
            finally:
                self.close(span)
        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hexaform" and not mod_name.startswith("hexaform."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        import hexaform.gf
        for mod, fn_name, name, attrs_of in TRACED:
            original = getattr(sys.modules[f"hexaform.{mod}"], fn_name)
            self._patch_everywhere(original, self._wrap(original, name, attrs_of))
        for mod, fn_name, counter in COUNTED:
            original = getattr(sys.modules[f"hexaform.{mod}"], fn_name)
            self._patch_everywhere(original, self._count(original, counter))
        gf_cls = hexaform.gf.GF
        self._patched.append((gf_cls, "_table", gf_cls._table))
        gf_cls._table = self._wrap_table(gf_cls._table)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _record_result(span: Span, result) -> None:
    if span.name.startswith("hexagon.kernel"):
        span.attrs["dim"] = result.dim
    elif span.name == "invariants.distribution":
        span.attrs["colorings"] = result.total


# --- derived metrics --------------------------------------------------------


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children = _children(spans)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def inclusive_time(spans: list[Span], name: str) -> float:
    """Total duration of spans of this name, not counting a span nested in
    another of the same name twice."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False
    return sum(s.end - s.start for s in spans if s.name == name and not nested(s))


def _descendant(spans_by_parent: dict, span: Span, prefix: str) -> Span | None:
    for c in spans_by_parent.get(span.id, ()):
        if c.name.startswith(prefix):
            return c
        found = _descendant(spans_by_parent, c, prefix)
        if found is not None:
            return found
    return None


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    incl = functools.partial(inclusive_time, spans)

    def self_of(name: str) -> float:
        return sum(selfs[s.id] for s in spans if s.name == name)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    by_parent = _children(spans)
    by_id = {s.id: s for s in spans}

    def root(s: Span) -> int:
        while s.parent is not None:
            s = by_id[s.parent]
        return s.id
    kernels = [s for s in spans if s.name.startswith("hexagon.kernel")]
    # a kernel solved twice within one command is wasted work
    solves = {(root(s), s.attrs["key"]) for s in kernels}
    check_colorings = 0
    for s in named("cocycles.check"):
        k = _descendant(by_parent, s, "hexagon.kernel_gf")
        if k is not None and "dim" in k.attrs:
            check_colorings += k.attrs["q"] ** k.attrs["dim"]
    colorings = sum(s.attrs.get("colorings", 0) for s in named("invariants.distribution"))
    dist_self = self_of("invariants.distribution")
    return {
        "linalg.snf_s": incl("linalg.snf"),
        "linalg.snf_calls": len(named("linalg.snf")),
        "linalg.snf_cells": sum(s.attrs["cells"] for s in named("linalg.snf")),
        "linalg.hermite_s": incl("linalg.hermite"),
        "linalg.unimodular_inverse_s": incl("linalg.unimodular_inverse"),
        "hexagon.build_constraints_s": incl("hexagon.build_constraints"),
        "hexagon.kernel_z_s": incl("hexagon.kernel_z"),
        "hexagon.kernel_gf_s": incl("hexagon.kernel_gf"),
        "hexagon.gram_self_s": self_of("hexagon.gram"),
        "hexagon.action_value_calls": counts["hexagon.action_value_calls"],
        "hexagon.kernel_reuse_ratio": len(solves) / len(kernels) if kernels else 1.0,
        "gf.nullspace_s": incl("gf.nullspace"),
        "gf.nullspace_cells": sum(s.attrs["cells"] for s in named("gf.nullspace")),
        "gf.table_builds": len(named("gf.table")),
        "gf.tables_s": incl("gf.table"),
        "invariants.form_invariants_s": incl("invariants.form_invariants"),
        "invariants.distribution_self_s": dist_self,
        "invariants.colorings": colorings,
        "invariants.colorings_per_s": colorings / dist_self if dist_self > 0 else 0.0,
        "intersect.cocycles_s": incl("intersect.cocycles"),
        "intersect.cup_gram_self_s": self_of("intersect.cup_gram"),
        "intersect.reduce_self_s": self_of("intersect.reduce"),
        "triangulation.find_moves_s": incl("triangulation.find_moves"),
        "triangulation.find_moves_calls": len(named("triangulation.find_moves")),
        "triangulation.apply_move_s": incl("triangulation.apply_move"),
        "triangulation.load_s": incl("triangulation.load"),
        "cocycles.check_s": incl("cocycles.check"),
        "cocycles.colorings": check_colorings,
        "cocycles.specialize_s": incl("cocycles.specialize"),
        "manifolds.builtin_s": incl("manifolds.builtin"),
        "cli.self_s": self_of("cli.op"),
    }


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass, whose inputs depend only on the seed;
    times as medians over all traced passes."""
    return {name: (per_pass[0][name] if name in COUNT_METRICS
                   else statistics.median(p[name] for p in per_pass))
            for name in per_pass[0]}
