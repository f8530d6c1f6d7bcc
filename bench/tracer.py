"""Per-layer tracing of netmap from outside the package.

``install()`` replaces functions of the imported netmap modules with
timing and counting wrappers.  Every binding of a wrapped function is
replaced, including the copies made by ``from .x import f`` in other
modules (``pullback_slope`` alone is bound in ``slopefn``, ``cli``,
``obstruction``, ``halfspace``, ``symmetry`` and the package).  Nothing
in the package itself changes.

A span is recorded around each call of a wrapped function: name, parent
span, start, end and busy time.  For a generator the span covers every
resumption, and busy time is the time spent inside them.  Self time is
busy time minus the busy time of the span's children.  The hottest
functions (``__hash__``, ``ClassTable.key``, ``_line_hit``, ``_reach``)
are only counted, so that their wrappers stay cheap.  Spans are kept in
memory and handed back once the command is done.

This program has no queue anywhere, so no span has a waiting time.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

_now = time.perf_counter

# (module, attribute, span name, is a generator).  A span name starts
# with its layer, which is a netmap module.
SPANS = [
    ("netmap.presentation", "parse", "presentation.parse", False),
    ("netmap.lattice", "order_in_quotient", "lattice.order", False),
    ("netmap.pullback", "analyze_slope", "pullback.analyze", False),
    ("netmap.slopefn", "pullback_slope", "slopefn.pullback", False),
    ("netmap.slopefn", "zigzag_trace", "slopefn.zigzag", False),
    ("netmap.slopefn", "segment_candidates", "slopefn.segment", True),
    ("netmap.slopefn", "_walk_to_marked", "slopefn.walk", False),
    ("netmap.slopefn", "mirror_crossings", "slopefn.mirror_crossings", False),
    ("netmap.geometry", "interior_crossings", "geometry.crossings", False),
    ("netmap.geometry", "_parallelogram_candidates", "geometry.candidates", True),
    ("netmap.geometry", "mirror_midpoint_at", "geometry.midpoint", False),
    ("netmap.geometry", "_check_degenerate_incidence", "geometry.degenerate_check", False),
    ("netmap.halfspace", "exclusion_halfspace", "halfspace.build", False),
    ("netmap.halfspace", "cover_certificate", "halfspace.cover", False),
    ("netmap.obstruction", "find_fixed_slopes", "obstruction.fixed_scan", False),
    ("netmap.obstruction", "_greedy_cover", "obstruction.greedy", False),
    ("netmap.obstruction", "_prune", "obstruction.prune", False),
    ("netmap.obstruction", "check_certificate", "obstruction.verify", False),
    ("netmap.nonsep", "search_nonseparating", "nonsep.search", False),
    ("netmap.nonsep", "cyclic_pairs", "nonsep.pairs", False),
    ("netmap.nonsep", "_coset_value_maps", "nonsep.value_maps", False),
    ("netmap.render", "slope_graph_csv", "render.csv", False),
    ("netmap.cli", "cmd_slope", "cli", False),
    ("netmap.cli", "cmd_obstructions", "cli", False),
]

# Methods timed as spans: (module, class, method, span name).
METHOD_SPANS = [("netmap.quadext", "QuadExt", "_cmp", "quadext.cmp")]

# Methods and functions that are only counted.
METHOD_COUNTS = [
    ("netmap.presentation", "NetMapPresentation", "__hash__", "presentation.hash_calls"),
    ("netmap.presentation", "ClassTable", "key", "presentation.key_calls"),
]


class Tracer:
    """Span and counter store for the command running in this process."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, parent, start, end, busy, child, nested]
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.heights: list[tuple[int, int]] = []  # (zigzag record, slope height)
        self.missing: list[str] = []
        self.t0 = _now()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.records.append([name, parent, None, None, 0.0, 0.0, self.depth[name] > 0])
        return len(self.records) - 1

    def resume(self, idx: int) -> float:
        rec = self.records[idx]
        self.stack.append(idx)
        self.depth[rec[0]] += 1
        t = _now()
        if rec[2] is None:
            rec[2] = t
        return t

    def suspend(self, idx: int, started: float) -> None:
        t = _now()
        rec = self.records[idx]
        rec[3] = t
        rec[4] += t - started
        self.stack.pop()
        self.depth[rec[0]] -= 1
        if self.stack:
            self.records[self.stack[-1]][5] += t - started

    def spans(self, command: int) -> list[dict]:
        """Finished spans, times in seconds from the tracer's start."""
        return [
            {
                "cmd": command,
                "id": i,
                "name": name,
                "parent": parent,
                "start": round(start - self.t0, 7),
                "end": round(end - self.t0, 7),
                "busy": round(busy, 7),
            }
            for i, (name, parent, start, end, busy, _child, _nested) in enumerate(self.records)
            if start is not None
        ]


TRACER = Tracer()


def _span(fn, name: str, on_return=None, on_raise=None):
    tr = TRACER

    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        started = tr.resume(idx)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.suspend(idx, started)
            if on_raise is not None:
                on_raise(exc)
            raise
        tr.suspend(idx, started)
        if on_return is not None:
            on_return(idx, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _span_generator(fn, name: str, on_item=None):
    tr = TRACER

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        idx = tr.open(name)

        def resumed():
            while True:
                started = tr.resume(idx)
                try:
                    item = next(inner)
                except StopIteration:
                    tr.suspend(idx, started)
                    return
                except BaseException:
                    tr.suspend(idx, started)
                    raise
                tr.suspend(idx, started)
                if on_item is not None:
                    on_item()
                yield item

        return resumed()

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(fn, key: str):
    counts = TRACER.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original, replacement) -> None:
    """Replace every netmap module global that is ``original``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "netmap" or modname.startswith("netmap.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(modname: str, attr: str, cls_name: str | None = None):
    """(owner, function) for a module attribute or a class method; the
    function is None when a later version of netmap no longer has it."""
    owner = sys.modules.get(modname)
    if cls_name is not None:
        owner = getattr(owner, cls_name, None)
    fn = vars(owner).get(attr) if owner is not None else None
    if fn is None:
        TRACER.missing.append(".".join(filter(None, (modname, cls_name, attr))))
    return owner, fn


def install() -> Tracer:
    """Wrap netmap's layer functions; call once, after ``import netmap``."""
    from netmap.errors import (
        BudgetExceededError,
        DegenerateIncidenceError,
        NonTransverseError,
    )
    from netmap.nonsep import inversion_classes

    tr = TRACER
    counts = tr.counts

    def zigzag_done(idx, args, result):
        if result is not None:
            counts["slopefn.zigzag_evaluations"] += 1
            tr.heights.append((idx, args[1].height()))

    def crossings_done(idx, args, result):
        counts["geometry.crossings_found"] += len(result)

    def retried(exc):
        if isinstance(exc, (NonTransverseError, DegenerateIncidenceError)):
            counts["slopefn.segment_retries"] += 1

    def greedy_done(idx, args, result):
        counts["obstruction.candidates"] += len(args[0])

    def value_maps_done(idx, args, result):
        # Runs inside the caller's span: about 1% of nonsep.search_s on census.
        classes = inversion_classes(args[0])
        counts["nonsep.value_maps"] += len(result)
        counts["nonsep.distinct_value_maps"] += len(
            {tuple(m[c] for c in classes) for m in result}
        )

    def search_failed(exc):
        if isinstance(exc, BudgetExceededError):
            counts["nonsep.budget_skips"] += 1

    hooks = {
        "slopefn.zigzag": dict(on_return=zigzag_done),
        "geometry.crossings": dict(on_return=crossings_done),
        "slopefn.mirror_crossings": dict(on_raise=retried),
        "obstruction.greedy": dict(on_return=greedy_done),
        "nonsep.value_maps": dict(on_return=value_maps_done),
        "nonsep.search": dict(on_raise=search_failed),
    }

    def candidate_yielded():
        counts["geometry.candidates"] += 1

    for modname, attr, name, is_gen in SPANS:
        _, fn = _lookup(modname, attr)
        if fn is None:
            continue
        if is_gen:
            on_item = candidate_yielded if name == "geometry.candidates" else None
            _rebind(fn, _span_generator(fn, name, on_item))
        else:
            _rebind(fn, _span(fn, name, **hooks.get(name, {})))

    for modname, cls_name, meth, name in METHOD_SPANS:
        cls, fn = _lookup(modname, meth, cls_name)
        if fn is not None:
            setattr(cls, meth, _span(fn, name))

    for modname, cls_name, meth, key in METHOD_COUNTS:
        cls, fn = _lookup(modname, meth, cls_name)
        if fn is not None:
            setattr(cls, meth, _counted(fn, key))

    _, line_hit = _lookup("netmap.geometry", "_line_hit")
    if line_hit is not None:
        def line_hit_counted(*args):
            result = line_hit(*args)
            if result is not None:
                counts["geometry.hits"] += 1
            return result

        _rebind(line_hit, line_hit_counted)

    _, reach = _lookup("netmap.obstruction", "_reach")
    if reach is not None:
        _rebind(reach, _counted(reach, "obstruction.reach_calls"))

    nonsep, combinations = _lookup("netmap.nonsep", "combinations")
    if combinations is not None:
        def combinations_counted(items, r):
            for combo in combinations(items, r):
                counts["nonsep.subsets_checked"] += 1
                yield combo

        nonsep.combinations = combinations_counted
    return tr


# ---------------------------------------------------------------------------
# Per-layer metrics of one command


def _self_times(records) -> tuple[dict, dict, dict]:
    """Per span name: call count, outermost busy time, self time."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for name, _parent, start, _end, b, child, nested in records:
        if start is None:
            continue
        calls[name] += 1
        own[name] += b - child
        if not nested:
            busy[name] += b
    return calls, busy, own


def command_metrics(tr: Tracer) -> dict:
    """Raw per-command sums, added up over the commands of a sample."""
    calls, busy, own = _self_times(tr.records)
    recs = tr.records
    walk_outside = sum(
        r[4] for r in recs
        if r[0] == "slopefn.walk" and r[2] is not None
        and (r[1] < 0 or recs[r[1]][0] != "slopefn.segment")
    )
    out = {f"calls:{k}": v for k, v in calls.items()}
    out.update({f"busy:{k}": v for k, v in busy.items()})
    out.update({f"self:{k}": v for k, v in own.items()})
    out.update(dict(tr.counts))
    out["segment_walk_outside_s"] = walk_outside
    return out


def height_points(tr: Tracer) -> list[tuple[int, float]]:
    """(height, zigzag busy seconds) for every slope the zigzag evaluated."""
    return [(h, tr.records[idx][4]) for idx, h in tr.heights]


def log_log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(height)."""
    pts = [(math.log(h), math.log(t)) for h, t in points if h > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, heights: list[tuple[int, float]]) -> dict:
    """The per-layer metrics of one sample from its summed raw values."""
    g = raw.get
    calls = lambda name: g(f"calls:{name}", 0)  # noqa: E731
    busy = lambda name: g(f"busy:{name}", 0.0)  # noqa: E731
    own = lambda name: g(f"self:{name}", 0.0)  # noqa: E731
    pullback_calls = calls("slopefn.pullback")
    zigzag_calls = calls("slopefn.zigzag")
    candidates = g("geometry.candidates", 0)
    crossings = g("geometry.crossings_found", 0)
    evaluations = g("slopefn.zigzag_evaluations", 0)
    value_maps = g("nonsep.value_maps", 0)
    return {
        "presentation.parse_s": busy("presentation.parse"),
        "presentation.hash_calls": g("presentation.hash_calls", 0),
        "presentation.key_calls": g("presentation.key_calls", 0),
        "lattice.order_calls": calls("lattice.order"),
        "lattice.order_s": busy("lattice.order"),
        "pullback.analyze_calls": calls("pullback.analyze"),
        "pullback.analyze_s": busy("pullback.analyze"),
        "slopefn.pullback_calls": pullback_calls,
        "slopefn.zigzag_calls": zigzag_calls,
        "slopefn.memo_hit_ratio": _ratio(pullback_calls - zigzag_calls, pullback_calls),
        "slopefn.segment_s": busy("slopefn.segment") + g("segment_walk_outside_s", 0.0),
        "slopefn.segment_retries": g("slopefn.segment_retries", 0),
        "slopefn.zigzag_self_s": own("slopefn.zigzag"),
        "slopefn.height_exponent": log_log_slope(heights),
        "geometry.crossings_calls": calls("geometry.crossings"),
        "geometry.crossings_self_s": own("geometry.crossings"),
        "geometry.candidates": candidates,
        "geometry.candidates_s": busy("geometry.candidates"),
        "geometry.hits": g("geometry.hits", 0),
        "geometry.hit_ratio": _ratio(g("geometry.hits", 0), candidates),
        "geometry.crossings_per_slope": _ratio(crossings, evaluations),
        "geometry.us_per_crossing": _ratio(busy("geometry.crossings") * 1e6, crossings),
        "geometry.midpoint_s": busy("geometry.midpoint"),
        "geometry.degenerate_check_s": busy("geometry.degenerate_check"),
        "halfspace.build_calls": calls("halfspace.build"),
        "halfspace.build_s": busy("halfspace.build"),
        "halfspace.cover_calls": calls("halfspace.cover"),
        "halfspace.cover_s": busy("halfspace.cover"),
        "quadext.cmp_calls": calls("quadext.cmp"),
        "quadext.cmp_s": busy("quadext.cmp"),
        "obstruction.candidates": g("obstruction.candidates", 0),
        "obstruction.fixed_scan_s": busy("obstruction.fixed_scan"),
        "obstruction.greedy_s": busy("obstruction.greedy"),
        "obstruction.reach_calls": g("obstruction.reach_calls", 0),
        "obstruction.prune_s": busy("obstruction.prune"),
        "obstruction.verify_s": busy("obstruction.verify"),
        "nonsep.search_s": busy("nonsep.search"),
        "nonsep.pairs_s": busy("nonsep.pairs"),
        "nonsep.value_maps_s": busy("nonsep.value_maps"),
        "nonsep.value_maps": value_maps,
        "nonsep.distinct_value_maps": g("nonsep.distinct_value_maps", 0),
        "nonsep.distinct_ratio": _ratio(g("nonsep.distinct_value_maps", 0), value_maps),
        "nonsep.subsets_checked": g("nonsep.subsets_checked", 0),
        "nonsep.budget_skips": g("nonsep.budget_skips", 0),
        "cli.self_s": own("cli"),
        "render.csv_s": busy("render.csv"),
    }
