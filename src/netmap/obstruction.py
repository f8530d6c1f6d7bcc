"""Obstruction search: fixed slopes with multiplier at least one, and
no-obstruction certificates from half-space covers.

An invariant curve gives an obstruction exactly when its slope is fixed
by the induced slope map and its multiplier is >= 1.  Certificates of
non-existence cover the extended reals by open half-space boundary
sets; slopes beyond any search height are excluded by the cover alone,
never by enumeration.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from .halfspace import (
    INFINITY_POINT,
    CoverVerdict,
    HalfSpace,
    _reach,
    boundary_interval,
    cover_certificate,
    exclusion_halfspace,
)
from .presentation import NetMapPresentation
from .pullback import analyze_slope
from .quadext import QuadExt
from .slope import INFINITY, Slope, boundary_point, enumerate_slopes
from .slopefn import pullback_slope


def find_fixed_slopes(
    pres: NetMapPresentation, height: int
) -> list[tuple[Slope, Fraction]]:
    """Enumerated slopes fixed by the slope map, with their multipliers."""
    fixed = []
    for s in enumerate_slopes(height):
        if pullback_slope(pres, s) == s:
            fixed.append((s, analyze_slope(pres, s).multiplier))
    return fixed


@dataclass(frozen=True)
class Disposition:
    """Why a leftover boundary point is not an obstruction slope."""

    point: str
    reason: str  # "irrational" | "not-fixed" | "multiplier-below-one"
    slope: Slope | None = None
    multiplier: Fraction | None = None


@dataclass(frozen=True)
class Certificate:
    halfspaces: tuple[HalfSpace, ...]
    verdict: CoverVerdict
    dispositions: tuple[Disposition, ...]


class Status(enum.Enum):
    OBSTRUCTED = "OBSTRUCTED"
    UNOBSTRUCTED = "UNOBSTRUCTED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ObstructionReport:
    status: Status
    obstruction: tuple[Slope, Fraction] | None = None
    certificate: Certificate | None = None
    height: int = 0
    diagnostics: str = ""


def _dispose_leftovers(
    pres: NetMapPresentation, verdict: CoverVerdict
) -> tuple[tuple[Disposition, ...], tuple[Slope, Fraction] | None]:
    """Check each leftover point; return dispositions or an obstruction."""
    dispositions = []
    for point in verdict.leftover_points:
        if not point.rational:
            dispositions.append(Disposition(str(point), "irrational"))
            continue
        x = point.value
        s = boundary_point(
            INFINITY if x == INFINITY_POINT else Slope.of(*x.as_fraction().as_integer_ratio())
        )
        if pullback_slope(pres, s) != s:
            dispositions.append(Disposition(str(point), "not-fixed", s))
            continue
        mult = analyze_slope(pres, s).multiplier
        if mult < 1:
            dispositions.append(
                Disposition(str(point), "multiplier-below-one", s, mult)
            )
            continue
        return (), (s, mult)
    return tuple(dispositions), None


def certificate_for_slopes(
    pres: NetMapPresentation, slopes: list[Slope]
) -> tuple[Certificate | None, tuple[Slope, Fraction] | None]:
    """Build and check a certificate from an explicit slope list.

    Returns (certificate, None) on success, (None, None) when the
    boundary sets do not cover, and (None, obstruction) if a leftover
    point turns out to be an actual obstruction.
    """
    spaces = []
    for s in slopes:
        h = exclusion_halfspace(pres, s)
        if h is None:
            raise ValueError(f"slope {s} yields no half-space (fixed or inessential)")
        spaces.append(h)
    verdict = cover_certificate(spaces)
    if not verdict.certifiable:
        return None, None
    dispositions, obstruction = _dispose_leftovers(pres, verdict)
    if obstruction is not None:
        return None, obstruction
    return Certificate(tuple(spaces), verdict, dispositions), None


def check_certificate(pres: NetMapPresentation, cert: Certificate) -> bool:
    """Re-verify a certificate by rebuilding it from its source slopes.

    The rebuild runs on an equal presentation with a fresh context, so
    it shares no memoised images or class memos with the code that
    built ``cert``.  True exactly when it gives ``cert`` back: the same
    half-spaces, cover verdict and leftover dispositions.  A slope that
    yields no half-space, and a certificate with none, give False.
    """
    try:
        rebuilt, _ = certificate_for_slopes(replace(pres), [h.slope for h in cert.halfspaces])
    except ValueError:
        return False
    return rebuilt == cert


def _order(x: QuadExt | None, y: QuadExt | None) -> int:
    """Sign of x - y for arc ends (``None`` is infinity)."""
    if x is None or y is None:
        return (x is None) - (y is None)
    return x._cmp(y)


def _greedy_cover(candidates: list[HalfSpace], budget: int):
    """Select a small subfamily whose boundary sets cover, greedily.

    Starts from the outside-circle candidate with the narrowest excluded
    interval, then repeatedly picks the candidate reaching furthest to
    the right from the current frontier; the first of equal candidates
    wins.  Returns the selection or None.

    Each arc's ends are placed against the frontier by their integer
    boxes; ``_reach`` and the exact sign algorithm decide only what the
    boxes leave open.
    """
    bounds = [boundary_interval(h) for h in candidates]
    outs = [i for i, arc in enumerate(bounds) if arc.wraps]
    if not outs:
        return None
    boxes = [
        [None if e is None else e._bounds() for e in (arc.start, arc.end)] for arc in bounds
    ]
    base = min(outs, key=lambda i: (candidates[i].radius, i))
    base_arc = bounds[base]
    selected = [base]
    cur = base_arc.end
    while len(selected) < budget:
        lo, hi = cur._bounds()
        best = None
        for i, arc in enumerate(bounds):
            if i in selected:
                continue
            # Where the boxes put the start and the end against cur: -1
            # below, 1 above, 0 open.  A missing start or end is infinity.
            start_box, end_box = boxes[i]
            s = -1 if start_box is None or start_box[1] < lo else int(start_box[0] > hi)
            e = 1 if end_box is None or end_box[0] > hi else -int(end_box[1] < lo)
            if arc.wraps and s < 0:  # past the start: on through infinity
                tangent, end = False, None
            elif (s < 0 or arc.wraps) and e > 0:  # inside, before the end
                tangent, end = False, arc.end
            elif (s > 0 and e < 0) if arc.wraps else (s > 0 or e < 0):  # outside
                continue
            elif (r := _reach(arc, cur)) is None:
                continue
            else:
                tangent, end = r
            # The furthest end wins, then strict over tangent.
            if best is None or (c := _order(end, best_end)) > 0 or (
                c == 0 and best_tangent and not tangent
            ):
                best, best_tangent, best_end = i, tangent, end
        if best is None:
            return None
        selected.append(best)
        if _order(best_end, base_arc.start) > 0:
            return [candidates[i] for i in selected]
        cur = best_end
    return None


def _prune(pres, slopes: list[Slope]) -> list[Slope]:
    """Drop half-spaces whose removal keeps the certificate valid."""
    kept = list(slopes)
    for s in list(reversed(kept[1:])):
        trial = [t for t in kept if t != s]
        cert, _ = certificate_for_slopes(pres, trial)
        if cert is not None:
            kept = trial
    return kept


def obstruction_report(
    pres: NetMapPresentation, height: int = 20, budget: int = 12
) -> ObstructionReport:
    """Search for obstructions and try to certify their absence.

    Obstructed when some fixed slope (up to the height, or discovered
    as a leftover point) has multiplier >= 1.  Unobstructed only with a
    re-verified cover certificate.  Inconclusive otherwise.  A budget
    below one is refused before any slope is computed.
    """
    if budget < 1:
        raise ValueError("budget must be a positive integer")
    for s, mult in find_fixed_slopes(pres, height):
        if mult >= 1:
            return ObstructionReport(
                Status.OBSTRUCTED, obstruction=(s, mult), height=height
            )

    spaces = (exclusion_halfspace(pres, s) for s in enumerate_slopes(height))
    candidates = [h for h in spaces if h is not None]
    if not candidates:
        return ObstructionReport(
            Status.INCONCLUSIVE,
            height=height,
            diagnostics="no half-spaces available (every slope fixed or inessential)",
        )

    selected = _greedy_cover(candidates, budget)
    if selected is None:
        return ObstructionReport(
            Status.INCONCLUSIVE,
            height=height,
            diagnostics=(
                f"no cover within budget {budget} from {len(candidates)} candidates"
            ),
        )
    slopes = _prune(pres, [h.slope for h in selected])
    cert, obstruction = certificate_for_slopes(pres, slopes)
    if obstruction is not None:
        return ObstructionReport(
            Status.OBSTRUCTED, obstruction=obstruction, height=height
        )
    if cert is None or not check_certificate(pres, cert):
        return ObstructionReport(
            Status.INCONCLUSIVE,
            height=height,
            diagnostics="greedy cover failed exact verification",
        )
    return ObstructionReport(Status.UNOBSTRUCTED, certificate=cert, height=height)
