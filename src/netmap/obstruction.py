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
    LeftoverPoint,
    _reach,
    boundary_interval,
    cover_certificate,
    exclusion_halfspace,
)
from .presentation import NetMapPresentation
from .pullback import analyze_slope
from .slope import Slope, enumerate_slopes
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


def _slope_of_boundary_point(point: LeftoverPoint) -> Slope:
    """The slope whose boundary point -q/p equals the given rational."""
    if point.value == INFINITY_POINT:
        return Slope(0, 1)
    x = point.value.as_fraction()
    # -q/p = x  =>  slope p/q with p = denominator, q = -numerator.
    return Slope.of(x.denominator, -x.numerator)


def _dispose_leftovers(
    pres: NetMapPresentation, verdict: CoverVerdict
) -> tuple[tuple[Disposition, ...], tuple[Slope, Fraction] | None]:
    """Check each leftover point; return dispositions or an obstruction."""
    dispositions = []
    for point in verdict.leftover_points:
        if not point.rational:
            dispositions.append(Disposition(str(point), "irrational"))
            continue
        s = _slope_of_boundary_point(point)
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
    """Re-verify a certificate from scratch.

    Rebuilds every half-space from its source slope, recomputes the
    cover verdict, and re-checks the leftover dispositions, all on an
    equal presentation with a fresh context, so the check shares no
    memoised images or summaries with the code that built ``cert``.
    """
    pres = replace(pres)
    rebuilt = []
    for h in cert.halfspaces:
        fresh = exclusion_halfspace(pres, h.slope)
        if fresh != h:
            return False
        rebuilt.append(fresh)
    verdict = cover_certificate(rebuilt)
    if verdict.uncovered_intervals:
        return False
    dispositions, obstruction = _dispose_leftovers(pres, verdict)
    if obstruction is not None:
        return False
    return {d.point for d in dispositions} == {
        str(p) for p in verdict.leftover_points
    }


def _greedy_cover(candidates: list[HalfSpace], budget: int):
    """Select a small subfamily whose boundary sets cover, greedily.

    Starts from the outside-circle candidate with the narrowest excluded
    interval, then repeatedly picks the candidate reaching furthest to
    the right from the current frontier.  Returns the selection or None.
    """
    bounds = [boundary_interval(h) for h in candidates]
    outs = [i for i, arc in enumerate(bounds) if arc.wraps]
    if not outs or budget < 1:
        return None
    base = min(outs, key=lambda i: (candidates[i].radius.square(), i))
    base_arc = bounds[base]
    selected = [base]
    cur = base_arc.end
    while len(selected) < budget:
        best = None
        best_reach = None
        for i, arc in enumerate(bounds):
            if i in selected:
                continue
            r = _reach(arc, cur)
            if r is None:
                continue
            tangent, end = r
            # Reaching infinity first, then the furthest end (None == None
            # for two such keys), then strict over tangent.
            key = (end is None, end, not tangent)
            if best is None or key > best_reach:
                best, best_reach = i, key
        if best is None:
            return None
        selected.append(best)
        to_infinity, end, _strict = best_reach
        if to_infinity or end > base_arc.start:
            return [candidates[i] for i in selected]
        if end == cur:
            return None
        cur = end
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
    re-verified cover certificate.  Inconclusive otherwise.
    """
    for s, mult in find_fixed_slopes(pres, height):
        if mult >= 1:
            return ObstructionReport(
                Status.OBSTRUCTED, obstruction=(s, mult), height=height
            )

    candidates = []
    for s in enumerate_slopes(height):
        h = exclusion_halfspace(pres, s)
        if h is not None:
            candidates.append(h)
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
