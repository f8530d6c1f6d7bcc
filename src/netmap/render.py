"""SVG and CSV emission for half-space families and slope graphs.

Certificates are exact; this module only converts them to pictures and
tables, so floating point is acceptable here and nowhere else.
"""
from __future__ import annotations

from collections.abc import Iterable

from .halfspace import HalfSpace, Kind

Pair = tuple[int, int]

_SVG_HEADER = '<?xml version="1.0" encoding="UTF-8"?>'


def halfspaces_svg(spaces: list[HalfSpace], width: int = 800, height: int = 420) -> str:
    """Draw half-space boundaries over the real axis.

    Each half-space contributes exactly one circle or line element;
    when a single outside-circle half-space is present, the complement
    intersection (outside disk minus the inside disks) is shaded with
    an even-odd fill.
    """
    xs: list[float] = [0.0]
    for h in spaces:
        if h.radius is None:
            xs.append(float(h.center))
        else:
            lo, hi = h.endpoints()
            xs.extend((float(lo), float(hi)))
    x_min, x_max = min(xs) - 1.0, max(xs) + 1.0
    span = x_max - x_min
    scale = (width - 40) / span
    axis_y = height - 60.0

    def sx(x: float) -> float:
        return 20 + (x - x_min) * scale

    parts = [
        _SVG_HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<path d="M 0 {axis_y:.1f} H {width}" stroke="#444" stroke-width="1"/>',
    ]

    outs = [h for h in spaces if h.kind is Kind.OUTSIDE_CIRCLE]
    ins = [h for h in spaces if h.kind is Kind.INSIDE_CIRCLE]
    if len(outs) == 1:
        d = []
        for h in [outs[0], *ins]:
            cx, r = sx(float(h.center)), float(h.radius) * scale
            d.append(
                f"M {cx - r:.2f} {axis_y:.2f} "
                f"a {r:.2f} {r:.2f} 0 1 0 {2 * r:.2f} 0 "
                f"a {r:.2f} {r:.2f} 0 1 0 {-2 * r:.2f} 0 Z"
            )
        parts.append(
            f'<path d="{" ".join(d)}" fill="#9ecae1" fill-opacity="0.5" '
            'fill-rule="evenodd" stroke="none"/>'
        )

    for h in spaces:
        label = f"{h.slope} -> {h.image_slope}"
        if h.radius is None:
            x = sx(float(h.center))
            parts.append(
                f'<line x1="{x:.2f}" y1="20" x2="{x:.2f}" y2="{axis_y:.2f}" '
                f'stroke="#d62728" stroke-width="1.5"><title>{label}</title></line>'
            )
        else:
            cx, r = sx(float(h.center)), float(h.radius) * scale
            color = "#1f77b4" if h.kind is Kind.INSIDE_CIRCLE else "#d62728"
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{axis_y:.2f}" r="{r:.2f}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"><title>{label}</title></circle>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def slope_graph_csv(rows: list[tuple[str, Pair | None, str, Pair | None]]) -> str:
    """CSV with exact slope strings alongside decimal approximations.

    A value p/q comes as the integer pair (p, q); repr(p / q) prints the
    float nearest to it, as repr(float(Fraction(p, q))) would.
    """
    return table_csv(["slope", "slope_value", "image", "image_value"], (
        [slope, "" if value is None else repr(value[0] / value[1]),
         image, "" if image_value is None else repr(image_value[0] / image_value[1])]
        for slope, value, image, image_value in rows
    ))


def table_csv(header: list[str], rows: Iterable[list[str]]) -> str:
    """CSV lines ended by CRLF, as ``csv.writer`` writes them.  No field
    here holds a comma, quote or line break, so none is quoted.  The rows
    are consumed one at a time, so only their lines are held at once."""
    return "".join([",".join(header) + "\r\n", *(",".join(row) + "\r\n" for row in rows)])
