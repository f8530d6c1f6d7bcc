"""Command line interface.

Subcommands operate on presentation files:

    netmap analyze FILE (--slope P/Q | --table) [--format text|csv]
    netmap slope FILE (SLOPE | --graph QMAX) [--out PATH]
    netmap obstructions FILE ([--height N] [--budget B] | --slopes LIST)
                             [--svg PATH]
    netmap equations FILE (SLOPE | --affine "a,b;c,d;tx,ty") [--check N]
    netmap nonsep M,N (--check "(h1);(h2);(h3);(h4)" | --search | --refute)

Exit codes: 0 success, 2 input or validation error (also a segment that
still meets a degenerate mirror point after retries), 3 geometric failure
(non-transverse segments after retries, or no usable zigzag segment or an
inconsistent zigzag sum), 4 unsupported affine symmetry.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import nonsep as ns
from . import obstruction as ob
from . import render
from . import symmetry as sy
from .errors import (
    MirrorsNotStabilizedError,
    NetMapError,
    NonTransverseError,
    PresentationSyntaxError,
    ValidationError,
    ZigzagError,
)
from .presentation import NetMapPresentation, parse
from .pullback import analyze_slope
from .slope import Slope
from .slopefn import pullback_slope, slope_graph_rows

# Representative slopes for the eight residue classes of the bundled
# degree-10 example, in the row order of its pullback table.
MAIN_TABLE_SLOPES = ["1/1", "2/1", "1/3", "1/4", "-1/2", "3/4", "7/6", "1/8"]


def _load(path: str) -> NetMapPresentation:
    return parse(Path(path).read_text(encoding="utf-8"))


def _summary_text(summary) -> str:
    c = ",".join(str(x) for x in summary.coset_numbers)
    return (
        f"d={summary.d} d'={summary.d_prime} c=({c}) "
        f"ess={summary.essential} per={summary.peripheral} "
        f"null={summary.null_homotopic} delta={summary.multiplier}"
    )


def cmd_analyze(args) -> int:
    pres = _load(args.file)
    if args.table:
        slopes = [Slope.parse(s) for s in MAIN_TABLE_SLOPES]
    elif args.slope:
        slopes = [Slope.parse(args.slope)]
    else:
        print("analyze needs --slope or --table", file=sys.stderr)
        return 2
    if args.format == "csv":
        header = ["slope", "d", "d_prime", "c1", "c2", "c3", "c4",
                  "essential", "peripheral", "null", "delta"]
        rows = []
        for s in slopes:
            m = analyze_slope(pres, s)
            rows.append([str(s), str(m.d), str(m.d_prime), *map(str, m.coset_numbers),
                         str(m.essential), str(m.peripheral), str(m.null_homotopic),
                         str(m.multiplier)])
        sys.stdout.write(render.table_csv(header, rows))
    else:
        for s in slopes:
            m = analyze_slope(pres, s)
            prefix = f"{s}: " if args.table else ""
            print(prefix + _summary_text(m))
    return 0


def cmd_slope(args) -> int:
    pres = _load(args.file)
    if args.graph is not None:
        rows = slope_graph_rows(pres, args.graph)
        text = render.slope_graph_csv(rows)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote {len(rows)} rows to {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.value is None:
        print("slope needs a SLOPE or --graph", file=sys.stderr)
        return 2
    image = pullback_slope(pres, Slope.parse(args.value))
    print(image)
    return 0


def _render_halfspace(h) -> str:
    r = "-" if h.radius is None else str(h.radius)
    return (
        f"slope {h.slope} -> {h.image_slope} delta={h.delta} "
        f"{h.kind.value} C={h.center} R={r}"
    )


def cmd_obstructions(args) -> int:
    if args.slopes and (args.height is not None or args.budget is not None):
        raise ValueError("obstructions --slopes takes no --height or --budget")
    pres = _load(args.file)
    if args.slopes:
        slopes = [Slope.parse(tok) for tok in args.slopes.split(",")]
        cert, obstruction = ob.certificate_for_slopes(pres, slopes)
        if obstruction is None and cert is None:
            print("INCONCLUSIVE (given half-spaces do not cover)")
            return 0
        if obstruction is None and not ob.check_certificate(pres, cert):
            print("INCONCLUSIVE (certificate failed re-verification)")
            return 0
    else:
        report = ob.obstruction_report(
            pres, height=20 if args.height is None else args.height,
            budget=12 if args.budget is None else args.budget)
        if report.status is ob.Status.INCONCLUSIVE:
            print(f"INCONCLUSIVE ({report.diagnostics})")
            return 0
        cert, obstruction = report.certificate, report.obstruction
    if obstruction is not None:
        s, mult = obstruction
        print(f"OBSTRUCTED slope={s} delta={mult}")
        return 0
    spaces = cert.halfspaces
    print(f"UNOBSTRUCTED ({len(spaces)} half-spaces)")
    for h in spaces:
        print("  " + _render_halfspace(h))
    for d in cert.dispositions:
        print(f"  leftover {d.point}: {d.reason}")
    if args.svg and spaces:
        Path(args.svg).write_text(render.halfspaces_svg(list(spaces)), encoding="utf-8")
        print(f"wrote {args.svg}")
    return 0


def _parse_affine(text: str):
    try:
        row1, row2, trans = text.split(";")
        a, b = (int(x) for x in row1.split(","))
        c, d = (int(x) for x in row2.split(","))
        tx, ty = (int(x) for x in trans.split(","))
    except ValueError as exc:
        raise PresentationSyntaxError(f"bad affine spec {text!r}: {exc}") from None
    return ((a, b), (c, d)), (tx, ty)


def cmd_equations(args) -> int:
    if args.check is not None and not args.affine:
        raise ValueError("equations --check needs --affine")
    if args.affine and args.value is not None:
        raise ValueError("equations takes a SLOPE or --affine, not both")
    pres = _load(args.file)
    if args.affine:
        if args.check is not None and args.check < 1:
            raise ValueError("height must be a positive integer")
        linear, translation = _parse_affine(args.affine)
        if not sy.aff_membership(pres, linear, translation):
            print("not an affine symmetry of the presentation", file=sys.stderr)
            return 2
        range_action = sy.induced_map_range(linear)
        domain_action = sy.induced_map_domain(pres, linear, translation)
        print(f"Sigma_f . {range_action.render()} = {domain_action.render()} . Sigma_f")
        if args.check:
            report = sy.consistency_suite(pres, [(linear, translation)], args.check)
            if report.passed:
                print(f"consistency check passed on {report.checked} slopes")
            else:
                print(f"consistency check FAILED: {len(report.violations)} violations")
                for v in report.violations[:10]:
                    print(f"  slope {v.slope}: {v.lhs} != {v.rhs}")
                return 2
        return 0
    if args.value is None:
        print("equations needs a SLOPE or --affine", file=sys.stderr)
        return 2
    eq = sy.twist_equation(pres, Slope.parse(args.value))
    print(eq.render())
    return 0


def _parse_group(spec: str) -> ns.FinAbGroup:
    try:
        m, n = (int(x) for x in spec.split(","))
    except ValueError:
        raise PresentationSyntaxError(f"bad group spec {spec!r}; expected m,n") from None
    return ns.FinAbGroup(m, n)


def _parse_subset(text: str) -> tuple:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if len(parts) != 4:
        raise PresentationSyntaxError("subset check needs four elements")
    out = []
    for part in parts:
        try:
            x, y = (int(t) for t in part.strip("()").split(","))
        except ValueError:
            raise PresentationSyntaxError(
                f"bad subset element {part!r}; expected (x,y) with integers x and y"
            ) from None
        out.append((x, y))
    return tuple(out)


def cmd_nonsep(args) -> int:
    group = _parse_group(args.group)
    if args.check:
        subset = ns.SymmetricFour(_parse_subset(args.check))
        pair = ns.separating_pair(group, subset)
        if pair is None:
            print("NONSEPARATING")
        else:
            cs = ns.coset_numbers(group, subset, pair)
            print(f"SEPARATING B=<{pair.subgroup_generator}> a={pair.generator} c={cs}")
        return 0
    if args.search:
        found = ns.search_nonseparating(group, budget=args.budget)
        lines = sorted(
            " ".join(f"({x},{y})" for x, y in f.canonical(group)) for f in found
        )
        for line in lines:
            print(line)
        print(f"{len(found)} nonseparating subsets in Z/{group.m} + Z/{group.n}")
        return 0
    if args.refute:
        report = ns.degree2_refutation()
        for e in report.entries:
            canon = " ".join(f"({x},{y})" for x, y in e.subset.canonical(ns.FinAbGroup(4, 2)))
            print(
                f"{canon} order-4-classes={'yes' if e.contains_order_four else 'no'} "
                f"exactly-one-doubled={'yes' if e.exactly_one_doubled else 'no'}"
            )
        print(f"realizable candidates: {len(report.realizable)}")
        return 0
    print("nonsep needs --check, --search or --refute", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmap",
        description="Exact analysis of nearly Euclidean Thurston maps "
        "presented by lattice data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="pullback data for one slope or the table")
    p.add_argument("file")
    p.add_argument("--slope", help='slope as "p/q", "p" or "inf"')
    p.add_argument("--table", action="store_true",
                   help="sweep the eight residue classes of the bundled example")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("slope", help="image of a slope under the induced map")
    p.add_argument("file")
    p.add_argument("value", nargs="?", help='slope as "p/q", "p" or "inf"')
    p.add_argument("--graph", type=int, metavar="QMAX",
                   help="emit CSV over all reduced slopes with |p|,|q| <= QMAX")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("obstructions", help="search for Thurston obstructions")
    p.add_argument("file")
    p.add_argument("--height", type=int, help="search height (default 20)")
    p.add_argument("--budget", type=int, help="half-space budget (default 12)")
    p.add_argument("--slopes", help="comma-separated slopes for an explicit certificate")
    p.add_argument("--svg", help="draw the certificate half-spaces to this file")
    p.set_defaults(func=cmd_obstructions)

    p = sub.add_parser("equations", help="functional equations for the induced map")
    p.add_argument("file")
    p.add_argument("value", nargs="?", help="slope for a Dehn-twist equation")
    p.add_argument("--affine", help='affine symmetry "a,b;c,d;tx,ty"')
    p.add_argument("--check", type=int, metavar="HEIGHT",
                   help="run the slope-level consistency suite to this height")
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("nonsep", help="nonseparating subsets of Z/m + Z/n")
    p.add_argument("group", help='group as "m,n"')
    p.add_argument("--check", help='four elements "(x1,y1);...;(x4,y4)"')
    p.add_argument("--search", action="store_true")
    p.add_argument("--refute", action="store_true",
                   help="degree-2 refutation report (group 4,2)")
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=cmd_nonsep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PresentationSyntaxError, ValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonTransverseError, ZigzagError) as exc:
        print(f"geometric failure: {exc}", file=sys.stderr)
        return 3
    except MirrorsNotStabilizedError as exc:
        print(f"unsupported affine symmetry: {exc}", file=sys.stderr)
        return 4
    except NetMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
