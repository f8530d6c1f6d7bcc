"""Command line interface.

Subcommands operate on presentation files:

    netmap analyze FILE (--slope P/Q | --table) [--format text|csv]
    netmap slope FILE (SLOPE | --graph QMAX [--out PATH])
    netmap obstructions FILE ([--height N] [--budget B] | --slopes LIST)
                             [--svg PATH]
    netmap equations FILE (SLOPE | --affine "a,b;c,d;tx,ty") [--check N]
    netmap nonsep M,N (--check "(h1);(h2);(h3);(h4)" | --search [--budget B]
                       | --refute)

Exit codes: 0 success, 2 for an unreadable file or a ValueError, and
otherwise the ``exit_code`` that ``errors.py`` declares on the error
type (2 unless the type says 3 or 4), printed after its ``label``.
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import nonsep as ns
from . import obstruction as ob
from . import render
from . import symmetry as sy
from .errors import NetMapError, PresentationSyntaxError
from .presentation import NetMapPresentation, parse
from .pullback import analyze_slope
from .slope import Slope
from .slopefn import pullback_slope, slope_graph_rows

# Representative slopes for the eight residue classes of the bundled
# degree-10 example, in the row order of its pullback table.
MAIN_TABLE_SLOPES = ["1/1", "2/1", "1/3", "1/4", "-1/2", "3/4", "7/6", "1/8"]


def _load(path: str) -> NetMapPresentation:
    # Unbuffered bytes, decoded once: no buffer or text layer.  parse
    # splits lines with splitlines(), so LF, CRLF and CR files read alike.
    with open(path, "rb", buffering=0) as file:
        return parse(file.read().decode("utf-8"))


def cmd_analyze(args) -> int:
    if args.table == (args.slope is not None):
        raise ValueError("analyze takes one of --slope and --table")
    pres = _load(args.file)
    slopes = [Slope.parse(s) for s in (MAIN_TABLE_SLOPES if args.table else [args.slope])]
    rows = []
    for s in slopes:
        m = analyze_slope(pres, s)
        rows.append([str(s), str(m.d), str(m.d_prime), *map(str, m.coset_numbers),
                     str(m.essential), str(m.peripheral), str(m.null_homotopic),
                     str(m.multiplier)])
    if args.format == "csv":
        header = ["slope", "d", "d_prime", "c1", "c2", "c3", "c4",
                  "essential", "peripheral", "null", "delta"]
        sys.stdout.write(render.table_csv(header, rows))
        return 0
    for s, d, d_prime, *c, ess, per, null, delta in rows:
        prefix = f"{s}: " if args.table else ""
        print(f"{prefix}d={d} d'={d_prime} c=({','.join(c)}) "
              f"ess={ess} per={per} null={null} delta={delta}")
    return 0


def cmd_slope(args) -> int:
    if args.graph is not None and args.value is not None:
        raise ValueError("slope takes a SLOPE or --graph, not both")
    if args.out and args.graph is None:
        raise ValueError("slope --out needs --graph")
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
        raise ValueError("slope needs a SLOPE or --graph")
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
    if args.slopes is not None and (args.height is not None or args.budget is not None):
        raise ValueError("obstructions --slopes takes no --height or --budget")
    pres = _load(args.file)
    if args.slopes is not None:
        report = ob.certify_slopes(pres, [Slope.parse(tok) for tok in args.slopes.split(",")])
    else:
        report = ob.obstruction_report(
            pres, height=20 if args.height is None else args.height,
            budget=12 if args.budget is None else args.budget)
    if report.status is ob.Status.INCONCLUSIVE:
        print(f"INCONCLUSIVE ({report.diagnostics})")
        return 0
    if report.obstruction is not None:
        s, mult = report.obstruction
        print(f"OBSTRUCTED slope={s} delta={mult}")
        return 0
    spaces = report.certificate.halfspaces
    # The file is written first, so a failed write prints no certificate.
    if args.svg:
        Path(args.svg).write_text(render.halfspaces_svg(list(spaces)), encoding="utf-8")
    print(f"UNOBSTRUCTED ({len(spaces)} half-spaces)")
    for h in spaces:
        print("  " + _render_halfspace(h))
    for d in report.certificate.dispositions:
        print(f"  leftover {d.point}: {d.reason}")
    if args.svg:
        print(f"wrote {args.svg}")
    return 0


def _ints(text: str, count: int, message: str) -> tuple[int, ...]:
    """``count`` comma-separated integers, in one pair of parentheses or
    none; PresentationSyntaxError with ``message`` for anything else."""
    text = text.strip()
    if text[:1] == "(" and text[-1:] == ")":
        text = text[1:-1]
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise PresentationSyntaxError(message)
    return values


def _parse_affine(text: str):
    message = f"bad affine spec {text!r}; expected a,b;c,d;tx,ty"
    pairs = [_ints(pair, 2, message) for pair in text.split(";")]
    if len(pairs) != 3:
        raise PresentationSyntaxError(message)
    return (pairs[0], pairs[1]), pairs[2]


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
            raise ValueError("not an affine symmetry of the presentation")
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
        raise ValueError("equations needs a SLOPE or --affine")
    eq = sy.twist_equation(pres, Slope.parse(args.value))
    print(eq.render())
    return 0


def _parse_group(spec: str) -> ns.FinAbGroup:
    return ns.FinAbGroup(*_ints(spec, 2, f"bad group spec {spec!r}; expected m,n"))


def _parse_subset(text: str) -> tuple:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if len(parts) != 4:
        raise PresentationSyntaxError("subset check needs four elements")
    return tuple(
        _ints(part, 2, f"bad subset element {part!r}; expected (x,y) with integers x and y")
        for part in parts
    )


def cmd_nonsep(args) -> int:
    if sum((args.check is not None, args.search, args.refute)) != 1:
        raise ValueError("nonsep takes one of --check, --search and --refute")
    if args.budget is not None and not args.search:
        raise ValueError("nonsep --budget needs --search")
    group = _parse_group(args.group)
    if args.refute and (group.m, group.n) != (4, 2):
        raise ValueError("nonsep --refute is the report for the group 4,2")
    if args.check is not None:
        subset = ns.SymmetricFour(_parse_subset(args.check))
        pair = ns.separating_pair(group, subset)
        if pair is None:
            print("NONSEPARATING")
        else:
            cs = ns.coset_numbers(group, subset, pair)
            print(f"SEPARATING B=<{pair.subgroup_generator}> a={pair.generator} c={cs}")
        return 0
    if args.search:
        budget = 100_000 if args.budget is None else args.budget
        found = ns.search_nonseparating(group, budget=budget)
        lines = sorted(
            " ".join(f"({x},{y})" for x, y in f.canonical(group)) for f in found
        )
        for line in lines:
            print(line)
        print(f"{len(found)} nonseparating subsets in Z/{group.m} + Z/{group.n}")
        return 0
    report = ns.degree2_refutation()
    for e in report.entries:
        canon = " ".join(f"({x},{y})" for x, y in e.subset.canonical(ns.FinAbGroup(4, 2)))
        print(
            f"{canon} order-4-classes={'yes' if e.contains_order_four else 'no'} "
            f"exactly-one-doubled={'yes' if e.exactly_one_doubled else 'no'}"
        )
    print(f"realizable candidates: {len(report.realizable)}")
    return 0


# Each subcommand's help and arguments, as the names and keyword arguments
# of argparse's add_argument.  Its handler is the module's cmd_<name>,
# looked up when a command line is parsed, so a patched handler is used.
_COMMANDS = {
    "analyze": ("pullback data for one slope or the table", (
        ("file", {}),
        ("--slope", {"help": 'slope as "p/q", "p" or "inf"'}),
        ("--table", {"action": "store_true",
                     "help": "sweep the eight residue classes of the bundled example"}),
        ("--format", {"choices": ("text", "csv"), "default": "text"}),
    )),
    "slope": ("image of a slope under the induced map", (
        ("file", {}),
        ("value", {"nargs": "?", "help": 'slope as "p/q", "p" or "inf"'}),
        ("--graph", {"type": int, "metavar": "QMAX",
                     "help": "emit CSV over all reduced slopes with |p|,|q| <= QMAX"}),
        ("--out", {"help": "write CSV here instead of stdout"}),
    )),
    "obstructions": ("search for Thurston obstructions", (
        ("file", {}),
        ("--height", {"type": int, "help": "search height (default 20)"}),
        ("--budget", {"type": int, "help": "half-space budget (default 12)"}),
        ("--slopes", {"help": "comma-separated slopes for an explicit certificate"}),
        ("--svg", {"help": "draw the certificate half-spaces to this file"}),
    )),
    "equations": ("functional equations for the induced map", (
        ("file", {}),
        ("value", {"nargs": "?", "help": "slope for a Dehn-twist equation"}),
        ("--affine", {"help": 'affine symmetry "a,b;c,d;tx,ty"'}),
        ("--check", {"type": int, "metavar": "HEIGHT",
                     "help": "run the slope-level consistency suite to this height"}),
    )),
    "nonsep": ("nonseparating subsets of Z/m + Z/n", (
        ("group", {"help": 'group as "m,n"'}),
        ("--check", {"help": 'four elements "(x1,y1);...;(x4,y4)"'}),
        ("--search", {"action": "store_true"}),
        ("--refute", {"action": "store_true", "help": "degree-2 refutation report (group 4,2)"}),
        ("--budget", {"type": int, "help": "search budget (default 100000)"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmap",
        description="Exact analysis of nearly Euclidean Thurston maps "
        "presented by lattice data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _plain_spec(arguments) -> tuple:
    """A subcommand's table for ``_parse_plain``: its options and
    positionals by name, its positional names, how many of them are
    required, and every argument's default."""
    spec = dict(arguments)
    names = [flag for flag in spec if not flag.startswith("-")]
    defaults = {flag.lstrip("-"): kwargs.get("default", False if "action" in kwargs else None)
                for flag, kwargs in arguments}
    return spec, names, sum("nargs" not in spec[flag] for flag in names), defaults


_PLAIN = {name: _plain_spec(arguments) for name, (_, arguments) in _COMMANDS.items()}


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for a command
    line of a subcommand, exact option names each with its value, and
    one run of positional arguments with at most one ``--`` in it.

    None for any other command line (help, abbreviated options,
    ``--name=value``, a value that starts with "-", or anything argparse
    would reject), which argparse then parses.  The first use of
    argparse in a process (gettext's import of locale, the regexes it
    compiles) takes about 7 ms, more than the rest of a typical
    ``netmap slope FILE P/Q``, so a plain command line does not build
    the parser.
    """
    command = _PLAIN.get(argv[0]) if argv else None
    if command is None:
        return None
    spec, names, required, defaults = command
    values = dict(defaults)
    positional: list[str] = []
    run = dashed = None  # run: None before the positional run, True in it, False after
    tokens = iter(argv[1:])
    for token in tokens:
        if dashed or token == "--" or not token.startswith("-"):
            if run is False or token == "--" and dashed:
                return None
            run, dashed = True, dashed or token == "--"
            if token != "--":
                positional.append(token)
            continue
        if run:
            run = False
        kwargs = spec.get(token)
        if kwargs is None:
            return None
        if "action" in kwargs:  # store_true
            values[token[2:]] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[token[2:]] = value
    if not required <= len(positional) <= len(names):
        return None
    values.update(zip(names, positional))
    return argparse.Namespace(command=argv[0], **values, func=globals()[f"cmd_{argv[0]}"])


def run_command(func, *args) -> int:
    """``func(*args)``, an exit code, with each refusal as one stderr line.

    A ``NetMapError`` prints ``label: message`` and returns its type's
    exit code; an ``OSError`` or ``ValueError`` prints ``error:
    message`` and returns 2.  The scripts run their work through it too.
    """
    try:
        return func(*args)
    except NetMapError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    # The collector leaves out what existed before the command, the
    # imported modules above all: a command's collections then walk only
    # its own objects.  A process forked after the import would otherwise
    # copy the import's pages whenever a collection reached them.
    gc.freeze()
    try:
        return run_command(args.func, args)
    finally:
        gc.unfreeze()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
