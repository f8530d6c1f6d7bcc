#!/usr/bin/env python3
"""Survey orbits of the induced slope map.

Iterates every reduced slope up to a height and tabulates where the
orbits land: which cycles occur, how long the transients are, and how
often iteration dies in the inessential symbol.  Evidence for the
conjecture that every orbit is eventually periodic in a finite set of
cycles.

    python scripts/orbit_survey.py --height 40
"""
import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netmap import bundled_presentation, parse  # noqa: E402
from netmap.cli import run_command  # noqa: E402
from netmap.slope import INESSENTIAL, enumerate_slopes  # noqa: E402
from netmap.slopefn import slope_orbit  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presentation", help="presentation file (default: bundled main)")
    ap.add_argument("--height", type=int, default=30)
    ap.add_argument("--max-iter", type=int, default=200)
    return run_command(survey, ap.parse_args())


def survey(args) -> int:
    pres = (
        parse(Path(args.presentation).read_text(encoding="utf-8"))
        if args.presentation
        else bundled_presentation("main")
    )
    slopes = enumerate_slopes(args.height)

    cycles = Counter()
    transient = Counter()
    inessential = 0
    unresolved = 0
    for s in slopes:
        trajectory, cycle = slope_orbit(pres, s, max_iter=args.max_iter)
        if cycle is None:
            if trajectory[-1] is INESSENTIAL:
                inessential += 1
            else:
                unresolved += 1
            continue
        start, length = cycle
        loop = tuple(sorted(str(t) for t in trajectory[start:start + length]))
        cycles[loop] += 1
        transient[start] += 1

    print(f"{len(slopes)} slopes up to height {args.height}")
    print(f"inessential terminations: {inessential}, unresolved: {unresolved}")
    print("cycles reached (cycle: orbit count):")
    for loop, count in cycles.most_common():
        print(f"  {{{', '.join(loop)}}}: {count}")
    print("transient length distribution:")
    for k in sorted(transient):
        print(f"  {k}: {transient[k]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
