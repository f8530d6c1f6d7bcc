#!/usr/bin/env python3
"""Census of nonseparating subsets in small two-generator groups.

Sweeps groups Z/m + Z/n up to a given order and reports which contain a
nonseparating subset.  Since a degree-d presentation has quotient group
of order 4d, the census gathers evidence for the expected pattern:
subsets exist exactly when the order is 4d with d > 2 divisible by 2
or 9.

    python scripts/nonsep_census.py --max-order 80
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netmap.cli import run_command  # noqa: E402
from netmap.errors import BudgetExceededError  # noqa: E402
from netmap.nonsep import FinAbGroup, search_nonseparating  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=72)
    ap.add_argument("--budget", type=int, default=200_000)
    return run_command(census, ap.parse_args())


def census(args) -> int:
    if args.max_order < 1:
        raise ValueError("max-order must be a positive integer")
    if args.budget < 1:
        raise ValueError("budget must be a positive integer")
    print(f"{'group':>12} {'order':>6} {'4d?':>5} {'subsets':>8}")
    for n in range(1, args.max_order + 1):
        for m in range(1, n + 1):
            if m * n > args.max_order or n % m:
                continue
            group = FinAbGroup(m, n)
            try:
                found = search_nonseparating(group, budget=args.budget)
            except BudgetExceededError:
                print(f"Z/{m} + Z/{n:<4} {group.order:>6} {'':>5} {'skipped':>8}")
                continue
            order = group.order
            degree_note = ""
            if order % 4 == 0:
                d = order // 4
                expected = d > 2 and (d % 2 == 0 or d % 9 == 0)
                degree_note = f"d={d}" + ("*" if expected else "")
            print(
                f"Z/{m} + Z/{n:<4} {order:>6} {degree_note:>7} {len(found):>8}"
            )
    print("(* marks orders 4d with d > 2 divisible by 2 or 9)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
