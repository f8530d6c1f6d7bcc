#!/usr/bin/env python3
"""Emit the graph of the induced slope map as CSV (and optionally PNG).

The CSV pairs every reduced slope p/q with |p|, |q| <= QMAX with its
image slope, keeping exact fraction strings next to float columns.  The
plot shows the characteristic horizontal bands (the map is often
infinite-to-one) and the invariant line y = (2/5) x + 1/5 of the
bundled example.

    python scripts/slope_graph.py --qmax 60 --out sigma_graph.csv
    python scripts/slope_graph.py --qmax 60 --plot sigma_graph.png
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netmap import bundled_presentation, parse  # noqa: E402
from netmap.render import slope_graph_csv  # noqa: E402
from netmap.slopefn import slope_graph_rows  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presentation", help="presentation file (default: bundled main)")
    ap.add_argument("--qmax", type=int, default=40)
    ap.add_argument("--out", default="sigma_graph.csv")
    ap.add_argument("--plot", help="also write a PNG scatter plot here")
    args = ap.parse_args()

    pres = (
        parse(Path(args.presentation).read_text())
        if args.presentation
        else bundled_presentation("main")
    )
    rows = slope_graph_rows(pres, args.qmax)
    Path(args.out).write_text(slope_graph_csv(rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {args.out}")

    if args.plot:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available; skipping plot", file=sys.stderr)
            return 0
        xs = [float(v) for _, v, img, w in rows if w is not None]
        ys = [float(w) for _, v, img, w in rows if w is not None]
        fig, ax = plt.subplots(figsize=(7, 7))
        ax.scatter(xs, ys, s=1.5, linewidths=0, color="#1f355e")
        lo, hi = -args.qmax, args.qmax
        ax.plot([lo, hi], [0.4 * lo + 0.2, 0.4 * hi + 0.2], lw=0.6, color="#c44")
        ax.set_xlim(lo, hi)
        ax.set_ylim(lo, hi)
        ax.set_xlabel("slope")
        ax.set_ylabel("image slope")
        fig.savefig(args.plot, dpi=160, bbox_inches="tight")
        print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
