"""Pin the outputs the benchmark checks against.

    python3 bench/make_expected.py

Runs every workload once through the worker and writes its stdout to
expected/NAME.txt; for deep it draws the slope pool from the pool seed
in spec.json and writes expected/deep_pool.txt, one line per slope:
stratum, height, slope and the printed image.  Run it only when an
output is meant to change, and say why in the commit.
"""
import json
import math
import random
import subprocess
import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))


def stratum_bounds(spec: dict) -> list[tuple[float, float]]:
    lo, hi = (math.log(h) for h in spec["height_range"])
    n = spec["strata"]
    return [(lo + (hi - lo) * i / n, lo + (hi - lo) * (i + 1) / n) for i in range(n)]


def draw_slope(rng: random.Random, height: int) -> tuple[int, int]:
    """A reduced slope p/q of the given height max(|p|, q)."""
    while True:
        if rng.random() < 0.5:
            p, q = rng.randint(-height, height), height
        else:
            p, q = rng.choice((-height, height)), rng.randint(1, height)
        if math.gcd(p, q) == 1:
            return p, q


def siblings(p: int, q: int, step: int, count: int) -> list[str]:
    """Up to ``count`` reduced slopes of the same height as p/q whose
    shorter coordinate differs from it by multiples of ``step``."""
    height = max(abs(p), q)
    out = []
    for k in range(2 * height // step + 1):
        if q == height:
            pk, qk = p + (-k if p > 0 else k) * step, q
        else:
            pk, qk = p, q + (-k if 2 * q > height else k) * step
        if not (abs(pk) <= height and 1 <= qk <= height):
            break
        if math.gcd(pk, qk) == 1:
            out.append(f"{pk}/{qk}")
            if len(out) == count:
                break
    return out


def crossings(pres, slope: str) -> int:
    """Mirror crossings on the zigzag segment of a slope: its work."""
    from netmap.slope import Slope
    from netmap.slopefn import zigzag_trace

    trace = zigzag_trace(pres, Slope.parse(slope))
    return 0 if trace is None else len(trace.midpoints)


def make_pool(spec: dict) -> list[tuple[int, int, str]]:
    """(stratum, height, slope) for every pool entry, from the pool seed.

    Each stratum of log-height gets one base slope, drawn log-uniformly,
    and its siblings.  Siblings share their class modulo 2*L1 when the
    step is a multiple of twice the index of L1, hence degree and coset
    numbers; only those whose crossing count is within the tolerance of
    the base slope's are kept, so a seed that picks among them changes
    the slopes but not the work.
    """
    import netmap

    pres = netmap.parse(wl.presentation().read_text(encoding="utf-8"))
    rng = random.Random(spec["pool_seed"])
    pool = []
    for stratum, (lo, hi) in enumerate(stratum_bounds(spec)):
        height = round(math.exp(rng.uniform(lo, hi)))
        p, q = draw_slope(rng, height)
        candidates = siblings(p, q, spec["sibling_step"], spec["siblings"])
        work = crossings(pres, candidates[0])
        for slope in candidates:
            if abs(crossings(pres, slope) - work) <= spec["sibling_tolerance"] * work:
                pool.append((stratum, height, slope))
    return pool


def run_worker(cmds: list[dict]) -> list[dict]:
    job = json.dumps({"trace": False, "commands": cmds})
    out = subprocess.run(
        [sys.executable, str(wl.BENCH / "worker.py"), "run"],
        input=job, capture_output=True, text=True, check=True, cwd=wl.ROOT,
    ).stdout
    results = json.loads(out)["results"]
    for r in results:
        if r.get("exit") != 0:
            raise SystemExit(f"command failed: {r.get('error') or r.get('stderr')}")
    return results


def main() -> int:
    wl.EXPECTED.mkdir(exist_ok=True)
    for name in wl.WORKLOADS:
        if name == "deep":
            continue
        (result,) = run_worker(wl.commands(name, 0))
        (wl.EXPECTED / f"{name}.txt").write_bytes(result["stdout"].encode("utf-8"))
        print(f"{name}: {result['wall_s']:.2f} s")
    spec = wl.WORKLOADS["deep"]
    pool = make_pool(spec)
    results = run_worker([{"cli": wl.cli_argv(spec["cli"], slope)} for _, _, slope in pool])
    lines = [
        f"{stratum} {height} {slope} {r['stdout'].strip()}"
        for (stratum, height, slope), r in zip(pool, results)
    ]
    (wl.EXPECTED / "deep_pool.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"deep: {len(pool)} slopes, {sum(r['wall_s'] for r in results):.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
