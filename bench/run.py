"""Benchmark of netmap: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see spec.json): graph, certify, deep, census.  A run repeats
samples for about S seconds.  A sample is one fresh worker interpreter
running the workload's commands, each in a child forked right after
``import netmap``, so memo caches are cold; before each sample two other
fresh interpreters time the set-up (import and parse).  Samples run one
at a time: a closed loop with one client.

The shared host slows each CPU by up to 1.5x for seconds at a time,
each CPU on its own, and CPU time slows with it.  So every process of a
run is kept on one CPU, and a fixed calibration loop that uses no netmap
code (worker.calibrate) runs next to every timing: in each set-up
interpreter after the set-up, and in the worker before the first command
and after every second or so of commands.  Each time is scaled to a
reference host speed: multiplied by the loop's reference time
(spec.json) over its time next to that timing.  The measured times are
printed too.

Every output is checked outside the timed region: byte for byte against
the output pinned in expected/, and by the independent oracles of
oracle.py, run in a separate process.  A mismatch fails the operation
(a CSV row, a command, a slope or a group row).

With --trace 0 the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with --trace 1, traced samples (see
tracer.py) alternate with untraced ones and the metrics are the
per-layer ones, plus the tracing overhead.  The lines before it say the
same for a reader.  Sample details, and in traced runs the spans of the
first traced sample, are written under .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracer import layer_metrics

WORKER = str(wl.BENCH / "worker.py")
ORACLE = str(wl.BENCH / "oracle.py")
OUT = wl.ROOT / ".bench_out"
MIN_SAMPLES = 3       # untraced samples per untraced run
MIN_TRACED = 2        # traced samples per traced run, so counts can be compared
SETUP_PROBES = 2      # set-up probes per sample: they are short and noisy
CALIBRATION_REF_S = wl.SPEC["calibration"]["reference_s"]
SAMPLING_LIMIT_S = 140.0  # no sample starts that would end after this
RUN_LIMIT_S = 175.0       # the oracle must be done by then
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# Fixed hash seed: the program's output does not depend on it, its timing might.
ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(Exception):
    pass


def _call(argv: list[str], stdin: str | None, timeout: float) -> str:
    proc = subprocess.Popen(
        argv, cwd=wl.ROOT, env=ENV, text=True, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(stdin, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited with {proc.returncode}: {err.strip()[-500:]}")
    return out


def probe(name: str, timeout: float) -> tuple[float, float]:
    """(set-up time, calibration time) of one fresh interpreter."""
    argv = [sys.executable, WORKER, "setup"]
    if "cli" in wl.WORKLOADS[name]:
        argv.append(str(wl.presentation()))
    result = json.loads(_call(argv, None, timeout))
    return result["setup_s"], result["calibration_s"]


def sample(cmds: list[dict], trace: bool, timeout: float) -> dict:
    job = json.dumps({"trace": trace, "commands": cmds})
    return json.loads(_call([sys.executable, WORKER, "run"], job, timeout))


def measure(name: str, cmds: list[dict], seconds: float, trace: bool, start: float):
    """Interleave set-up probes and samples for about ``seconds``."""
    hard = start + SAMPLING_LIMIT_S
    probe(name, SAMPLING_LIMIT_S)  # untimed: compiles bytecode once per checkout
    probes, plain, traced = [], [], []
    while True:
        t0 = time.monotonic()
        probes.extend(probe(name, hard - t0) for _ in range(SETUP_PROBES))
        plain.append(sample(cmds, False, hard - time.monotonic()))
        if trace:
            traced.append(sample(cmds, True, hard - time.monotonic()))
        now = time.monotonic()
        enough = len(plain) >= (MIN_TRACED if trace else MIN_SAMPLES)
        if (enough and now - start >= seconds) or now + (now - t0) > hard:
            return probes, plain, traced


def check(name: str, seed: int, samples: list[dict], start: float) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every command of every sample."""
    expected = wl.expected_outputs(name, seed)
    inputs = [slope for _, slope, _ in wl.deep_slopes(seed)] if name == "deep" else None
    # Ask the oracle once about each distinct output of each command.
    distinct: dict[tuple[int, str], int] = {}
    for s in samples:
        for k, r in enumerate(s["results"]):
            if r.get("exit") == 0:
                distinct.setdefault((k, r["stdout"]), len(distinct))
    request = {
        "workload": name,
        "outputs": [out for (_, out) in distinct],
        "inputs": [inputs[k] for (k, _) in distinct] if inputs else None,
    }
    timeout = start + RUN_LIMIT_S - time.monotonic()
    verdict = json.loads(_call([sys.executable, ORACLE], json.dumps(request), timeout))
    oracle_failed = {int(i): set(v) for i, v in verdict["failed"].items()}

    attempted = failed = 0
    notes = []
    for s in samples:
        for k, r in enumerate(s["results"]):
            ops = len(wl.operations(name, expected[k]))
            attempted += ops
            if r.get("exit") != 0:
                failed += ops
                notes.append(f"command {k} exit {r.get('exit')}: "
                             f"{(r.get('error') or r.get('stderr') or '').strip()[-300:]}")
                continue
            bad = wl.failed_operations(name, r["stdout"], expected[k])
            bad |= oracle_failed.get(distinct[(k, r["stdout"])], set())
            if bad:
                failed += min(len(bad), ops)
                notes.append(f"command {k}: {len(bad)} of {ops} operations differ "
                             "from the pinned output or the oracle")
    return attempted, failed, notes


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    idx = max(0, math.ceil(p / 100 * n) - 1)
    return sorted_values[idx], n - idx - 1


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile of the
    ladder with at least 10 samples beyond it, else the median."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        v, beyond = percentile(ordered, p)
        if beyond >= 10:
            return v, p, beyond
    return statistics.median(ordered), 50.0, len(ordered) // 2


def scaled(seconds: float, calibration_s: float) -> float:
    """A time scaled to the reference host speed."""
    return seconds * CALIBRATION_REF_S / calibration_s


def wall_times(samples: list[dict], raw: bool = False) -> list[list[float]]:
    """Per sample, each command's wall time, scaled to the reference
    host speed unless ``raw``."""
    return [[r["wall_s"] if raw else scaled(r["wall_s"], r["calibration_s"])
             for r in s["results"]] for s in samples]


def command_times(samples: list[dict], raw: bool = False) -> list[float]:
    """Each command's median wall time over the samples."""
    return [statistics.median(times) for times in zip(*wall_times(samples, raw))]


def pass_time(samples: list[dict], raw: bool = False) -> float:
    """Wall time of one pass over the commands: the sum over commands of
    each command's median over samples.  With one command per sample
    this is the median sample; with many, a burst of load on the host
    that slows part of one pass moves it less."""
    return sum(command_times(samples, raw))


def latency_stats(samples: list[dict], raw: bool = False) -> tuple[float, float, float, int]:
    """(p50, tail, tail percentile, commands beyond it) in ms over every
    command of every sample."""
    latencies = [t * 1000 for times in wall_times(samples, raw) for t in times]
    return (statistics.median(latencies), *tail(latencies))


def end_to_end(probes, plain, units: dict) -> tuple[dict, list[str]]:
    setups = [s for s, _ in probes]
    p50, tail_ms, tail_p, beyond = latency_stats(plain)
    raw_p50, raw_tail, _, _ = latency_stats(plain, raw=True)
    raw = {
        "run_s": pass_time(plain, raw=True),
        "setup_s": statistics.median(setups),
        "cmd_p50_ms": raw_p50,
        "cmd_tail_ms": raw_tail,
    }
    values = {
        "run_s": pass_time(plain),
        "setup_s": statistics.median(scaled(s, c) for s, c in probes),
        "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in s["results"]) for s in plain),
        "cmd_p50_ms": p50,
        "cmd_tail_ms": tail_ms,
    }
    cpu = statistics.median(sum(r["cpu_s"] for r in s["results"]) for s in plain)
    passes = sorted(pass_time([s], raw=True) for s in plain)
    n = len(plain) * len(plain[0]["results"])
    notes = {
        "run_s": f"{len(plain)} samples of {passes[0]:.3f}-{passes[-1]:.3f} s; "
                 f"median CPU time {cpu:.4f} s",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": f"median of {len(plain)} samples",
        "cmd_p50_ms": f"median of {n} commands",
        "cmd_tail_ms": f"p{tail_p:g}, {beyond} of {n} commands beyond it",
    }
    calibration = [c for _, c in probes] + [r["calibration_s"] for s in plain for r in s["results"]]
    lines = [f"  calibration loop {min(calibration):.4f}-{max(calibration):.4f} s, "
             f"reference {CALIBRATION_REF_S} s; times are scaled to the reference"]
    for k, v in values.items():
        measured = f"; measured {raw[k]:.6g} {units[k]}" if k in raw else ""
        lines.append(f"  {k:<12} {v:.6g} {units[k]}  ({notes[k]}{measured})")
    return values, lines


def is_count(key: str) -> bool:
    return not key.startswith(("busy:", "self:")) and not key.endswith("_s")


def per_layer(plain, traced, units: dict) -> tuple[dict, list[str], bool]:
    samples = []
    for s in traced:
        raw: dict[str, float] = {}
        heights = []
        for r in s["results"]:
            for k, v in r.get("raw", {}).items():
                raw[k] = raw.get(k, 0) + v
            heights.extend(r.get("heights", []))
        samples.append((raw, layer_metrics(raw, heights)))
    counts = [{k: v for k, v in raw.items() if is_count(k)} for raw, _ in samples]
    repeat = all(c == counts[0] for c in counts[1:])
    values = {}
    for key in samples[0][1]:
        column = [m[key] for _, m in samples]
        values[key] = column[0] if isinstance(column[0], int) else statistics.median(column)
    traced_run = pass_time(traced)
    plain_run = pass_time(plain)
    values["trace.overhead_s"] = traced_run - plain_run
    lines = [f"  {k:<30} {v:.6g} {units[k]}" for k, v in values.items()]
    lines.append(f"  traced run_s {traced_run:.4f} s vs untraced {plain_run:.4f} s "
                 f"({len(traced)} and {len(plain)} samples)")
    lines.append("  waited: n/a (the program has no queue)")
    lines.append(f"  counts repeat exactly across {len(traced)} traced samples: "
                 f"{'yes' if repeat else 'NO'}")
    if not repeat:
        diff = sorted(k for k in set().union(*counts) if len({c.get(k) for c in counts}) > 1)
        lines.append(f"  counts that differ: {', '.join(diff)}")
    return values, lines, repeat


def write_details(name: str, seed: int, trace: bool, probes, plain, traced) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    heights = [h for h, _, _ in wl.deep_slopes(seed)] if name == "deep" else None
    record = {"workload": name, "seed": seed, "setup_s": [s for s, _ in probes],
              "calibration_s": [c for _, c in probes], "samples": []}
    for kind, group in (("plain", plain), ("traced", traced)):
        for s in group:
            record["samples"].append({
                "kind": kind,
                "import_s": s["import_s"],
                "missing_hooks": s["missing_hooks"],
                "commands": [
                    {"wall_s": r.get("wall_s"), "calibration_s": r.get("calibration_s"),
                     "cpu_s": r.get("cpu_s"),
                     "peak_rss_mb": r.get("peak_rss_mb"), "exit": r.get("exit"),
                     **({"height": heights[k]} if heights else {})}
                    for k, r in enumerate(s["results"])
                ],
            })
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for r in traced[0]["results"]:
                for span in r.get("spans", []):
                    fh.write(json.dumps(span) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    name, trace = args.workload, bool(args.trace)

    needed = [wl.ROOT / "src" / "netmap" / "cli.py", wl.presentation()]
    if "script" in wl.WORKLOADS[name]:
        needed.append(wl.ROOT / wl.WORKLOADS[name]["script"])
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the program is not here: {', '.join(missing)}", file=sys.stderr)
        return 2

    # One CPU for the run and every process it starts (they inherit it),
    # so that a timing and the calibration next to it see the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    try:
        cmds = wl.commands(name, args.seed)
        probes, plain, traced = measure(name, cmds, args.seconds, trace, start)
        attempted, failed, notes = check(name, args.seed, plain + traced, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_details(name, args.seed, trace, probes, plain, traced)

    spec = wl.WORKLOADS[name]
    benchmark = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"workload {name} (seed {args.seed}, trace {int(trace)}): {spec['command']}")
    print(f"  {spec['size']}; operation: {spec['operation']}; {len(cmds)} commands per sample")
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    e2e, lines = end_to_end(probes, plain, units)
    print("\n".join(lines))
    print(f"  {'fail_frac':<12} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    for note in notes[:10]:
        print(f"  FAILED {note}")
    correct = failed == 0
    if trace:
        layers, lines, repeat = per_layer(plain, traced, units)
        print("per-layer (traced samples):")
        print("\n".join(lines))
        hooks = sorted({h for s in traced for h in s["missing_hooks"]})
        if hooks:
            print(f"  not found, so not traced: {', '.join(hooks)}")
        correct = correct and repeat
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
