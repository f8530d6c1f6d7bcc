"""Workload inputs and the pinned outputs they are checked against.

The commands and sizes come from ``spec.json``.  ``expected/`` holds
the stdout of every workload as the program printed it when the
benchmark was defined; ``make_expected.py`` writes it.  Deep slopes come
from a pinned pool with a known answer for each, so any seed can be
checked byte for byte.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = SPEC["workloads"]


def presentation() -> Path:
    return ROOT / SPEC["presentation"]


def cli_argv(template: list[str], slope: str | None = None) -> list[str]:
    argv = []
    for arg in template:
        if arg == "{presentation}":
            argv.append(str(presentation()))
        elif arg == "{slope}":
            # argparse reads a leading '-' as an option; the CLI wants '--'.
            argv.extend(["--", slope] if slope.startswith("-") else [slope])
        else:
            argv.append(arg)
    return argv


# ---------------------------------------------------------------------------
# Deep slopes


def load_pool() -> list[tuple[int, int, str, str]]:
    """(stratum, height, slope, expected image) from the pinned pool."""
    pool = []
    for line in (EXPECTED / "deep_pool.txt").read_text(encoding="utf-8").splitlines():
        stratum, height, slope, image = line.split()
        pool.append((int(stratum), int(height), slope, image))
    return pool


def deep_slopes(seed: int) -> list[tuple[int, str, str]]:
    """(height, slope, expected image): one pool sibling per stratum."""
    rng = random.Random(seed)
    by_stratum: dict[int, list] = {}
    for stratum, height, slope, image in load_pool():
        by_stratum.setdefault(stratum, []).append((height, slope, image))
    return [rng.choice(by_stratum[s]) for s in sorted(by_stratum)]


# ---------------------------------------------------------------------------
# Commands and pinned outputs


def commands(name: str, seed: int) -> list[dict]:
    spec = WORKLOADS[name]
    if name == "deep":
        return [{"cli": cli_argv(spec["cli"], slope)} for _, slope, _ in deep_slopes(seed)]
    if "script" in spec:
        return [{"script": str(ROOT / spec["script"]), "argv": spec["argv"]}]
    return [{"cli": cli_argv(spec["cli"])}]


def expected_outputs(name: str, seed: int) -> list[str]:
    """The pinned stdout of each command of the workload."""
    if name == "deep":
        return [image + "\n" for _, _, image in deep_slopes(seed)]
    # Bytes, not text: the CSV writer ends lines with \r\n.
    return [(EXPECTED / f"{name}.txt").read_bytes().decode("utf-8")]


def operations(name: str, output: str) -> list[str]:
    """The operations an output reports: CSV rows, group rows or the whole."""
    lines = output.splitlines()
    if name == "graph":
        return lines[1:]
    if name == "census":
        return [line for line in lines if line.startswith("Z/")]
    return [output]


def failed_operations(name: str, output: str, expected: str) -> set[int]:
    """Indices of the expected operations that the output does not match."""
    want = operations(name, expected)
    if output == expected:
        return set()
    got = operations(name, output)
    bad = {i for i, op in enumerate(want) if i >= len(got) or got[i] != op}
    return bad or set(range(len(want)))
