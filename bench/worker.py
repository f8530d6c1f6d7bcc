"""One benchmark sample, run in a fresh interpreter.

    python3 bench/worker.py setup [PRESENTATION]
        Time ``import netmap`` and, with a presentation file, the import
        of ``netmap.cli`` and the file's ``parse`` (which validates).
        Then time the calibration loop, which uses no netmap code.
        Prints {"setup_s": ..., "calibration_s": ...}.

    python3 bench/worker.py run < job.json
        Import netmap, then run each command of the job in a child
        forked from this process.  The parent has done nothing but
        import, so every memo cache starts empty in every child, as it
        does in a fresh ``netmap`` process.  A job is
        {"trace": bool, "commands": [{"cli": [...]} | {"script": PATH,
        "argv": [...]}]}.  Prints {"import_s": ..., "results": [...]},
        one result per command.

Each child captures the command's stdout, times the command, and sends
its wall and CPU time, exit code, peak RSS and output (and, when
tracing, its per-layer counts and spans) back through a pipe.  The
calibration loop runs in a child of its own before the first command
and after every CALIBRATE_EVERY_S of commands; each command's result
carries the mean calibration time of the loops just before and just
after it.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIBRATE_EVERY_S = 1.0  # the host's speed holds for a few seconds at a time
sys.path.insert(0, os.path.join(ROOT, "src"))


def calibrate() -> float:
    """Time a fixed pure-Python loop of the kinds of work netmap does:
    Fraction arithmetic, tuple hashing, dict updates and sorting.  Its
    time says how fast the host runs Python at the moment; run.py
    scales the program's times by it."""
    from fractions import Fraction

    t0 = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, 6000):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        total += f * f
        key = (f.numerator % 31, f.denominator % 17, i % 7)
        counts[key] = counts.get(key, 0) + 1
    sorted(Fraction(a + 1, b + 1) for a, b, _ in counts)
    state, table = 0, {}
    for i in range(400_000):
        state = (state * 31 + i) & 0xFFFFFFFF
        table[state & 1023] = i
    return time.perf_counter() - t0


def setup(presentation: str | None) -> None:
    t0 = time.perf_counter()
    import netmap

    if presentation is not None:
        import netmap.cli  # noqa: F401  (a CLI command imports it too)

        with open(presentation, encoding="utf-8") as fh:
            netmap.parse(fh.read())
    elapsed = time.perf_counter() - t0
    import json

    print(json.dumps({"setup_s": elapsed, "calibration_s": calibrate()}))


def _run_command(cmd: dict) -> int:
    if "cli" in cmd:
        from netmap import cli

        return cli.main(cmd["cli"])
    import runpy

    sys.argv = [cmd["script"], *cmd["argv"]]
    try:
        runpy.run_path(cmd["script"], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def _command(cmd: dict, index: int, tracer) -> dict:
    import contextlib
    import io
    import resource
    import traceback

    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.t0 = time.perf_counter()
    w0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _run_command(cmd)
        except Exception:
            code, error = None, traceback.format_exc(limit=8)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": code,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        from tracer import command_metrics, height_points

        result["raw"] = command_metrics(tracer)
        result["heights"] = height_points(tracer)
        result["spans"] = tracer.spans(index)
    return result


def _fork(work) -> dict | None:
    """Run ``work()`` in a forked child and return the dict it returns,
    or None if the child ended without one."""
    import json

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 0
        try:
            view = memoryview(json.dumps(work()).encode())
            while view:
                view = view[os.write(wfd, view):]
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    while True:
        chunk = os.read(rfd, 1 << 20)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(rfd)
    os.waitpid(pid, 0)
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return None


def _calibration() -> float:
    result = _fork(lambda: {"calibration_s": calibrate()})
    if result is None:
        raise RuntimeError("the calibration child ended without a result")
    return result["calibration_s"]


def _run_all(commands: list[dict], tracer) -> list[dict]:
    results, chunk, since = [], [], 0.0
    before = _calibration()
    for i, cmd in enumerate(commands):
        result = _fork(lambda: _command(cmd, i, tracer)) or {
            "exit": None, "error": "the command's child ended without a result",
            "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "stdout": ""}
        results.append(result)
        chunk.append(result)
        since += result["wall_s"]
        if since >= CALIBRATE_EVERY_S or i == len(commands) - 1:
            after = _calibration()
            for r in chunk:
                r["calibration_s"] = (before + after) / 2
            before, chunk, since = after, [], 0.0
    return results


def run() -> None:
    import json

    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import netmap  # noqa: F401  (the children inherit the imported package)
    import netmap.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    # Imported here so that no child pays for them.
    import contextlib, io, resource, runpy, traceback  # noqa: E401, F401

    tracer = None
    if job.get("trace"):
        import tracer as tracing  # bench/ is sys.path[0]

        tracer = tracing.install()
    results = _run_all(job["commands"], tracer)
    sys.stdout.write(json.dumps({
        "import_s": import_s,
        "missing_hooks": tracer.missing if tracer is not None else [],
        "results": results,
    }))


if __name__ == "__main__":
    if len(sys.argv) >= 2 and sys.argv[1] == "setup":
        setup(sys.argv[2] if len(sys.argv) > 2 else None)
    elif len(sys.argv) == 2 and sys.argv[1] == "run":
        run()
    else:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
