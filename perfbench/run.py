"""Benchmark harness for the orthoentropy command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process drives ``orthoentropy.cli.main(argv)`` in-process as a closed
loop: one client, one operation (one CLI invocation) at a time, the next
sent when the previous one returns.  The package is imported from
``src/`` of the checkout this file sits in.

A run warms up, times operations for ``--seconds`` and then checks every
timed operation's output against the references in ``reference.py``,
untimed.  Operation times are scaled to a reference host speed (see
``speed.py``).
With ``--trace 0`` the run also measures set-up time in fresh
interpreters and the peak RSS of one untimed pass, and reports the
end-to-end metrics.  With ``--trace 1`` it times the first half of the
run with every public function wrapped in a span, replays the same
operations untraced in the second half, and reports per-layer metrics,
including the tracing overhead.  The last line of stdout is one JSON
object; a human summary goes to stderr, and the full record (sample
counts, tail percentile, raw times, versions, thread caps) to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CALIBRATION, WORKLOADS, make_op, warmup_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "orthoentropy"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_TIMED_OPS = 20
TAIL_BEYOND = 10
SETUP_SAMPLES = 5

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Child interpreter: time stamp once the CLI parser is built, then one
# untimed pass over the given argvs, then the process's peak RSS in KiB.
SETUP_PROBE = f"""
import sys, time
import {PACKAGE}.cli as cli
cli.build_parser()
print(repr(time.perf_counter()), flush=True)
import contextlib, io, json, resource
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def pin_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported; child interpreters inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def load_cli():
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / PACKAGE} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import orthoentropy.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


def make_runner(cli):
    def run_cli(argv: list[str]) -> tuple[int, str]:
        """One operation: (exit code, stdout).  Tracebacks count as failures."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - the harness must keep running
            code = -1
            out.write(f"uncaught {exc!r}")
        return code, out.getvalue()

    return run_cli


def measure_setup(samples: int, ops, log) -> tuple[list[float], list[float], float]:
    """Set-up seconds in fresh interpreters (raw, scaled), and peak RSS (MiB).

    Set-up runs from spawning the interpreter to a built CLI parser: the
    child prints ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all
    processes) after ``import orthoentropy.cli`` and ``build_parser()``,
    and the parent subtracts its own reading taken just before the spawn.
    Each sample is scaled by ``log``'s calibrations just before and after
    the spawn, like an operation; across host-speed spells the raw medians
    of a run moved by 1.8x and the scaled ones by 1.3x.
    The last child then makes one untimed pass over ``ops`` and reports
    its peak resident set size, which is what a user of the CLI pays.  One
    discarded first spawn writes the bytecode cache.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    argvs = json.dumps([list(op.argv) for op in ops])
    setup = []
    for i in range(samples + 1):
        log.before(i)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE,
                               argvs if i == samples else "[]"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        stamp, peak_kib = done.stdout.split()
        setup.append(float(stamp) - start)
    log.close(len(setup))
    scaled = [t * f for t, f in zip(setup, log.factors(len(setup)))]
    return setup[1:], scaled[1:], int(peak_kib) / 1024


def timed_loop(run_cli, ops, seconds, log, min_ops, before_op=None):
    """Closed loop over ``ops(i)`` for ``seconds`` and at least ``min_ops``."""
    done, results, times = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(done) < min_ops:
        op = ops(len(done))
        if op is None:
            break
        argv = list(op.argv)
        log.before(len(done))
        if before_op is not None:
            before_op(len(done))
        start = time.perf_counter()
        result = run_cli(argv)
        times.append(time.perf_counter() - start)
        done.append(op)
        results.append(result)
    log.close(len(done))
    return done, results, times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples above it, and the percentile that makes it."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": threads,
        "commit": git_commit(),
    }


def run_workload(args) -> int:
    threads = pin_threads()
    cli = load_cli()
    from reference import Checker, data_rows
    from speed import SpeedLog
    from tracing import PER_LAYER, Tracer, layer_metrics

    run_cli = make_runner(cli)
    workload, seed = args.workload, args.seed
    record: dict = {"workload": workload, "seed": seed, "seconds": args.seconds,
                    "trace": args.trace, "loop": "closed, 1 client, in-process",
                    "calibration_load": CALIBRATION[workload]}
    OUT.mkdir(exist_ok=True)
    phases: dict[str, float] = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    def fresh(i: int):
        return make_op(workload, seed, i)

    warm = [make_op(workload, seed, i, tag="warm") for i in range(warmup_count(workload))]
    if not args.trace:
        setup_raw, setup, rss = measure_setup(
            SETUP_SAMPLES, warm, SpeedLog("interp", interval=0.0))
        phase("setup")
    for op in warm:
        run_cli(list(op.argv))
    phase("warmup")

    log = SpeedLog(CALIBRATION[workload])
    if args.trace:
        tracer = Tracer()

        def mark(index: int) -> None:
            tracer.op_id = index

        with tracer.patched(PACKAGE):
            ops, results, times = timed_loop(run_cli, fresh, args.seconds / 2, log,
                                             MIN_TIMED_OPS // 2, before_op=mark)
        replay_log = SpeedLog(CALIBRATION[workload])
        _, _, replay = timed_loop(run_cli, lambda i: ops[i] if i < len(ops) else None,
                                  args.seconds / 2, replay_log, 1)
    else:
        ops, results, times = timed_loop(run_cli, fresh, args.seconds, log, MIN_TIMED_OPS)
    phase("timed")

    checker = Checker(run_cli)
    errors = checker.check_all(ops, results)
    phase("check")
    failures = [e for e in errors if e is not None]
    rows = sum(data_rows(out) for _, out in results)
    bytes_out = sum(len(out.encode()) for _, out in results)
    scaled = [t * f for t, f in zip(times, log.factors(len(times)))]

    if args.trace:
        metrics = layer_metrics(tracer, rows, bytes_out, log.median_factor())
        replay_scaled = [t * f for t, f in zip(replay, replay_log.factors(len(replay)))]
        metrics["trace.overhead_ms"] = 1e3 * (
            statistics.median(scaled[: len(replay)]) - statistics.median(replay_scaled))
        written = tracer.write(OUT / f"spans-{workload}.csv.gz")
        units = PER_LAYER
        record.update(untraced_ops=len(replay), spans=len(tracer), spans_written=written)
    else:
        value, pct = tail(scaled)
        metrics = {
            "op_ms_p50": 1e3 * statistics.median(scaled),
            "op_ms_tail": 1e3 * value,
            "rows_per_s": rows / sum(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        record.update(
            tail_percentile=pct, setup_samples=setup,
            raw={"op_ms_p50": 1e3 * statistics.median(times),
                 "op_ms_tail": 1e3 * tail(times)[0],
                 "rows_per_s": rows / sum(times),
                 "setup_s": statistics.median(setup_raw)},
        )
    record.update(
        phase_seconds=phases, attempted=len(ops), failed=len(failures),
        failed_ratio=len(failures) / len(ops), rows=rows, bytes_out=bytes_out,
        speed_factor_median=log.median_factor(), errors=failures[:10],
        low_n_probe=low_n_summary(checker.low_n_probe),
        environment=environment(threads),
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
    )
    with open(OUT / f"{workload}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    summarize(record)
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


def low_n_summary(probe: list[tuple[str, float]]) -> dict | None:
    """The program's n = 6 rows against mpmath: how many miss 1e-9, and by how much."""
    if not probe:
        return None
    from reference import TOL

    misses = [(argv, err) for argv, err in probe if not err <= TOL]
    return {"rows": len(probe), "beyond_1e-9": len(misses),
            "max_error": max(err for _, err in probe),
            "examples": [f"{argv}: {err:.3g}" for argv, err in misses[:5]]}


def summarize(record: dict) -> None:
    n = record["attempted"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{n} ops, failed_ratio={record['failed']}/{n}, "
          f"speed factor {record['speed_factor_median']:.3f}", file=sys.stderr)
    print("  phases: " + ", ".join(f"{k} {v:.2f} s" for k, v in record["phase_seconds"].items()),
          file=sys.stderr)
    for error in record["errors"]:
        print(f"  FAILED {error}", file=sys.stderr)
    probe = record["low_n_probe"]
    if probe:
        print(f"  low-n probe (untimed entropy --n 6 rows against mpmath, not counted as"
              f" failures): {probe['beyond_1e-9']}/{probe['rows']} beyond 1e-9,"
              f" max error {probe['max_error']:.3g}", file=sys.stderr)
    for name, m in record["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{record['tail_percentile']:.1f} of {n} ops)"
        elif name in ("op_ms_p50", "rows_per_s"):
            note = f"  ({n} ops; raw {record['raw'][name]:.6g})"
        elif name == "setup_s":
            note = (f"  (median of {len(record['setup_samples'])} fresh interpreters;"
                    f" raw {record['raw'][name]:.6g})")
        elif name == "peak_rss_mb":
            note = "  (peak RSS of a fresh interpreter over one untimed pass)"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    print(f"{'workload':14s} {'ops':>5s} {'failed_ratio':>12s} " + " ".join(
        f"{name + ' [' + unit + ']':>20s}" for name, unit in END_TO_END.items())
        + "  tail percentile")
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{workload:14s} exited {done.returncode}: {done.stderr.strip()}")
            status = 1
            continue
        record = json.loads((OUT / f"{workload}-seed{args.seed}-trace0.json").read_text())
        n = record["attempted"]
        cells = " ".join(f"{record['metrics'][k]['value']:20.6g}" for k in END_TO_END)
        print(f"{workload:14s} {n:5d} {record['failed']:>5d}/{n:<6d} {cells}"
              f"  p{record['tail_percentile']:.1f}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
