"""End-to-end benchmark of the fishrope CLI.

    python3 perfbench/run.py --workload retrieval --seed 0 --seconds 28 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  One workload per process, closed loop, one client: the next op
starts when the previous one ends.  A warm-up op is checked but not timed.

With `--trace 0` the run reports the end-to-end metrics; `setup_s` is the
median of several fresh interpreter starts spread over the run.  Their
timings are scaled to a nominal host speed by a reference kernel timed
around every op (see `run_untraced`); the raw timings are in the context
line.  With
`--trace 1` ops alternate between untraced and traced, and the run
reports per-layer metrics from the traced ops plus the tracing overhead.
A context line (JSON) precedes the result line; traced spans go to
`.perfbench/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# BLAS and OpenMP are pinned to one thread before numpy is first imported
# (by `workloads`); probe children inherit the setting.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 9
# End-to-end timings are scaled to the host speed at which host_ref_s()
# reads this; a mid-range reading on a shared 2-core x86-64 host.
REF_NOMINAL_S = 0.004
PROBE_TIMEOUT_S = 60.0
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_REF_MATRIX = np.random.default_rng(0).standard_normal((192, 192))


def host_ref_s() -> float:
    """Host speed now: geometric mean of two fixed kernels' wall times.

    A pure-Python loop (interpreter speed) and a small matrix product
    (floating-point speed), both independent of fishrope, so no change to
    the package moves it.  About 9 ms in all on a 2-core x86-64 host.
    A streaming-memory kernel was tried as a third factor; its jitter
    made the scaled op times less steady, not more.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    for _ in range(10):
        _REF_MATRIX @ _REF_MATRIX
    t2 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1)) ** 0.5


def setup_probe(calib: str) -> float:
    """Seconds from starting a fresh interpreter until its first op can run."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), str(ROOT), calib]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"setup probe failed (exit code {rc})")
    return elapsed


class Tally:
    """Per-op timings, work and failures of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.work = 0.0
        self.errors: list[str] = []

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def measure_op(wl, i: int, tally: Tally, timed: bool = True) -> None:
    """Run op i, check its output and record it in `tally`."""
    tally.attempted += 1
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        state = wl.op(i)
    except Exception:  # a crashing op is a failed op, not a crashed benchmark
        wall = time.perf_counter() - t0
        state = None
        tally.errors.append(traceback.format_exc(limit=3))
    else:
        wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    work = 0.0
    if state is not None:
        try:
            work = wl.check(state)
        except Exception as exc:  # any error reading a corrupted output fails the op
            tally.errors.append(f"op {i}: {exc!r}")
            state = None
    if state is None:
        tally.failed += 1
    if timed:
        tally.wall.append(wall)
        tally.cpu.append(cpu)
        tally.work += work


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, if any."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1
    return {"value": ordered[k], "percentile": round(100.0 * (k + 1) / n, 2), "samples": n}


def run_untraced(wl, seconds: float, calib: str) -> tuple[dict, dict, Tally]:
    """End-to-end metrics; each timing is scaled to the nominal host speed.

    The host reference is read before and after every op and every setup
    probe, and the timing is multiplied by REF_NOMINAL_S over the mean of
    the two readings.  Slow phases of a shared host slow the reference and
    the op alike, so the scaled times hold steady across them; the raw
    times go to the context line.
    """
    tally = Tally()
    setups: list[float] = []
    setups_raw: list[float] = []
    scale: list[float] = []  # one factor per timed op, aligned with tally.wall
    refs: list[float] = []

    def factor(before: float) -> float:
        refs.append(host_ref_s())
        return REF_NOMINAL_S / (0.5 * (before + refs[-1]))

    def probe() -> None:
        before = refs[-1]
        setups_raw.append(setup_probe(calib))
        setups.append(setups_raw[-1] * factor(before))

    measure_op(wl, 0, tally, timed=False)
    refs.append(host_ref_s())
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + (j + 0.5) * seconds / SETUP_PROBES for j in range(SETUP_PROBES)]
    i = 1
    while not tally.wall or time.perf_counter() < deadline:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            probe()
        else:
            before = refs[-1]
            measure_op(wl, i, tally)
            scale.append(factor(before))
            i += 1
    for _ in due:
        probe()
    ops = [w * f for w, f in zip(tally.wall, scale)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "work_per_s": (tally.work / sum(ops), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    context = {
        "samples": {"op": len(ops), "setup": len(setups)},
        "op_quartiles_s": statistics.quantiles(ops, n=4) if len(ops) > 1 else None,
        "setup_all_s": setups,
        "op_tail_s": tail(ops),
        "ref_nominal_s": REF_NOMINAL_S,
        "host_ref_s": statistics.median(refs),
        "host_ref_quartiles_s": statistics.quantiles(refs, n=4),
        "raw": {
            "setup_s": statistics.median(setups_raw),
            "op_p50_s": statistics.median(tally.wall),
            "work_per_s": tally.work / sum(tally.wall),
        },
        "proc_wait_s_total": sum(w - c for w, c in zip(tally.wall, tally.cpu)),
    }
    return metrics, context, tally


def run_traced(wl, seconds: float, seed: int) -> tuple[dict, dict, Tally]:
    rec = spans.Recorder()
    tally = Tally()  # traced ops; the untraced ones are merged in after the loop
    untraced = Tally()
    hosts = [host_ref_s()]
    measure_op(wl, 0, tally, timed=False)
    deadline = time.perf_counter() + seconds
    traced_wall = tally.wall
    first_traced = 2
    i = 1
    while time.perf_counter() < deadline or not traced_wall:
        if i % 2:
            measure_op(wl, i, untraced)
        else:
            with rec.installed(i):
                measure_op(wl, i, tally)
        i += 1
    hosts.append(host_ref_s())
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.errors += untraced.errors

    totals = rec.self_and_total()
    metrics = spans.per_layer_metrics(rec, totals, len(traced_wall), sum(traced_wall))
    untraced_p50 = statistics.median(untraced.wall)
    metrics["proc.cpu_s"] = (statistics.median(untraced.cpu), "s")
    metrics["proc.wait_s"] = (
        statistics.median(w - c for w, c in zip(untraced.wall, untraced.cpu)),
        "s",
    )
    metrics["trace.overhead"] = (statistics.median(traced_wall) - untraced_p50, "s")
    context = {
        "samples": {"traced_op": len(traced_wall), "untraced_op": len(untraced.wall)},
        "op_p50_s_untraced": untraced_p50,
        "top_self_share": spans.top_self(totals[0], sum(traced_wall)),
        "host_ref_s": statistics.median(hosts),
        "proc_wait_s_total": sum(w - c for w, c in zip(untraced.wall, untraced.cpu)),
    }
    self_s, total_s, calls = totals
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": wl.name,
                "seed": seed,
                "traced_ops": len(traced_wall),
                "traced_wall_s": sum(traced_wall),
                "self_s": self_s,
                "total_s": total_s,
                "calls": calls,
                "counters": rec.counters,
                "first_op_spans": rec.spans_of(first_traced),
            }
        ),
        encoding="utf-8",
    )
    context["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, context, tally


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        workloads.load_package(ROOT)
        expected = workloads.load_expected()
    except (workloads.MissingSource, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, expected)
        if args.trace:
            metrics, context, tally = run_traced(wl, args.seconds, args.seed)
        else:
            calib = str(ROOT / workloads.CALIBRATION)
            metrics, context, tally = run_untraced(wl, args.seconds, calib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        threads=THREAD_ENV,
        work_unit=wl.work_unit,
        failed_frac=tally.failed_frac(),
        errors=tally.errors[:5],
    )
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
