"""hypocert benchmark: one workload per invocation, checked outputs, JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: check-rel3d, geom-pointwise, solve-fine, pipeline-classical
(see workloads.py and README.md).  Ops run back to back in this one
process (a closed loop with one client) until --seconds have passed and
at least MIN_OPS ops have run, with one BLAS thread.
Before an op, at most every PICK_INTERVAL_S, the process moves to the
usable CPU that is fastest at that moment.  Every op's output is
checked; an op whose check fails, or that raises, counts as failed.

--trace 0 reports the end-to-end metrics: op_s_min (the fastest op),
setup_s (median of fresh-interpreter set-ups, see setup_probe.py) and
peak_rss_mb; it also prints the median op time, the 90th percentile
where a run has at least P90_MIN_OPS ops, and the failed-op share.
--trace 1 runs untraced ops for half the time and traced ops for the
other half, and reports the per-layer metrics from the traced ops plus
the tracing overhead; the spans are written to
.perfbench-out/spans-<workload>-seed<n>.csv.gz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
P90_MIN_OPS = 100
# An untraced run times at least this many ops, however long they take,
# so that op_s_min is a minimum over several ops.
MIN_OPS = 4
PICK_INTERVAL_S = 0.5


def parse_args(argv=None, names=()):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (geom-pointwise points, solve-fine eps)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time per run; at least one op runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class OpStats:
    def __init__(self):
        self.wall = []
        self.cpu = []
        self.failed = 0
        self.reasons = []


def _probe_seconds(reps=2, n=50_000):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        sum(i * i for i in range(n))
        best = min(best, time.perf_counter() - t0)
    return best


def pick_cpu(cpus):
    """Pin this process to the CPU of `cpus` that runs a short probe fastest.

    On a shared host each virtual CPU slows down by up to 1.7x for
    seconds at a time, independently of the others; moving to the
    currently fast one before an op removes part of that noise.
    """
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = _probe_seconds()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def run_ops(w, seconds, tracer=None, first_op=0, min_ops=1):
    """Run ops until `seconds` have passed and `min_ops` have run;
    time each, check each."""
    cpus = os.sched_getaffinity(0)
    try:
        return _run_ops(w, seconds, tracer, first_op, min_ops, sorted(cpus))
    finally:
        os.sched_setaffinity(0, cpus)


def _run_ops(w, seconds, tracer, first_op, min_ops, cpus):
    stats = OpStats()
    deadline = time.perf_counter() + seconds
    picked = -math.inf
    i = first_op
    while True:
        w.reset()
        if len(cpus) > 1 and time.perf_counter() - picked >= PICK_INTERVAL_S:
            pick_cpu(cpus)
            picked = time.perf_counter()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                out = w.op(i)
            else:
                with tracer.span("bench.op", i):
                    out = w.op(i)
            t1, c1 = time.perf_counter(), time.process_time()
            reason = w.check(out)
        except Exception as exc:  # a failing op is counted, not fatal
            t1, c1 = time.perf_counter(), time.process_time()
            reason = f"{type(exc).__name__}: {exc}"
        stats.wall.append(t1 - t0)
        stats.cpu.append(c1 - c0)
        if reason is not None:
            stats.failed += 1
            stats.reasons.append(f"op {i}: {reason}")
        i += 1
        if len(stats.wall) >= min_ops and time.perf_counter() >= deadline:
            return stats


def setup_seconds(name, seed, workdir, first):
    """Median of `first` (this process's own import + set-up) and
    SETUP_REPEATS - 1 more fresh interpreters doing the same, each
    started on the CPU that is fastest at that moment."""
    samples = [first]
    cpus = os.sched_getaffinity(0)
    try:
        for _ in range(SETUP_REPEATS - 1):
            if len(cpus) > 1:
                pick_cpu(sorted(cpus))
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name,
                 "none" if seed is None else str(seed), str(workdir)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(samples), samples


def git_commit():
    """HEAD read from .git in the checkout, or None outside a git tree."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, scipy):
    files = sorted(bootstrap.SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(bootstrap.SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def cpu_note(stats):
    wall, cpu = sum(stats.wall), sum(stats.cpu)
    ratio = cpu / wall if wall > 0 else 0.0
    if ratio >= 0.9:
        why = "ops are compute-bound, so run-to-run spread is machine speed, not waiting"
    else:
        why = f"ops wait for {100 * (1 - ratio):.0f}% of their wall time"
    return f"cpu/wall = {ratio:.3f} over {len(stats.wall)} ops: {why}"


def measure(w, args, workdir, import_s):
    """Untraced run: the end-to-end metrics."""
    t0 = time.perf_counter()
    w.setup()
    first = import_s + time.perf_counter() - t0
    setup_s, samples = setup_seconds(w.name, args.seed, workdir, first)
    w.prepare()
    stats = run_ops(w, args.seconds, min_ops=MIN_OPS)
    metrics = {
        "op_s_min": min(stats.wall),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = [f"setup samples (s): {samples}",
             f"op_s_p50 = {statistics.median(stats.wall)!r} s ({len(stats.wall)} ops)"]
    if len(stats.wall) >= P90_MIN_OPS:
        p90 = statistics.quantiles(stats.wall, n=10)[-1]
        extra.append(f"op_s_p90 = {p90!r} s ({len(stats.wall)} ops)")
    return stats, metrics, extra


def measure_traced(w, args, spans):
    """Traced run: per-layer metrics and the tracing overhead."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup", "setup"):
            w.setup()
    finally:
        tracer.restore()
    w.prepare()
    half = args.seconds / 2.0
    plain = run_ops(w, half)
    tracer.install()
    try:
        traced = run_ops(w, half, tracer=tracer, first_op=len(plain.wall))
    finally:
        tracer.restore()
    ops = list(range(len(plain.wall), len(plain.wall) + len(traced.wall)))
    metrics = spans.layer_metrics(tracer.spans, ops)
    p50 = statistics.median(traced.wall)
    metrics["trace.op_s_p50"] = p50
    metrics["trace.overhead_s"] = p50 - statistics.median(plain.wall)
    bootstrap.OUT.mkdir(exist_ok=True)
    seed = "none" if args.seed is None else args.seed
    path = bootstrap.OUT / f"spans-{w.name}-seed{seed}.csv.gz"
    tracer.write_csv_gz(path)
    stats = OpStats()
    for part in (plain, traced):
        stats.wall += part.wall
        stats.cpu += part.cpu
        stats.failed += part.failed
        stats.reasons += part.reasons
    extra = [f"untraced ops {len(plain.wall)}, traced ops {len(traced.wall)}, "
             f"{len(tracer.spans)} spans written to {path.relative_to(bootstrap.ROOT)}"]
    return stats, metrics, extra


def main(argv=None):
    bootstrap.prepare()
    t0 = time.perf_counter()
    import hypocert
    import workloads
    import_s = time.perf_counter() - t0
    import numpy as np
    import scipy

    import spans

    if Path(hypocert.__file__).resolve().parent != bootstrap.SRC / "hypocert":
        print(f"perfbench: imported hypocert from {hypocert.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, names=sorted(workloads.WORKLOADS))
    if spans.wrapped_attributes():
        raise RuntimeError("tracing wrappers present before the run")

    workdir = bootstrap.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            stats, metrics, extra = measure_traced(w, args, spans)
        else:
            stats, metrics, extra = measure(w, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    attempted = len(stats.wall)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(environment(np, scipy)))
    print(cpu_note(stats))
    print(f"attempted = {attempted}, failed = {stats.failed}, "
          f"failed_op_share = {stats.failed / attempted!r}")
    for reason in stats.reasons[:5]:
        print(f"  failed {reason}")
    for line in extra:
        print(line)
    for key, val in w.notes().items():
        print(f"{key} = {val!r}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
