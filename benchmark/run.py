"""privgames benchmark: one workload, closed loop, one client.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  The workload's INI is written from the
seed into a scratch directory under ``.bench_work/``; each command runs
in a fresh single-process child (``child.py``) with default workers,
and the next command starts only after the previous one has exited.
Every command's outputs go through ``check.py``.

``--trace 0`` measures for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced command and reports the per-layer metrics of ``tracer.py`` plus
the tracing overhead.  The last line of standard output is one JSON
object; a detail report (environment, per-command figures, output
digests, spans) is written to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import calibrate
import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
REPORT_DIR = os.path.join(ROOT, ".bench_out")

# Several fresh-process set-ups per run; their median is setup_s.
SETUP_REPS = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 100
BLAS_THREADS = "1"

# Command and record times are reported in "ref" units: multiples of the
# reference kernel's wall time (calibrate.py), measured around every
# command of the same run.  A shared host's speed drifts with its other
# tenants' load (by 20% and more over minutes on a shared 2-core x86
# host), which moves raw seconds between runs by more than a useful bound;
# the ratio cancels most of that drift while keeping every change to the
# package fully visible.  Raw seconds are printed and kept in the report.
END_TO_END_UNITS = {
    "rounds_per_ref": "1/ref",
    "record_ref_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def child_env():
    env = dict(os.environ)
    env.pop("PRIVGAMES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args):
    """Run child.py with ``args``; its JSON result, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"child {args[0]} timed out after {CHILD_TIMEOUT_S} s\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"child {args[0]} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


class Bench:
    def __init__(self, workload, seed, workdir, radius):
        self.workload = workload
        self.ids = workloads.record_ids(workload, seed)
        self.config_path = os.path.join(workdir, "config.ini")
        self.out_dir = os.path.join(workdir, "out")
        self.radius = radius
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(workload, seed, self.out_dir))

    def setup_s(self):
        result = run_child(["setup", self.config_path])
        if result is None:
            raise BenchError("set-up failed")
        return result["setup_s"]

    def command(self, trace=False):
        """One command plus its correctness check: (child result, CheckResult)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = ["command", self.config_path, self.workload.command]
        result = run_child(args + ["--trace"] if trace else args)
        res = check.check_outputs(self.workload, self.ids, self.out_dir, self.radius, workloads.RHO)
        if result is None or result["rc"] != 0:
            res.errors.append(f"command failed: {result and result['rc']}")
            res.failed.update(str(i) for i in self.ids)
        return result, res


def environment():
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    src_lines = 0
    pkg = os.path.join(SRC, "privgames")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "src_lines": src_lines,
    }


def timed(bench, seconds, setup_reps):
    """Closed loop of untraced commands for ``seconds``; end-to-end metrics."""
    setups = [bench.setup_s() for _ in range(setup_reps)]
    runs = []
    took = []
    refs = []
    start = perf_counter()
    # Start another command only if a typical one still fits in the run.
    while not runs or perf_counter() - start + statistics.median(took) <= seconds:
        t0 = perf_counter()
        refs.append(calibrate.reference_s())
        runs.append(bench.command())
        took.append(perf_counter() - t0)
    refs.append(calibrate.reference_s())  # refs bracket every command
    done = [r for r, _ in runs if r is not None]
    record_s = [t for r in done for t in r["record_s"]]
    if not record_s:
        raise BenchError("no record completed")
    rounds = workloads.rounds_per_command(bench.workload)
    attempted = len(runs) * len(bench.ids)
    failed = sum(len(c.failed) for _, c in runs)
    ref_s = statistics.mean(refs)
    rounds_per_s = rounds * len(done) / sum(r["wall_s"] for r in done)
    values = {
        "rounds_per_ref": rounds_per_s * ref_s,
        "record_ref_p50": statistics.median(record_s) / ref_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in done),
        "records_ok_ratio": (attempted - failed) / attempted,
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    details = {
        "commands": len(runs),
        "rounds_per_command": rounds,
        "rounds_per_s": rounds_per_s,
        "record_s_p50": statistics.median(record_s),
        "reference_s": ref_s,
        "reference_s_all": refs,
        "setup_s_all": setups,
        "wall_s_all": [r["wall_s"] for r in done],
        "record_s_all": record_s,
    }
    return metrics, runs, attempted, failed, details


def traced(bench):
    """One untraced and one traced command; per-layer metrics and overhead."""
    runs = [bench.command(), bench.command(trace=True)]
    (plain, _), (trace, _) = runs
    if plain is None or trace is None:
        raise BenchError("traced or untraced command did not complete")
    metrics = {k: tuple(v) for k, v in trace["layers"].items()}
    metrics["trace.overhead_ratio"] = (trace["wall_s"] / plain["wall_s"], "ratio")
    attempted = len(runs) * len(bench.ids)
    failed = sum(len(c.failed) for _, c in runs)
    details = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": trace["wall_s"],
        "spans": trace["spans"],
    }
    return metrics, runs, attempted, failed, details


def tail_percentile(samples):
    """The highest of p75/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[p - 1]
            return f"record_s_p{p} {value:.6g}"
    return "too few samples for a tail percentile"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    return p.parse_args(argv)


def _terminate(signum, frame):
    # Raising here makes subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "privgames", "__init__.py")):
        sys.stderr.write(f"privgames sources not found under {SRC}; run from a repository checkout\n")
        return 2
    sys.path.insert(0, SRC)
    from privgames import risk

    workload = workloads.get(args.workload, args.size)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        bench = Bench(workload, args.seed, workdir, risk.hoeffding_radius)
        if args.trace:
            metrics, runs, attempted, failed, details = traced(bench)
        else:
            metrics, runs, attempted, failed, details = timed(
                bench, args.seconds, SETUP_REPS[args.size]
            )
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = sorted({c.digest for _, c in runs})
    errors = [e for _, c in runs for e in c.errors]
    env = environment()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "records": bench.ids,
        "environment": env,
        "outputs_sha256": digests,
        "check_errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **details,
    }
    os.makedirs(REPORT_DIR, exist_ok=True)
    report_path = os.path.join(
        REPORT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    )
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload} ({workload.command}), seed {args.seed}, size {args.size}, "
          f"records {bench.ids}, {len(runs)} commands")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for err in errors[:10]:
        print(f"check error: {err}")
    print(f"outputs_sha256 {' '.join(digests)} (informational, not a gate)")
    if "record_s_all" in details:
        print(f"raw seconds (informational): rounds_per_s {details['rounds_per_s']:.6g}, "
              f"record_s_p50 {details['record_s_p50']:.6g} over {len(details['record_s_all'])} "
              f"records, {tail_percentile(details['record_s_all'])}, "
              f"reference kernel {details['reference_s']:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"report {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
