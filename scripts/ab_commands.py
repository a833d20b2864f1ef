"""Paired in-process A/B of two source trees on one benchmark workload.

Usage, from the repository root::

    python3 scripts/ab_commands.py TREE_A TREE_B --workload baynet_run \\
        [--size full|tiny] [--seed N] [--pairs 20]

Each tree gets one worker process that imports ``privgames`` from the
tree's ``src/`` and runs the workload's command in process through
``benchmark/child.py``, once per request: one warm-up, then one command
per pair.  The pairs alternate which side goes first.  Workers run one
at a time, with BLAS pinned to one thread and default workers.  Costs
paid once per process do not show in these warm workers: imports, and
imports made on first use, such as numpy 2's ``numpy.ma``.  Compare
those with alternating fresh-process ``benchmark/run.py`` runs.

Both sides compile the trees from source: each worker imports a copy
of its tree's ``src/`` without any ``__pycache__``.  A tree that loads
an existing ``__pycache__`` can run measurably slower than the same code
compiled afresh.  Only the trees are compiled afresh: a
``PYTHONPYCACHEPREFIX`` would recompile every standard-library module a
command imports on first use, and the buffers that frees raise glibc's
dynamic malloc thresholds and hide the allocator's page faults from
both sides.  For the same reason the outputs are checked here, not in
the workers.

Printed per side: the median command wall time, the median
``ru_minflt`` (minor page faults) per command and the digest of the
output bodies; then the median per-pair wall ratio B/A and how many
pairs B won.  After the timed pairs each side runs one more command
under ``tracemalloc`` and its traced peak is printed: the live Python
and numpy allocations, which are deterministic and, unlike
``ru_maxrss``, fall again in a long-lived worker.  The traced peak does
not predict a command's peak RSS, so each side then runs
``FRESH_RUNS`` commands in fresh ``benchmark/child.py`` processes, the
sides alternating, and the median of their ``ru_maxrss`` is printed.
The script exits 1, after printing all of this, when the two sides'
output digests differ.
The workloads and the output check come from ``benchmark/``, imported
read-only.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FRESH_RUNS = 3


def serve(tree, name, size, seed, workdir):
    """Worker loop: one command per line of standard input, one JSON
    result per line of standard output.  A ``trace`` line runs the
    command under ``tracemalloc`` and adds its traced peak in bytes."""
    src = os.path.join(workdir, "src")
    shutil.copytree(os.path.join(tree, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path[:0] = [src, BENCH_DIR]
    import child
    import workloads

    workload = workloads.get(name, size)
    config_path = os.path.join(workdir, "config.ini")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(workload, seed, os.path.join(workdir, "out")))
    for line in sys.stdin:
        traced = line.strip() == "trace"
        if traced:
            tracemalloc.start()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        result = child.command(config_path, workload.command, False)
        wall = perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        out = {"rc": result["rc"], "wall_s": wall, "minflt": faults}
        if traced:
            out["traced_peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        print(json.dumps(out), flush=True)


class Side:
    """One tree's worker process and the results of its commands."""

    def __init__(self, label, tree, args, scratch):
        self.label = label
        self.tree = os.path.abspath(tree)
        if not os.path.isfile(os.path.join(self.tree, "src", "privgames", "__init__.py")):
            sys.exit(f"{tree}: no src/privgames in this tree")
        self.workdir = tempfile.mkdtemp(prefix=f"{label}-", dir=scratch)
        self.out_dir = os.path.join(self.workdir, "out")
        self.env = dict(os.environ, PYTHONPATH="")
        self.env.pop("PRIVGAMES_THREADS", None)
        self.env.update({var: "1" for var in BLAS_VARS})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve", self.tree,
             args.workload, args.size, str(args.seed), self.workdir],
            cwd=self.workdir, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.results = []
        self.maxrss_kb = []

    def command(self, check_outputs, traced=False):
        """Run one command, under ``tracemalloc`` if ``traced``, and check
        its outputs; its result."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.proc.stdin.write("trace\n" if traced else "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"side {self.label}: worker exited {self.proc.wait()}")
        result = json.loads(line)
        checked = check_outputs(self.out_dir)
        if result["rc"] != 0 or checked.errors:
            sys.exit(f"side {self.label}: command failed: rc {result['rc']}, {checked.errors[:3]}")
        result["digest"] = checked.digest
        return result

    def fresh_command(self, command, check_outputs):
        """Run one command in a fresh ``benchmark/child.py`` process that
        imports the worker's copy of ``src/``, check its outputs and
        keep its ``ru_maxrss``."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        env = dict(self.env, PYTHONPATH=os.path.join(self.workdir, "src"))
        config_path = os.path.join(self.workdir, "config.ini")
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), "command", config_path, command],
            cwd=self.workdir, env=env, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"rc": None}
        checked = check_outputs(self.out_dir)
        if result["rc"] != 0 or checked.errors:
            sys.exit(f"side {self.label}: fresh command failed: rc {result['rc']}, "
                     f"{checked.errors[:3]} {proc.stderr[-500:]}")
        self.maxrss_kb.append(result["maxrss_kb"])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def compare(args, workload):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import check
    import workloads
    from privgames.risk import hoeffding_radius

    ids = workloads.record_ids(workload, args.seed)

    def check_outputs(out_dir):
        return check.check_outputs(workload, ids, out_dir, hoeffding_radius, workloads.RHO)

    scratch = tempfile.mkdtemp(prefix="ab-")
    sides = []
    try:
        for label, tree in (("A", args.tree_a), ("B", args.tree_b)):
            sides.append(Side(label, tree, args, scratch))
        for side in sides:
            side.command(check_outputs)  # warm-up
        for i in range(args.pairs):
            for side in sides if i % 2 == 0 else sides[::-1]:
                side.results.append(side.command(check_outputs))
        peaks = [side.command(check_outputs, traced=True)["traced_peak"] for side in sides]
        for i in range(FRESH_RUNS):
            for side in sides if i % 2 == 0 else sides[::-1]:
                side.fresh_command(workload.command, check_outputs)
    finally:
        for side in sides:
            side.close()
        shutil.rmtree(scratch, ignore_errors=True)
    a, b = ([r["wall_s"] for r in side.results] for side in sides)
    print(f"workload {args.workload}, size {args.size}, seed {args.seed}, {args.pairs} pairs, "
          "both sides compiled from source")
    digests = [sorted({r["digest"] for r in side.results}) for side in sides]
    for side, walls, outputs in zip(sides, (a, b), digests):
        faults = statistics.median(r["minflt"] for r in side.results)
        print(f"{side.label} {side.tree}: median wall {statistics.median(walls):.4f} s, "
              f"median ru_minflt {faults:g} per command, outputs {' '.join(d[:12] for d in outputs)}")
    ratios = [y / x for x, y in zip(a, b)]
    won = sum(y < x for x, y in zip(a, b))
    print(f"B/A wall: median ratio {statistics.median(ratios):.4f}; B faster in {won} of {args.pairs} pairs")
    print("tracemalloc peak over one command: "
          + ", ".join(f"{side.label} {peak / 1024:.1f} KB" for side, peak in zip(sides, peaks)))
    print(f"fresh-process ru_maxrss over {FRESH_RUNS} commands: "
          + ", ".join(f"{side.label} median {statistics.median(side.maxrss_kb):.0f} KB"
                      for side in sides))
    if digests[0] != digests[1]:
        print("the two sides' outputs differ", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        tree, name, size, seed, workdir = argv[1:]
        return serve(tree, name, size, int(seed), workdir)
    sys.path.insert(0, BENCH_DIR)
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--pairs", type=int, default=20)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return compare(args, workloads.get(args.workload, args.size))


if __name__ == "__main__":
    sys.exit(main())
