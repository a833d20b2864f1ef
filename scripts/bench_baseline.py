"""Assemble a committed BENCH file from ``benchmark/run.py`` detail reports.

Usage, from the repository root, after the runs it reads::

    python3 scripts/bench_baseline.py --seeds 20250817 20250818 20250819 \
        --trace-seed 20250817 --out BENCH_<n>.json

For each workload of ``BENCHMARK.json`` it reads the full-size reports
under ``.bench_out/``: one ``--trace 0`` report per seed and one
``--trace 1`` report.  It writes the median and interquartile range of
each end-to-end metric over the seeds, and the per-layer self times and
counters of the traced run.  A traced metric that reads 0 is marked
``stale`` when the tracer wraps a name that no command calls any more
(the batch code replaced it), and ``not_run`` when the workload's
command does not reach it.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORTS = os.path.join(ROOT, ".bench_out")

# Traced names with no caller on any command path: the batch functions
# (fit_batch, sample_columns, release_bits, toy_fits, ...) replaced them.
# Counters derived from their wraps are stale with them.  The generators
# layer's fit stages (learn_structure, estimate_tables, privatize_tables)
# are the batch functions themselves, so their spans are live.
STALE = (
    "data.contains", "data.append_record",
    "generators.fit", "generators.sample", "generators.release_bit",
    "attack.extract_features",
    "games.traditional_dataset", "games.model_seeded_dataset",
)


def _report(workload, seed, trace):
    path = os.path.join(REPORTS, f"{workload}-seed{seed}-trace{trace}-full.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def _zero_reason(name):
    return "stale" if name.rsplit(".", 1)[0] in STALE else "not_run"


def workload_summary(name, end_to_end, seeds, trace_seed):
    runs = [_report(name, seed, 0) for seed in seeds]
    traced = _report(name, trace_seed, 1)
    metrics = traced["metrics"]
    return {
        "seeds": list(seeds),
        "commands": [r["commands"] for r in runs],
        "outputs_sha256": {str(r["seed"]): r["outputs_sha256"] for r in runs + [traced]},
        "end_to_end": {
            m["name"]: {
                "unit": m["unit"],
                **_spread([r["metrics"][m["name"]]["value"] for r in runs]),
            }
            for m in end_to_end
        },
        "traced": {
            "seed": trace_seed,
            "untraced_wall_s": traced["untraced_wall_s"],
            "traced_wall_s": traced["traced_wall_s"],
            "self_s": {k: m["value"] for k, m in metrics.items() if k.endswith(".self_s")},
            "counters": {k: m["value"] for k, m in metrics.items() if m["unit"] != "s"},
            "zero": {k: _zero_reason(k) for k, m in metrics.items() if m["value"] == 0},
        },
        "environment": runs[0]["environment"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    if len(args.seeds) < 3:
        p.error("an interquartile range needs at least three seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = {
        w["name"]: workload_summary(w["name"], bench["end_to_end"], args.seeds, args.trace_seed)
        for w in bench["workloads"]
    }
    envs = {json.dumps(w.pop("environment"), sort_keys=True) for w in workloads.values()}
    if len(envs) != 1:
        sys.exit("reports come from different environments or source trees")
    out = {
        "run_seconds": bench["run_seconds"],
        "environment": json.loads(envs.pop()),
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
