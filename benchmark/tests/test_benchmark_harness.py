"""Tests of the benchmark itself (tiny sizes).

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import run
import workloads
from privgames import risk

RUN_PY = os.path.join(run.HERE, "run.py")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def spec_metrics(key):
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def bench_main(*args):
    return subprocess.run(
        [sys.executable, RUN_PY, *args], cwd=run.ROOT, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_metric_with_unit(workload, trace, key):
    proc = bench_main("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == spec_metrics(key)
    for name, unit in got.items():
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines[:-1]), name


@pytest.fixture(scope="module")
def baynet_outputs(tmp_path_factory):
    """Real outputs of one tiny baynet_run command."""
    workdir = str(tmp_path_factory.mktemp("bench"))
    bench = run.Bench(workloads.get("baynet_run", "tiny"), 11, workdir, risk.hoeffding_radius)
    result, res = bench.command()
    assert result is not None and result["rc"] == 0
    assert res.failed == set() and res.errors == []
    return bench


def _corrupt(src_bench, tmp_path, edit):
    out = str(tmp_path / "out")
    shutil.copytree(src_bench.out_dir, out)
    path = os.path.join(out, "results_model_seeded.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return check.check_outputs(
        src_bench.workload, src_bench.ids, out, risk.hoeffding_radius, workloads.RHO
    )


def _set_field(index, value):
    """Edit: overwrite one field of the first record row."""

    def edit(lines):
        parts = lines[2].split(",")
        parts[index] = value(parts[index])
        return lines[:2] + [",".join(parts)] + lines[3:]

    return edit


@pytest.mark.parametrize("edit", [
    _set_field(3, lambda v: "1.5"),  # auc
    _set_field(5, lambda v: "-0.1"),  # alpha
    _set_field(6, lambda v: "nan"),  # beta
    _set_field(4, lambda v: repr(float(v) * 2)),  # radius
    lambda lines: lines[:2] + lines[3:],  # record missing
    lambda lines: lines + lines[2:3],  # record twice
], ids=["auc", "alpha", "beta", "radius", "missing", "repeated"])
def test_check_fails_the_broken_record(baynet_outputs, tmp_path, edit):
    first = str(baynet_outputs.ids[0])
    res = _corrupt(baynet_outputs, tmp_path, edit)
    assert res.failed == {first}, res.errors


def test_check_fails_every_record_of_a_partial_file(baynet_outputs, tmp_path):
    res = _corrupt(
        baynet_outputs, tmp_path,
        lambda lines: [lines[0].replace("status=complete", "status=partial")] + lines[1:],
    )
    assert res.failed == {str(i) for i in baynet_outputs.ids}


def test_output_digest_ignores_header_line(baynet_outputs, tmp_path):
    res = _corrupt(baynet_outputs, tmp_path, lambda lines: ["# privgames-results v1 x"] + lines[1:])
    assert res.digest == check.output_digest(baynet_outputs.out_dir)


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "baynet_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
