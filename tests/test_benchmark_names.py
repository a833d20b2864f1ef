"""The package names the benchmark harness reads still exist, and the
column lines it pins are the ones the package declares.

``benchmark/tracer.py`` wraps every name of its ``TRACED`` table, and
``benchmark/child.py`` calls ``cli`` and ``config`` functions with
keyword arguments and reads fields of the experiment config.  Both files
are parsed with ``ast``, never imported, so a deleted or renamed name
fails here in tier-1 and not only in a benchmark run.
"""

import ast
import dataclasses
import importlib
import inspect
import os

from privgames import config, data

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


def _parse(name):
    with open(os.path.join(BENCHMARK, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _module(name):
    return importlib.import_module(f"privgames.{name}")


def test_every_traced_name_resolves():
    (traced,) = [
        ast.literal_eval(node.value)
        for node in _parse("tracer.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    assert "generators" in traced
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not hasattr(_module(mod), name)
    ]
    assert missing == []


def test_every_name_the_child_reads_resolves():
    fields = {f.name for f in dataclasses.fields(config.ExperimentConfig)}
    seen, missing = set(), []
    for node in ast.walk(_parse("child.py")):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
            if owner in ("cli", "config"):
                seen.add(f"{owner}.{name}")
                if not hasattr(_module(owner), name):
                    missing.append(f"{owner}.{name}")
            elif owner == "cfg":
                seen.add(f"cfg.{name}")
                if name not in fields:
                    missing.append(f"cfg.{name}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id in ("cli", "config"):
                fn = getattr(_module(owner.id), node.func.attr, None)
                params = inspect.signature(fn).parameters if fn is not None else {}
                missing += [
                    f"{owner.id}.{node.func.attr}({kw.arg}=)"
                    for kw in node.keywords
                    if fn is not None and kw.arg not in params
                ]
    assert {"cli.cmd_run", "config.load_experiment_config", "cfg.out_dir"} <= seen
    assert missing == []


def test_check_pins_the_declared_columns():
    # benchmark/check.py reads the output tables independently of the
    # package, so it keeps its own copies of their column lines.
    pinned = {
        target.id: ast.literal_eval(node.value)
        for node in _parse("check.py").body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_COLUMNS")
    }
    assert pinned == {
        "RESULTS_COLUMNS": data.TABLES["results"][0],
        "COMPARISON_COLUMNS": data.TABLES["comparison"][0],
        "CONVERGENCE_COLUMNS": data.TABLES["convergence"][0],
        "AUDIT_COLUMNS": data.TABLES["dp-audit"][0],
    }
