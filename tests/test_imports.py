"""The package needs numpy only: importing every module loads no scipy,
and no command loads ``numpy.ma``.  A command called as a library
function loads no argparse, thread pool or difflib.  And it seeds random
streams in one place: only ``seeds`` touches ``numpy.random``, and only
``Streams.__getitem__`` builds a Generator."""

import ast
import os
import pkgutil
import subprocess
import sys

import pytest

import privgames


def test_importing_every_module_loads_no_scipy():
    # __main__ runs the command line on import; it imports only cli.
    names = sorted(
        f"privgames.{m.name}"
        for m in pkgutil.iter_modules(privgames.__path__)
        if m.name != "__main__"
    )
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = os.path.dirname(os.path.dirname(privgames.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert "privgames.cli" in names and "privgames.risk" in names
    assert out.stdout.strip() == "[]"


def _numpy_random_uses(tree):
    """(enclosing function qualname, use) of every ``numpy.random`` reference."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                uses.append((scope, "numpy.random"))
        if isinstance(node, ast.Import):
            uses.extend((scope, a.name) for a in node.names if a.name.startswith("numpy.random"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            uses.append((scope, node.module))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "Generator":
                uses.append((scope, "Generator"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return uses


def test_only_seeds_opens_random_streams():
    pkg = os.path.dirname(privgames.__file__)
    by_module = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                uses = _numpy_random_uses(ast.parse(fh.read()))
            if uses:
                by_module[name[: -len(".py")]] = uses
    assert list(by_module) == ["seeds"]
    builds = [scope for scope, use in by_module["seeds"] if use == "Generator"]
    assert builds == ["Streams.__getitem__"]


_TINY_CONFIG = """
[data]
dataset = bundled:correlated_500
aux_size = 60
eval_size = 60
target_size = 20

[generator]
{generator}

[attack]
n_shadow = 4
k_values = 1
queries_per_k = 5
epochs = 20
syn_size = 20

[game]
n_eval = 6

[records]
selection = first:1

[output]
dir = {out}
"""


def _loaded(code, tmp_path, names):
    """Which of the module ``names`` a fresh interpreter holds after ``code``."""
    src = os.path.dirname(os.path.dirname(privgames.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    report = f"\nimport sys\nprint([m for m in {names!r} if m in sys.modules])\n"
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env=env, capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    return ast.literal_eval(out.stdout.splitlines()[-1])


def _loads_numpy_ma(code, tmp_path):
    return _loaded(code, tmp_path, ["numpy.ma"]) == ["numpy.ma"]


_BAYNET = "kind = baynet\nmax_parents = 2"
_PRIVBAYNET = "kind = privbaynet\nepsilon = 1.0\nmax_parents = 2"
_GRID = "\n[convergence]\ngrid = 4,6\nrepetitions = 2\n"


def _write_configs(tmp_path):
    """The run, dp-audit and convergence configs, each by its command."""
    paths = {}
    for command, generator, extra in (
        ("run", _BAYNET, ""),
        ("dp-audit", _PRIVBAYNET, ""),
        ("convergence", _BAYNET, _GRID),
    ):
        path = paths[command] = tmp_path / f"{command}.ini"
        path.write_text(_TINY_CONFIG.format(generator=generator, out=tmp_path / command) + extra)
    return paths


def test_network_commands_load_no_numpy_ma(tmp_path):
    # numpy 2's np.unique imports numpy.ma (its _unique1d asks
    # np.ma.is_masked), a cost of milliseconds inside a command.  numpy
    # 1.x imports numpy.ma with numpy itself, so there is nothing to keep
    # off the command path there.
    if _loads_numpy_ma("import numpy", tmp_path):
        pytest.skip("importing numpy loads numpy.ma")
    paths = _write_configs(tmp_path)
    results = [str(tmp_path / "run" / f"results_{g}.csv") for g in ("traditional", "model_seeded")]
    for argv in (
        ["run", "--config", str(paths["run"])],
        ["compare", *results, "--out", str(tmp_path / "comparison.csv")],
        ["dp-audit", "--config", str(paths["dp-audit"])],
        ["convergence", "--config", str(paths["convergence"])],
    ):
        code = f"from privgames import cli\nassert cli.main({argv!r}) == 0\n"
        assert not _loads_numpy_ma(code, tmp_path), argv[0]


def test_library_commands_load_only_what_they_run(tmp_path):
    # The cmd_* functions at their default single thread need no argument
    # parser, thread pool or spelling hint, and no numpy.ma (see above).
    paths = _write_configs(tmp_path)
    code = (
        "import os\n"
        "from privgames import cli, config\n"
        "quiet = lambda message: None\n"
        f"run = config.load_experiment_config({str(paths['run'])!r})\n"
        "assert cli.cmd_run(run, log=quiet) == 0\n"
        "results = [os.path.join(run.out_dir, f'results_{game}.csv')\n"
        "           for game in ('traditional', 'model_seeded')]\n"
        "threshold = run.high_risk_threshold\n"
        "assert cli.cmd_compare(*results, threshold, 'comparison.csv', log=quiet) == 0\n"
        f"audit = config.load_experiment_config({str(paths['dp-audit'])!r})\n"
        "assert cli.cmd_dp_audit(audit, log=quiet) == 0\n"
        f"grid = config.load_experiment_config({str(paths['convergence'])!r})\n"
        "assert cli.cmd_convergence(grid, log=quiet) == 0\n"
    )
    deferred = ["argparse", "concurrent.futures", "difflib"]
    if not _loads_numpy_ma("import numpy", tmp_path):
        deferred.append("numpy.ma")
    assert _loaded(code, tmp_path, deferred) == []
