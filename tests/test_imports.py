"""The package needs numpy only: importing every module loads no scipy,
and a network command loads no ``numpy.ma``.  And it seeds random
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


def _loads_numpy_ma(code, tmp_path):
    src = os.path.dirname(os.path.dirname(privgames.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('numpy.ma' in sys.modules)\n"],
        env=env, capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    return out.stdout.splitlines()[-1] == "True"


def test_network_commands_load_no_numpy_ma(tmp_path):
    # numpy 2's np.unique imports numpy.ma (its _unique1d asks
    # np.ma.is_masked), a cost of milliseconds inside a command.  numpy
    # 1.x imports numpy.ma with numpy itself, so there is nothing to keep
    # off the command path there.
    if _loads_numpy_ma("import numpy", tmp_path):
        pytest.skip("importing numpy loads numpy.ma")
    for name, command, generator in (
        ("run", "run", "kind = baynet\nmax_parents = 2"),
        ("audit", "dp-audit", "kind = privbaynet\nepsilon = 1.0\nmax_parents = 2"),
    ):
        path = tmp_path / f"{name}.ini"
        path.write_text(_TINY_CONFIG.format(generator=generator, out=tmp_path / name))
        code = (
            "from privgames import cli\n"
            f"assert cli.main([{command!r}, '--config', {str(path)!r}]) == 0\n"
        )
        assert not _loads_numpy_ma(code, tmp_path), command
