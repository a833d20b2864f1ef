"""The package needs numpy only: importing every module loads no scipy."""

import os
import pkgutil
import subprocess
import sys

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
