"""Smoke tests of the developer scripts under ``scripts/``."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_commands_runs_one_tree_against_itself():
    script = os.path.join(ROOT, "scripts", "ab_commands.py")
    out = subprocess.run(
        [sys.executable, script, ROOT, ROOT, "--workload", "baynet_run", "--size", "tiny",
         "--pairs", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2].startswith("B/A wall: median ratio ")
    # Then each side's traced peak over one more command.
    assert re.fullmatch(r"tracemalloc peak over one command: A \d+\.\d KB, B \d+\.\d KB", lines[-1])
    digests = [line.rsplit("outputs ", 1)[1] for line in lines if line.startswith(("A ", "B "))]
    assert len(digests) == 2 and digests[0] == digests[1]
