"""Smoke tests of the developer scripts under ``scripts/``."""

import os
import re
import shutil
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
    assert lines[-3].startswith("B/A wall: median ratio ")
    # Then each side's traced peak over one more command, and its median
    # peak RSS over fresh-process commands.
    assert re.fullmatch(r"tracemalloc peak over one command: A \d+\.\d KB, B \d+\.\d KB", lines[-2])
    assert re.fullmatch(
        r"fresh-process ru_maxrss over 3 commands: A median \d+ KB, B median \d+ KB", lines[-1]
    )
    digests = [line.rsplit("outputs ", 1)[1] for line in lines if line.startswith(("A ", "B "))]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_ab_commands_exits_1_when_the_outputs_differ(tmp_path):
    # A copy of the tree whose attack trains for fewer epochs scores
    # every round differently: both sides' digests are printed, then the
    # script exits 1.
    script = os.path.join(ROOT, "scripts", "ab_commands.py")
    other = tmp_path / "other"
    shutil.copytree(
        os.path.join(ROOT, "src"), other / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    attack = other / "src" / "privgames" / "attack.py"
    text = attack.read_text()
    assert text.count("\nDEFAULT_EPOCHS = 800\n") == 1
    attack.write_text(text.replace("\nDEFAULT_EPOCHS = 800\n", "\nDEFAULT_EPOCHS = 200\n"))
    out = subprocess.run(
        [sys.executable, script, ROOT, str(other), "--workload", "baynet_run", "--size", "tiny",
         "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-2].startswith("tracemalloc peak over one command: ")
    assert lines[-1].startswith("fresh-process ru_maxrss over 3 commands: ")
    digests = [line.rsplit("outputs ", 1)[1] for line in lines if line.startswith(("A ", "B "))]
    assert len(digests) == 2 and digests[0] != digests[1]
    assert out.stderr.strip().endswith("the two sides' outputs differ")
