"""The scripts under scripts/ run from any working directory."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


@pytest.mark.parametrize("script, args, last_line", [
    ("run_suites.py", ["--samples", "1", "--seeds", "1"], "all suites clean"),
])
def test_script_runs_outside_repo_root(tmp_path, script, args, last_line):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script)] + args,
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines
    assert lines[-1] == last_line
