"""Helpers shared by the test modules, which import them from here."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import bgt


def _run_under_O(body: str, *args: str) -> str:
    """Run `body` under python -O with bgt importable; return its stdout."""
    script = "if __debug__:\n    raise SystemExit('expected to run under python -O')\n"
    script += textwrap.dedent(body)
    src = str(Path(bgt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
