"""The demos run as a reader runs them: each in a process of its own, from the
checkout's sources."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-B", str(path)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_negative_evidence_demo_gives_up_matches():
    proc = run_demo(ROOT / "demos" / "negative_evidence.py")
    recall = dict(re.findall(
        r"^(support only|with negative evidence)\s.*\brecall (\d\.\d+)", proc.stdout, re.M
    ))
    assert float(recall["with negative evidence"]) < float(recall["support only"])
