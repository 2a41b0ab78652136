"""Smoke test: every demo script runs to completion and reports no failure."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chiralwalk

SRC = Path(chiralwalk.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
ONE_BLAS_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_failure(demo):
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert not re.search(r"\bFAIL\b", result.stdout)
    counts = re.findall(r"failures: (\d+)", result.stdout)
    assert all(count == "0" for count in counts)
    if demo.stem == "random_pair_invariants":
        assert counts == ["0"]
