"""Every benchmark workload replays its reference jobs and matches
``perfbench/reference.json``, so output drift shows up in the test suite
and not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]

import check  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_outputs_match(name, tmp_path):
    assert check.verify(workloads.WORKLOADS[name](str(tmp_path))) == []
