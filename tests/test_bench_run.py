"""The benchmark still runs end to end against this checkout's fifolab."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPARSE_SEED_0_DIGEST = "6b6e8d6fbbc5df5d94c2c59000d6c42961d2fb329e2f9701d579ffcaad56c2cf"


def test_sparse_workload_runs_clean():
    # a fresh process with a deadline: a renamed public name fails here, not in the benchmark
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse", "--seed", "0", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    info_line, *_, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0
    # the hash of every trace, optimum, report and ledger the run produced
    assert json.loads(info_line)["info"]["digest"] == SPARSE_SEED_0_DIGEST
