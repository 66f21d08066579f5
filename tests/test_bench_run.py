"""The benchmark still runs end to end against this checkout's fifolab."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
