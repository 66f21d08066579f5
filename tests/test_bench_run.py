"""The benchmark still runs end to end against this checkout's fifolab."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPARSE_SEED_0_DIGEST = "6b6e8d6fbbc5df5d94c2c59000d6c42961d2fb329e2f9701d579ffcaad56c2cf"
DENSE_SEED_0_DIGEST = "fb252b17075084f0fcd0eb50a2184465af953d92450de5f539a1bac3d507fb89"
CORPUS_SEED_0_DIGEST = "33cbabc1e7cd97144cbd7a4c3d44e8f30944df7359df8eaa6aebc43c104fca8b"


def _run_clean(workload, digest, trace=0):
    """Run one 1 s benchmark of `workload` at seed 0; return its result line."""
    # a fresh process with a deadline: a renamed public name fails here, not in the benchmark
    done = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace),
        ],
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
    assert json.loads(info_line)["info"]["digest"] == digest
    return result


def test_sparse_workload_runs_clean():
    _run_clean("sparse", SPARSE_SEED_0_DIGEST)


def test_dense_workload_runs_clean():
    # dense runs analyze on the 14-packet windows of both of its instances
    _run_clean("dense", DENSE_SEED_0_DIGEST)


def test_corpus_workload_runs_clean():
    # corpus runs analyze and format_ledger on every one of its instances
    _run_clean("corpus", CORPUS_SEED_0_DIGEST)


def test_traced_corpus_run_reports_every_layer():
    # the traced path wraps the package's layers and counts what run recorded,
    # so a change that breaks the tracer or drops a per-layer metric fails here
    result = _run_clean("corpus", CORPUS_SEED_0_DIGEST, trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
