import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fifolab
from fifolab import demo_instance, format_instance, greedy_blocking
from fifolab.cli import decimal_str, main


def write_demo(tmp_path, alpha=Fraction(2)):
    path = tmp_path / "demo.txt"
    path.write_text(format_instance(demo_instance(alpha)))
    return str(path)


def write_blocking(tmp_path, alpha=Fraction(10)):
    path = tmp_path / "blocking.txt"
    path.write_text(format_instance(greedy_blocking(alpha)))
    return str(path)


class TestDecimal:
    def test_rounding_is_exact(self):
        assert decimal_str(Fraction(4284, 3284)) == "1.304507"
        assert decimal_str(Fraction(1)) == "1.000000"
        assert decimal_str(Fraction(1, 3)) == "0.333333"
        assert decimal_str(Fraction(2, 3)) == "0.666667"
        # half-to-even on the boundary
        assert decimal_str(Fraction(5, 10**7)) == "0.000000"
        assert decimal_str(Fraction(15, 10**7)) == "0.000002"


class TestSimulate:
    def test_threshold_on_demo(self, tmp_path, capsys):
        assert main(["simulate", write_demo(tmp_path), "--policy", "on", "--beta", "2/1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("total 11/1\n")

    def test_greedy_on_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("buffer 2\nalpha 2/1\n")
        assert main(["simulate", str(path), "--policy", "greedy"]) == 0
        assert capsys.readouterr().out == "total 0/1\n"

    def test_greedy_on_blocking(self, tmp_path, capsys):
        assert main(["simulate", write_blocking(tmp_path), "--policy", "greedy"]) == 0
        assert capsys.readouterr().out.endswith("total 21/1\n")

    def test_writes_trace_file(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        main(["simulate", write_demo(tmp_path), "--beta", "2/1", "--out", str(out)])
        assert out.read_text() == capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("buffer 2\nalpha 2/1\nnonsense\n")
        assert main(["simulate", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["simulate", "nope.txt"]) == 2


class TestOpt:
    def test_demo_optimum(self, tmp_path, capsys):
        assert main(["opt", write_demo(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "value 13/1" in out
        assert "subset 1.2 2 2.1 2.2 5 5.1 5.2" in out


class TestVerify:
    def test_demo_passes(self, tmp_path, capsys):
        assert main(["verify", write_demo(tmp_path), "--beta", "2/1"]) == 0
        out = capsys.readouterr().out
        assert "ratio-bound" in out and "FAIL" not in out

    def test_ledger_emission(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.txt"
        main(["verify", write_demo(tmp_path), "--beta", "2/1", "--emit-ledger", str(ledger_path)])
        text = ledger_path.read_text()
        assert "sent-by-both" in text
        assert text.startswith("on 1 1/1\n")


class TestTheoryCommands:
    def test_bound(self, capsys):
        assert main(["bound", "--alpha", "2", "--beta", "2"]) == 0
        out = capsys.readouterr().out
        assert "first 3/2" in out and "second 6/5" in out and "bound 3/2" in out

    def test_optimal_beta(self, capsys):
        assert main(["optimal-beta", "--tol", "1/1000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("beta ")
        assert "ratio" in out

    def test_sweep_marks_minimizer(self, capsys):
        assert main(["sweep", "--alphas", "2,5,10", "--betas", "2,3284/1000,5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        flagged = [line for line in lines if line.endswith(",true")]
        assert len(flagged) == 3  # one row per alpha at the minimizing beta
        assert all(line.startswith("821/250,") for line in flagged)

    def test_sweep_single_cell(self, capsys):
        assert main(["sweep", "--alphas", "2", "--betas", "2"]) == 0
        out = capsys.readouterr().out
        assert "3/2,1.500000,true" in out

    def test_sweep_beta_one_bounds_at_least_two(self, capsys):
        assert main(["sweep", "--alphas", "2,5,100", "--betas", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            first_term, bound = row.split(",")[2], Fraction(row.split(",")[4])
            assert first_term == "2/1"
            assert bound >= 2


class TestFuzz:
    def test_small_run_passes_and_is_deterministic(self, capsys):
        args = ["fuzz", "--count", "40", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "all checks passed" in first.err

    def test_zero_count_is_usage_error(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FBL_SEED", "123")
        assert main(["fuzz", "--count", "5"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("FBL_SEED")
        assert main(["fuzz", "--count", "5", "--seed", "123"]) == 0
        assert capsys.readouterr().out == with_env


class TestSearchAndGen:
    def test_search_greedy(self, capsys):
        rc = main(
            ["search", "--policy", "greedy", "--budget", "8", "--seed", "3", "--alphas", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# ratio" in out

    def test_gen_example_round_trips(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen", "example", "--alpha", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == format_instance(demo_instance(Fraction(3)))

    def test_gen_blocking(self, capsys):
        assert main(["gen", "blocking", "--alpha", "10"]) == 0
        assert capsys.readouterr().out == format_instance(greedy_blocking(Fraction(10)))

    def test_gen_random_deterministic(self, capsys):
        assert main(["gen", "random", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first


def _path_under_a_file(tmp_path):
    parent = tmp_path / "plain.txt"
    parent.write_text("buffer 1\nalpha 2/1\n")
    return str(parent / "instance.txt")  # NotADirectoryError on read


@pytest.mark.parametrize(
    "argv, env",
    [
        (lambda tmp: ["fuzz", "--count", "1"], {"FBL_SEED": "seven"}),
        (lambda tmp: ["simulate", str(tmp)], {}),
        (lambda tmp: ["verify", str(tmp)], {}),
        (lambda tmp: ["opt", _path_under_a_file(tmp)], {}),
    ],
    ids=["non-integer-seed", "simulate-directory", "verify-directory", "other-os-error"],
)
def test_bad_environment_or_path_is_usage_error(argv, env, tmp_path, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"buffer 2\nalpha 2/1\npacket 1 0 one\xff\n")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["search", "--budget", "0"],
        lambda tmp: ["search", "--budget", "5", "--max-packets", "-1"],
        lambda tmp: ["fuzz", "--count", "1", "--horizon", "0"],
        lambda tmp: ["fuzz", "--count", "1", "--b-min", "0"],
        lambda tmp: ["gen", "random", "--max-burst", "-1"],
        lambda tmp: ["bound", "--alpha", "1", "--beta", "2"],
        lambda tmp: ["optimal-beta", "--tol", "0"],
        lambda tmp: ["sweep", "--alphas", "2", "--betas", ""],
        lambda tmp: ["gen", "blocking", "--alpha", "1"],
        lambda tmp: ["fuzz", "--count", "1", "--beta", "0"],
        lambda tmp: ["simulate", _not_utf8(tmp)],
        lambda tmp: ["verify", _not_utf8(tmp)],
        lambda tmp: ["opt", _not_utf8(tmp)],
    ],
    ids=[
        "search-zero-budget",
        "search-negative-max-packets",
        "fuzz-zero-horizon",
        "fuzz-zero-b-min",
        "gen-negative-max-burst",
        "bound-alpha-one",
        "optimal-beta-zero-tol",
        "sweep-empty-betas",
        "gen-blocking-alpha-one",
        "fuzz-zero-beta",
        "simulate-not-utf8",
        "verify-not-utf8",
        "opt-not-utf8",
    ],
)
def test_bad_argument_is_one_line_usage_error(argv, tmp_path):
    # a fresh process, so that a hang fails the test instead of the run
    env = dict(os.environ, PYTHONPATH=str(Path(fifolab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "fifolab.cli", *argv(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ")
