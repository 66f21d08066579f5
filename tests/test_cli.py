import os
import subprocess
import sys
import tracemalloc
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


def run_cli_process(argv):
    """Run the CLI in a fresh process, so that a hang fails the test instead of the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(fifolab.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "fifolab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


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

    def test_long_gap_is_streamed(self, tmp_path, monkeypatch):
        # a 10**6-step gap prints 10**6 idle lines (14 MB of text); written
        # as they are produced, they never need to be held all at once
        path = tmp_path / "gap.txt"
        path.write_text("buffer 1\nalpha 2/1\npacket 1 0 one\npacket 1000001 0 one\n")
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(["simulate", str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert sink.lines == 10**6 + 4


class _CountingSink:
    """A stdout stand-in that keeps only a line count."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")


class TestOpt:
    def test_demo_optimum(self, tmp_path, capsys):
        assert main(["opt", write_demo(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "value 13/1" in out
        assert "subset 1.2 2 2.1 2.2 5 5.1 5.2" in out

    def test_large_instance_finishes(self, tmp_path):
        # 10^5 packets, three per step into a buffer of 1000; the optimum keeps
        # the 33,333 alphas (steps 1 to 33,333) and one 1-value packet for each
        # of the 1,000 slots after them
        path = tmp_path / "large.txt"
        kinds = ("one", "alpha", "one")
        packets = "".join(f"packet {i // 3 + 1} {i % 3} {kinds[i % 3]}\n" for i in range(10**5))
        path.write_text(f"buffer 1000\nalpha 2/1\n{packets}")
        done = run_cli_process(["opt", str(path)])
        assert done.returncode == 0, done.stderr
        value, subset = done.stdout.splitlines()
        assert value == "value 67666/1"
        assert len(subset.split()) == 1 + 34_333


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

    def test_far_apart_arrivals_finish(self, tmp_path):
        # cost follows the packet count, not the largest step number
        path = tmp_path / "far.txt"
        path.write_text("buffer 2\nalpha 2/1\npacket 1 0 one\npacket 1000000000 0 alpha\n")
        done = run_cli_process(["verify", str(path)])
        assert done.returncode == 0, done.stderr
        assert "FAIL" not in done.stdout


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
        for seed in ("123", "-3"):
            monkeypatch.setenv("FBL_SEED", seed)
            assert main(["fuzz", "--count", "5"]) == 0
            with_env = capsys.readouterr().out
            monkeypatch.delenv("FBL_SEED")
            assert main(["fuzz", "--count", "5", "--seed", seed]) == 0
            assert capsys.readouterr().out == with_env


class TestSearchAndGen:
    def test_search_greedy(self, capsys):
        rc = main(
            ["search", "--policy", "greedy", "--budget", "8", "--seed", "3", "--alphas", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# ratio" in out

    def test_search_past_twenty_packets(self):
        done = run_cli_process(
            ["search", "--budget", "3000", "--max-packets", "30", "--max-burst", "3",
             "--horizon", "12", "--seed", "1"]
        )
        assert done.returncode == 0, done.stderr
        assert "# ratio" in done.stdout

    def test_fuzz_past_twenty_packets(self):
        done = run_cli_process(
            ["fuzz", "--count", "200", "--max-packets", "40", "--b-max", "8", "--horizon", "40",
             "--max-burst", "3"]
        )
        assert done.returncode == 0, done.stderr
        assert "all checks passed" in done.stderr

    def test_gen_example_round_trips(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert main(["gen", "example", "--alpha", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == format_instance(demo_instance(Fraction(3)))

    def test_gen_blocking(self, capsys):
        assert main(["gen", "blocking", "--alpha", "10"]) == 0
        assert capsys.readouterr().out == format_instance(greedy_blocking(Fraction(10)))

    @pytest.mark.parametrize(
        "flags, packets",
        [(["--max-packets", "14"], 14), (["--max-burst", "0"], 0)],
        ids=["packet-cap", "zero-burst"],
    )
    def test_gen_random_stops_drawing_when_no_packet_can_be_added(self, flags, packets):
        # a horizon of 10^12 steps would take days to walk
        done = run_cli_process(["gen", "random", "--seed", "0", "--horizon", "1000000000000", *flags])
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("\npacket ") == packets

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
        (lambda tmp: ["fuzz", "--count", "1"], {"FBL_SEED": "1_0"}),
        (lambda tmp: ["fuzz", "--count", "1"], {"FBL_SEED": "٣"}),
        (lambda tmp: ["simulate", str(tmp)], {}),
        (lambda tmp: ["verify", str(tmp)], {}),
        (lambda tmp: ["opt", _path_under_a_file(tmp)], {}),
        (lambda tmp: ["verify", write_demo(tmp), "--emit-ledger", str(tmp)], {}),
        (lambda tmp: ["simulate", write_demo(tmp), "--out", str(tmp)], {}),
    ],
    ids=[
        "non-integer-seed",
        "underscore-seed",
        "arabic-indic-digit-seed",
        "simulate-directory",
        "verify-directory",
        "other-os-error",
        "verify-ledger-to-directory",
        "simulate-out-to-directory",
    ],
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
        lambda tmp: ["simulate", write_demo(tmp), "--beta", "1/0"],
        lambda tmp: ["simulate", write_demo(tmp), "--policy", "foo"],
        lambda tmp: ["bound", "--alpha", "2"],
        lambda tmp: [],
        lambda tmp: ["gen", "random", "--seed", "1_0"],
        lambda tmp: ["gen", "random", "--max-packets", "٣"],
        lambda tmp: ["fuzz", "--count", "+3"],
        lambda tmp: ["fuzz", "--count", " 2"],
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
        "simulate-zero-denominator-beta",
        "simulate-unknown-policy",
        "bound-missing-beta",
        "no-command",
        "gen-underscore-seed",
        "gen-arabic-indic-digit-max-packets",
        "fuzz-plus-count",
        "fuzz-space-count",
    ],
)
def test_bad_argument_is_one_line_usage_error(argv, tmp_path):
    done = run_cli_process(argv(tmp_path))
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ")


def test_help_prints_usage():
    done = run_cli_process(["bound", "--help"])
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fifolab bound")
    assert done.stderr == ""


@pytest.mark.parametrize("command", ["simulate", "verify", "opt"])
def test_superscript_buffer_size_is_one_line_parse_error(command, tmp_path):
    # '²'.isdigit() holds, but int('²') fails
    path = tmp_path / "superscript.txt"
    path.write_text("buffer \u00b2\nalpha 2/1\npacket 1 0 one\n")
    done = run_cli_process([command, str(path)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "parse error: line 1: buffer takes one positive integer\n"


_GOOD_LINES = {"buffer": "buffer 2", "alpha": "alpha 2/1", "packet": "packet 1 0 one"}


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("buffer 1_0", "line 1: buffer takes one positive integer"),
        ("buffer +1", "line 1: buffer takes one positive integer"),
        ("buffer ١", "line 1: buffer takes one positive integer"),
        ("buffer 0", "line 1: buffer takes one positive integer"),
        ("alpha 1_0/1", "line 2: not a rational: '1_0/1'"),
        ("alpha +3/2", "line 2: not a rational: '+3/2'"),
        ("alpha 3/-2", "line 2: not a rational: '3/-2'"),
        ("alpha ３/2", "line 2: not a rational: '３/2'"),
        ("alpha -3/2", "line 2: alpha must exceed 1"),
        ("alpha 3/0", "line 2: denominator must be positive: '3/0'"),
        ("packet 1_0 0 one", "line 3: bad packet line: 'packet 1_0 0 one'"),
        ("packet +1 0 one", "line 3: bad packet line: 'packet +1 0 one'"),
        ("packet 1 -1 one", "line 3: bad packet line: 'packet 1 -1 one'"),
        ("packet ١ 0 one", "line 3: bad packet line: 'packet ١ 0 one'"),
        ("packet 0 0 one", "line 3: packet key out of range"),
    ],
    ids=[
        "buffer-underscore",
        "buffer-plus",
        "buffer-arabic-indic-digit",
        "buffer-zero",
        "alpha-underscore",
        "alpha-plus",
        "alpha-negative-denominator",
        "alpha-fullwidth-digit",
        "alpha-negative",
        "alpha-zero-denominator",
        "packet-underscore",
        "packet-plus",
        "packet-negative-seq",
        "packet-arabic-indic-digit",
        "packet-step-zero",
    ],
)
def test_malformed_integer_is_one_line_parse_error(bad_line, message, tmp_path, capsys):
    # one grammar for every integer in an instance file: ASCII digits, and a
    # leading '-' only on alpha's numerator
    lines = dict(_GOOD_LINES, **{bad_line.split()[0]: bad_line})
    path = tmp_path / "instance.txt"
    path.write_text("\n".join(lines.values()) + "\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"
