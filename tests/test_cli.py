import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fifolab
import fifolab.analysis as analysis_module
from fifolab import (
    GenConfig,
    InstanceParseError,
    InvalidInstanceError,
    competitive_bound,
    demo_instance,
    format_instance,
    format_rat,
    greedy_blocking,
    parse_instance,
    random_instance,
)
from fifolab.cli import decimal_str, main
from fifolab.theory import BoundBreakdown


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

    def test_matches_a_literal_half_to_even_rounding(self):
        rng = random.Random(0)
        grid = [Fraction(k, 2 * 10**6) for k in range(5000)]
        drawn = [Fraction(rng.randrange(10**9), rng.randrange(1, 10**7)) for _ in range(20000)]
        for value in grid + drawn:
            assert decimal_str(value) == _literal_decimal_str(value), value


def _literal_decimal_str(value):
    """Six-place rendering by hand: divide, then round half to even on the remainder."""
    places = 6
    scaled = value * 10**places
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    doubled = 2 * remainder
    if doubled > scaled.denominator or (doubled == scaled.denominator and whole % 2):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


class TestSimulate:
    def test_threshold_on_demo(self, tmp_path, capsys):
        assert main(["simulate", write_demo(tmp_path), "--policy", "on", "--beta", "2/1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("total 11/1\n")

    @pytest.mark.parametrize(
        "args", [["--policy", "on", "--beta", "2/1"], ["--policy", "greedy"], ["--beta", "0"]]
    )
    def test_module_entry_point_matches_main(self, args, tmp_path, capsys):
        # `python -m fifolab` runs from a checkout, with src on the path only
        argv = ["simulate", write_demo(tmp_path), *args]
        env = dict(os.environ, PYTHONPATH=str(Path(fifolab.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "fifolab", *argv], capture_output=True, env=env, timeout=10
        )
        code = main(argv)
        out, err = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())

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


@pytest.fixture
def bound_of_one(monkeypatch):
    """Every ratio above 1 now exceeds the bound the analysis reads."""
    one = Fraction(1)
    monkeypatch.setattr(analysis_module, "competitive_bound", lambda alpha, beta: BoundBreakdown(one, one, one))


class TestBoundViolations:
    def test_fuzz_counts_each_failing_seed_once(self, bound_of_one, capsys):
        assert main(["fuzz", "--count", "30"]) == 1
        err = capsys.readouterr().err.splitlines()
        seeds = [line.split(":")[0] for line in err if line.startswith("FAIL seed")]
        assert len(seeds) == len(set(seeds)) == 11
        assert err[-1] == "11 failing instance(s)"

    def test_search_alerts_on_a_threshold_policy_above_the_bound(self, bound_of_one, capsys):
        assert main(["search", "--budget", "20"]) == 1
        assert capsys.readouterr().err == "ALERT: ratio 6/5 exceeds the theoretical bound\n"

    def test_search_reports_a_greedy_policy_above_the_bound_without_alert(self, bound_of_one, capsys):
        assert main(["search", "--budget", "20", "--policy", "greedy"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-1].endswith(" within false")


class TestSearchAndGen:
    def test_search_greedy(self, capsys):
        rc = main(
            ["search", "--policy", "greedy", "--budget", "8", "--seed", "3", "--alphas", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# ratio" in out

    def test_search_reports_the_bound_at_the_given_beta(self, capsys):
        # a greedy search has no threshold of its own, so --beta sets the bound
        argv = ["search", "--policy", "greedy", "--beta", "2", "--budget", "20", "--seed", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        inst = parse_instance(out)  # the summary line is a comment
        bound = competitive_bound(inst.alpha, Fraction(2)).bound
        assert out.splitlines()[-1].split()[3:5] == ["bound", format_rat(bound)]

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
        lambda tmp: ["bound", "--alpha", " 2", "--beta", "2"],
        lambda tmp: ["bound", "--alpha", "2", "--beta", "2 "],
        lambda tmp: ["sweep", "--alphas", ",2,", "--betas", "2"],
        lambda tmp: ["sweep", "--alphas", "2", "--betas", "2,,3"],
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
        "bound-space-alpha",
        "bound-space-beta",
        "sweep-empty-alpha-items",
        "sweep-empty-beta-item",
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
        ("packet 1 0", "line 3: packet takes: step seq one|alpha"),
        ("packet 1 0 one x", "line 3: packet takes: step seq one|alpha"),
        ("packet 1 0 beta", "line 3: bad packet line: 'packet 1 0 beta'"),
        ("packet 1 0 ONE", "line 3: bad packet line: 'packet 1 0 ONE'"),
        ("packet 1 ١ one", "line 3: bad packet line: 'packet 1 ١ one'"),
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
        "packet-too-few-fields",
        "packet-too-many-fields",
        "packet-unknown-class",
        "packet-uppercase-class",
        "packet-arabic-indic-seq",
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


# Robustness: no input makes a command print a traceback, and a bad one
# exits 2 with one line. Run in process; hypothesis takes no function-scoped
# fixture such as capsys, so the streams are redirected by hand.


def _main_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(argv):
    code, _, err = _main_streams(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1, (argv, err)


_ODD_VALUES = ["", "-1", "+3", "1_0", "\u0663", "1/0", "x"]


def _flag_value(small):
    """A well-formed int in [0, small], or now and then an odd text."""
    ints = [str(i) for i in range(small + 1)]
    return st.sampled_from(ints * 3 + _ODD_VALUES)


_GEN_FLAGS = {
    "--seed": st.one_of(st.integers(-(2**70), 2**70).map(str), st.sampled_from(_ODD_VALUES)),
    "--b-min": _flag_value(6),
    "--b-max": _flag_value(6),
    "--horizon": _flag_value(40),
    "--max-burst": _flag_value(6),
    "--max-packets": _flag_value(40),
    "--alphas": st.sampled_from(["3/2", "2,5", "10", "1000001/1000000", "1", "1/2,2", "x"]),
    "--alpha-weight": st.sampled_from(["0", "1", "1/3", "2/7", "-1/2", "3/2", "1/0"]),
}


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({}, optional=_GEN_FLAGS))
def test_gen_random_flags_never_crash(flags):
    argv = ["gen", "random"]
    for flag, value in flags.items():
        argv += [flag, value]
    _assert_clean_exit(argv)


_TEXT_CHARS = "0123456789 /-#\n\tabelx_+.\u0663\u00b2"


def _mutated(text, edits):
    """`text` after character edits (insert, delete, replace) and line edits
    (delete, duplicate, swap with the next), each at a position taken modulo the length."""
    for kind, pos, char in edits:
        if kind in ("insert", "delete", "replace"):
            i = pos % (len(text) + 1)
            tail = text[i + 1 :] if kind != "insert" else text[i:]
            text = text[:i] + (char if kind != "delete" else "") + tail
            continue
        lines = text.split("\n")
        i = pos % len(lines)
        if kind == "drop-line":
            del lines[i]
        elif kind == "dup-line":
            lines.insert(i, lines[i])
        elif i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        text = "\n".join(lines)
    return text


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "drop-line", "dup-line", "swap-lines"]),
        st.integers(0, 10**6),
        st.sampled_from(_TEXT_CHARS),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9999), _EDITS)
def test_mutated_corpus_texts_never_crash(seed, edits):
    text = _mutated(format_instance(random_instance(GenConfig(seed=seed))), edits)
    try:
        steps = parse_instance(text).steps
    except (InstanceParseError, InvalidInstanceError):
        steps = ()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.txt"
        path.write_text(text, encoding="utf-8")
        _assert_clean_exit(["opt", str(path)])
        _assert_clean_exit(["verify", str(path)])
        # simulate writes one line per idle step, so its output follows the last step
        if all(step <= 10**4 for step in steps):
            _assert_clean_exit(["simulate", str(path)])


# Argument vectors for every subcommand that reads or computes, with values
# from a fixed alphabet; the alphabet also bounds the cost of each run.

_ODD_ARGS = [*_ODD_VALUES, "0", "nan", "1e400"]
_RATS = ["1", "2", "3/2", "1/3", "5", "3284/1000", "1000001/1000000"]


def _arg(*good):
    """A well-formed value from `good`, or now and then an odd text."""
    return st.sampled_from([*good] * 6 + _ODD_ARGS)


_RAT_ARG = _arg(*_RATS)
_RAT_LIST = st.lists(_RAT_ARG, min_size=1, max_size=4).map(",".join)
_POLICY_ARG = st.sampled_from(["on", "greedy", "x"])
# placeholders, resolved in a fresh temporary directory per run
_PATH_ARG = st.sampled_from(["<corpus>", "<directory>", "<missing>", "<not-utf8>"])
_OUT_ARG = st.sampled_from(["<file>", "<directory>"])
_SMALL_TOLS = ["1/2", "1/10", "1/3", "1/1000000"]

# per command: whether it takes an instance path, its required and its optional flags
_COMMANDS = {
    "simulate": (True, {}, {"--policy": _POLICY_ARG, "--beta": _RAT_ARG, "--out": _OUT_ARG}),
    "verify": (True, {}, {"--beta": _RAT_ARG, "--emit-ledger": _OUT_ARG}),
    "opt": (True, {}, {}),
    "fuzz": (False, {"--count": _arg("1", "2", "3")}, {"--beta": _RAT_ARG, "--out": _OUT_ARG, **_GEN_FLAGS}),
    "search": (
        False,
        {"--budget": _arg(*map(str, range(1, 21)))},
        {"--policy": _POLICY_ARG, "--beta": _RAT_ARG, "--out": _OUT_ARG, **_GEN_FLAGS},
    ),
    "bound": (False, {"--alpha": _RAT_ARG, "--beta": _RAT_ARG}, {}),
    "sweep": (False, {"--alphas": _RAT_LIST, "--betas": _RAT_LIST}, {"--out": _OUT_ARG}),
    "optimal-beta": (False, {}, {"--tol": _arg(*_SMALL_TOLS)}),
}


@st.composite
def _argument_vectors(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    takes_path, required, optional = _COMMANDS[command]
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    path = [draw(_PATH_ARG)] if takes_path else []
    return [command, *path, *[part for flag, value in flags.items() for part in (flag, value)]]


@settings(max_examples=200, deadline=None)
@given(_argument_vectors())
def test_argument_vectors_never_crash(argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "corpus.txt"
        corpus.write_text(format_instance(random_instance(GenConfig(seed=7))), encoding="utf-8")
        (root / "not-utf8.txt").write_bytes(b"buffer 1\nalpha 2\npacket 1 0 \xff\n")
        paths = {
            "<corpus>": str(corpus),
            "<directory>": tmp,
            "<missing>": str(root / "missing.txt"),
            "<not-utf8>": str(root / "not-utf8.txt"),
            "<file>": str(root / "out.txt"),
        }
        _assert_clean_exit([paths.get(part, part) for part in argv])
