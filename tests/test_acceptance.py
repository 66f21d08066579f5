"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``)
with the measured numbers and runtime, then asserts. The heavy criteria
share one seeded 10,000-instance corpus built by a module fixture.
"""

import csv
import io
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import pytest

from fifolab import (
    GenConfig,
    Policy,
    analyze,
    brute_force_opt,
    demo_instance,
    format_trace,
    greedy_blocking,
    opt_containing,
    optimal_beta,
    random_instance,
    run,
)
from fifolab.cli import FUZZ_CSV_HEADER, experiment_row, fuzz_rows

BETA = Fraction(3284, 1000)
BOUND = Fraction(4284, 3284)
CORPUS_CFG = GenConfig()  # B in 1..5, horizon 12, n <= 14, alpha in {3/2, 2, 5, 10}
CORPUS_SIZE = 10_000
BASE_SEED = 20_260_810


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@dataclass
class GateResults:
    csv_text: str = ""
    max_ratio: Fraction = Fraction(0)
    ratio_violations: list = field(default_factory=list)
    oracle_violations: list = field(default_factory=list)
    hard_failures: dict = field(default_factory=dict)
    warn_counts: dict = field(default_factory=dict)
    max_alpha_backlog: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def gate() -> GateResults:
    results = GateResults()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FUZZ_CSV_HEADER)
    start = time.perf_counter()
    for i in range(CORPUS_SIZE):
        seed = BASE_SEED + i
        inst = random_instance(replace(CORPUS_CFG, seed=seed))
        assert len(inst.arrivals) <= 14
        result = analyze(inst, BETA)
        writer.writerow(experiment_row(seed, result))
        ratio = result.ratio.ratio
        if ratio is not None and ratio > results.max_ratio:
            results.max_ratio = ratio
        if ratio is None or ratio > BOUND:
            results.ratio_violations.append(seed)
        for check in result.report.checks:
            if check.status == "fail":
                results.hard_failures.setdefault(check.name, []).append(seed)
                if check.name == "oracle-agreement":
                    results.oracle_violations.append(seed)
            elif check.status == "warn":
                results.warn_counts[check.name] = results.warn_counts.get(check.name, 0) + 1
            if check.name == "backlog-bound":
                count = int(check.detail.split()[3].rstrip(","))
                results.max_alpha_backlog = max(results.max_alpha_backlog, count)
    results.elapsed = time.perf_counter() - start
    results.csv_text = buffer.getvalue()
    return results


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    ok = True
    for alpha in (Fraction(2), Fraction(3), Fraction(10)):
        inst = demo_instance(alpha)
        on_total = run(Policy.on(alpha), inst).totals
        opt_value = brute_force_opt(inst).value
        ok = ok and on_total == 5 * alpha + 1 and opt_value == 6 * alpha + 1
    elapsed = time.perf_counter() - start
    report(1, ok, f"policy 5a+1 and optimum 6a+1 at a in {{2,3,10}} ({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_theory_constants():
    start = time.perf_counter()
    beta = optimal_beta(Fraction(1, 10**6))
    ratio = (1 + beta) / beta
    beta_ok = Fraction(32835, 10000) <= beta <= Fraction(32845, 10000)
    ratio_ok = Fraction(13040, 10000) <= ratio <= Fraction(13050, 10000)
    elapsed = time.perf_counter() - start
    report(
        2,
        beta_ok and ratio_ok,
        f"beta* = {float(beta):.6f}, ratio = {float(ratio):.6f} ({elapsed:.2f}s)",
    )
    assert beta_ok and ratio_ok
    assert elapsed < 1.0


def test_criterion_3_ratio_bound_on_corpus(gate):
    ok = not gate.ratio_violations
    report(
        3,
        ok,
        f"max ratio {gate.max_ratio} = {float(gate.max_ratio):.6f} <= 4284/3284 "
        f"over {CORPUS_SIZE} instances ({gate.elapsed:.1f}s for the corpus)",
    )
    assert ok, f"ratio above bound at seeds {gate.ratio_violations[:10]}"
    assert gate.elapsed < 300.0


def test_criterion_4_oracle_agreement(gate):
    ok = not gate.oracle_violations
    report(4, ok, f"dp equals exhaustive optimum on all {CORPUS_SIZE} instances")
    assert ok, f"oracle mismatch at seeds {gate.oracle_violations[:10]}"


def test_criterion_5_analysis_checks(gate):
    ok = not gate.hard_failures
    warn_text = ", ".join(f"{k}: {v}" for k, v in sorted(gate.warn_counts.items())) or "none"
    report(
        5,
        ok,
        f"zero hard check failures; warn-only diagnostics {{{warn_text}}}; "
        f"max alpha backlog seen {gate.max_alpha_backlog}",
    )
    assert ok, f"hard failures: { {k: v[:5] for k, v in gate.hard_failures.items()} }"


def test_criterion_6_greedy_separation():
    start = time.perf_counter()
    inst = greedy_blocking(Fraction(10))
    greedy_total = run(Policy.greedy(), inst).totals
    on_total = run(Policy.on(BETA), inst).totals
    opt_value = brute_force_opt(inst).value
    greedy_ratio = opt_value / greedy_total
    on_ratio = opt_value / on_total
    ok = (
        greedy_total == 21
        and opt_value == 30
        and greedy_ratio == Fraction(10, 7)
        and greedy_ratio > BOUND
        and on_ratio == 1
    )
    elapsed = time.perf_counter() - start
    report(
        6,
        ok,
        f"greedy 21 vs optimum 30 (ratio 10/7 > {float(BOUND):.4f}), "
        f"threshold policy ratio 1 ({elapsed:.2f}s)",
    )
    assert ok
    assert elapsed < 1.0


def test_criterion_7_optimum_contains_delivered_alphas():
    start = time.perf_counter()
    violations = []
    for i in range(1000):
        inst = random_instance(replace(CORPUS_CFG, seed=BASE_SEED + i))
        trace = run(Policy.on(BETA), inst)
        alpha_sends = [i for i in trace.sends.values() if trace.instance.arrivals[i].is_alpha]
        constrained = opt_containing(inst, alpha_sends)
        if constrained is None or constrained.value != brute_force_opt(inst).value:
            violations.append(BASE_SEED + i)
    elapsed = time.perf_counter() - start
    ok = not violations
    report(7, ok, f"constrained optimum keeps full value on 1000 instances ({elapsed:.1f}s)")
    assert ok, violations[:10]
    assert elapsed < 60.0


def test_criterion_8_determinism(gate):
    start = time.perf_counter()
    rerun_count = 500
    rerun_csv, failures, _ = fuzz_rows(CORPUS_CFG, rerun_count, BASE_SEED, BETA)
    prefix = "\n".join(gate.csv_text.splitlines()[: rerun_count + 1]) + "\n"
    csv_ok = rerun_csv == prefix and not failures

    trace_a = format_trace(run(Policy.on(Fraction(2)), demo_instance(Fraction(2))))
    trace_b = format_trace(run(Policy.on(Fraction(2)), demo_instance(Fraction(2))))
    beta_a = optimal_beta(Fraction(1, 10**6))
    beta_b = optimal_beta(Fraction(1, 10**6))
    ok = csv_ok and trace_a == trace_b and beta_a == beta_b
    elapsed = time.perf_counter() - start
    report(
        8,
        ok,
        f"rerun of {rerun_count} corpus rows, the worked-example trace, and the "
        f"threshold bisection are byte-identical ({elapsed:.1f}s)",
    )
    assert ok
