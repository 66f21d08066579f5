import hashlib
import random
from fractions import Fraction

import pytest

from fifolab import (
    AnalysisReport,
    CheckStatus,
    EventKind,
    GenConfig,
    LedgerError,
    Policy,
    RunTrace,
    StepEvent,
    analyze,
    build_instance,
    build_ledger,
    demo_instance,
    feasible,
    greedy_blocking,
    random_instance,
    run,
    run_ropt,
    total_value,
    verify_ledger,
    verify_ropt,
)
from fifolab.analysis import (
    EVICTED_ALPHA_INTERVAL,
    EVICTED_ONE_CHAIN,
    PREEMPTED_INTERVAL,
    PREEMPTED_OPEN_CHAIN,
    REJECTED_ONE_CHAIN,
    SENT_BY_BOTH,
    format_ledger,
    format_report,
)

BETA_REF = Fraction(3284, 1000)


def by_ids(inst, *ids):
    index = {p.id: p for p in inst.arrivals}
    return {index[i] for i in ids}


def demo_setup(alpha=Fraction(2)):
    inst = demo_instance(alpha)
    on = run(Policy.on(alpha), inst)
    chosen = by_ids(inst, "1.2", "2", "2.1", "2.2", "5", "5.1", "5.2")
    return inst, on, chosen


class TestRunRopt:
    def test_demo_reference_runs_ahead_on_the_lost_alpha(self):
        inst, on, chosen = demo_setup()
        ropt = run_ropt(inst, chosen, on)
        times = {p.id: t for p, t in ropt.send_time.items()}
        # the policy spends step 1 on a 1-value packet; the reference
        # sends the alpha packet the policy will lose to eviction
        assert times["1.2"] == 1
        assert times == {"1.2": 1, "2": 2, "2.1": 3, "2.2": 4, "5.1": 5, "5.2": 6, "5": 7}
        assert ropt.last_step == 7

    def test_empty_chosen_set_never_sends(self):
        inst, on, _ = demo_setup()
        ropt = run_ropt(inst, set(), on)
        assert ropt.send_time == {}

    def test_mirrors_when_policy_matches_optimum(self):
        inst = build_instance(2, Fraction(2), [(1, 0, "alpha"), (1, 1, "alpha")])
        on = run(Policy.on(BETA_REF), inst)
        ropt = run_ropt(inst, set(inst.arrivals), on)
        assert {t: p for p, t in ropt.send_time.items()} == on.sends
        assert ropt.last_step == 2

    def test_infeasible_chosen_set_rejected(self):
        inst = greedy_blocking(Fraction(10))
        on = run(Policy.on(BETA_REF), inst)
        with pytest.raises(ValueError):
            run_ropt(inst, set(inst.arrivals), on)


class TestVerifyRopt:
    def test_demo_all_pass(self):
        inst, on, chosen = demo_setup()
        report = verify_ropt(inst, chosen, on, run_ropt(inst, chosen, on))
        assert report.ok
        for name in ("ropt-capacity", "ropt-sends-all", "send-precedence", "chains-disjoint"):
            assert report.check(name).status == CheckStatus.PASS

    def test_empty_chosen_set_vacuous(self):
        inst, on, _ = demo_setup()
        report = verify_ropt(inst, set(), on, run_ropt(inst, set(), on))
        assert report.ok

    def test_backlog_diagnostic_reports_counts(self):
        inst, on, chosen = demo_setup()
        report = verify_ropt(inst, chosen, on, run_ropt(inst, chosen, on))
        check = report.check("backlog-bound")
        assert check.status == CheckStatus.PASS
        assert "max alpha backlog 1" in check.detail
        assert "bound 3/2" in check.detail


class TestChains:
    def test_single_step_chain_for_deferred_eviction(self):
        # four 1-value packets, capacity 2: the policy evicts the second
        # on the step-2 overflow; the reference sends it at step 3 while
        # the policy sends a packet outside the optimum
        inst = build_instance(
            2, Fraction(2), [(1, 0, "one"), (1, 1, "one"), (2, 0, "one"), (2, 1, "one")]
        )
        on = run(Policy.on(BETA_REF), inst)
        assert [p.id for p in on.sends.values()] == ["1", "2", "2.1"]
        chosen = by_ids(inst, "1", "1.1", "2")
        ropt = run_ropt(inst, chosen, on)
        [owner] = by_ids(inst, "1.1")
        assert ropt.chain(owner) == (3,)

    def test_two_hop_chain(self):
        # the reference runs two steps ahead; its send of 3 at step 3
        # coincides with the policy sending 1.3, itself referenced at
        # step 2 where the policy sent a packet outside the optimum
        inst = build_instance(
            4,
            Fraction(5),
            [(1, 0, "one"), (1, 1, "one"), (1, 2, "one"), (1, 3, "alpha"), (3, 0, "alpha")],
        )
        on = run(Policy.on(BETA_REF), inst)
        chosen = by_ids(inst, "1.2", "1.3", "3")
        ropt = run_ropt(inst, chosen, on)
        [owner] = by_ids(inst, "3")
        assert ropt.chain(owner) == (2, 3)


class TestLedgerDemo:
    def test_charges(self):
        inst, on, chosen = demo_setup()
        ledger = build_ledger(inst, chosen, on, run_ropt(inst, chosen, on))

        by_kind = {}
        for rec in ledger.ropt_charges:
            by_kind.setdefault(rec.kind, []).append(rec)

        sent_steps = {rec.packet.id: rec.step for rec in by_kind[SENT_BY_BOTH]}
        assert sent_steps == {"2": 2, "2.1": 3, "2.2": 4, "5.1": 5, "5.2": 6}

        [evicted] = by_kind[EVICTED_ALPHA_INTERVAL]
        assert evicted.packet.id == "1.2"
        assert evicted.interval == (2, 6)
        assert evicted.amount == 2

        [preempted] = by_kind[PREEMPTED_INTERVAL]
        assert preempted.packet.id == "5"
        assert preempted.interval == (5, 6)  # two preempting alpha packets

        assert ledger.chains == ()

    def test_conservation(self):
        inst, on, chosen = demo_setup()
        ledger = build_ledger(inst, chosen, on, run_ropt(inst, chosen, on))
        assert sum(rec.amount for rec in ledger.ropt_charges) == total_value(inst, chosen) == 13
        assert sum(ledger.on_charges.values(), Fraction(0)) == on.totals == 11

    def test_verify_passes(self):
        inst, on, chosen = demo_setup()
        ledger = build_ledger(inst, chosen, on, run_ropt(inst, chosen, on))
        report = verify_ledger(ledger, inst, chosen, on)
        assert report.ok
        assert report.check("interval-exclusive").status == CheckStatus.PASS


class TestLedgerChainCharges:
    def test_deferred_eviction_closes_its_own_chain(self):
        inst = build_instance(
            2, Fraction(2), [(1, 0, "one"), (1, 1, "one"), (2, 0, "one"), (2, 1, "one")]
        )
        on = run(Policy.on(BETA_REF), inst)
        chosen = by_ids(inst, "1", "1.1", "2")
        ropt = run_ropt(inst, chosen, on)
        ledger = build_ledger(inst, chosen, on, ropt)
        [rec] = [r for r in ledger.ropt_charges if r.kind == EVICTED_ONE_CHAIN]
        assert rec.packet.id == "1.1"
        assert rec.step == 3
        assert rec.drop_step == 2
        [chain] = ledger.chains
        assert chain.status == "closed" and chain.steps == (3,)
        assert verify_ledger(ledger, inst, chosen, on).ok
        assert ledger.diagnostics["deferred-evictions"] == 1

    def test_rejection_charged_at_open_chain_head(self):
        # alternative optimal set {1.1, 2, 2.1}: the reference sends the
        # first alpha at step 1 (the policy sends a non-optimum packet),
        # leaving an open chain whose head absorbs the rejected packet
        inst = build_instance(
            2, Fraction(2), [(1, 0, "one"), (1, 1, "alpha"), (2, 0, "alpha"), (2, 1, "one")]
        )
        on = run(Policy.on(BETA_REF), inst)
        assert [p.id for p in on.sends.values()] == ["1", "1.1", "2"]
        chosen = by_ids(inst, "1.1", "2", "2.1")
        assert total_value(inst, chosen) == 5
        assert feasible(inst, chosen)[0]
        ropt = run_ropt(inst, chosen, on)
        ledger = build_ledger(inst, chosen, on, ropt)
        [rec] = [r for r in ledger.ropt_charges if r.kind == REJECTED_ONE_CHAIN]
        assert rec.packet.id == "2.1"
        assert rec.step == 1
        [chain] = ledger.chains
        assert chain.owner.id == "1.1" and chain.status == "closed"
        report = AnalysisReport(
            verify_ropt(inst, chosen, on, ropt).checks + verify_ledger(ledger, inst, chosen, on).checks
        )
        assert report.ok

    def test_preemption_charged_at_open_chain_head(self):
        # the reference runs ahead on 1.2 and then on the alpha packet
        # 1.3; when the threshold preempts 1.2 at step 3, the alpha's
        # chain from step 2 is open and takes the charge
        inst = build_instance(
            4,
            Fraction(5),
            [(1, 0, "one"), (1, 1, "one"), (1, 2, "one"), (1, 3, "alpha"), (3, 0, "alpha")],
        )
        on = run(Policy.on(BETA_REF), inst)
        assert [p.id for p in on.sends.values()] == ["1", "1.1", "1.3", "3"]
        chosen = by_ids(inst, "1.2", "1.3", "3")
        ropt = run_ropt(inst, chosen, on)
        ledger = build_ledger(inst, chosen, on, ropt)
        [rec] = [r for r in ledger.ropt_charges if r.kind == PREEMPTED_OPEN_CHAIN]
        assert rec.packet.id == "1.2"
        assert rec.step == 2
        assert rec.drop_step == 3
        [chain] = ledger.chains
        assert chain.owner.id == "1.3" and chain.steps == (2,) and chain.status == "closed"
        report = AnalysisReport(
            verify_ropt(inst, chosen, on, ropt).checks + verify_ledger(ledger, inst, chosen, on).checks
        )
        assert report.ok
        assert sum(r.amount for r in ledger.ropt_charges) == total_value(inst, chosen)

    def test_policy_matching_optimum_needs_no_chains(self):
        inst = build_instance(2, Fraction(2), [(1, 0, "alpha"), (2, 0, "one")])
        on = run(Policy.on(BETA_REF), inst)
        chosen = set(inst.arrivals)
        ledger = build_ledger(inst, chosen, on, run_ropt(inst, chosen, on))
        assert all(rec.kind == SENT_BY_BOTH for rec in ledger.ropt_charges)
        assert ledger.chains == ()


class TestAnalyze:
    def test_demo_everything_passes(self):
        result = analyze(demo_instance(Fraction(2)), Fraction(2))
        assert result.report.ok
        assert result.ratio.ratio == Fraction(13, 11)
        names = {c.name for c in result.report.checks}
        assert {
            "optimum-contains-alpha-sends",
            "oracle-agreement",
            "ropt-capacity",
            "ropt-sends-all",
            "send-precedence",
            "chains-disjoint",
            "backlog-bound",
            "charging-complete",
            "charge-conservation",
            "interval-exclusive",
            "alpha-send-intervals",
            "chain-heads",
            "single-closure",
            "ratio-bound",
        } <= names

    @pytest.mark.parametrize(
        "make_instance, beta, ratio, bound",
        [
            (lambda: demo_instance(Fraction(2)), Fraction(2), Fraction(13, 11), Fraction(3, 2)),
            (lambda: greedy_blocking(Fraction(10)), BETA_REF, 1, Fraction(1071, 821)),
            (lambda: build_instance(2, Fraction(2), []), BETA_REF, 1, Fraction(1071, 821)),
        ],
        ids=["demo", "blocking-family", "empty-instance"],
    )
    def test_ratio_within_bound(self, make_instance, beta, ratio, bound):
        result = analyze(make_instance(), beta)
        assert result.report.ok
        assert result.ratio.ratio == ratio
        assert result.ratio.bound.bound == bound
        assert result.ratio.within_bound

    def test_blocking_family_passes(self):
        for alpha in (Fraction(3, 2), Fraction(2), Fraction(10)):
            assert analyze(greedy_blocking(alpha), BETA_REF).report.ok

    def test_report_formatting(self):
        result = analyze(demo_instance(Fraction(2)), Fraction(2))
        text = format_report(result.report)
        assert "ratio-bound" in text and "PASS" in text

    def test_ledger_formatting_is_stable(self):
        result = analyze(demo_instance(Fraction(2)), Fraction(2))
        text = format_ledger(result.ledger)
        assert "ropt evicted-alpha-interval 1.2 2/1 interval 2 6" in text
        again = analyze(demo_instance(Fraction(2)), Fraction(2))
        assert format_ledger(again.ledger) == text


DEMO_REPORT = """\
optimum-contains-alpha-sends  PASS  constrained 13 vs unconstrained 13
oracle-agreement              PASS  dp 13 vs exhaustive 13
ropt-capacity                 PASS
ropt-sends-all                PASS
send-precedence               PASS
chains-disjoint               PASS
backlog-bound                 PASS  max alpha backlog 1, max any 1, bound 3/2
charging-complete             PASS
charge-conservation           PASS
interval-exclusive            PASS
alpha-send-intervals          PASS
chain-heads                   PASS
single-closure                PASS
ratio-bound                   PASS  ratio 13/11 vs bound 3/2
"""

DEMO_LEDGER = """\
on 1 1/1
on 2 2/1
on 3 2/1
on 4 2/1
on 5 2/1
on 6 2/1
ropt evicted-alpha-interval 1.2 2/1 interval 2 6
ropt sent-by-both 2 2/1 step 2
ropt sent-by-both 2.1 2/1 step 3
ropt sent-by-both 2.2 2/1 step 4
ropt preempted-interval 5 1/1 interval 5 6
ropt sent-by-both 5.1 2/1 step 5
ropt sent-by-both 5.2 2/1 step 6
"""

BLOCKING_REPORT = """\
optimum-contains-alpha-sends  PASS  constrained 30 vs unconstrained 30
oracle-agreement              PASS  dp 30 vs exhaustive 30
ropt-capacity                 PASS
ropt-sends-all                PASS
send-precedence               PASS
chains-disjoint               PASS
backlog-bound                 PASS  max alpha backlog 0, max any 0, bound 1642/3321
charging-complete             PASS
charge-conservation           PASS
interval-exclusive            PASS
alpha-send-intervals          PASS
chain-heads                   PASS
single-closure                PASS
ratio-bound                   PASS  ratio 1 vs bound 1071/821
"""

BLOCKING_LEDGER = """\
on 1 10/1
on 2 10/1
on 3 10/1
ropt sent-by-both 1.1 10/1 step 1
ropt sent-by-both 2 10/1 step 2
ropt sent-by-both 2.1 10/1 step 3
"""

# corpus-style seed whose ledger closes five chains
CHAINS_REPORT = """\
optimum-contains-alpha-sends  PASS  constrained 16 vs unconstrained 16
oracle-agreement              PASS  dp 16 vs exhaustive 16
ropt-capacity                 PASS
ropt-sends-all                PASS
send-precedence               PASS
chains-disjoint               PASS
backlog-bound                 PASS  max alpha backlog 0, max any 0, bound 821/2071
charging-complete             PASS
charge-conservation           PASS
interval-exclusive            PASS
alpha-send-intervals          PASS
chain-heads                   PASS
single-closure                PASS
ratio-bound                   PASS  ratio 1 vs bound 1071/821
"""

CHAINS_LEDGER = """\
on 1 1/1
on 2 1/1
on 3 1/1
on 4 1/1
on 6 1/1
on 7 5/1
on 8 1/1
on 10 5/1
ropt evicted-one-chain 1 1/1 step 1
ropt evicted-one-chain 2 1/1 step 2
ropt evicted-one-chain 3 1/1 step 3
ropt evicted-one-chain 4 1/1 step 4
ropt sent-by-both 6 1/1 step 6
ropt sent-by-both 7 5/1 step 7
ropt evicted-one-chain 8 1/1 step 8
ropt sent-by-both 10.1 5/1 step 10
chain 1 closed 1 1
chain 2 closed 2 2
chain 3 closed 3 3
chain 4 closed 4 4
chain 8 closed 8 8
"""


@pytest.mark.parametrize(
    "make_instance, beta, report_text, ledger_text",
    [
        (lambda: demo_instance(Fraction(2)), Fraction(2), DEMO_REPORT, DEMO_LEDGER),
        (lambda: greedy_blocking(Fraction(10)), BETA_REF, BLOCKING_REPORT, BLOCKING_LEDGER),
        (lambda: random_instance(GenConfig(seed=1372)), BETA_REF, CHAINS_REPORT, CHAINS_LEDGER),
    ],
    ids=["demo", "blocking", "corpus-chains"],
)
def test_report_and_ledger_golden(make_instance, beta, report_text, ledger_text):
    result = analyze(make_instance(), beta)
    assert format_report(result.report) == report_text
    assert format_ledger(result.ledger) == ledger_text


def _stretched(inst, rng):
    """The same arrivals, each gap between arrival steps stretched 1x to 50x."""
    new_step = {}
    prev = end = 0
    for p in inst.arrivals:
        s = p.key.step
        if s not in new_step:
            end += (s - prev) * rng.choice((1, 1, 1, 2, 3, 50))
            new_step[s], prev = end, s
    return build_instance(
        inst.capacity,
        inst.alpha,
        [(new_step[p.key.step], p.key.seq, p.klass) for p in inst.arrivals],
    )


def _random_feasible_subset(inst, rng):
    """Offer the arrivals in random order; keep 9 in 10 of those that stay deliverable."""
    chosen = set()
    for p in rng.sample(inst.arrivals, len(inst.arrivals)):
        if rng.randrange(10) and feasible(inst, chosen | {p})[0]:
            chosen.add(p)
    return chosen


# sha256 of every send schedule, check table, ledger and LedgerError text
# the loop below produces; a different digest is a change of behaviour
FAILURE_PATHS_DIGEST = "31a9d14c89ec8c2171092110db1fcee69d1dde28937f1c85d268589483d742fc"


def test_failure_paths_digest():
    # arbitrary optimal-or-not O-sets make the accounting's preconditions
    # fail; pin every verdict, ledger and error those failures produce
    digest = hashlib.sha256()
    reached = set()
    for seed in range(500):
        rng = random.Random(seed)
        cfg = GenConfig(capacity_max=5, horizon=10, max_burst=4, max_packets=16, seed=seed)
        inst = _stretched(random_instance(cfg), rng)
        for beta in (BETA_REF, Fraction(1, 2), Fraction(6)):
            on = run(Policy.on(beta), inst)
            chosen = _random_feasible_subset(inst, rng)
            ropt = run_ropt(inst, chosen, on)
            sends = sorted((t, p.id) for p, t in ropt.send_time.items())
            report = verify_ropt(inst, chosen, on, ropt)
            parts = [f"{seed} {beta} {sends} {ropt.last_step}", format_report(report)]
            reached.update(c.name for c in report.failures)
            try:
                ledger = build_ledger(inst, chosen, on, ropt)
            except LedgerError as exc:
                parts.append(str(exc))
                reached.add(str(exc).split(" (")[0])
            else:
                checked = verify_ledger(ledger, inst, chosen, on)
                reached.update(c.name for c in checked.failures)
                parts += [
                    format_ledger(ledger),
                    " ".join(c.owner.id for c in ledger.chains),
                    " ".join(f"{r.kind}:{r.packet.id}" for r in ledger.ropt_charges),
                    str(sorted(ledger.diagnostics.items())),
                    format_report(checked),
                ]
            digest.update("\n".join(parts).encode())
    assert {
        "no open chain for rejected packet",
        "chain head charged twice",
        "chain-heads",
        "interval-exclusive",
    } <= reached, reached
    assert digest.hexdigest() == FAILURE_PATHS_DIGEST


def test_non_fifo_trace_rejected():
    # a hand-built trace that sends the second packet while the first is
    # still at the head of the buffer
    inst = build_instance(2, Fraction(2), [(1, 0, "one"), (1, 1, "alpha")])
    first, second = inst.arrivals
    on = RunTrace(
        Policy.on(BETA_REF),
        (
            StepEvent(1, EventKind.ADMITTED, first),
            StepEvent(1, EventKind.ADMITTED, second),
            StepEvent(1, EventKind.SENT, second),
            StepEvent(2, EventKind.SENT, first),
        ),
        {1: second, 2: first},
        Fraction(3),
    )
    chosen = set(inst.arrivals)
    ropt = run_ropt(inst, chosen, on)
    with pytest.raises(ValueError, match="non-FIFO send of 1.1 at step 1"):
        verify_ropt(inst, chosen, on, ropt)
    with pytest.raises(ValueError, match="non-FIFO send of 1.1 at step 1"):
        build_ledger(inst, chosen, on, ropt)
