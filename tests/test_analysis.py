import functools
import gc
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from fifolab import (
    AnalysisReport,
    CheckStatus,
    EventKind,
    GenConfig,
    Instance,
    InstanceAnalysis,
    InvalidInstanceError,
    LedgerError,
    OptResult,
    Policy,
    RatioReport,
    RoptTrace,
    RunTrace,
    StepEvent,
    analyze,
    brute_force_opt,
    build_instance,
    build_ledger,
    demo_instance,
    feasible,
    format_instance,
    format_trace,
    greedy_blocking,
    opt_containing,
    parse_instance,
    random_instance,
    run,
    run_ropt,
    total_value,
    verify_ledger,
    verify_ropt,
)
import fifolab.analysis as analysis_module
import fifolab.model as model_module
import fifolab.offline as offline_module
from fifolab.analysis import (
    EVICTED_ALPHA_INTERVAL,
    EVICTED_ONE_CHAIN,
    PREEMPTED_INTERVAL,
    PREEMPTED_OPEN_CHAIN,
    REJECTED_ONE_CHAIN,
    SENT_BY_BOTH,
    ChargeLedger,
    ChargeRecord,
    format_ledger,
    format_report,
)
from fifolab.cli import experiment_row
from fifolab.model import ONE, Packet, _cached, packet_id

BETA_REF = Fraction(3284, 1000)


def value_of(p, alpha):
    """A packet's value, read off its class alone."""
    return alpha if p.is_alpha else ONE


def by_ids(inst, *ids):
    """Arrival indices of the packets with these ids."""
    index = {p.id: i for i, p in enumerate(inst.arrivals)}
    return {index[i] for i in ids}


def sent_ids(inst, trace):
    """Ids of the packets a policy trace sends, in send order."""
    return [inst.arrivals[i].id for i in trace.sends.values()]


def send_times(inst, ropt):
    """The reference's send step of each O-packet, from its index-keyed list."""
    return {p: t for p, t in zip(inst.arrivals, ropt.send_time) if t is not None}


def sent_by_both(ropt):
    """The policy's sends of O-packets, as (step, arrival index): the reference's per-send charges."""
    return [(t, i) for t, i in ropt.on.sends.items() if ropt.in_o[i]]


def charged_value(ledger):
    """The reference's charges summed as Fractions: its per-send charges, then the drop charges."""
    inst = ledger.ropt.on.instance
    charged = [i for _, i in sent_by_both(ledger.ropt)] + [r.packet for r in ledger.drop_charges]
    return sum((inst.alpha if inst.is_alpha[i] else ONE for i in charged), Fraction(0))


def demo_setup(alpha=Fraction(2)):
    inst = demo_instance(alpha)
    on = run(Policy.on(alpha), inst)
    chosen = by_ids(inst, "1.2", "2", "2.1", "2.2", "5", "5.1", "5.2")
    return inst, on, chosen


class TestRunRopt:
    def test_demo_reference_runs_ahead_on_the_lost_alpha(self):
        inst, on, chosen = demo_setup()
        ropt = run_ropt(on, feasible(inst, chosen))
        times = {p.id: t for p, t in send_times(inst, ropt).items()}
        # the policy spends step 1 on a 1-value packet; the reference
        # sends the alpha packet the policy will lose to eviction
        assert times["1.2"] == 1
        assert times == {"1.2": 1, "2": 2, "2.1": 3, "2.2": 4, "5.1": 5, "5.2": 6, "5": 7}
        assert ropt.kept.sends[-1] == 7  # the last step the reference sends

    def test_empty_chosen_set_never_sends(self):
        inst, on, _ = demo_setup()
        ropt = run_ropt(on, feasible(inst, set()))
        assert ropt.in_o == [False] * len(inst.arrivals)
        assert ropt.send_time == [None] * len(inst.arrivals)

    def test_mirrors_when_policy_matches_optimum(self):
        inst = build_instance(2, Fraction(2), [(1, 0, "alpha"), (1, 1, "alpha")])
        on = run(Policy.on(BETA_REF), inst)
        ropt = run_ropt(on, feasible(inst, range(2)))
        assert ropt.in_o == [True, True]
        assert {t: i for i, t in enumerate(ropt.send_time) if t is not None} == on.sends
        assert ropt.kept.sends == (1, 2)

    def test_infeasible_chosen_set_rejected(self):
        # feasible schedules a set for run_ropt, and has none for this one
        inst = greedy_blocking(Fraction(10))
        assert feasible(inst, range(len(inst.arrivals))) is None


class TestVerifyRopt:
    def test_demo_all_pass(self):
        inst, on, chosen = demo_setup()
        report = verify_ropt(run_ropt(on, feasible(inst, chosen)))
        assert report.ok
        for name in ("ropt-capacity", "ropt-sends-all", "send-precedence", "chains-disjoint"):
            assert report.check(name).status == CheckStatus.PASS

    def test_empty_chosen_set_vacuous(self):
        inst, on, _ = demo_setup()
        report = verify_ropt(run_ropt(on, feasible(inst, set())))
        assert report.ok

    def test_checks_and_ledger_share_one_replay(self, monkeypatch):
        drained = []
        drain = RunTrace.departures.func

        @functools.wraps(drain)
        def counting_drain(trace):
            drained.append(trace)
            return drain(trace)

        monkeypatch.setattr(RunTrace, "departures", _cached(counting_drain))
        inst, on, chosen = demo_setup()
        ropt = run_ropt(on, feasible(inst, chosen))
        report = verify_ropt(ropt)
        assert drained == [on]
        assert [c.name for c in report.checks] == [
            "ropt-capacity",
            "ropt-sends-all",
            "send-precedence",
            "chains-disjoint",
            "backlog-bound",
        ]
        assert report.ok
        verify_ledger(build_ledger(ropt))
        assert drained == [on]
        # analyze drains the policy's replay exactly once, to the end
        for seed in range(300):
            drained.clear()
            result = analyze(random_instance(GenConfig(seed=seed)), BETA_REF)
            assert drained == [result.ropt.on]
        assert result.ledger is not None  # the last analysis reached the ledger

    def test_backlog_diagnostic_reports_counts(self):
        inst, on, chosen = demo_setup()
        report = verify_ropt(run_ropt(on, feasible(inst, chosen)))
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
        assert sent_ids(inst, on) == ["1", "2", "2.1"]
        chosen = by_ids(inst, "1", "1.1", "2")
        ropt = run_ropt(on, feasible(inst, chosen))
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
        ropt = run_ropt(on, feasible(inst, chosen))
        [owner] = by_ids(inst, "3")
        assert ropt.chain(owner) == (2, 3)


class TestLedgerDemo:
    def test_charges(self):
        inst, on, chosen = demo_setup()
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)

        by_kind = {}
        for rec in ledger.drop_charges:
            by_kind.setdefault(rec.kind, []).append(rec)
        assert set(by_kind) == {EVICTED_ALPHA_INTERVAL, PREEMPTED_INTERVAL}

        sent_steps = {inst.arrivals[i].id: t for t, i in sent_by_both(ropt)}
        assert sent_steps == {"2": 2, "2.1": 3, "2.2": 4, "5.1": 5, "5.2": 6}

        [evicted] = by_kind[EVICTED_ALPHA_INTERVAL]
        assert inst.arrivals[evicted.packet].id == "1.2"
        assert evicted.interval == (2, 6)
        assert inst.is_alpha[evicted.packet]  # so it is worth alpha

        [preempted] = by_kind[PREEMPTED_INTERVAL]
        assert inst.arrivals[preempted.packet].id == "5"
        assert preempted.interval == (5, 6)  # two preempting alpha packets

        assert ledger.chains == ()

    def test_conservation(self):
        inst, on, chosen = demo_setup()
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)
        assert charged_value(ledger) == total_value(inst, chosen) == 13
        assert on.totals == 11
        assert verify_ledger(ledger).check("charge-conservation").status == CheckStatus.PASS

    def test_verify_passes(self):
        inst, on, chosen = demo_setup()
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)
        report = verify_ledger(ledger)
        assert report.ok
        assert report.check("interval-exclusive").status == CheckStatus.PASS

    def test_exclusivity_names_the_drops_inside_the_interval(self):
        # alpha evictions just before, at both ends of, and just after the
        # preemption interval [5, 6], recorded in step order as the ledger does
        inst, on, chosen = demo_setup()
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)
        [evicted] = [r for r in ledger.drop_charges if r.kind == EVICTED_ALPHA_INTERVAL]
        drops = tuple(evicted._replace(drop_step=d) for d in (4, 5, 6, 7))
        tampered = ledger._replace(drop_charges=ledger.drop_charges + drops)
        check = verify_ledger(tampered).check("interval-exclusive")
        assert check.status == CheckStatus.FAIL
        assert check.detail == "alpha evictions at [5, 6] inside preemption interval [5, 6]"


class TestLedgerChainCharges:
    def test_deferred_eviction_closes_its_own_chain(self):
        inst = build_instance(
            2, Fraction(2), [(1, 0, "one"), (1, 1, "one"), (2, 0, "one"), (2, 1, "one")]
        )
        on = run(Policy.on(BETA_REF), inst)
        chosen = by_ids(inst, "1", "1.1", "2")
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)
        [rec] = [r for r in ledger.drop_charges if r.kind == EVICTED_ONE_CHAIN]
        assert inst.arrivals[rec.packet].id == "1.1"
        assert rec.step == 3
        assert rec.drop_step == 2
        [chain] = ledger.chains
        assert chain.closing_charge == rec.packet and ropt.chain(chain.owner) == (3,)
        assert verify_ledger(ledger).ok
        assert ledger.diagnostics["deferred-evictions"] == 1

    def test_rejection_charged_at_open_chain_head(self):
        # alternative optimal set {1.1, 2, 2.1}: the reference sends the
        # first alpha at step 1 (the policy sends a non-optimum packet),
        # leaving an open chain whose head absorbs the rejected packet
        inst = build_instance(
            2, Fraction(2), [(1, 0, "one"), (1, 1, "alpha"), (2, 0, "alpha"), (2, 1, "one")]
        )
        on = run(Policy.on(BETA_REF), inst)
        assert sent_ids(inst, on) == ["1", "1.1", "2"]
        chosen = by_ids(inst, "1.1", "2", "2.1")
        assert total_value(inst, chosen) == 5
        assert feasible(inst, chosen) is not None
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)
        [rec] = [r for r in ledger.drop_charges if r.kind == REJECTED_ONE_CHAIN]
        assert inst.arrivals[rec.packet].id == "2.1"
        assert rec.step == 1
        [chain] = ledger.chains
        assert inst.arrivals[chain.owner].id == "1.1" and chain.closing_charge == rec.packet
        report = AnalysisReport(
            verify_ropt(ropt).checks + verify_ledger(ledger).checks
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
        assert sent_ids(inst, on) == ["1", "1.1", "1.3", "3"]
        chosen = by_ids(inst, "1.2", "1.3", "3")
        ropt = run_ropt(on, feasible(inst, chosen))
        ledger = build_ledger(ropt)
        [rec] = [r for r in ledger.drop_charges if r.kind == PREEMPTED_OPEN_CHAIN]
        assert inst.arrivals[rec.packet].id == "1.2"
        assert rec.step == 2
        assert rec.drop_step == 3
        [chain] = ledger.chains
        assert inst.arrivals[chain.owner].id == "1.3" and ropt.chain(chain.owner) == (2,)
        assert chain.closing_charge == rec.packet
        report = AnalysisReport(
            verify_ropt(ropt).checks + verify_ledger(ledger).checks
        )
        assert report.ok
        assert charged_value(ledger) == total_value(inst, chosen)
        # a second charge at the same head breaks single closure
        tampered = ledger._replace(drop_charges=ledger.drop_charges + (rec._replace(drop_step=4),))
        check = verify_ledger(tampered).check("single-closure")
        assert check == ("single-closure", "fail", "duplicated head charges at [2]")
        # a head charge whose chain the ledger does not list breaks it too
        check = verify_ledger(ledger._replace(chains=())).check("single-closure")
        assert check == ("single-closure", "fail", "0 closed chains vs 1 chain-head charges")

    def test_policy_matching_optimum_needs_no_chains(self):
        inst = build_instance(2, Fraction(2), [(1, 0, "alpha"), (2, 0, "one")])
        on = run(Policy.on(BETA_REF), inst)
        ropt = run_ropt(on, feasible(inst, range(2)))
        ledger = build_ledger(ropt)
        assert ledger.drop_charges == () and ledger.chains == ()
        assert len(sent_by_both(ropt)) == 2


class TestArrivalIndex:
    def test_layers_standalone_reproduce_analyze(self):
        for seed in range(40):
            inst = random_instance(GenConfig(seed=seed))
            result = analyze(inst, BETA_REF)
            on = run(Policy.on(BETA_REF), inst)
            assert on.instance is inst and on == result.ropt.on
            ropt = run_ropt(on, result.ropt.kept)
            checks = verify_ropt(ropt).checks
            ledger = build_ledger(ropt)
            checks += verify_ledger(ledger).checks
            assert ropt == result.ropt and ledger == result.ledger
            assert set(checks) <= set(result.report.checks)


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
            # alpha = beta attains the first term of the bound, (1 + beta) / beta
            (
                lambda: build_instance(2, Fraction(821, 250), [(1, 0, "one"), (1, 1, "alpha")]),
                Fraction(821, 250),
                Fraction(1071, 821),
                Fraction(1071, 821),
            ),
        ],
        ids=["demo", "blocking-family", "empty-instance", "alpha-equals-beta"],
    )
    def test_ratio_within_bound(self, make_instance, beta, ratio, bound):
        result = analyze(make_instance(), beta)
        assert result.report.ok
        assert result.ratio.ratio == ratio
        assert result.ratio.bound == bound
        assert result.ratio.within_bound

    def test_ratio_report_is_five_exact_values(self):
        assert RatioReport._fields == ("policy_value", "opt_value", "ratio", "bound", "within_bound")
        # the policy and its beta are read off the run
        assert InstanceAnalysis._fields == ("instance", "ropt", "ledger", "report", "ratio")
        result = analyze(demo_instance(Fraction(2)), BETA_REF)
        assert result.ropt.on.policy == Policy.on(BETA_REF)
        assert type(result.ratio.ratio) is Fraction and type(result.ratio.bound) is Fraction

    def test_blocking_family_passes(self):
        for alpha in (Fraction(3, 2), Fraction(2), Fraction(10)):
            assert analyze(greedy_blocking(alpha), BETA_REF).report.ok

    def test_report_formatting(self):
        result = analyze(demo_instance(Fraction(2)), Fraction(2))
        text = format_report(result.report)
        assert "ratio-bound" in text and "PASS" in text

    def test_oracle_agreement_fails_one_packet_short_of_optimal(self, monkeypatch):
        real = analysis_module.brute_force_opt

        def one_short(inst):
            best = real(inst)
            last = inst.arrivals[best.indices[-1]]  # ascending indices: the latest key
            return OptResult(best.value - value_of(last, inst.alpha), best.indices[:-1], best.sends[:-1])

        monkeypatch.setattr(analysis_module, "brute_force_opt", one_short)
        report = analyze(demo_instance(Fraction(2)), Fraction(2)).report
        [check] = [c for c in report.checks if c.name == "oracle-agreement"]
        assert check.status is CheckStatus.FAIL
        assert check.detail == "dp 13 vs exhaustive 11"

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


# corpus seed 256 against an optimum other than the canonical one: a
# preempted O-packet is charged at an open chain, which then grows to length 2
PREEMPTED_CHAIN_LEDGER = """\
on 1 1/1
on 2 5/1
on 3 1/1
on 5 5/1
on 6 1/1
on 7 1/1
on 8 5/1
on 9 5/1
on 10 5/1
on 11 5/1
ropt sent-by-both 1 1/1 step 1
ropt sent-by-both 2 5/1 step 2
ropt sent-by-both 3 1/1 step 3
ropt sent-by-both 5 5/1 step 5
ropt preempted-open-chain 8 1/1 step 6
ropt sent-by-both 6 1/1 step 7
ropt sent-by-both 7 5/1 step 8
ropt sent-by-both 8.1 5/1 step 9
ropt preempted-interval 9 1/1 interval 10 11
ropt sent-by-both 9.1 5/1 step 10
ropt preempted-interval 10 1/1 interval 10 11
ropt sent-by-both 10.1 5/1 step 11
chain 7 closed 8 6 7
"""

# corpus seed 400, likewise: a rejected O-packet closes a chain of length 6
REJECTED_CHAIN_LEDGER = """\
on 2 1/1
on 3 1/1
on 4 1/1
on 5 1/1
on 6 5/1
on 7 5/1
on 8 5/1
on 9 5/1
on 10 5/1
on 11 5/1
on 12 5/1
ropt rejected-one-chain 8.1 1/1 step 2
ropt sent-by-both 2.1 1/1 step 3
ropt sent-by-both 3 1/1 step 4
ropt sent-by-both 4 1/1 step 5
ropt sent-by-both 5 5/1 step 6
ropt sent-by-both 6.1 5/1 step 7
ropt sent-by-both 7 5/1 step 8
ropt sent-by-both 7.1 5/1 step 9
ropt sent-by-both 8 5/1 step 10
ropt sent-by-both 9 5/1 step 11
ropt sent-by-both 10 5/1 step 12
chain 7 closed 8.1 2 3 4 5 6 7
"""


def test_report_without_checks_formats_as_empty_text():
    assert format_report(AnalysisReport(())) == ""


@pytest.mark.parametrize(
    "seed, o_ids, bound, ledger_text",
    [
        (256, "1 2 3 5 6 7 8 8.1 9 9.1 10 10.1", "3284/2071", PREEMPTED_CHAIN_LEDGER),
        (400, "2.1 3 4 5 6.1 7 7.1 8 8.1 9 10", "2463/2071", REJECTED_CHAIN_LEDGER),
    ],
    ids=["preempted-open-chain", "rejected-one-chain"],
)
def test_fixed_optimum_ledger_golden(seed, o_ids, bound, ledger_text):
    inst = random_instance(GenConfig(seed=seed))
    chosen = sorted(by_ids(inst, *o_ids.split()))
    assert total_value(inst, chosen) == brute_force_opt(inst).value
    on = run(Policy.on(BETA_REF), inst)
    ropt = run_ropt(on, feasible(inst, chosen))
    ledger = build_ledger(ropt)
    report = AnalysisReport(
        verify_ropt(ropt).checks + verify_ledger(ledger).checks
    )
    assert format_report(report) == (
        "ropt-capacity         PASS\n"
        "ropt-sends-all        PASS\n"
        "send-precedence       PASS\n"
        "chains-disjoint       PASS\n"
        f"backlog-bound         PASS  max alpha backlog 1, max any 1, bound {bound}\n"
        "charge-conservation   PASS\n"
        "interval-exclusive    PASS\n"
        "alpha-send-intervals  PASS\n"
        "chain-heads           PASS\n"
        "single-closure        PASS\n"
    )
    assert format_ledger(ledger) == ledger_text


@pytest.mark.xfail(
    strict=True,
    raises=LedgerError,
    reason="ROADMAP item 2 falsification candidate: build_ledger charges a chain head "
    "twice on this optimum; flip this test once the item is settled",
)
def test_ledger_on_seed_3452_optimum():
    inst = random_instance(GenConfig(seed=3452))
    chosen = sorted(by_ids(inst, *"3 4 5.1 6 7 7.1 8 9 9.1 10 10.1 11".split()))
    assert total_value(inst, chosen) == brute_force_opt(inst).value == 36
    on = run(Policy.on(BETA_REF), inst)
    assert {i for i in on.sends.values() if inst.arrivals[i].is_alpha} <= set(chosen)
    ropt = run_ropt(on, feasible(inst, chosen))
    assert verify_ropt(ropt).ok
    ledger = build_ledger(ropt)
    assert verify_ledger(ledger).ok


# ROADMAP item 2's reproducers: two shrunk from corpus seed 400 at max_burst 3
# (the chain closed by a preemption) and seed 261 at max_burst 4 (the chain
# closed by a rejection), and the two smallest of a bounded-exhaustive census
# of 4-step instances (each step 0-3 packets), one per message
SHRUNK_LEDGER_FAILURES = [
    pytest.param(
        3,
        Fraction(5),
        [(1, 0, "one"), (1, 1, "one"), (2, 0, "one"), (2, 1, "one"), (3, 0, "one"),
         (4, 0, "alpha"), (5, 0, "alpha"), (6, 0, "one"), (6, 1, "alpha"), (6, 2, "one")],
        "1 1.1 3 4 5 6 6.1 6.2",
        "chain head charged twice (step 4, packet 6)",
        id="preemption-first",
    ),
    pytest.param(
        4,
        Fraction(3, 2),
        [(1, 0, "one"), (1, 1, "one"), (2, 0, "one"), (2, 1, "alpha"), (2, 2, "alpha"),
         (3, 0, "one"), (4, 0, "alpha"), (4, 1, "alpha"), (4, 2, "one")],
        "1 2.1 2.2 3 4 4.1 4.2",
        "chain head charged twice (step 2, packet 3)",
        id="rejection-first",
    ),
    pytest.param(
        3,
        Fraction(3, 2),
        [(1, 0, "one"), (1, 1, "one"), (1, 2, "alpha"), (2, 0, "alpha"), (3, 0, "one"),
         (3, 1, "alpha"), (3, 2, "one")],
        "1.2 2 3 3.1 3.2",
        "chain head charged twice (step 1, packet 3)",
        id="census-head-twice",
    ),
    pytest.param(
        3,
        Fraction(2),
        [(1, 0, "one"), (1, 1, "one"), (1, 2, "one"), (2, 0, "alpha"), (3, 0, "alpha"),
         (4, 0, "alpha"), (4, 1, "alpha"), (4, 2, "one")],
        "1.2 2 3 4 4.1 4.2",
        "no open chain for rejected packet (step 4, packet 4.2)",
        id="census-no-open-chain",
    ),
]


@pytest.mark.xfail(
    strict=True,
    raises=LedgerError,
    reason="ROADMAP item 2 falsification candidates: on these optima build_ledger charges "
    "a chain head twice or finds no open chain for a rejected packet; flip this test "
    "once the item is settled",
)
@pytest.mark.parametrize("capacity, alpha, specs, o_ids, message", SHRUNK_LEDGER_FAILURES)
def test_ledger_on_shrunk_optimum(capacity, alpha, specs, o_ids, message):
    inst = build_instance(capacity, alpha, specs)
    chosen = sorted(by_ids(inst, *o_ids.split()))
    assert total_value(inst, chosen) == brute_force_opt(inst).value
    assert analyze(inst, BETA_REF).report.ok  # the canonical optimum passes
    on = run(Policy.on(BETA_REF), inst)
    assert {i for i in on.sends.values() if inst.is_alpha[i]} <= set(chosen)
    ropt = run_ropt(on, feasible(inst, chosen))
    assert verify_ropt(ropt).ok
    try:
        ledger = build_ledger(ropt)
    except LedgerError as exc:
        assert str(exc) == message
        raise
    assert verify_ledger(ledger).ok


def test_conservation_fails_without_or_with_twice_any_drop_charge():
    # the ledger stores only the drop charges, so conservation must catch any
    # one of them missing or charged twice
    tampered = 0
    for seed in range(300):
        inst = random_instance(GenConfig(seed=seed))
        ledger = analyze(inst, BETA_REF).ledger
        value = ledger.ropt.kept.value
        charges = ledger.drop_charges
        tampered += bool(charges)
        for k, rec in enumerate(charges):
            worth = inst.alpha if inst.is_alpha[rec.packet] else ONE
            for changed, total in [
                (charges[:k] + charges[k + 1 :], value - worth),
                (charges + (rec,), value + worth),
            ]:
                check = verify_ledger(ledger._replace(drop_charges=changed)).check("charge-conservation")
                assert check == (
                    "charge-conservation", "fail", f"reference charges {total} vs optimum value {value}"
                )
    assert tampered == 200


def _optima_containing(inst, required, canonical):
    """Every feasible set that holds `required` and `canonical`'s count of each class.

    Each is an optimum when `canonical` is one: all maximum-weight bases of
    the transversal matroid of feasible sets have the same class counts.
    """
    arr = inst.arrivals
    n_alpha = sum(arr[i].is_alpha for i in canonical)
    free_alphas = [i for i, p in enumerate(arr) if p.is_alpha and i not in required]
    ones = [i for i, p in enumerate(arr) if not p.is_alpha]
    for extra in itertools.combinations(free_alphas, n_alpha - len(required)):
        for picked in itertools.combinations(ones, len(canonical) - n_alpha):
            chosen = sorted((*required, *extra, *picked))
            if feasible(inst, chosen) is not None:
                yield chosen


def test_charging_argument_holds_on_every_optimum():
    # The paper fixes any optimal O. analyze fixes the canonical one, and the
    # ledger requires O to hold every alpha packet the policy delivered; so
    # here O ranges over every optimum that holds them, not just the canonical.
    optima = 0
    kinds = Counter()
    diagnostics = Counter()
    lengths = Counter()
    for seed in range(500):
        inst = random_instance(GenConfig(seed=seed))
        on = run(Policy.on(BETA_REF), inst)
        required = sorted(i for i in on.sends.values() if inst.arrivals[i].is_alpha)
        canonical = opt_containing(inst, required)
        assert canonical.value == brute_force_opt(inst).value
        for chosen in _optima_containing(inst, required, canonical.indices):
            optima += 1
            ropt = run_ropt(on, feasible(inst, chosen))
            ledger = build_ledger(ropt)  # raises LedgerError on a broken rule
            checks = verify_ropt(ropt).checks + verify_ledger(ledger).checks
            assert AnalysisReport(checks).ok, (seed, chosen)
            kinds[SENT_BY_BOTH] += len(sent_by_both(ropt))
            kinds.update(rec.kind for rec in ledger.drop_charges)
            diagnostics.update(ledger.diagnostics)
            lengths.update(len(ropt.chain(chain.owner)) for chain in ledger.chains)
    assert optima == 1625
    assert set(kinds) == {
        SENT_BY_BOTH,
        EVICTED_ALPHA_INTERVAL,
        PREEMPTED_OPEN_CHAIN,
        PREEMPTED_INTERVAL,
        EVICTED_ONE_CHAIN,
        REJECTED_ONE_CHAIN,
    }
    assert (kinds[PREEMPTED_OPEN_CHAIN], kinds[REJECTED_ONE_CHAIN]) == (3, 28)
    # a rejection's all-alpha buffer never holds an alpha outside an optimum here
    assert diagnostics == {
        "deferred-evictions": 939,
        "preempt-fallthrough-with-closed-chains": 1,
        "reject-context-non-o-packets": 0,
        "null-head-chains": 47,
    }
    assert sorted(lengths.items()) == [
        (1, 1011), (2, 143), (3, 70), (4, 38), (5, 23), (6, 13), (7, 5), (8, 5)
    ]


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
    n = len(inst.arrivals)
    chosen = set()
    for i in rng.sample(range(n), n):
        if rng.randrange(10) and feasible(inst, chosen | {i}) is not None:
            chosen.add(i)
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
            ropt = run_ropt(on, feasible(inst, chosen))
            sends = sorted((t, p.id) for p, t in send_times(inst, ropt).items())
            report = verify_ropt(ropt)
            last_step = ropt.kept.sends[-1] if ropt.kept.sends else 0
            parts = [f"{seed} {beta} {sends} {last_step}", format_report(report)]
            reached.update(c.name for c in report.failures)
            try:
                ledger = build_ledger(ropt)
            except LedgerError as exc:
                parts.append(str(exc))
                reached.add(str(exc).split(" (")[0])
            else:
                checked = verify_ledger(ledger)
                reached.update(c.name for c in checked.failures)
                parts += [
                    format_ledger(ledger),
                    " ".join(inst.arrivals[c.owner].id for c in ledger.chains),
                    " ".join(
                        [f"{SENT_BY_BOTH}:{inst.arrivals[i].id}" for _, i in sent_by_both(ropt)]
                        + [f"{r.kind}:{inst.arrivals[r.packet].id}" for r in ledger.drop_charges]
                    ),
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


# sha256 of the check table, ledger export and fuzz CSV row of every corpus
# instance below; a different digest is a change of behaviour
CORPUS_ANALYZE_DIGEST = "d8c6dd2e12953002393177995847e371e19cdb3cba15cf8111372077415c89a7"


def test_corpus_analyze_digest():
    digest = hashlib.sha256()
    for seed in range(2000):
        inst = random_instance(GenConfig(seed=seed))
        result = analyze(inst, BETA_REF)
        ledger = "-\n" if result.ledger is None else format_ledger(result.ledger)
        row = ",".join(experiment_row(seed, result))
        digest.update(f"{format_report(result.report)}{ledger}{row}\n".encode())
    assert digest.hexdigest() == CORPUS_ANALYZE_DIGEST


def _large_config(capacity, horizon, alpha, seed, max_packets=None):
    return GenConfig(
        capacity_min=capacity, capacity_max=capacity, horizon=horizon, max_burst=3,
        max_packets=max_packets, alpha_choices=(alpha,), seed=seed,
    )


# sha256 of the check table and the ledger export (or the LedgerError text) of
# analyze on whole large instances; a different digest is a change of behaviour
@pytest.mark.parametrize(
    "cfg, digest",
    [
        # the benchmark's dense instances, n about 2,100
        (_large_config(16, 1400, Fraction(2), 0), "af4ba0f148a382d8e0d398bfddb2a3f083a33aee6b96b5c3255505569600c7b5"),
        (_large_config(256, 1400, Fraction(2), 1), "2c31f06b2a9f1d3ad4ea7922f477a0fe22c1539b4cc35b9edf1ec4c120934c24"),
        # n = 10^4, B = 10^3; at alpha 5 the policy preempts, so the ledger
        # reads the policy's alpha queue at about 1,600 preemptions of O-packets
        (
            _large_config(1000, 6897, Fraction(5), 1, max_packets=10_000),
            "2fa14008f5153229f99687ea73494fdd230f742cd8b7b0d5dcc10e9479f61bd2",
        ),
        # n = 10^5, B = 10^3: test_generators' large instance, whose replay
        # records 32,743 drops
        (
            _large_config(1000, 68965, Fraction(2), 1, max_packets=100_000),
            "d9f8c18c1aa8f111b858ded415e4e772b5912e1e34b5dbe5f32705766915910c",
        ),
    ],
    ids=["dense-B16", "dense-B256", "n1e4-B1000", "n1e5-B1000"],
)
def test_analyze_digest_at_scale(cfg, digest):
    inst = random_instance(cfg)
    result = analyze(inst, BETA_REF)
    ledger = "-\n" if result.ledger is None else format_ledger(result.ledger)
    text = format_report(result.report) + ledger
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_analyze_hashes_no_packet(monkeypatch):
    # every lookup inside analyze goes by arrival key or index
    calls = 0
    real_hash = Packet.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return real_hash(self)

    monkeypatch.setattr(Packet, "__hash__", counted)
    hash(demo_instance(Fraction(2)).arrivals[0])
    assert calls == 1  # the counter is live
    calls = 0
    for seed in range(500):
        analyze(random_instance(GenConfig(seed=seed)), BETA_REF)
    assert calls == 0


def test_analyze_hashes_no_fraction(monkeypatch):
    # the bound memo is keyed on integers, and no lookup inside analyze goes by a value
    calls = 0
    real_hash = Fraction.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return real_hash(self)

    instances = [random_instance(GenConfig(seed=seed)) for seed in range(200)]
    monkeypatch.setattr(Fraction, "__hash__", counted)
    hash(Fraction(1, 3))
    assert calls == 1  # the counter is live
    calls = 0
    for inst in instances:
        analyze(inst, BETA_REF)
    assert calls == 0


@pytest.mark.parametrize("beta", [Fraction(0), Fraction(-3, 2), 0, -0.5])
def test_analyze_rejects_an_invalid_beta_on_every_call(beta):
    # Policy.on memoises its policies on beta's integer ratio; a beta that
    # fails the policy's check is never stored, so it raises every time
    inst = random_instance(GenConfig(seed=0))
    for _ in range(3):
        with pytest.raises(ValueError, match="beta must be positive"):
            analyze(inst, beta)
    valid = Fraction(3, 2)
    assert Policy.on(valid) is Policy.on(valid) == Policy(valid)


def _live_packets():
    return sum(1 for obj in gc.get_objects() if type(obj) is Packet)


def _windows(inst, size=14):
    """Each consecutive `size`-packet slice of `inst`, shifted to start at step 1."""
    rows = list(zip(inst.steps, inst.seqs, inst.is_alpha))
    for lo in range(0, len(rows) - size + 1, size):
        shift = rows[lo][0] - 1
        specs = [(s - shift, q, "alpha" if a else "one") for s, q, a in rows[lo : lo + size]]
        yield build_instance(inst.capacity, inst.alpha, specs)


def test_parse_and_analyze_build_no_object_per_packet():
    # an instance is its columns: parsing, both runs, the trace export, analyze
    # and the report and ledger exports build no Packet and never ask for the view
    dense_cfg = GenConfig(
        capacity_min=16, capacity_max=16, horizon=1400, max_burst=3,
        max_packets=None, alpha_choices=(Fraction(2),), seed=1,
    )
    sources = [random_instance(dense_cfg)] + [random_instance(GenConfig(seed=s)) for s in range(100)]
    gc.collect()
    before = _live_packets()
    parsed = [parse_instance(format_instance(inst)) for inst in sources]
    analyzed = parsed[1:] + list(_windows(sources[0]))
    held = []  # every result stays alive while the packets are counted
    for inst in parsed:
        for policy in (Policy.on(BETA_REF), Policy.greedy()):
            trace = run(policy, inst)
            held += [trace, format_trace(trace)]
    for inst in analyzed:
        result = analyze(inst, BETA_REF)
        held += [result, format_report(result.report)]
        if result.ledger is not None:
            held.append(format_ledger(result.ledger))
    assert len(analyzed) > 200
    assert all("arrivals" not in vars(inst) for inst in sources + parsed + analyzed)
    assert _live_packets() <= before
    sources[0].arrivals
    assert _live_packets() >= before + len(sources[0].steps)  # the counter is live


def test_ledger_names_packets_by_arrival_index():
    # charges and chains hold indices into the instance's own arrivals
    for seed in range(500):
        inst = random_instance(GenConfig(seed=seed))
        ledger = analyze(inst, BETA_REF).ledger
        assert ledger.ropt.on.instance is inst
        assert all(type(rec.packet) is int for rec in ledger.drop_charges)
        for chain in ledger.chains:
            assert type(chain.owner) is int
            assert chain.closing_charge is None or type(chain.closing_charge) is int


def test_analyze_links_each_record_to_the_one_before():
    # each stage reads the run off the record it was handed, so the checks
    # rerun on analyze's own records are exactly the ones in its report
    for seed in range(200):
        result = analyze(random_instance(GenConfig(seed=seed)), BETA_REF)
        assert result.ledger.ropt is result.ropt
        assert result.ledger.ropt.on.instance is result.instance
        ropt_checks = verify_ropt(result.ropt).checks
        ledger_checks = verify_ledger(result.ledger).checks
        # the two optimum checks, the reference's, charging-complete, the ledger's, ratio-bound
        assert result.report.checks[2 : 2 + len(ropt_checks)] == ropt_checks
        assert result.report.checks[-1 - len(ledger_checks) : -1] == ledger_checks


def test_analyze_builds_no_step_event(monkeypatch):
    # run logs its events in columns, and no layer of analyze asks for the view
    calls = 0
    real_new = StepEvent.__new__

    def counted(cls, *args):
        nonlocal calls
        calls += 1
        return real_new(cls, *args)

    monkeypatch.setattr(StepEvent, "__new__", staticmethod(counted))
    StepEvent(1, EventKind.SENT, 0)
    assert calls == 1  # the counter is live
    calls = 0
    for seed in range(500):
        analyze(random_instance(GenConfig(seed=seed)), BETA_REF)
    assert calls == 0


def test_analyze_builds_one_o_mask(monkeypatch):
    # run_ropt takes O's ascending indices and earliest sends from the
    # optimizer's OptResult as they are: it neither sorts the indices again
    # nor reruns the earliest-send pass, and the mask it builds is the one
    # the other layers read
    inside_run_ropt = False
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name, inside_run_ropt] += 1
            return real(*args)

        return wrapper

    for module in (model_module, offline_module, analysis_module):
        for name in ("arrival_indices", "_earliest_sends"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    real_run_ropt = analysis_module.run_ropt

    def traced(on, kept):
        nonlocal inside_run_ropt
        inside_run_ropt = True
        try:
            return real_run_ropt(on, kept)
        finally:
            inside_run_ropt = False

    monkeypatch.setattr(analysis_module, "run_ropt", traced)
    for seed in range(500):
        result = analyze(random_instance(GenConfig(seed=seed)), BETA_REF)
        assert len(result.ropt.kept.indices) == sum(result.ropt.in_o)
    # the counters are live: the optimizer makes both calls on every analyze
    assert calls["arrival_indices", False] >= 500 and calls["_earliest_sends", False] >= 500
    assert calls["arrival_indices", True] == calls["_earliest_sends", True] == 0


def test_analyze_validates_once(monkeypatch):
    # the constructor validates the instance; no layer of analyze does it again
    calls = 0
    real_validate = model_module.validate_instance

    def counted(inst):
        nonlocal calls
        calls += 1
        return real_validate(inst)

    monkeypatch.setattr(model_module, "validate_instance", counted)
    for seed in range(500):
        calls = 0
        inst = random_instance(GenConfig(seed=seed))
        assert calls == 1
        calls = 0
        analyze(inst, BETA_REF)
        assert calls == 0
    with pytest.raises(InvalidInstanceError, match="arrivals out of order at packet 1"):
        Instance(2, Fraction(2), (2, 1), (0, 0), (False, False))
    assert calls == 1


@pytest.mark.parametrize(
    "interval, detail",
    [
        ((3, 3), ""),
        ((2, 3), "interval [2, 3] of 1: step 2 is not an alpha send"),  # idle first step
        ((4, 5), "interval [4, 5] of 1: step 4 is not an alpha send"),  # 1-value first step
        ((3, 5), "interval [3, 5] of 1: step 4 is not an alpha send"),  # break mid-run
    ],
    ids=["pure", "idle-first", "one-value-first", "mid-run"],
)
def test_alpha_send_intervals_names_the_first_impure_step(interval, detail):
    # the policy sends alpha at 1, idles at 2, sends alpha at 3, a 1-value packet at 4, alpha at 5
    inst = build_instance(
        2, Fraction(2), [(1, 0, "alpha"), (3, 0, "alpha"), (4, 0, "one"), (5, 0, "alpha")]
    )
    on = run(Policy.on(BETA_REF), inst)
    assert list(on.sends.items()) == [(1, 0), (3, 1), (4, 2), (5, 3)]
    record = ChargeRecord(0, EVICTED_ALPHA_INTERVAL, interval=interval)
    ropt = RoptTrace(on, feasible(inst, ()), [False] * 4, [None] * 4, {}, {})
    ledger = ChargeLedger(ropt, (record,), (), {})
    check = verify_ledger(ledger).check("alpha-send-intervals")
    assert check == ("alpha-send-intervals", "fail" if detail else "pass", detail)


def test_non_fifo_trace_rejected(event_log):
    # a hand-built trace that sends the second packet while the first is
    # still at the head of the buffer
    inst = build_instance(2, Fraction(2), [(1, 0, "one"), (1, 1, "alpha")])
    first, second = 0, 1
    on = RunTrace(
        Policy.on(BETA_REF),
        inst,
        event_log(
            [
                (1, EventKind.ADMITTED, first),
                (1, EventKind.ADMITTED, second),
                (1, EventKind.SENT, second),
                (2, EventKind.SENT, first),
            ]
        ),
        {1: second, 2: first},
        Fraction(3),
    )
    ropt = run_ropt(on, feasible(inst, range(2)))
    assert ropt.in_o == [True, True]
    with pytest.raises(ValueError, match="non-FIFO send of 1.1 at step 1"):
        verify_ropt(ropt)
    with pytest.raises(ValueError, match="non-FIFO send of 1.1 at step 1"):
        build_ledger(ropt)
    assert "arrivals" not in vars(inst)  # the texts name packets from the columns


def test_drop_of_an_unbuffered_packet_rejected(event_log):
    # a hand-built trace that evicts 1.1 after it was already sent: the
    # reference checks and the ledger agree that it is no valid trace
    inst = build_instance(2, Fraction(2), [(1, 0, "one"), (1, 1, "one")])
    on = RunTrace(
        Policy.greedy(),
        inst,
        event_log(
            [
                (1, EventKind.ADMITTED, 0),
                (1, EventKind.ADMITTED, 1),
                (1, EventKind.SENT, 0),
                (2, EventKind.SENT, 1),
                (2, EventKind.EVICTED, 1),
            ]
        ),
        {1: 0, 2: 1},
        Fraction(2),
    )
    ropt = run_ropt(on, feasible(inst, range(2)))
    for check in (verify_ropt, build_ledger):
        with pytest.raises(ValueError) as exc:
            check(ropt)
        assert str(exc.value) == "unbuffered packet 1.1 evicted at step 2"


@pytest.mark.parametrize(
    "specs, events, message",
    [
        (
            [(1, 0, "one"), (1, 1, "one"), (2, 0, "alpha"), (2, 1, "alpha")],
            [(1, "admitted", "1"), (1, "admitted", "1.1"), (2, "evicted", "1.1"),
             (2, "admitted", "2"), (2, "evicted", "1"), (2, "admitted", "2.1")],
            "evicted O-packets never sent by the reference: 1, 1.1",
        ),
        (
            [(1, 0, "one"), (1, 1, "one")],
            [(1, "admitted", "1"), (1, "rejected", "1.1")],
            "rejection without a full all-alpha buffer (step 1, packet 1.1)",
        ),
        (
            [(1, 0, "alpha")],
            [(1, "rejected", "1")],
            "alpha packet self-rejected (step 1, packet 1)",
        ),
        (
            [(1, 0, "alpha")],
            [(1, "admitted", "1"), (1, "preempted", "1")],
            "alpha packet preempted (step 1, packet 1)",
        ),
    ],
)
def test_ledger_rejects_hand_built_trace(specs, events, message, event_log):
    # traces `run` never produces, against a reference that sends nothing;
    # the first case defers two evictions out of key order, so the heap of
    # deferred evictions breaks a tie by key
    inst = build_instance(2, Fraction(2), specs)
    index = {packet_id(step, seq): i for i, (step, seq) in enumerate(zip(inst.steps, inst.seqs))}
    on = RunTrace(
        Policy.on(BETA_REF),
        inst,
        event_log([(t, EventKind(kind), index[i]) for t, kind, i in events]),
        {},
        Fraction(0),
    )
    every_packet_in_o = [True] * len(specs)
    sends_nothing = OptResult(total_value(inst, range(len(specs))), tuple(range(len(specs))), ())
    with pytest.raises(LedgerError) as exc:
        build_ledger(RoptTrace(on, sends_nothing, every_packet_in_o, [None] * len(specs), {}, {}))
    assert str(exc.value) == message
    assert "arrivals" not in vars(inst)  # the texts name packets from the columns
