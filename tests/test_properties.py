"""Property-based invariants over randomly drawn instances."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from fifolab import (
    EventKind,
    Policy,
    analyze,
    brute_force_opt,
    dp_opt,
    feasible,
    opt_containing,
    parse_instance,
    format_instance,
    run,
    total_value,
)
from fifolab.model import build_instance
from fifolab.simulate import fates, replay_buffer_states, sends_by_step

ALPHAS = [Fraction(3, 2), Fraction(2), Fraction(5), Fraction(10), Fraction(10, 3)]
BETAS = [Fraction(1), Fraction(2), Fraction(3284, 1000), Fraction(6)]


@st.composite
def instances(draw, max_capacity=4, max_step=8, max_packets=10):
    capacity = draw(st.integers(1, max_capacity))
    alpha = draw(st.sampled_from(ALPHAS))
    n = draw(st.integers(0, max_packets))
    steps = sorted(draw(st.lists(st.integers(1, max_step), min_size=n, max_size=n)))
    kinds = draw(st.lists(st.sampled_from(["one", "alpha"]), min_size=n, max_size=n))
    seqs: dict[int, int] = {}
    specs = []
    for step, kind in zip(steps, kinds):
        seq = seqs.get(step, 0)
        seqs[step] = seq + 1
        specs.append((step, seq, kind))
    return build_instance(capacity, alpha, specs)


def policies(draw_beta):
    return [Policy.greedy()] + [Policy.on(b) for b in draw_beta]


@given(instances(), st.sampled_from(BETAS), st.booleans())
def test_trace_invariants(inst, beta, use_greedy):
    policy = Policy.greedy() if use_greedy else Policy.on(beta)
    trace = run(policy, inst)

    # capacity safety and FIFO buffers at every event
    for _, state in replay_buffer_states(trace):
        assert len(state) <= inst.capacity
        assert list(state) == sorted(state, key=lambda p: p.key)

    # FIFO delivery
    keys = [p.key for p in trace.sent]
    assert keys == sorted(keys)

    # conservation: every arrival classified exactly once
    classified = fates(trace)
    assert set(classified) == set(inst.arrivals)

    # totals computed exactly
    assert trace.totals == total_value(inst, trace.sent)

    # determinism
    assert run(policy, inst) == trace


@given(instances(), st.sampled_from(BETAS))
def test_threshold_policy_preemption_rules(inst, beta):
    trace = run(Policy.on(beta), inst)
    states = replay_buffer_states(trace)

    # no alpha packet is ever preempted
    for event, _ in states:
        if event.kind is EventKind.PREEMPTED:
            assert not event.packet.is_alpha

    # preemption payback: buffered alpha mass covers beta times the batch
    batch_start: dict[int, int] = {}
    batches: dict[int, int] = {}
    for i, (event, _) in enumerate(states):
        if event.kind is EventKind.PREEMPTED:
            batches[event.step] = batches.get(event.step, 0) + 1
            batch_start.setdefault(event.step, i)
    for step, size in batches.items():
        i = batch_start[step]
        before = states[i - 1][1] if i > 0 else ()
        alpha_mass = inst.alpha * sum(1 for p in before if p.is_alpha)
        assert alpha_mass >= beta * size

    # an evicted alpha packet leaves behind a full all-alpha buffer, and
    # the policy then sends alpha packets for a full buffer's worth of steps
    sends = sends_by_step(trace)
    for i, (event, state) in enumerate(states):
        if event.kind is EventKind.EVICTED and event.packet.is_alpha:
            after = states[i + 1][1]  # the admission that caused the eviction
            assert len(after) == inst.capacity
            assert all(p.is_alpha for p in after)
            for t in range(event.step, event.step + inst.capacity):
                assert sends[t].is_alpha


def _simulate_feasible(inst, packets):
    """Literal feasibility oracle: simulate every step of the subset's run.

    Admits the subset's arrivals of each step in key order (infeasible the
    instant occupancy would exceed capacity), then sends the earliest
    buffered packet.
    """
    chosen = set(packets)
    by_step = {}
    for p in inst.arrivals:
        if p in chosen:
            by_step.setdefault(p.key.step, []).append(p)
    if not by_step:
        return True, {}
    last = max(by_step)
    buf = []
    schedule = {}
    t = 1
    while t <= last or buf:
        for p in by_step.get(t, ()):
            buf.append(p)
            if len(buf) > inst.capacity:
                return False, None
        if buf:
            schedule[buf.pop(0)] = t
        t += 1
    return True, schedule


@given(instances(max_packets=9), st.data())
def test_feasible_matches_step_simulation(inst, data):
    n = len(inst.arrivals)
    mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    chosen = [p for i, p in enumerate(inst.arrivals) if mask >> i & 1]
    ok, schedule = feasible(inst, chosen)
    expected_ok, expected_schedule = _simulate_feasible(inst, chosen)
    assert ok == expected_ok
    assert schedule == expected_schedule
    if ok:
        assert list(schedule) == list(expected_schedule)  # send order too


@given(instances(max_packets=9))
def test_dp_matches_brute_force(inst):
    assert dp_opt(inst) == brute_force_opt(inst).value


def _schedule_exists(inst, chosen):
    """Exhaustive feasibility oracle: try every FIFO send-time assignment.

    A subset is deliverable iff there are strictly increasing send times,
    one per kept packet in key order, each no earlier than its release,
    such that no kept packet arrives to find the buffer already full.
    """
    ordered = sorted(chosen, key=lambda p: p.key)
    if not ordered:
        return True
    n = len(ordered)
    horizon = max(p.key.step for p in ordered) + n
    for sends in combinations(range(1, horizon + 1), n):
        if any(s < p.key.step for s, p in zip(sends, ordered)):
            continue
        ok = True
        for i, p in enumerate(ordered):
            occupancy = sum(
                1 for j, q in enumerate(ordered) if q.key <= p.key and sends[j] >= p.key.step
            )
            if occupancy > inst.capacity:
                ok = False
                break
        if ok:
            return True
    return False


@given(instances(max_capacity=2, max_step=4, max_packets=5))
@settings(max_examples=60)
def test_earliest_send_is_a_complete_feasibility_test(inst):
    arrivals = inst.arrivals
    for mask in range(2 ** len(arrivals)):
        chosen = {p for i, p in enumerate(arrivals) if mask >> i & 1}
        assert feasible(inst, chosen)[0] == _schedule_exists(inst, chosen)


@given(instances(max_packets=8), st.data())
def test_opt_containing_monotone(inst, data):
    n = len(inst.arrivals)
    small_mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    extra_mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    small = {p for i, p in enumerate(inst.arrivals) if small_mask >> i & 1}
    large = small | {p for i, p in enumerate(inst.arrivals) if extra_mask >> i & 1}
    a = opt_containing(inst, small)
    b = opt_containing(inst, large)
    if b is not None:
        assert a is not None
        assert a.value >= b.value


@given(instances(), st.sampled_from(BETAS))
@settings(max_examples=200, deadline=None)
def test_full_analysis_has_no_hard_failures(inst, beta):
    result = analyze(inst, beta)
    assert result.report.ok, [
        (c.name, c.detail) for c in result.report.failures
    ]
    assert result.ratio.within_bound or result.ratio.opt_value == 0


@given(instances())
def test_instance_text_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst
