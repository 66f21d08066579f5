"""Property-based invariants over randomly drawn instances."""

import random
import time
from bisect import insort
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from fifolab import (
    DEFAULT_BETA,
    AnalysisReport,
    CheckStatus,
    EventKind,
    EventLog,
    GenConfig,
    Policy,
    RoptTrace,
    StepEvent,
    analyze,
    brute_force_opt,
    competitive_bound,
    dp_opt,
    feasible,
    format_trace,
    opt_containing,
    parse_instance,
    policy_ratio,
    format_instance,
    random_instance,
    run,
    run_ropt,
    total_value,
    verify_ledger,
    verify_ropt,
)
from fifolab.analysis import CheckResult, _make_ratio
from fifolab.model import (
    ZERO,
    Instance,
    InstanceParseError,
    InvalidInstanceError,
    Packet,
    Rat,
    build_instance,
    format_rat,
    make_packet,
    packet_id,
    parse_int,
    parse_rat,
    validate_instance,
)
from fifolab.offline import _earliest_sends
import fifolab.simulate as simulate_module
from fifolab.simulate import replay_buffer_states, trace_lines
from test_analysis import _random_feasible_subset, _stretched, canonical_ledger_kinds, value_of
from test_simulate import _departures_from_the_replay, _departures_read, _replay_states

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


TERMINAL_KINDS = frozenset(
    {EventKind.SENT, EventKind.EVICTED, EventKind.REJECTED, EventKind.PREEMPTED}
)


def fates(trace):
    """Terminal event of every arrival index (sent/evicted/rejected/preempted).

    Raises if the trace classifies any packet more than once, which would
    violate conservation.
    """
    out = {}
    for e in trace.events:
        if e.kind in TERMINAL_KINDS:
            if e.arrival in out:
                raise ValueError(f"packet {trace.instance.arrivals[e.arrival].id} classified twice")
            out[e.arrival] = e
    return out


def sent_packets(trace):
    """The packets a trace sends, in send order."""
    return [trace.instance.arrivals[i] for i in trace.sends.values()]


def sent_at(trace, step):
    """The packet a trace sends at `step`, or None."""
    i = trace.sends.get(step)
    return None if i is None else trace.instance.arrivals[i]


def _literal_run(policy, inst):
    """Literal simulator oracle: an immutable tuple buffer, rebuilt every step.

    On overflow the victim is the minimum of the buffer plus the arrival by
    (is_alpha, key), so ties go to the earliest released and a 1-value arrival
    rejects itself exactly when the buffer holds only alpha packets. Under
    "on", a 1-value head first drops the ejectable set (1-value packets
    released before some buffered alpha packet) when the buffered alpha mass
    is at least beta times its size; an empty set makes that a no-op.

    Walks every step up to the last arrival, then until the buffer drains,
    and returns its own export lines (an idle line for every step up to the
    last arrival that sends nothing), its packet events and its sends as
    (step, arrival index) pairs.
    """
    position = {p.key: i for i, p in enumerate(inst.arrivals)}
    by_step = {}
    for p in inst.arrivals:
        by_step.setdefault(p.key.step, []).append(p)
    last = max(by_step, default=0)
    buf = ()
    lines, events, sends = [], [], []

    def emit(t, kind, p):
        events.append(StepEvent(t, kind, position[p.key]))
        lines.append(f"{t} {kind.value} {p.id}")

    t = 1
    while t <= last or buf:
        for p in by_step.get(t, ()):
            if len(buf) < inst.capacity:
                buf += (p,)
                emit(t, EventKind.ADMITTED, p)
                continue
            victim = min(buf + (p,), key=lambda q: (q.is_alpha, q.key))
            if victim is p:
                emit(t, EventKind.REJECTED, p)
            else:
                buf = tuple(q for q in buf if q is not victim) + (p,)
                emit(t, EventKind.EVICTED, victim)
                emit(t, EventKind.ADMITTED, p)
        if buf and policy.kind == "on" and not buf[0].is_alpha:
            alpha_keys = [q.key for q in buf if q.is_alpha]
            last_alpha = max(alpha_keys, default=None)
            ejectable = frozenset(
                q for q in buf if not q.is_alpha and last_alpha is not None and q.key < last_alpha
            )
            if inst.alpha * len(alpha_keys) >= policy.beta * len(ejectable):
                buf = tuple(q for q in buf if q not in ejectable)
                for q in sorted(ejectable, key=lambda q: q.key):
                    emit(t, EventKind.PREEMPTED, q)
        if buf:
            emit(t, EventKind.SENT, buf[0])
            sends.append((t, position[buf[0].key]))
            buf = buf[1:]
        elif t <= last:
            lines.append(f"{t} idle -")
        t += 1
    total = sum((value_of(inst.arrivals[i], inst.alpha) for _, i in sends), ZERO)
    lines.append(f"total {total.numerator}/{total.denominator}")
    return lines, events, sends


def _assert_run_matches_oracle(policy, inst):
    trace = run(policy, inst)
    lines, events, sends = _literal_run(policy, inst)
    assert format_trace(trace).splitlines() == lines
    assert list(trace.events) == events
    assert list(trace.sends.items()) == sends
    assert trace.totals == total_value(inst, trace.sends.values())
    return trace


@given(instances(max_step=6, max_packets=14))
def test_run_matches_literal_oracle(inst):
    for policy in policies(BETAS):
        _assert_run_matches_oracle(policy, inst)


def test_run_matches_literal_oracle_on_corpus():
    for seed in range(2000):
        inst = random_instance(GenConfig(seed=seed))
        for policy in (Policy.on(Fraction(3284, 1000)), Policy.on(Fraction(1)), Policy.greedy()):
            _assert_run_matches_oracle(policy, inst)


def _literal_trace_lines(trace):
    """The trace export as first written: one f-string per event line, the
    kind's text looked up per event, idle runs in ``_IDLE_BLOCK`` chunks."""
    ids = [packet_id(step, seq) for step, seq in zip(trace.instance.steps, trace.instance.seqs)]
    block = simulate_module._IDLE_BLOCK
    prev = 0
    for step, kind, i in zip(*trace.log):
        if step > prev + 1:
            for lo in range(prev + 1, step, block):
                yield "".join([f"{t} idle -\n" for t in range(lo, min(lo + block, step))])
        yield f"{step} {kind.value} {ids[i]}\n"
        prev = step
    yield f"total {format_rat(trace.totals)}\n"


def _is_idle(chunk):
    return chunk.endswith(" idle -\n")


def _assert_export_matches_literal_loop(inst):
    for policy in (Policy.on(DEFAULT_BETA), Policy.greedy()):
        trace = run(policy, inst)
        expected = list(_literal_trace_lines(trace))
        chunks = list(trace_lines(trace))
        assert format_trace(trace) == "".join(chunks) == "".join(expected)
        # idle lines keep their chunks; no chunk mixes idle and event lines
        assert list(filter(_is_idle, chunks)) == list(filter(_is_idle, expected))
        assert not any(" idle -\n" in chunk for chunk in chunks if not _is_idle(chunk))


def test_trace_export_matches_literal_loop_on_corpus():
    for seed in range(2000):
        _assert_export_matches_literal_loop(random_instance(GenConfig(seed=seed)))


def test_trace_export_matches_literal_loop_when_dense():
    # the benchmark's two dense instances at its seed 0: about 1.5 arrivals per step at alpha 2
    for seed, capacity in enumerate((16, 256)):
        cfg = GenConfig(
            capacity_min=capacity,
            capacity_max=capacity,
            horizon=1400,
            max_burst=3,
            max_packets=None,
            alpha_choices=(Fraction(2),),
            seed=seed,
        )
        inst = random_instance(cfg)
        assert len(inst.steps) > 2000
        assert parse_instance(format_instance(inst)) == inst
        _assert_export_matches_literal_loop(inst)


@pytest.mark.parametrize(
    "specs",
    [
        [(3, 0, "one"), (3, 1, "alpha")],  # first arrival after step 1
        [(1, 0, "one"), (3, 0, "alpha")],  # a one-step gap
        [(1, 0, "one"), (1, 1, "one"), (1, 2, "alpha"), (5, 0, "one")],  # a gap after a drain
        [(1, 0, "alpha"), (2 * simulate_module._IDLE_BLOCK + 7, 0, "one")],  # a gap over two blocks
        [(98, 0, "one"), (98, 1, "one"), (99, 0, "alpha"), (101, 0, "one"), (101, 1, "alpha")],
        [(9_998, 0, "one"), (9_999, 0, "one"), (9_999, 1, "alpha"), (10_000, 0, "one")],
        [(1, 0, "one"), (1, 1, "one"), (1, 2, "one"), (3, 0, "alpha"), (9_999, 0, "one")],
    ],
)
def test_trace_export_matches_literal_loop_across_gaps(specs):
    _assert_export_matches_literal_loop(build_instance(2, Fraction(2), specs))


FRACTIONAL_ALPHAS = [Fraction(7, 3), Fraction(3284, 1000), Fraction(10, 3)]


@given(instances(), st.sampled_from(FRACTIONAL_ALPHAS), st.sampled_from(BETAS))
def test_integer_value_sums_match_fraction_sums(inst, alpha, beta):
    inst = replace(inst, alpha=alpha)

    def fraction_sum(packets):
        return sum((value_of(p, alpha) for p in packets), ZERO)

    for policy in (Policy.greedy(), Policy.on(beta)):
        trace = run(policy, inst)
        assert trace.totals == fraction_sum(sent_packets(trace))
    n = len(inst.arrivals)
    assert total_value(inst, range(n)) == fraction_sum(inst.arrivals)
    assert total_value(inst, range(1, n, 2)) == fraction_sum(inst.arrivals[1::2])

    result = analyze(inst, beta)
    ropt, drops = result.ropt, result.ledger.drop_charges
    value = fraction_sum(inst.arrivals[i] for i in ropt.kept.indices)
    assert result.report.check("charge-conservation").status == "pass"
    # the reference is charged each O-packet the policy sent and each drop charge
    sent = [inst.arrivals[i] for i in ropt.on.sends.values() if ropt.in_o[i]]
    assert fraction_sum(sent + [inst.arrivals[r.packet] for r in drops]) == value
    # a missing or a doubled drop charge makes the check fail and print the sum
    for k, rec in enumerate(drops):
        for changed in (drops[:k] + drops[k + 1 :], drops + (rec,)):
            check = verify_ledger(result.ledger._replace(drop_charges=changed)).check("charge-conservation")
            total = fraction_sum(sent + [inst.arrivals[r.packet] for r in changed])
            assert check == ("charge-conservation", "fail", f"reference charges {total} vs optimum value {value}")


VALUES = st.fractions(min_value=0, max_value=60, max_denominator=12)


@given(
    policy_value=VALUES,
    opt_value=VALUES,
    alpha=st.fractions(min_value=Fraction(13, 12), max_value=12, max_denominator=12),
    beta=st.fractions(min_value=Fraction(1, 12), max_value=8, max_denominator=1000).filter(bool),
    tie=st.booleans(),
)
# (policy value, opt value, alpha, beta, tie)
@example(Fraction(0), Fraction(0), Fraction(2), Fraction(2), False)  # both 0: ratio 1
@example(Fraction(0), Fraction(5, 2), Fraction(5, 2), Fraction(2), False)  # no run: raises
@example(Fraction(3), Fraction(0), Fraction(2), Fraction(2), False)  # opt 0: ratio 1
@example(Fraction(2), Fraction(3), Fraction(2), Fraction(2), False)  # ratio 3/2 == bound 3/2
@example(Fraction(7, 3), Fraction(0), Fraction(7, 3), DEFAULT_BETA, True)  # tie at a fractional alpha
def test_integer_ratio_test_matches_fraction_reference(policy_value, opt_value, alpha, beta, tie):
    bound = competitive_bound(alpha, beta).bound
    if tie:
        opt_value = bound * policy_value  # ratio == bound exactly, or both values 0
    if opt_value and not policy_value:
        # no run is worth 0 against a positive optimum (see test_run_sends_at_its_first_release_step)
        with pytest.raises(ZeroDivisionError):
            _make_ratio(policy_value, opt_value, alpha, beta)
        return
    ratio = opt_value / policy_value if opt_value else Fraction(1)
    report = _make_ratio(policy_value, opt_value, alpha, beta)
    assert type(report.ratio) is Fraction and report.ratio == ratio
    assert report.within_bound == (ratio <= bound)
    if tie and policy_value:
        assert report.ratio == bound and report.within_bound
    assert (report.policy_value, report.opt_value, report.bound) == (policy_value, opt_value, bound)


def _assert_runs_send_at_the_first_release_step(inst, betas=(DEFAULT_BETA,)):
    for policy in policies(betas):
        trace = run(policy, inst)
        assert inst.steps[0] in trace.sends and trace.totals >= 1, policy
        report = policy_ratio(policy, inst, DEFAULT_BETA)
        assert type(report.ratio) is Fraction and report.policy_value == trace.totals


@given(instances(), st.sampled_from(BETAS))
def test_run_sends_at_its_first_release_step(inst, beta):
    # the premise of _make_ratio: a run of a non-empty instance is never worth
    # 0, since its first arrival enters an empty buffer, a preemption keeps
    # every alpha packet, and a non-empty buffer always sends
    if inst.steps:
        _assert_runs_send_at_the_first_release_step(inst, [beta])


def test_run_sends_at_its_first_release_step_at_scale():
    for capacity in (16, 256):
        _assert_runs_send_at_the_first_release_step(_overloaded(capacity, 2000, seed=capacity))
    _assert_runs_send_at_the_first_release_step(_ten_thousand_arrivals(1000, max_burst=5))


def test_empty_instance_has_ratio_one_within_the_bound():
    inst = build_instance(2, Fraction(2), [])
    reports = [analyze(inst, DEFAULT_BETA).ratio]
    reports += [policy_ratio(policy, inst, DEFAULT_BETA) for policy in policies([DEFAULT_BETA])]
    for report in reports:
        assert type(report.ratio) is Fraction
        assert (report.policy_value, report.opt_value, report.ratio) == (0, 0, 1)
        assert report.within_bound


@given(instances(), st.sampled_from(BETAS), st.booleans())
def test_trace_invariants(inst, beta, use_greedy):
    policy = Policy.greedy() if use_greedy else Policy.on(beta)
    trace = run(policy, inst)

    # capacity safety and FIFO buffers at every event
    for _, state in replay_buffer_states(trace):
        assert len(state) <= inst.capacity
        assert list(state) == sorted(state)  # arrival indices ascend in key order

    # FIFO delivery
    keys = [p.key for p in sent_packets(trace)]
    assert keys == sorted(keys)

    # conservation: every arrival classified exactly once
    classified = fates(trace)
    assert set(classified) == set(range(len(inst.arrivals)))

    # totals computed exactly
    assert trace.totals == total_value(inst, trace.sends.values())

    # determinism
    assert run(policy, inst) == trace


def _literal_replay(trace):
    """Literal replay oracle: the buffer as one list in admission order.

    Yields each event with a tuple snapshot of the buffer after it. A send
    must take the list's front, an eviction or a preemption the first
    buffered packet of its class, only a 1-value packet may be rejected or
    preempted, and a rejection must meet a list of ``capacity`` alpha
    packets; otherwise it raises the replay's own error text.
    """
    inst = trace.instance
    buf = []
    for t, kind, i in zip(*trace.log):
        p = inst.arrivals[i]
        if kind is EventKind.ADMITTED:
            buf.append(i)
        elif kind is EventKind.SENT:
            if not buf or buf[0] != i:
                raise ValueError(f"non-FIFO send of {p.id} at step {t}")
            buf.pop(0)
        elif p.is_alpha and kind is not EventKind.EVICTED:
            raise ValueError(f"alpha packet {p.id} {kind.value} at step {t}")
        elif kind is EventKind.REJECTED:
            if len(buf) != inst.capacity or not all(inst.arrivals[j].is_alpha for j in buf):
                raise ValueError(f"rejection of {p.id} without a full all-alpha buffer at step {t}")
        elif i not in buf:
            raise ValueError(f"unbuffered packet {p.id} {kind.value} at step {t}")
        elif i != next(j for j in buf if inst.arrivals[j].is_alpha == p.is_alpha):
            raise ValueError(f"packet {p.id} {kind.value} behind its queue's front at step {t}")
        else:
            buf.remove(i)
        yield StepEvent(t, kind, i), tuple(buf)


def _replay_outcome(replay, trace):
    """A replay's snapshots, or the text of the ValueError it raised."""
    try:
        return list(replay(trace))
    except ValueError as exc:
        return str(exc)


DROP_KINDS = frozenset({EventKind.EVICTED, EventKind.PREEMPTED})


@given(instances(), st.sampled_from(BETAS), st.data())
def test_replay_matches_literal_list_replay(inst, beta, data):
    for policy in (Policy.greedy(), Policy.on(beta)):
        trace = run(policy, inst)
        states = replay_buffer_states(trace)
        assert states == list(_literal_replay(trace))

        # a corrupted log, with its admissions still in arrival order: one
        # other event deleted, one drop repeated later on, or one drop
        # re-pointed at a packet of its class behind its queue's front
        kinds = trace.log.kinds
        others = [k for k, kind in enumerate(kinds) if kind is not EventKind.ADMITTED]
        if not others:
            continue
        k = data.draw(st.sampled_from(others))
        columns = [list(column) for column in trace.log]
        edits = ["delete"]
        if kinds[k] in DROP_KINDS:
            edits.append("repeat")
            flags = inst.is_alpha
            behind = [j for j in states[k - 1][1] if flags[j] == flags[columns[2][k]]][1:]
            if behind:
                edits.append("re-point")
        edit = data.draw(st.sampled_from(edits))
        if edit == "repeat":
            at = data.draw(st.integers(k + 1, len(kinds)))
            for column in columns:
                column.insert(at, column[k])
        elif edit == "re-point":
            j = columns[2][k] = data.draw(st.sampled_from(behind))
            front = f"packet {inst.arrivals[j].id} {kinds[k].value} behind its queue's front"
        else:
            for column in columns:
                del column[k]
        corrupted = replace(trace, log=EventLog(*columns))
        outcome = _replay_outcome(replay_buffer_states, corrupted)
        assert outcome == _replay_outcome(_literal_replay, corrupted)
        try:
            corrupted.departures
        except ValueError as exc:
            assert str(exc) == outcome
        else:
            assert not isinstance(outcome, str)
        if edit == "re-point":
            assert outcome == f"{front} at step {columns[0][k]}"


def test_replay_matches_literal_list_replay_when_dense():
    for capacity in (16, 256):
        inst = _overloaded(capacity, 2000, seed=capacity)
        for policy in (Policy.greedy(), Policy.on(DEFAULT_BETA)):
            trace = run(policy, inst)
            assert replay_buffer_states(trace) == list(_literal_replay(trace))


@given(instances())
def test_departures_and_snapshots_match_the_literal_replay(inst):
    for policy in policies(BETAS):
        trace = run(policy, inst)
        assert _departures_read(trace) == _departures_from_the_replay(trace)
        assert replay_buffer_states(trace) == _replay_states(trace)


@given(instances(), st.sampled_from(BETAS))
def test_threshold_policy_preemption_rules(inst, beta):
    trace = run(Policy.on(beta), inst)
    arr = trace.instance.arrivals
    states = replay_buffer_states(trace)

    # no alpha packet is ever preempted
    for event, _ in states:
        if event.kind is EventKind.PREEMPTED:
            assert not arr[event.arrival].is_alpha

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
        alpha_mass = inst.alpha * sum(1 for i in before if arr[i].is_alpha)
        assert alpha_mass >= beta * size

    # an evicted alpha packet leaves behind a full all-alpha buffer, and
    # the policy then sends alpha packets for a full buffer's worth of steps
    sends = trace.sends
    for i, (event, state) in enumerate(states):
        if event.kind is EventKind.EVICTED and arr[event.arrival].is_alpha:
            after = states[i + 1][1]  # the admission that caused the eviction
            assert len(after) == inst.capacity
            assert all(arr[j].is_alpha for j in after)
            for t in range(event.step, event.step + inst.capacity):
                assert arr[sends[t]].is_alpha


def _literal_run_ropt(inst, chosen, on):
    """Literal reference-schedule oracle: walk every step until the buffer drains.

    Accepts the step's O-packets, then mirrors the policy's send of the step
    if it is an O-packet still buffered here, otherwise sends the earliest
    buffered packet. Returns the send step of every O-packet, in send order,
    and the last step walked.
    """
    o_set = _packets(inst, chosen)
    by_step = {}
    for p in inst.arrivals:
        if p in o_set:
            by_step.setdefault(p.key.step, []).append(p)
    last_arrival = max(by_step, default=0)
    buf = []
    send_time = {}
    t = 1
    while t <= last_arrival or buf:
        buf.extend(by_step.get(t, ()))
        mirrored = sent_at(on, t)
        if mirrored is not None and mirrored in o_set and mirrored in buf:
            buf.remove(mirrored)
            send_time[mirrored] = t
        elif buf:
            send_time[buf.pop(0)] = t
        t += 1
    return send_time, t - 1


def _literal_chain(on, send_time, o_set, packet):
    """Literal chain oracle: walk back from the reference's send of `packet`.

    Each hop goes to the step at which the reference sent the policy's
    packet of the current step, until the policy sends nothing there or a
    packet outside O. Returns the steps in ascending order.
    """
    steps = [send_time[packet]]
    hop = sent_at(on, steps[0])
    while hop in o_set:
        prev = send_time[hop]
        assert prev < steps[-1], f"chain walk from {packet.id} failed to descend at {prev}"
        steps.append(prev)
        hop = sent_at(on, prev)
    return tuple(reversed(steps))


def _packets(inst, indices):
    """The packets at these arrival indices, as a set: the oracles work on packets."""
    return frozenset(inst.arrivals[i] for i in indices)


def _send_times(inst, ropt):
    """The reference's send step of each O-packet, from its index-keyed list."""
    return {p: t for p, t in zip(inst.arrivals, ropt.send_time) if t is not None}


def _assert_chains_match_oracle(inst, chosen, on, ropt):
    o_set = _packets(inst, chosen)
    send_time = _send_times(inst, ropt)
    # the reference's send steps whose packet the policy does not send there
    unmirrored = {t: p for p, t in send_time.items() if sent_at(on, t) is not p}
    assert set(ropt.link) == set(ropt.head) == set(unmirrored)
    for t, p in unmirrored.items():
        steps = _literal_chain(on, send_time, o_set, p)
        assert ropt.chain(inst.arrivals.index(p)) == steps
        assert ropt.head[t] == steps[0]
    linked = [(t, prev) for t, prev in ropt.link.items() if prev is not None]
    assert all(prev < t for t, prev in linked)
    # no step is linked from two later steps
    assert len({prev for _, prev in linked}) == len(linked)


def _assert_ropt_matches_oracle(inst, chosen, on, ropt):
    send_time, last_step = _literal_run_ropt(inst, chosen, on)
    assert _send_times(inst, ropt) == send_time
    assert (ropt.kept.sends[-1] if ropt.kept.sends else 0) == last_step
    # the reference is busy at exactly the steps of O's earliest-send
    # schedule, which the trace keeps and the checks bisect
    assert list(ropt.kept.sends) == sorted(send_time.values())
    assert ropt.kept == feasible(inst, chosen)
    _assert_chains_match_oracle(inst, chosen, on, ropt)


@given(instances(max_step=12, max_packets=12), st.sampled_from(BETAS), st.data())
def test_run_ropt_matches_literal_oracle(inst, beta, data):
    # any deliverable O: offer a drawn subset in key order, keep what stays feasible
    n = len(inst.arrivals)
    mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    chosen = set()
    for i in range(n):
        if mask >> i & 1 and feasible(inst, chosen | {i}) is not None:
            chosen.add(i)
    for policy in (Policy.greedy(), Policy.on(beta)):
        on = run(policy, inst)
        _assert_ropt_matches_oracle(inst, chosen, on, run_ropt(on, feasible(inst, chosen)))


def test_run_ropt_matches_literal_oracle_on_corpus():
    for seed in range(2000):
        result = analyze(random_instance(GenConfig(seed=seed)), DEFAULT_BETA)
        _assert_ropt_matches_oracle(result.instance, result.ropt.kept.indices, result.ropt.on, result.ropt)


def test_run_ropt_matches_literal_oracle_on_corpus_random_o_sets():
    # arbitrary deliverable O-sets: offer the arrivals in random order and
    # keep 9 in 10 of those that stay deliverable
    for seed in range(1000):
        rng = random.Random(seed)
        inst = random_instance(GenConfig(seed=seed))
        chosen = _random_feasible_subset(inst, rng)
        for policy in (Policy.greedy(), Policy.on(DEFAULT_BETA)):
            on = run(policy, inst)
            _assert_ropt_matches_oracle(inst, chosen, on, run_ropt(on, feasible(inst, chosen)))


def _literal_verify_ropt(inst, chosen, on, ropt):
    """Literal oracle of verify_ropt: replay the policy's buffer at every send.

    The live chains at a policy send step t are those of the O-packets still
    in the policy's buffer that the reference sent by t; they are searched
    for a shared head, and counted for the backlog, buffer by buffer.
    """
    o_set = _packets(inst, chosen)
    send_time = _send_times(inst, ropt)
    checks = []

    send_steps = sorted(send_time.values())
    capacity_breach = ""
    for k, p in enumerate((p for p in inst.arrivals if p in o_set), start=1):
        occupancy = k - sum(1 for s in send_steps if s < p.key.step)
        if occupancy > inst.capacity:
            capacity_breach = f"occupancy {occupancy} at step {p.key.step} accepting {p.id}"
            break
    checks.append(CheckResult("ropt-capacity", "fail" if capacity_breach else "pass", capacity_breach))

    missing = sorted(p.id for p in o_set if p not in send_time)
    extra = sorted(p.id for p in send_time if p not in o_set)
    detail = f"missing={missing} extra={extra}" if missing or extra else ""
    checks.append(CheckResult("ropt-sends-all", "fail" if detail else "pass", detail))

    sends = [(t, on.instance.arrivals[i]) for t, i in on.sends.items()]
    late = [(t, p.id) for t, p in sends if p in o_set and send_time.get(p, t + 1) > t]
    detail = f"reference later than policy at {late}" if late else ""
    checks.append(CheckResult("send-precedence", "fail" if late else "pass", detail))

    overlap = ""
    max_alpha = max_any = 0
    for (t, kind, _), buf in _literal_replay(on):
        if kind is not EventKind.SENT:
            continue
        buffered = [on.instance.arrivals[i] for i in buf]
        live = [z for z in buffered if z in o_set and send_time.get(z, t + 1) <= t]
        max_any = max(max_any, len(live))
        max_alpha = max(max_alpha, sum(1 for z in live if z.is_alpha))
        if overlap:
            continue
        owners = {}
        for z in live:
            head = ropt.head[send_time[z]]
            owner = owners.setdefault(head, z)
            if owner is not z:
                overlap = f"step {head} shared by chains of {owner.id} and {z.id} at t={t}"
                break
    checks.append(CheckResult("chains-disjoint", "fail" if overlap else "pass", overlap))

    if on.policy.kind == "on":
        beta = on.policy.beta
        bound = Fraction(inst.capacity) * beta / (inst.alpha + beta)
        detail = f"max alpha backlog {max_alpha}, max any {max_any}, bound {bound}"
        checks.append(CheckResult("backlog-bound", "pass" if max_alpha < bound else "warn", detail))
    return AnalysisReport(tuple(checks))


def _assert_verify_ropt_matches_oracle(inst, chosen, on, ropt=None):
    ropt = run_ropt(on, feasible(inst, chosen)) if ropt is None else ropt
    report = verify_ropt(ropt)
    assert report == _literal_verify_ropt(inst, chosen, on, ropt)
    return report


@given(instances(max_step=12, max_packets=12), st.sampled_from(BETAS), st.data())
def test_verify_ropt_matches_literal_oracle(inst, beta, data):
    n = len(inst.arrivals)
    mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    chosen = set()
    for i in range(n):
        if mask >> i & 1 and feasible(inst, chosen | {i}) is not None:
            chosen.add(i)
    for policy in (Policy.greedy(), Policy.on(beta)):
        _assert_verify_ropt_matches_oracle(inst, chosen, run(policy, inst))


def test_verify_ropt_matches_literal_oracle_on_corpus():
    for seed in range(2000):
        result = analyze(random_instance(GenConfig(seed=seed)), DEFAULT_BETA)
        _assert_verify_ropt_matches_oracle(result.instance, result.ropt.kept.indices, result.ropt.on, result.ropt)


def test_verify_ropt_matches_literal_oracle_on_failure_paths():
    # the instances and arbitrary O-sets of test_failure_paths_digest; checked against a reference schedule whose
    # chains all share one head, and against O-sets it was not built for,
    # every check reaches its failing verdict and detail
    failed = set()
    for seed in range(500):
        rng = random.Random(seed)
        cfg = GenConfig(capacity_max=5, horizon=10, max_burst=4, max_packets=16, seed=seed)
        inst = _stretched(random_instance(cfg), rng)
        for beta in (DEFAULT_BETA, Fraction(1, 2), Fraction(6)):
            on = run(Policy.on(beta), inst)
            chosen = _random_feasible_subset(inst, rng)
            ropt = run_ropt(on, feasible(inst, chosen))
            merged = ropt._replace(head=dict.fromkeys(ropt.head, 0))
            fewer = set(list(chosen)[1:])
            everything = range(len(inst.arrivals))
            for o_set, trace in ((chosen, ropt), (chosen, merged), (everything, ropt), (fewer, ropt)):
                # the reference built for `chosen`, checked as if O were `o_set`
                kept = trace.kept._replace(indices=tuple(sorted(o_set)))
                trace = trace._replace(kept=kept, in_o=[i in o_set for i in everything])
                report = _assert_verify_ropt_matches_oracle(inst, o_set, on, trace)
                failed.update(c.name for c in report.checks if c.status != CheckStatus.PASS)
    names = {"ropt-capacity", "ropt-sends-all", "send-precedence", "chains-disjoint", "backlog-bound"}
    assert failed == names, failed


def test_chains_disjoint_names_two_live_chains_with_one_head():
    # No trace of run_ropt reaches this verdict: a hand-built reference
    # sends O = {1.2, 1.3} at steps 1 and 2 while greedy sends 1 and 1.1
    # there, and links step 2 back to step 1, so both chains have head 1.
    # At t=2 the policy still buffers both O-packets, each after its
    # reference send: two live chains share a step.
    inst = build_instance(4, Fraction(2), [(1, seq, "one") for seq in range(4)])
    on = run(Policy.greedy(), inst)
    chosen = {2, 3}
    ropt = RoptTrace(
        on, feasible(inst, chosen), [False, False, True, True], [None, None, 1, 2],
        link={1: None, 2: 1}, head={1: 1, 2: 1},
    )
    overlap = CheckResult("chains-disjoint", "fail", "step 1 shared by chains of 1.2 and 1.3 at t=2")
    assert verify_ropt(ropt).check("chains-disjoint") == overlap
    assert _literal_verify_ropt(inst, chosen, on, ropt).check("chains-disjoint") == overlap
    assert _assert_verify_ropt_matches_oracle(inst, chosen, on, ropt).failures == (overlap,)


def test_chains_disjoint_names_the_earliest_overlap_across_two_heads():
    # Greedy sends 1.k at step k + 1 from eight 1-value packets at step 1. A
    # hand-built reference sends O = {1.4, ..., 1.7} at steps 1, 4, 2, 3,
    # with heads 1 (1.4, 1.5) and 2 (1.6, 1.7). The chains of 1.4 and 1.5
    # are both live from t=4, but those of 1.6 and 1.7 already from t=3:
    # the head whose owners come later in key order, and later as a step,
    # overlaps at the earlier policy send step.
    inst = build_instance(8, Fraction(2), [(1, seq, "one") for seq in range(8)])
    on = run(Policy.greedy(), inst)
    chosen = {4, 5, 6, 7}
    ropt = RoptTrace(
        on, feasible(inst, chosen), [i in chosen for i in range(8)], [None] * 4 + [1, 4, 2, 3],
        link={1: None, 2: None, 3: 2, 4: 1}, head={1: 1, 2: 2, 3: 2, 4: 1},
    )
    overlap = CheckResult("chains-disjoint", "fail", "step 2 shared by chains of 1.6 and 1.7 at t=3")
    assert verify_ropt(ropt).check("chains-disjoint") == overlap
    assert _literal_verify_ropt(inst, chosen, on, ropt).check("chains-disjoint") == overlap
    assert _assert_verify_ropt_matches_oracle(inst, chosen, on, ropt).failures == (overlap,)


@given(instances(), st.sampled_from(BETAS))
def test_canonical_ledger_reaches_what_the_corpus_does(inst, beta):
    canonical_ledger_kinds(analyze(inst, beta))


def test_verify_ropt_matches_literal_oracle_at_scale():
    for capacity in (16, 256):
        inst = _overloaded(capacity, 1000, seed=capacity)
        rng = random.Random(capacity)
        for chosen in (brute_force_opt(inst).indices, _random_feasible_subset(inst, rng)):
            for policy in (Policy.greedy(), Policy.on(DEFAULT_BETA)):
                _assert_verify_ropt_matches_oracle(inst, chosen, run(policy, inst))


def _simulate_feasible(inst, indices):
    """Literal feasibility oracle: simulate every step of the subset's run.

    Admits the subset's arrivals of each step in key order (infeasible the
    instant occupancy would exceed capacity), then sends the earliest
    buffered packet. Returns the schedule by arrival index.
    """
    chosen = set(indices)
    by_step = {}
    for i, p in enumerate(inst.arrivals):
        if i in chosen:
            by_step.setdefault(p.key.step, []).append(i)
    if not by_step:
        return True, {}
    last = max(by_step)
    buf = []
    schedule = {}
    t = 1
    while t <= last or buf:
        for i in by_step.get(t, ()):
            buf.append(i)
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
    chosen = [i for i in range(n) if mask >> i & 1]
    result = feasible(inst, chosen)
    expected_ok, expected_schedule = _simulate_feasible(inst, chosen)
    assert (result is not None) == expected_ok
    if result is not None:
        # send order too
        assert list(zip(result.indices, result.sends)) == list(expected_schedule.items())
        assert result.value == total_value(inst, chosen)


def _dp_oracle(inst: Instance) -> Rat:
    """Optimum value by dynamic programming over (arrival, queue length).

    Does not rely on the matroid structure or on the window bound, so it
    cross-checks :func:`dp_opt` and :func:`brute_force_opt`; its cost
    grows as n*B.
    """
    states: dict[int, Rat] = {0: ZERO}
    prev_step: int | None = None
    for p in inst.arrivals:
        gap = 0 if prev_step is None else p.key.step - prev_step
        value = value_of(p, inst.alpha)
        nxt: dict[int, Rat] = {}
        for q, gained in states.items():
            q2 = q - gap
            if q2 < 0:
                q2 = 0
            if nxt.get(q2, -1) < gained:
                nxt[q2] = gained
            if q2 + 1 <= inst.capacity:
                kept = gained + value
                if nxt.get(q2 + 1, -1) < kept:
                    nxt[q2 + 1] = kept
        states = nxt
        prev_step = p.key.step
    return max(states.values())


@given(instances(max_packets=9))
def test_dp_matches_brute_force(inst):
    assert dp_opt(inst) == brute_force_opt(inst).value
    assert _dp_oracle(inst) == dp_opt(inst)


def _exhaustive_best_subset(inst, required):
    """Exhaustive optimum oracle: enumerate subsets in decreasing value order.

    Returns (value, arrival indices) of the maximum-value feasible subset
    containing `required`, or None if `required` itself is infeasible. Ties
    within a value level go to the lexicographically greatest indicator
    vector over arrivals in key order (earliest packets preferred).
    """
    arr = inst.arrivals
    n = len(arr)
    req = tuple(sorted(set(required)))
    steps = tuple(p.key.step for p in arr)

    def feas(idxs):
        return _earliest_sends([steps[i] for i in idxs], inst.capacity) is not None

    if not feas(req):
        return None
    a, b = inst.alpha.numerator, inst.alpha.denominator
    weight = [a if p.is_alpha else b for p in arr]
    rank = [1 << (n - 1 - i) for i in range(n)]
    free_alpha = [i for i in range(n) if arr[i].is_alpha and i not in req]
    free_one = [i for i in range(n) if not arr[i].is_alpha and i not in req]
    base = sum(weight[i] for i in req)
    levels = {}
    for ka in range(len(free_alpha) + 1):
        for k1 in range(len(free_one) + 1):
            levels.setdefault(base + a * ka + b * k1, []).append((ka, k1))
    for level in sorted(levels, reverse=True):
        best_rank, best_idxs = -1, None
        for ka, k1 in levels[level]:
            for ca in combinations(free_alpha, ka):
                for c1 in combinations(free_one, k1):
                    idxs = tuple(sorted(req + ca + c1))
                    if feas(idxs):
                        r = sum(rank[i] for i in idxs)
                        if r > best_rank:
                            best_rank, best_idxs = r, idxs
        if best_idxs is not None:
            return Fraction(level, b), best_idxs
    raise AssertionError("unreachable: the required set itself is feasible")


def _value_and_indices(inst, result):
    if result is None:
        return None
    return result.value, result.indices


def _assert_greedy_matches_oracle(inst, required):
    expected = _exhaustive_best_subset(inst, required)
    assert _value_and_indices(inst, opt_containing(inst, required)) == expected
    if not required:
        assert _value_and_indices(inst, brute_force_opt(inst)) == expected


@given(instances(max_packets=9), st.data())
def test_greedy_optimum_matches_exhaustive_oracle(inst, data):
    n = len(inst.arrivals)
    mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    required = {i for i in range(n) if mask >> i & 1}
    _assert_greedy_matches_oracle(inst, set())
    _assert_greedy_matches_oracle(inst, required)  # None on both sides if infeasible


def test_greedy_optimum_matches_exhaustive_oracle_on_corpus():
    # the canonical optimum analyze uses: unconstrained, and containing
    # every alpha packet the threshold policy delivered
    for seed in range(2000):
        inst = random_instance(GenConfig(seed=seed))
        on = run(Policy.on(DEFAULT_BETA), inst)
        delivered_alphas = {i for i in on.sends.values() if inst.arrivals[i].is_alpha}
        _assert_greedy_matches_oracle(inst, set())
        _assert_greedy_matches_oracle(inst, delivered_alphas)


def _insertion_best_subset(inst, required):
    """Insertion-greedy oracle: offer each free packet, alphas first, in key order.

    Inserts the offered packet into the kept indices and reruns the whole
    earliest-send pass, O(n) per offer, dropping the packet again if the
    pass fails. Returns (value, arrival indices, send steps), or None if
    `required` itself is infeasible.
    """
    arr = inst.arrivals
    kept = sorted(set(required))
    steps = [p.key.step for p in arr]

    def sends_of(idxs):
        return _earliest_sends([steps[i] for i in idxs], inst.capacity)

    if sends_of(kept) is None:
        return None
    req = set(kept)
    for i in sorted(range(len(arr)), key=lambda i: not arr[i].is_alpha):  # stable sort
        if i not in req:
            insort(kept, i)
            if sends_of(kept) is None:
                kept.remove(i)
    value = total_value(inst, kept)
    return value, tuple(kept), tuple(sends_of(kept))


def _assert_sweep_matches_insertion_oracle(inst, required):
    result = opt_containing(inst, required)
    expected = _insertion_best_subset(inst, required)
    if expected is None:
        assert result is None
        return
    value, idxs = _value_and_indices(inst, result)
    assert (value, idxs, result.sends) == expected


@st.composite
def stretched_instances(draw, max_capacity=40, max_packets=60):
    """Bursts at one step, often into a small buffer, mixed with gaps of up to 10^6 steps."""
    capacity = draw(st.one_of(st.integers(1, 4), st.integers(1, max_capacity)))
    alpha = draw(st.sampled_from(ALPHAS))
    n = draw(st.integers(0, max_packets))
    gap = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**6))
    drawn = draw(
        st.lists(st.tuples(gap, st.sampled_from(["one", "alpha"])), min_size=n, max_size=n)
    )
    step, seq, specs = 1, 0, []
    for g, kind in drawn:
        if g:
            step, seq = step + g, 0
        specs.append((step, seq, kind))
        seq += 1
    return build_instance(capacity, alpha, specs)


@given(stretched_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_insertion_oracle(inst, data):
    n = len(inst.arrivals)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    required = {i for i, m in enumerate(mask) if m}
    _assert_sweep_matches_insertion_oracle(inst, set())
    _assert_sweep_matches_insertion_oracle(inst, required)  # None on both sides if infeasible


def _overloaded(capacity, packets, seed):
    """About 1.5 arrivals per step: bursts of 0 to 3 packets, one send per step."""
    cfg = GenConfig(
        capacity_min=capacity,
        capacity_max=capacity,
        horizon=packets,
        max_burst=3,
        max_packets=packets,
        seed=seed,
    )
    inst = random_instance(cfg)
    assert len(inst.arrivals) == packets
    return inst


def test_optimum_at_scale_matches_dp_and_insertion_oracle():
    for capacity in (16, 256):
        inst = _overloaded(capacity, 2000, seed=capacity)
        result = brute_force_opt(inst)
        assert result.value == dp_opt(inst)
        assert _dp_oracle(inst) == dp_opt(inst)
        _assert_sweep_matches_insertion_oracle(inst, set())


def test_run_matches_literal_oracle_at_scale():
    kinds, most_preempted = set(), 0
    for capacity in (16, 256):
        for alpha in (Fraction(2), Fraction(10)):
            inst = replace(_overloaded(capacity, 2000, seed=capacity), alpha=alpha)
            for policy in (Policy.greedy(), Policy.on(Fraction(1, 2)), Policy.on(Fraction(3284, 1000))):
                trace = _assert_run_matches_oracle(policy, inst)
                kinds.update(e.kind for e in trace.events)
                preempted = Counter(e.step for e in trace.events if e.kind is EventKind.PREEMPTED)
                most_preempted = max(most_preempted, *preempted.values(), 0)
    # the cases reach every drop path, and preemptions of several packets at once
    assert kinds == set(EventKind)
    assert most_preempted > 1


def test_opt_containing_returns_the_optimum_that_contains_its_requirement():
    # analyze takes brute_force_opt's optimum G as the canonical one when it
    # contains the delivered alpha packets S; the seeded greedy must agree
    contained = 0
    for seed in range(500):
        rng = random.Random(seed)
        inst = random_instance(GenConfig(seed=seed))
        best = brute_force_opt(inst)
        on = run(Policy.on(DEFAULT_BETA), inst)
        delivered = [i for i in on.sends.values() if inst.arrivals[i].is_alpha]
        some_of_best = [i for i in best.indices if rng.randrange(2)]
        for required in (delivered, some_of_best):
            if set(best.indices).issuperset(required):
                contained += 1
                assert opt_containing(inst, required) == best
        assert analyze(inst, DEFAULT_BETA).ropt.kept == opt_containing(inst, delivered)
    assert contained > 500


def test_full_analysis_passes_at_scale():
    for capacity, packets, seed in [(4, 200, 0), (16, 200, 1), (64, 200, 2), (1024, 2000, 4)]:
        result = analyze(_overloaded(capacity, packets, seed), DEFAULT_BETA)
        assert result.report.ok, [(c.name, c.detail) for c in result.report.failures]
        assert result.ratio.within_bound


def test_analysis_cost_does_not_grow_with_capacity():
    # n = 10^4 overloaded arrivals: analyze at B = 10^3 must stay within 3x of
    # B = 16, so a pass that rescans the buffer at every send (n*B) shows up
    # whatever the machine's speed; best of 3 damps other load. Bursts of up
    # to 5 bring long runs of alpha sends, so a walk along each run per
    # ledger interval (records x run length) shows up too.
    for max_burst in (3, 5):
        _assert_analysis_cost_flat_in_capacity(max_burst)


def _ten_thousand_arrivals(capacity, max_burst):
    """n = 10^4 overloaded arrivals at alpha = 2, seed 1."""
    cfg = GenConfig(
        capacity_min=capacity,
        capacity_max=capacity,
        horizon=7000,
        max_burst=max_burst,
        max_packets=10000,
        alpha_choices=(Fraction(2),),
        seed=1,
    )
    inst = random_instance(cfg)
    assert len(inst.arrivals) == 10000
    return inst


def _assert_analysis_cost_flat_in_capacity(max_burst):
    best = {}
    for capacity in (16, 1000):
        inst = _ten_thousand_arrivals(capacity, max_burst)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            result = analyze(inst, DEFAULT_BETA)
            times.append(time.perf_counter() - start)
            assert result.report.ok, [(c.name, c.detail) for c in result.report.failures]
        best[capacity] = min(times)
    assert best[1000] < 3 * best[16], (max_burst, best)


def _schedule_exists(inst, chosen):
    """Exhaustive feasibility oracle: try every FIFO send-time assignment.

    A subset is deliverable iff there are strictly increasing send times,
    one per kept packet in key order, each no earlier than its release,
    such that no kept packet arrives to find the buffer already full.
    """
    ordered = [inst.arrivals[i] for i in sorted(chosen)]
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
    n = len(inst.arrivals)
    for mask in range(2**n):
        chosen = {i for i in range(n) if mask >> i & 1}
        assert (feasible(inst, chosen) is not None) == _schedule_exists(inst, chosen)


@given(instances(max_packets=8), st.data())
def test_opt_containing_monotone(inst, data):
    n = len(inst.arrivals)
    small_mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    extra_mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    small = {i for i in range(n) if small_mask >> i & 1}
    large = small | {i for i in range(n) if extra_mask >> i & 1}
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


def _literal_validate(capacity, alpha, packets):
    """Instance validation as first written, one :class:`Packet` at a time."""
    violations = []
    if not isinstance(capacity, int) or isinstance(capacity, bool):
        violations.append(f"capacity must be an int, not {type(capacity).__name__}")
    elif capacity < 1:
        violations.append("capacity must be at least 1")
    if not isinstance(alpha, Fraction):
        violations.append(f"alpha must be a Fraction, not {type(alpha).__name__}")
    elif alpha <= 1:
        violations.append("alpha must exceed 1")
    prev = None
    for p in packets:
        key_types = {type(p.key.step), type(p.key.seq)}
        if key_types != {int}:
            kinds = f"{type(p.key.step).__name__} and {type(p.key.seq).__name__}"
            violations.append(f"packet {p.id}: step and seq must be ints, not {kinds}")
        elif p.key.step < 1 or p.key.seq < 0:
            violations.append(f"packet {p.id}: key ({p.key.step},{p.key.seq}) out of range")
        if p.klass not in ("one", "alpha"):
            violations.append(f"packet {p.id}: is_alpha must be a bool, not {type(p.klass).__name__}")
        if key_types != {int}:
            continue  # a key that is not two ints takes no part in the order
        if prev is not None:
            if p.key == prev.key:
                violations.append(f"duplicate key ({p.key.step},{p.key.seq})")
            elif p.key < prev.key:
                violations.append(f"arrivals out of order at packet {p.id}")
        prev = p
    return violations


@st.composite
def columns(draw):
    """Equal-length step, seq and alpha-flag columns, valid or not."""
    n = draw(st.integers(0, 8))
    # now and then a key that is a float or a bool, which are not ints here
    odd = st.sampled_from([1.5, 2.0, True, False])
    return tuple(
        tuple(draw(st.lists(values, min_size=n, max_size=n)))
        for values in (
            st.integers(-1, 6) | odd,
            st.integers(-1, 3) | odd,
            st.booleans(),
        )
    )


@given(
    st.integers(0, 2) | st.sampled_from([2.5, True]),
    st.sampled_from([Fraction(1), Fraction(2), 2]),
    columns(),
)
@example(1, Fraction(2), ((2, 1, 1, 0), (0, 3, 3, -1), (True, False, True, False)))
@example(2.5, Fraction(2), ((1, 1.5, 2), (0, True, 0), (True, False, True)))
def test_validation_matches_literal_oracle(capacity, alpha, cols):
    try:
        Instance(capacity, alpha, *cols)
    except InvalidInstanceError as exc:
        found = list(exc.violations)
    else:
        found = []
    packets = [make_packet(s, q, "alpha" if a else "one") for s, q, a in zip(*cols)]
    assert found == _literal_validate(capacity, alpha, packets)


@given(instances())
def test_arrivals_view_reads_the_columns(inst):
    # the text round trip over the same instances is test_instance_text_round_trip
    rows = zip(inst.steps, inst.seqs, inst.is_alpha)
    assert inst.arrivals == tuple(make_packet(s, q, "alpha" if a else "one") for s, q, a in rows)
    assert type(inst.arrivals) is tuple and inst.arrivals is inst.arrivals


def _literal_parse_instance(text: str) -> Instance:
    """The instance parser as first written: ``parse_int`` per integer, the
    ``make_packet`` per packet, which checks the class text."""
    capacity: int | None = None
    alpha: Rat | None = None
    packets: list[Packet] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive, args = fields[0], fields[1:]
        if directive == "buffer":
            if capacity is not None:
                raise InstanceParseError(line_no, "duplicate buffer directive")
            try:
                [size] = args
                capacity = parse_int(size)
            except ValueError:
                capacity = 0
            if capacity < 1:
                raise InstanceParseError(line_no, "buffer takes one positive integer")
        elif directive == "alpha":
            if alpha is not None:
                raise InstanceParseError(line_no, "duplicate alpha directive")
            if len(args) != 1:
                raise InstanceParseError(line_no, "alpha takes one rational")
            try:
                alpha = parse_rat(args[0])
            except ValueError as exc:
                raise InstanceParseError(line_no, str(exc)) from None
            if alpha <= 1:
                raise InstanceParseError(line_no, "alpha must exceed 1")
        elif directive == "packet":
            if len(args) != 3:
                raise InstanceParseError(line_no, "packet takes: step seq one|alpha")
            try:
                p = make_packet(parse_int(args[0]), parse_int(args[1]), args[2])
            except ValueError:
                raise InstanceParseError(line_no, f"bad packet line: {line!r}") from None
            if p.key.step < 1:
                raise InstanceParseError(line_no, "packet key out of range")
            if packets and p.key <= packets[-1].key:
                raise InstanceParseError(line_no, "packets must be ascending by (step, seq)")
            packets.append(p)
        else:
            raise InstanceParseError(line_no, f"unknown directive {directive!r}")
    if capacity is None:
        raise InstanceParseError(0, "missing buffer directive")
    if alpha is None:
        raise InstanceParseError(0, "missing alpha directive")
    return Instance(
        capacity,
        alpha,
        tuple(p.key.step for p in packets),
        tuple(p.key.seq for p in packets),
        tuple(p.is_alpha for p in packets),
    )


# whole-token replacements: non-ASCII digits, signs, separators, leading
# zeros, class names in the wrong case, other directives' words, and one
# integer longer than int() accepts by default
_TOKENS = [
    "١", "３", "²", "+1", "-1", "-0", "1_0", "0", "00", "01", "007", "1.5", "x",
    "one", "alpha", "ONE", "Alpha", "beta", "packet", "buffer", "2/1", "-3/2", "1" * 4301,
]
# one character swapped into a token
_CHARS = ["0", "9", "١", "３", "²", "_", "+", "-", "x"]
_SEPARATORS = [" ", " ", "  ", "\t", "\u00a0", "\u2003", " \t\u3000"]
_COMMENTS = ["", "", "#", " # note", "#packet 1 0 one"]
_LINE_ENDS = ["\n", "\n", "\r\n", "\r", "\u2028", "\x85"]


@st.composite
def instance_texts(draw):
    """``format_instance`` text of a drawn instance, with some lines mutated."""
    lines = [line.split() for line in format_instance(draw(instances())).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i]
        op = draw(st.sampled_from(["char", "token", "zeros", "drop", "add", "swap", "copy"]))
        j = draw(st.integers(0, len(fields) - 1)) if fields else 0
        if op == "char" and fields:
            k = draw(st.integers(0, len(fields[j]) - 1))
            fields[j] = fields[j][:k] + draw(st.sampled_from(_CHARS)) + fields[j][k + 1 :]
        elif op == "token" and fields:
            fields[j] = draw(st.sampled_from(_TOKENS))
        elif op == "zeros" and fields:
            fields[j] = "0" * draw(st.integers(1, 3)) + fields[j]
        elif op == "drop" and fields:
            del fields[j]
        elif op == "add":
            fields.insert(j + 1, draw(st.sampled_from(_TOKENS)))
        elif op == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif op == "copy":
            lines.insert(i, list(fields))
    end = draw(st.sampled_from(_LINE_ENDS))
    return "".join(
        draw(st.sampled_from(_SEPARATORS)).join(fields) + draw(st.sampled_from(_COMMENTS)) + end
        for fields in lines
    )


def _parse_outcome(parse, text):
    """What `parse` makes of `text`: the instance and the types of its parts,
    or the error's type, text and line number."""
    try:
        inst = parse(text)
    except InstanceParseError as exc:
        return type(exc), str(exc), exc.line_no
    return inst, [(type(p), p.id, type(p.key), type(p.key.step), p.klass) for p in inst.arrivals]


@given(instance_texts())
@settings(max_examples=400, deadline=None)
@example("buffer 1\nalpha 2/1\npacket 1 ١ one\n")
@example("buffer 1\nalpha 2/1\npacket ３ 0 one\n")
@example("buffer 1\nalpha 2/1\npacket ² 0 one\n")
@example("buffer 1\nalpha 2/1\npacket 05 01 alpha\npacket 5 1 one\n")
@example("buffer 1\nalpha 2/1\npacket 1 0 one one\npacket 1\n")
@example("buffer 1\r\nalpha\t2/1\r\npacket\u00a01 0 ONE # x\r\n")
@example("buffer 1\nalpha 2/1\npacket 1 " + "1" * 4301 + " one\n")
def test_parser_matches_literal_oracle(text):
    outcome = _parse_outcome(parse_instance, text)
    assert outcome == _parse_outcome(_literal_parse_instance, text)
    if isinstance(outcome[0], Instance):
        assert validate_instance(outcome[0]) == []
