"""Property-based invariants over randomly drawn instances."""

import random
from bisect import insort
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from fifolab import (
    DEFAULT_BETA,
    EventKind,
    GenConfig,
    Policy,
    StepEvent,
    analyze,
    brute_force_opt,
    dp_opt,
    feasible,
    format_trace,
    opt_containing,
    parse_instance,
    format_instance,
    random_instance,
    run,
    run_ropt,
    total_value,
)
from fifolab.model import build_instance
from fifolab.offline import _earliest_sends
from fifolab.simulate import replay_buffer_states

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
    """Terminal event of every arrival (sent/evicted/rejected/preempted).

    Raises if the trace classifies any packet more than once, which would
    violate conservation.
    """
    out = {}
    for e in trace.events:
        if e.kind in TERMINAL_KINDS:
            if e.packet in out:
                raise ValueError(f"packet {e.packet.id} classified twice")
            out[e.packet] = e
    return out


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
    (step, packet) pairs.
    """
    by_step = {}
    for p in inst.arrivals:
        by_step.setdefault(p.key.step, []).append(p)
    last = max(by_step, default=0)
    buf = ()
    lines, events, sends = [], [], []

    def emit(t, kind, p):
        events.append(StepEvent(t, kind, p))
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
            ejectable = frozenset(
                q for q in buf if not q.is_alpha and alpha_keys and q.key < max(alpha_keys)
            )
            if inst.alpha * len(alpha_keys) >= policy.beta * len(ejectable):
                buf = tuple(q for q in buf if q not in ejectable)
                for q in sorted(ejectable, key=lambda q: q.key):
                    emit(t, EventKind.PREEMPTED, q)
        if buf:
            emit(t, EventKind.SENT, buf[0])
            sends.append((t, buf[0]))
            buf = buf[1:]
        elif t <= last:
            lines.append(f"{t} idle -")
        t += 1
    total = total_value(inst, [p for _, p in sends])
    lines.append(f"total {total.numerator}/{total.denominator}")
    return lines, events, sends


def _assert_run_matches_oracle(policy, inst):
    trace = run(policy, inst)
    lines, events, sends = _literal_run(policy, inst)
    assert format_trace(trace).splitlines() == lines
    assert list(trace.events) == events
    assert list(trace.sends.items()) == sends
    assert trace.totals == total_value(inst, trace.sends.values())


@given(instances(max_step=6, max_packets=14))
def test_run_matches_literal_oracle(inst):
    for policy in policies(BETAS):
        _assert_run_matches_oracle(policy, inst)


def test_run_matches_literal_oracle_on_corpus():
    for seed in range(2000):
        inst = random_instance(GenConfig(seed=seed))
        for policy in (Policy.on(Fraction(3284, 1000)), Policy.on(Fraction(1)), Policy.greedy()):
            _assert_run_matches_oracle(policy, inst)


@given(instances(), st.sampled_from(BETAS), st.booleans())
def test_trace_invariants(inst, beta, use_greedy):
    policy = Policy.greedy() if use_greedy else Policy.on(beta)
    trace = run(policy, inst)

    # capacity safety and FIFO buffers at every event
    for _, state in replay_buffer_states(trace):
        assert len(state) <= inst.capacity
        assert list(state) == sorted(state, key=lambda p: p.key)

    # FIFO delivery
    keys = [p.key for p in trace.sends.values()]
    assert keys == sorted(keys)

    # conservation: every arrival classified exactly once
    classified = fates(trace)
    assert set(classified) == set(inst.arrivals)

    # totals computed exactly
    assert trace.totals == total_value(inst, trace.sends.values())

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
    sends = trace.sends
    for i, (event, state) in enumerate(states):
        if event.kind is EventKind.EVICTED and event.packet.is_alpha:
            after = states[i + 1][1]  # the admission that caused the eviction
            assert len(after) == inst.capacity
            assert all(p.is_alpha for p in after)
            for t in range(event.step, event.step + inst.capacity):
                assert sends[t].is_alpha


def _literal_run_ropt(inst, chosen, on):
    """Literal reference-schedule oracle: walk every step until the buffer drains.

    Accepts the step's O-packets, then mirrors the policy's send of the step
    if it is an O-packet still buffered here, otherwise sends the earliest
    buffered packet. Returns the send step of every O-packet, in send order,
    and the last step walked.
    """
    o_set = frozenset(chosen)
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
        mirrored = on.sends.get(t)
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
    hop = on.sends.get(steps[0])
    while hop in o_set:
        prev = send_time[hop]
        assert prev < steps[-1], f"chain walk from {packet.id} failed to descend at {prev}"
        steps.append(prev)
        hop = on.sends.get(prev)
    return tuple(reversed(steps))


def _assert_chains_match_oracle(chosen, on, ropt):
    o_set = frozenset(chosen)
    # the reference's send steps whose packet the policy does not send there
    unmirrored = {t: p for p, t in ropt.send_time.items() if on.sends.get(t) is not p}
    assert set(ropt.link) == set(ropt.head) == set(unmirrored)
    for t, p in unmirrored.items():
        steps = _literal_chain(on, ropt.send_time, o_set, p)
        assert ropt.chain(p) == steps
        assert ropt.head[t] == steps[0]
    linked = [(t, prev) for t, prev in ropt.link.items() if prev is not None]
    assert all(prev < t for t, prev in linked)
    # no step is linked from two later steps
    assert len({prev for _, prev in linked}) == len(linked)


def _assert_ropt_matches_oracle(inst, chosen, on, ropt):
    send_time, last_step = _literal_run_ropt(inst, chosen, on)
    assert list(ropt.send_time.items()) == list(send_time.items())
    assert ropt.last_step == last_step
    # the reference is busy at exactly the steps of O's earliest-send schedule
    ok, schedule = feasible(inst, chosen)
    assert ok and sorted(send_time.values()) == list(schedule.values())
    _assert_chains_match_oracle(chosen, on, ropt)


@given(instances(max_step=12, max_packets=12), st.sampled_from(BETAS), st.data())
def test_run_ropt_matches_literal_oracle(inst, beta, data):
    # any deliverable O: offer a drawn subset in key order, keep what stays feasible
    n = len(inst.arrivals)
    mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    chosen = set()
    for i, p in enumerate(inst.arrivals):
        if mask >> i & 1 and feasible(inst, chosen | {p})[0]:
            chosen.add(p)
    for policy in (Policy.greedy(), Policy.on(beta)):
        on = run(policy, inst)
        _assert_ropt_matches_oracle(inst, chosen, on, run_ropt(inst, chosen, on))


def test_run_ropt_matches_literal_oracle_on_corpus():
    for seed in range(2000):
        result = analyze(random_instance(GenConfig(seed=seed)), DEFAULT_BETA)
        _assert_ropt_matches_oracle(result.instance, result.optimum.subset, result.on, result.ropt)


def test_run_ropt_matches_literal_oracle_on_corpus_random_o_sets():
    # arbitrary deliverable O-sets: offer the arrivals in random order and
    # keep 9 in 10 of those that stay deliverable
    for seed in range(1000):
        rng = random.Random(seed)
        inst = random_instance(GenConfig(seed=seed))
        chosen = set()
        for p in rng.sample(inst.arrivals, len(inst.arrivals)):
            if rng.randrange(10) and feasible(inst, chosen | {p})[0]:
                chosen.add(p)
        for policy in (Policy.greedy(), Policy.on(DEFAULT_BETA)):
            on = run(policy, inst)
            _assert_ropt_matches_oracle(inst, chosen, on, run_ropt(inst, chosen, on))


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


def _exhaustive_best_subset(inst, required):
    """Exhaustive optimum oracle: enumerate subsets in decreasing value order.

    Returns (value, arrival indices) of the maximum-value feasible subset
    containing `required`, or None if `required` itself is infeasible. Ties
    within a value level go to the lexicographically greatest indicator
    vector over arrivals in key order (earliest packets preferred).
    """
    arr = inst.arrivals
    n = len(arr)
    index_of = {p: i for i, p in enumerate(arr)}
    req = tuple(sorted({index_of[p] for p in required}))
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
    return result.value, tuple(i for i, p in enumerate(inst.arrivals) if p in result.subset)


def _assert_greedy_matches_oracle(inst, required):
    expected = _exhaustive_best_subset(inst, required)
    assert _value_and_indices(inst, opt_containing(inst, required)) == expected
    if not required:
        assert _value_and_indices(inst, brute_force_opt(inst)) == expected


@given(instances(max_packets=9), st.data())
def test_greedy_optimum_matches_exhaustive_oracle(inst, data):
    n = len(inst.arrivals)
    mask = data.draw(st.integers(0, 2**n - 1)) if n else 0
    required = {p for i, p in enumerate(inst.arrivals) if mask >> i & 1}
    _assert_greedy_matches_oracle(inst, set())
    _assert_greedy_matches_oracle(inst, required)  # None on both sides if infeasible


def test_greedy_optimum_matches_exhaustive_oracle_on_corpus():
    # the canonical optimum analyze uses: unconstrained, and containing
    # every alpha packet the threshold policy delivered
    for seed in range(2000):
        inst = random_instance(GenConfig(seed=seed))
        delivered_alphas = {p for p in run(Policy.on(DEFAULT_BETA), inst).sends.values() if p.is_alpha}
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
    index_of = {p: i for i, p in enumerate(arr)}
    kept = sorted({index_of[p] for p in required})
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
    value = total_value(inst, [arr[i] for i in kept])
    return value, tuple(kept), tuple(sends_of(kept))


def _assert_sweep_matches_insertion_oracle(inst, required):
    result = opt_containing(inst, required)
    expected = _insertion_best_subset(inst, required)
    if expected is None:
        assert result is None
        return
    value, idxs = _value_and_indices(inst, result)
    assert (value, idxs, tuple(result.schedule[inst.arrivals[i]] for i in idxs)) == expected


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
    required = {p for p, m in zip(inst.arrivals, mask) if m}
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
        _assert_sweep_matches_insertion_oracle(inst, set())


def test_full_analysis_passes_at_scale():
    for capacity, seed in [(4, 0), (16, 1), (64, 2)]:
        result = analyze(_overloaded(capacity, 200, seed), DEFAULT_BETA)
        assert result.report.ok, [(c.name, c.detail) for c in result.report.failures]
        assert result.ratio.within_bound


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
