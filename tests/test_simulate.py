import math
from collections import deque
from dataclasses import fields
from fractions import Fraction
from operator import attrgetter

import pytest

from fifolab import (
    EventKind,
    GenConfig,
    Instance,
    InvalidInstanceError,
    Policy,
    RunTrace,
    StepEvent,
    build_instance,
    demo_instance,
    format_trace,
    greedy_blocking,
    random_instance,
    run,
)
from fifolab.model import packet_id
from fifolab.simulate import replay_buffer_states

GREEDY = Policy.greedy()


def on(beta):
    return Policy.on(Fraction(beta))


def trace_lines(policy, capacity, alpha, *specs):
    """Exported trace of a small instance: one line per event, then the total."""
    return format_trace(run(policy, build_instance(capacity, Fraction(alpha), specs))).splitlines()


def sent_ids(trace):
    """Ids of the packets a trace sends, in send order."""
    return [trace.instance.arrivals[i].id for i in trace.sends.values()]


def admitted(step, *ids):
    return [f"{step} admitted {i}" for i in ids]


def _raised(read, trace):
    """The text of the ValueError that ``read(trace)`` raises."""
    with pytest.raises(ValueError) as exc:
        read(trace)
    return str(exc.value)


class TestAdmit:
    def test_appended_when_space(self):
        lines = trace_lines(GREEDY, 3, 2, (1, 0, "one"), (1, 1, "alpha"), (2, 0, "alpha"))
        assert lines == [
            *admitted(1, "1", "1.1"), "1 sent 1",
            *admitted(2, "2"), "2 sent 1.1",
            "3 sent 2",
            "total 5/1",
        ]

    def test_one_value_arrival_self_rejected_by_full_alpha_buffer(self):
        specs = [(1, 0, "alpha"), (1, 1, "alpha"), (1, 2, "alpha"), (1, 3, "one")]
        lines = trace_lines(GREEDY, 3, 2, *specs)
        assert lines[:5] == [*admitted(1, "1", "1.1", "1.2"), "1 rejected 1.3", "1 sent 1"]
        assert lines[-1] == "total 6/1"

    def test_alpha_tie_evicts_earliest_released(self):
        specs = [(1, 0, "alpha"), (1, 1, "alpha"), (1, 2, "alpha"), (1, 3, "alpha")]
        lines = trace_lines(GREEDY, 3, 2, *specs)
        assert lines[3:7] == ["1 evicted 1", "1 admitted 1.3", "1 sent 1.1", "2 sent 1.2"]

    def test_empty_buffer_appends(self):
        assert trace_lines(GREEDY, 1, 2, (1, 0, "one")) == ["1 admitted 1", "1 sent 1", "total 1/1"]

    def test_buffered_one_evicted_before_arriving_one(self):
        # the earliest buffered 1-value packet goes, not a later one or the arrival
        specs = [(1, 0, "one"), (1, 1, "alpha"), (1, 2, "one"), (1, 3, "one")]
        lines = trace_lines(GREEDY, 3, 2, *specs)
        assert lines[3:6] == ["1 evicted 1", "1 admitted 1.3", "1 sent 1.1"]

    def test_arrival_order_enforced(self):
        with pytest.raises(InvalidInstanceError):
            Instance(3, Fraction(2), (1, 1), (1, 0), (False, False))


class TestEjectable:
    def test_one_before_alphas(self):
        # both 1-value packets precede an alpha: 2 * 2 >= 2 * 2 drops them in key order
        specs = [(1, 0, "one"), (1, 1, "one"), (1, 2, "alpha"), (1, 3, "alpha")]
        lines = trace_lines(on(2), 4, 2, *specs)
        assert lines[4:7] == ["1 preempted 1", "1 preempted 1.1", "1 sent 1.2"]

    def test_one_after_alpha_is_safe(self):
        lines = trace_lines(on(1), 3, 2, (1, 0, "one"), (1, 1, "alpha"), (1, 2, "one"))
        assert lines[3:] == ["1 preempted 1", "1 sent 1.1", "2 sent 1.2", "total 3/1"]

    def test_interleaved(self):
        specs = [(1, 0, "one"), (1, 1, "alpha"), (1, 2, "one"), (1, 3, "alpha"), (1, 4, "one")]
        lines = trace_lines(on(1), 5, 2, *specs)
        assert lines[5:] == [
            "1 preempted 1", "1 preempted 1.2", "1 sent 1.1",
            "2 sent 1.3",
            "3 sent 1.4",
            "total 5/1",
        ]


class TestDeliverOn:
    def test_threshold_not_met_keeps_ejectables(self):
        # step 1: alpha mass 2 < 2 * |{1, 1.1}|; step 2: 2 >= 2 * |{1.1}|
        lines = trace_lines(on(2), 3, 2, (1, 0, "one"), (1, 1, "one"), (1, 2, "alpha"))
        assert lines[3:] == ["1 sent 1", "2 preempted 1.1", "2 sent 1.2", "total 3/1"]

    def test_threshold_met_preempts_then_sends_alpha(self):
        lines = trace_lines(on(2), 3, 2, (1, 0, "one"), (1, 1, "alpha"), (1, 2, "alpha"))
        assert lines[3:] == ["1 preempted 1", "1 sent 1.1", "2 sent 1.2", "total 4/1"]

    def test_no_alpha_sends_head_vacuously(self):
        lines = trace_lines(on(2), 3, 2, (1, 0, "one"), (1, 1, "one"))
        assert lines[2:] == ["1 sent 1", "2 sent 1.1", "total 2/1"]

    def test_alpha_head_sent_without_preemption(self):
        # the 1-value packet ahead of an alpha is dropped only once it is the head
        specs = [(1, 0, "alpha"), (1, 1, "one"), (1, 2, "alpha")]
        lines = trace_lines(on(Fraction(1, 10)), 3, 2, *specs)
        assert lines[3:] == ["1 sent 1", "2 preempted 1.1", "2 sent 1.2", "total 4/1"]

    def test_empty_buffer_idles(self):
        lines = trace_lines(on(2), 2, 2, (1, 0, "one"), (3, 0, "alpha"))
        assert lines == ["1 admitted 1", "1 sent 1", "2 idle -", "3 admitted 3", "3 sent 3", "total 3/1"]
        # leading idle steps: the first arrival comes at step 3
        lines = trace_lines(on(2), 2, 2, (3, 0, "one"), (3, 1, "alpha"))
        assert lines == [
            "1 idle -", "2 idle -",
            *admitted(3, "3", "3.1"), "3 preempted 3", "3 sent 3.1",
            "total 2/1",
        ]

    def test_exact_equality_preempts(self):
        # one alpha of value 2 against one ejectable at beta = 2: 2 >= 2
        lines = trace_lines(on(2), 2, 2, (1, 0, "one"), (1, 1, "alpha"))
        assert lines[2:] == ["1 preempted 1", "1 sent 1.1", "total 2/1"]

    @pytest.mark.parametrize(
        "alpha, beta, alphas, ones",
        [
            (Fraction(7, 3), Fraction(7, 6), 1, 2),
            (Fraction(2463, 500), Fraction(3284, 1000), 2, 3),
        ],
    )
    def test_fractional_equality_preempts_and_one_past_does_not(self, alpha, beta, alphas, ones):
        assert alpha * alphas == beta * ones
        for extra, preempts in ((0, True), (1, False)):
            n = ones + extra
            specs = [(1, i, "one") for i in range(n)] + [(1, n + j, "alpha") for j in range(alphas)]
            trace = run(on(beta), build_instance(n + alphas, alpha, specs))
            first_step = [
                e for e in trace.events if e.step == 1 and e.kind is not EventKind.ADMITTED
            ]
            kinds = [e.kind for e in first_step]
            if preempts:
                assert kinds == [EventKind.PREEMPTED] * n + [EventKind.SENT]
                assert trace.instance.arrivals[first_step[-1].arrival].is_alpha
            else:
                assert kinds == [EventKind.SENT]
                assert not trace.instance.arrivals[first_step[-1].arrival].is_alpha


class TestDeliverGreedy:
    def test_sends_head(self):
        lines = trace_lines(GREEDY, 2, 2, (1, 0, "one"), (1, 1, "alpha"))
        assert lines[2:] == ["1 sent 1", "2 sent 1.1", "total 3/1"]

    def test_empty_idles(self):
        lines = trace_lines(GREEDY, 2, 2, (1, 0, "alpha"), (3, 0, "one"))
        assert lines == ["1 admitted 1", "1 sent 1", "2 idle -", "3 admitted 3", "3 sent 3", "total 3/1"]

    def test_blocking_family_step_two(self):
        # after greedy sends the cheap head, the second-step burst evicts
        # the first alpha packet
        lines = format_trace(run(GREEDY, greedy_blocking(Fraction(10)))).splitlines()
        assert [line for line in lines if line.startswith("2 ")] == [
            "2 admitted 2", "2 evicted 1.1", "2 admitted 2.1", "2 sent 2",
        ]


class TestPolicy:
    def test_on_keeps_a_fraction(self):
        beta = Fraction(3284, 1000)
        assert type(Policy.on(beta).beta) is Fraction and Policy.on(beta).beta == beta
        assert Policy.on(Fraction(6, 4)) is Policy.on(Fraction(3, 2))

    @pytest.mark.parametrize("beta", [Fraction(0), Fraction(-1, 2), 0, -3])
    def test_on_rejects_a_non_positive_beta(self, beta):
        with pytest.raises(ValueError, match="^beta must be positive$"):
            Policy.on(beta)

    def test_on_converts_an_int(self):
        beta = Policy.on(2).beta
        assert type(beta) is Fraction and beta == 2

    def test_greedy_is_one_shared_record(self):
        assert Policy.greedy() is Policy.greedy()
        assert Policy.greedy() == Policy(None)
        assert (Policy.greedy().kind, Policy.greedy().describe()) == ("greedy", "greedy")

    def test_a_policy_is_its_beta(self):
        assert [f.name for f in fields(Policy)] == ["beta"]
        assert (Policy.on(2).kind, Policy.greedy().kind) == ("on", "greedy")
        with pytest.raises(AttributeError):
            Policy.on(2).kind = "greedy"


@pytest.mark.parametrize(
    "args, message",
    [
        ((2,), "beta must be a Fraction, not int"),
        ((Fraction(-1),), "beta must be positive"),
    ],
    ids=["on-int-beta", "on-negative-beta"],
)
def test_policy_is_valid_by_construction(args, message):
    # a policy is its beta, None for greedy: a kind beside it, and so a
    # kind that disagrees with it, cannot be given
    with pytest.raises(ValueError) as exc:
        Policy(*args)
    assert str(exc.value) == message


class TestRun:
    def test_demo_threshold_trace(self):
        inst = demo_instance(Fraction(2))
        trace = run(Policy.on(Fraction(2)), inst)
        assert sent_ids(trace) == ["1", "2", "2.1", "2.2", "5.1", "5.2"]
        assert trace.totals == 11  # 5 * alpha + 1

    def test_demo_greedy_totals(self):
        # greedy keeps the preempted packet but loses the first alpha:
        # 5 * alpha + 2
        inst = demo_instance(Fraction(2))
        trace = run(Policy.greedy(), inst)
        assert sent_ids(trace) == ["1", "2", "2.1", "2.2", "5", "5.1", "5.2"]
        assert trace.totals == 12

    def test_empty_instance_has_no_events(self):
        inst = Instance(3, Fraction(2), (), (), ())
        for policy in (Policy.on(Fraction(2)), Policy.greedy()):
            trace = run(policy, inst)
            assert trace.log == ([], [], [])
            assert trace.events == ()
            assert trace.totals == 0

    def test_events_view_reads_the_log(self):
        inst = demo_instance(Fraction(2))
        for policy in (Policy.on(Fraction(2)), Policy.greedy()):
            trace = run(policy, inst)
            steps, kinds, arrivals = trace.log
            assert len(steps) == len(kinds) == len(arrivals) > 0
            assert trace.events == tuple(zip(*trace.log))
            assert {type(e) for e in trace.events} == {StepEvent}

    def test_threshold_on_blocking_family(self):
        trace = run(Policy.on(Fraction(3284, 1000)), greedy_blocking(Fraction(10)))
        assert trace.totals == 30
        preempted = [e.arrival for e in trace.events if e.kind is EventKind.PREEMPTED]
        assert [trace.instance.arrivals[i].id for i in preempted] == ["1"]

    def test_invalid_instance_rejected(self):
        out_of_order = ((2, 1), (0, 0), (False, False))
        for args in ((1, Fraction(1), (), (), ()), (2, Fraction(2), *out_of_order)):
            with pytest.raises(InvalidInstanceError):
                Instance(*args)

    def test_idle_step_between_bursts(self):
        lines = trace_lines(GREEDY, 2, 2, (1, 0, "one"), (1, 1, "one"), (5, 0, "one"))
        assert lines == [
            *admitted(1, "1", "1.1"), "1 sent 1",
            "2 sent 1.1",
            "3 idle -", "4 idle -",
            *admitted(5, "5"), "5 sent 5",
            "total 3/1",
        ]

    def test_conservation_of_arrivals(self):
        inst = demo_instance(Fraction(2))
        terminal = {EventKind.SENT, EventKind.EVICTED, EventKind.REJECTED, EventKind.PREEMPTED}
        for policy in (Policy.on(Fraction(2)), Policy.greedy()):
            fated = [e.arrival for e in run(policy, inst).events if e.kind in terminal]
            assert sorted(fated) == list(range(len(inst.arrivals)))  # each exactly once

    def test_replay_reconstructs_fifo_buffers(self):
        inst = demo_instance(Fraction(2))
        states = replay_buffer_states(run(Policy.on(Fraction(2)), inst))
        for _, state in states:
            assert list(state) == sorted(state)  # arrival indices ascend in key order
            assert len(state) <= inst.capacity

    def test_trace_shares_the_instance_arrivals(self):
        inst = demo_instance(Fraction(2))
        for policy in (Policy.on(Fraction(2)), Policy.greedy()):
            assert run(policy, inst).instance is inst

    @pytest.mark.parametrize(
        "kind, message",
        [
            (EventKind.EVICTED, "unbuffered packet 1.1 evicted at step 2"),
            (EventKind.PREEMPTED, "unbuffered packet 1.1 preempted at step 2"),
        ],
    )
    def test_replay_rejects_dropping_an_unbuffered_packet(self, kind, message, event_log):
        # a hand-built trace that drops 1.1 after it was already sent
        inst = build_instance(2, Fraction(2), [(1, 0, "one"), (1, 1, "one")])
        trace = RunTrace(
            GREEDY,
            inst,
            event_log(
                [
                    (1, EventKind.ADMITTED, 0),
                    (1, EventKind.ADMITTED, 1),
                    (1, EventKind.SENT, 0),
                    (2, EventKind.SENT, 1),
                    (2, kind, 1),
                ]
            ),
            {1: 0, 2: 1},
            Fraction(2),
        )
        for read in (replay_buffer_states, _departures_from_the_replay, attrgetter("departures")):
            assert _raised(read, trace) == message


EXPECTED_DEMO_TRACE = """\
1 admitted 1
1 admitted 1.1
1 admitted 1.2
1 sent 1
2 admitted 2
2 evicted 1.1
2 admitted 2.1
2 evicted 1.2
2 admitted 2.2
2 rejected 2.3
2 sent 2
3 sent 2.1
4 sent 2.2
5 admitted 5
5 admitted 5.1
5 admitted 5.2
5 preempted 5
5 sent 5.1
6 sent 5.2
total 11/1
"""


def test_trace_export_golden():
    trace = run(Policy.on(Fraction(2)), demo_instance(Fraction(2)))
    assert format_trace(trace) == EXPECTED_DEMO_TRACE


def replay_events(trace):
    """Literal replay oracle: yield each event with the buffer just after it.

    Each event is a plain ``(step, kind, arrival)`` tuple, drawn from the
    log's columns. The buffer is ``run``'s: ``ones`` and ``alphas``, one
    queue of arrival indices per class, the replay's live deques, which
    change when the next event is drawn. A send must take the earlier of
    the two fronts, and a drop removes its packet from its queue; otherwise
    it raises the text ``RunTrace.departures`` raises.
    """
    inst = trace.instance
    flags = inst.is_alpha
    ones = deque()
    alphas = deque()
    for event in zip(*trace.log):
        t, kind, i = event
        if flags[i]:
            queue, other = alphas, ones
        else:
            queue, other = ones, alphas
        if kind is EventKind.ADMITTED:
            queue.append(i)
        elif kind is EventKind.SENT:
            if not queue or queue[0] != i or (other and other[0] < i):
                raise ValueError(f"non-FIFO send of {packet_id(inst.steps[i], inst.seqs[i])} at step {t}")
            queue.popleft()
        elif kind is not EventKind.REJECTED:
            try:
                queue.remove(i)
            except ValueError:
                packet = packet_id(inst.steps[i], inst.seqs[i])
                raise ValueError(f"unbuffered packet {packet} {kind.value} at step {t}") from None
        yield event, ones, alphas


def _replay_states(trace):
    """The oracle's snapshots: both queues merged in key order after every event."""
    return [(StepEvent(*e), tuple(sorted(ones + alphas))) for e, ones, alphas in replay_events(trace)]


def _departures_from_the_replay(trace):
    """What ``trace.departures`` holds, read off a literal walk of ``replay_events``."""
    left = [None] * len(trace.instance.steps)
    drops = []
    for (t, kind, i), ones, alphas in replay_events(trace):
        if kind is EventKind.ADMITTED:
            left[i] = math.inf
        elif kind is not EventKind.REJECTED:
            left[i] = t
        if kind not in (EventKind.SENT, EventKind.ADMITTED):
            drops.append((t, kind, i, bool(ones), list(alphas)))
    return left, drops


def _departures_read(trace):
    d = trace.departures
    return d.left, [(t, k, i, ones, d.alphas[lo:hi]) for t, k, i, ones, lo, hi in d.drops]


@pytest.mark.parametrize("policy", [Policy.on(Fraction(3284, 1000)), GREEDY], ids=["on", "greedy"])
def test_departures_match_the_replay(policy):
    # corpus instances, and B = 64 bursts that reject and preempt against a full alpha queue
    sources = [random_instance(GenConfig(seed=seed)) for seed in range(300)]
    for seed, alpha in enumerate((Fraction(3, 2), Fraction(5))):
        sources.append(random_instance(GenConfig(
            capacity_min=64, capacity_max=64, horizon=300, max_burst=5,
            max_packets=None, alpha_choices=(alpha,), seed=seed,
        )))
    kinds = set()
    for inst in sources:
        trace = run(policy, inst)
        assert _departures_read(trace) == _departures_from_the_replay(trace)
        assert trace.departures is trace.departures  # drained once
        kinds.update(drop[1] for drop in trace.departures.drops)
    expected = {EventKind.EVICTED, EventKind.REJECTED}
    if policy.kind == "on":
        expected.add(EventKind.PREEMPTED)
    assert kinds == expected


def test_departures_copy_the_alpha_queue_once_it_leaves_out_of_order(event_log):
    # a hand-built trace that evicts the second buffered alpha packet, then
    # rejects and preempts: the alpha queue is no longer a run of admissions
    inst = build_instance(
        3, Fraction(2), [(1, 0, "alpha"), (1, 1, "alpha"), (1, 2, "one"), (1, 3, "alpha"), (1, 4, "one")]
    )
    trace = RunTrace(
        on(2),
        inst,
        event_log(
            [
                (1, EventKind.ADMITTED, 0),
                (1, EventKind.ADMITTED, 1),
                (1, EventKind.ADMITTED, 2),
                (1, EventKind.EVICTED, 1),
                (1, EventKind.ADMITTED, 3),
                (1, EventKind.REJECTED, 4),
                (1, EventKind.PREEMPTED, 2),
                (1, EventKind.SENT, 0),
            ]
        ),
        {1: 0},
        Fraction(2),
    )
    assert _departures_read(trace) == _departures_from_the_replay(trace)
    assert [alphas for *_, alphas in _departures_read(trace)[1]] == [[0], [0, 3], [0, 3]]


@pytest.mark.parametrize(
    "specs, events, message",
    [
        # the second packet sent while the first is still at the head
        (
            [(1, 0, "one"), (1, 1, "alpha")],
            [(1, EventKind.ADMITTED, 0), (1, EventKind.ADMITTED, 1), (1, EventKind.SENT, 1)],
            "non-FIFO send of 1.1 at step 1",
        ),
        # a packet sent twice
        (
            [(1, 0, "alpha")],
            [(1, EventKind.ADMITTED, 0), (1, EventKind.SENT, 0), (2, EventKind.SENT, 0)],
            "non-FIFO send of 1 at step 2",
        ),
        # an alpha packet evicted that was never admitted, behind a buffered one
        (
            [(1, 0, "alpha"), (1, 1, "alpha")],
            [(1, EventKind.ADMITTED, 0), (1, EventKind.EVICTED, 1)],
            "unbuffered packet 1.1 evicted at step 1",
        ),
    ],
    ids=["send-behind-head", "sent-twice", "never-admitted"],
)
def test_a_bad_log_raises_one_text_from_every_replay(specs, events, message, event_log):
    inst = build_instance(2, Fraction(2), specs)
    trace = RunTrace(GREEDY, inst, event_log(events), {}, Fraction(0))
    for read in (_departures_from_the_replay, replay_buffer_states, attrgetter("departures")):
        assert _raised(read, trace) == message
    assert "departures" not in vars(trace)  # read twice above, raised both times, never kept
