"""Step-driven simulation of online FIFO buffering policies, in one loop.

The buffer is two queues, one per packet class, each in arrival order;
its head is whichever front was released first. Each time step has two
phases: all arrivals of the step are admitted in release order, then the
policy delivers at most one packet. On overflow the earliest buffered
1-value packet is evicted; with none buffered, a 1-value arrival is
rejected and an alpha arrival evicts the head. When the head is a 1-value
packet, the threshold policy ("on") may first preempt the set D of
buffered 1-value packets ahead of the last buffered alpha packet, but only
when the buffered alpha mass is at least ``beta * |D|`` (equality
preempts); the greedy policy always sends its head.

Traces record every admission, eviction, rejection, preemption and send,
and the packet sent at each step, so downstream analysis can replay the
buffer event by event without re-running policy logic. Idle steps are not
stored: they are exactly the event-free steps before the last event,
which the run jumps over and :func:`trace_lines` writes back.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple

from .model import Instance, Rat, _cached, arrival_id, format_rat, packet_ids, value_sum


class EventKind(Enum):
    ADMITTED = "admitted"
    EVICTED = "evicted"
    REJECTED = "rejected"
    PREEMPTED = "preempted"
    SENT = "sent"


# The members as module globals: a member lookup on the Enum class costs about
# ten times a global lookup, and the simulator and the analysis make one per event.
ADMITTED = EventKind.ADMITTED
EVICTED = EventKind.EVICTED
REJECTED = EventKind.REJECTED
PREEMPTED = EventKind.PREEMPTED
SENT = EventKind.SENT


class StepEvent(NamedTuple):
    """One packet event of a run, as :attr:`RunTrace.events` shows it.

    ``arrival`` is the packet's arrival index, its row in
    ``trace.instance``'s columns.
    """

    step: int
    kind: EventKind
    arrival: int


class EventLog(NamedTuple):
    """A run's events as three parallel columns, event ``k`` being
    ``(steps[k], kinds[k], arrivals[k])``; the fields are the plurals of
    :class:`StepEvent`'s.
    """

    steps: list[int]
    kinds: list[EventKind]
    arrivals: list[int]


@dataclass(frozen=True)
class Policy:
    """The threshold policy at ``beta``, or the greedy policy where ``beta`` is None."""

    beta: Rat | None

    def __post_init__(self) -> None:
        # a Fraction is signed by its numerator: comparing one goes through
        # Python-level Fraction methods
        if self.beta is None:
            return
        if type(self.beta) is not Fraction:
            raise ValueError(f"beta must be a Fraction, not {type(self.beta).__name__}")
        if self.beta.numerator <= 0:
            raise ValueError("beta must be positive")

    @property
    def kind(self) -> str:
        """``"on"`` for the threshold policy, ``"greedy"`` for the greedy one."""
        return "greedy" if self.beta is None else "on"

    @classmethod
    def on(cls, beta: Rat) -> "Policy":
        """The threshold policy at `beta`, memoised on its integer ratio, never on a failure."""
        return _on_policy(*(beta if type(beta) is Fraction else Fraction(beta)).as_integer_ratio())

    @classmethod
    def greedy(cls) -> "Policy":
        return _GREEDY_POLICY

    def describe(self) -> str:
        return "greedy" if self.beta is None else f"on(beta={format_rat(self.beta)})"


@lru_cache(maxsize=1024)
def _on_policy(num: int, den: int) -> Policy:
    return Policy(Fraction(num, den))


_GREEDY_POLICY = Policy(None)  # the one record Policy.greedy returns


class Departures(NamedTuple):
    """What the analysis reads off one replay of a trace's buffer (:attr:`RunTrace.departures`).

    ``left[i]`` is the step at which arrival ``i`` left the buffer,
    ``math.inf`` while it is still there at the end, None if it never
    entered; the send steps are the trace's ``sends``. ``drops`` lists
    the evictions, rejections and preemptions in event order as
    ``(step, kind, arrival, lo, hi)``, with the alpha queue just after the
    drop as ``alphas[lo:hi]``. ``alphas`` lists the admitted alpha packets
    in order: each leaves from the front of the alpha queue, so a window
    costs O(1) to record.
    """

    left: list[float | None]
    drops: list[tuple[int, EventKind, int, int, int]]
    alphas: list[int]


@dataclass(frozen=True)
class RunTrace:
    """A policy's run: its event log, its sends and the value it delivered.

    ``instance`` is the instance run, whose columns the log's and the
    sends' arrival indices point into.
    """

    policy: Policy
    instance: Instance
    log: EventLog
    sends: Mapping[int, int]  # step -> arrival index sent, in send order
    totals: Rat

    @property
    def events(self) -> tuple[StepEvent, ...]:
        """The log as one :class:`StepEvent` per event, built on each read."""
        return tuple(map(StepEvent, *self.log))

    @_cached
    def departures(self) -> Departures:
        """The buffer replayed from the event log, kept on first read.

        The buffer is :func:`run`'s two class queues, and the log must obey
        the model's queue rules, or the replay raises a ValueError, on every
        read: a send takes the earlier front (FIFO order is arrival order),
        an eviction or a preemption takes its queue's front, only a 1-value
        packet is rejected or preempted, and a rejection meets a buffer of
        ``capacity`` alpha packets.
        """
        inst = self.instance
        flags, capacity = inst.is_alpha, inst.capacity
        inf = math.inf
        left: list[float | None] = [None] * len(flags)
        drops: list[tuple[int, EventKind, int, int, int]] = []
        alphas: list[int] = []
        ones_queue: deque[int] = deque()
        alpha_queue: deque[int] = deque()  # the last len(alpha_queue) entries of alphas
        for t, kind, i in zip(*self.log):
            if kind is ADMITTED:
                left[i] = inf
                if flags[i]:
                    alpha_queue.append(i)
                    alphas.append(i)
                else:
                    ones_queue.append(i)
                continue
            if flags[i]:
                queue, other = alpha_queue, ones_queue
            else:
                queue, other = ones_queue, alpha_queue
            if kind is SENT:
                if not queue or queue[0] != i or (other and other[0] < i):
                    raise ValueError(f"non-FIFO send of {arrival_id(inst, i)} at step {t}")
                queue.popleft()
                left[i] = t
                continue
            if kind is not EVICTED and flags[i]:
                raise ValueError(f"alpha packet {arrival_id(inst, i)} {kind.value} at step {t}")
            if kind is REJECTED:
                if ones_queue or len(alpha_queue) != capacity:
                    packet = arrival_id(inst, i)
                    raise ValueError(f"rejection of {packet} without a full all-alpha buffer at step {t}")
            elif queue and queue[0] == i:
                queue.popleft()
                left[i] = t
            else:
                packet = arrival_id(inst, i)
                if i in queue:
                    raise ValueError(f"packet {packet} {kind.value} behind its queue's front at step {t}")
                raise ValueError(f"unbuffered packet {packet} {kind.value} at step {t}")
            hi = len(alphas)
            drops.append((t, kind, i, hi - len(alpha_queue), hi))
        return Departures(left, drops, alphas)

    @_cached
    def alpha_run_ends(self) -> dict[int, int]:
        """Map each step that sends an alpha packet to the last step of its run of alpha sends."""
        flags = self.instance.is_alpha
        ends: dict[int, int] = {}
        for t, i in reversed(self.sends.items()):
            if flags[i]:
                ends[t] = ends.get(t + 1, t)
        return ends


def run(policy: Policy, inst: Instance) -> RunTrace:
    """Run a policy over an instance until the buffer drains.

    Within a step, arrivals are processed before delivery, and a step
    with a non-empty buffer always sends. When the buffer is empty the
    run jumps to the next arrival's step, so its cost follows the packet
    count, not the largest step number or the capacity: each event costs
    O(1), and finding the preempted set O(log B).
    """
    release, flags = inst.steps, inst.is_alpha
    preempts = policy.beta is not None
    if preempts:
        # alpha * |A| >= beta * |D|, cross-multiplied over both denominators
        alpha_num, alpha_den = inst.alpha.as_integer_ratio()
        beta_num, beta_den = policy.beta.as_integer_ratio()
        alpha_weight, beta_weight = alpha_num * beta_den, beta_num * alpha_den
    # the queues hold arrival indices, which ascend in key order
    ones: deque[int] = deque()
    alphas: deque[int] = deque()
    size = 0  # len(ones) + len(alphas), kept as a count
    capacity = inst.capacity
    steps: list[int] = []
    kinds: list[EventKind] = []
    indices: list[int] = []
    # bound once: each event appends one entry to each column
    add_step, add_kind, add_index = steps.append, kinds.append, indices.append
    sends: dict[int, int] = {}
    alpha_sends = 0
    n = len(release)
    i = 0
    t = 0
    while i < n or size:
        if not size:
            t = release[i]
        while i < n and release[i] == t:
            a = i
            i += 1
            is_alpha = flags[a]
            if size == capacity:
                # overflow: the earliest buffered 1-value packet goes; with
                # none, a 1-value arrival is rejected and an alpha evicts the head
                if ones:
                    victim = ones.popleft()
                elif is_alpha:
                    victim = alphas.popleft()
                else:
                    add_step(t)
                    add_kind(REJECTED)
                    add_index(a)
                    continue
                add_step(t)
                add_kind(EVICTED)
                add_index(victim)
            else:
                size += 1
            (alphas if is_alpha else ones).append(a)
            add_step(t)
            add_kind(ADMITTED)
            add_index(a)
        if preempts and ones and alphas and ones[0] < alphas[0]:
            # D: the 1-value packets ahead of the last buffered alpha
            doomed = bisect_left(ones, alphas[-1])
            if alpha_weight * len(alphas) >= beta_weight * doomed:
                size -= doomed
                for _ in range(doomed):
                    add_step(t)
                    add_kind(PREEMPTED)
                    add_index(ones.popleft())
        # the head is the earlier front, never missing: an arrival into an
        # empty buffer is admitted, and a preemption keeps every alpha packet
        if not ones or (alphas and alphas[0] < ones[0]):
            sent = alphas.popleft()
            alpha_sends += 1
        else:
            sent = ones.popleft()
        size -= 1
        add_step(t)
        add_kind(SENT)
        add_index(sent)
        sends[t] = sent
        t += 1

    totals = value_sum(inst.alpha, len(sends) - alpha_sends, alpha_sends)
    return RunTrace(policy, inst, EventLog(steps, kinds, indices), sends, totals)


def replay_buffer_states(trace: RunTrace) -> list[tuple[StepEvent, tuple[int, ...]]]:
    """Each event with the buffer just after it, merged in key order; raises as :attr:`RunTrace.departures` does."""
    trace.departures  # checks the log against the model's queue rules
    buffer: list[int] = []
    states = []
    for t, kind, i in zip(*trace.log):
        if kind is ADMITTED:
            insort(buffer, i)
        elif kind is not REJECTED:
            del buffer[bisect_left(buffer, i)]
        states.append((StepEvent(t, kind, i), tuple(buffer)))
    return states


_IDLE_BLOCK = 4096  # idle lines per yielded chunk


def trace_lines(trace: RunTrace) -> Iterator[str]:
    """Line-oriented trace export: one event per line, then the exact total.

    A step before the last event with no event of its own had an empty
    buffer (a step with a non-empty buffer sends), so it gets a
    ``<step> idle -`` line. Each yielded chunk is a run of
    newline-terminated lines of one sort: all the event lines between two
    idle gaps as one string (the last such run ends with the total line),
    or at most ``_IDLE_BLOCK`` idle lines, so a writer's memory does not
    follow the largest step number. The gaps are read off ``trace.sends``:
    in a trace of :func:`run` every step with an event sends.
    """
    inst, log = trace.instance, trace.log
    ids = packet_ids(inst.steps, inst.seqs)
    # kind._value_ is the member's own attribute; kind.value is a Python-level property
    lines = [f"{step} {kind._value_} {ids[i]}\n" for step, kind, i in zip(*log)]
    lines.append(f"total {format_rat(trace.totals)}\n")
    start = 0  # the first event line not yet yielded
    prev = 0
    for step in trace.sends:
        if step > prev + 1:
            end = bisect_left(log.steps, step, start)
            if end > start:
                yield "".join(lines[start:end])
            for lo in range(prev + 1, step, _IDLE_BLOCK):
                yield "".join([f"{t} idle -\n" for t in range(lo, min(lo + _IDLE_BLOCK, step))])
            start = end
        prev = step
    yield "".join(lines[start:])


def format_trace(trace: RunTrace) -> str:
    """The lines of :func:`trace_lines` as one string."""
    return "".join(trace_lines(trace))
