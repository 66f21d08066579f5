"""Step-driven simulation of online FIFO buffering policies, in one loop.

The buffer is a list of packets in arrival order. Each time step has two
phases: all arrivals of the step are admitted in release order, then the
policy delivers at most one packet. On overflow the earliest buffered
1-value packet is evicted; with none buffered, a 1-value arrival is
rejected and an alpha arrival evicts the head. When the head is a 1-value
packet, the threshold policy ("on") may first preempt the set D of
buffered 1-value packets ahead of the last buffered alpha packet, but only
when the buffered alpha mass is at least ``beta * |D|`` (equality
preempts); the greedy policy always sends its head.

Traces record every admission, eviction, rejection, preemption, send,
and idle step, so downstream analysis can replay the buffer event by
event without re-running policy logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .model import (
    Instance,
    Packet,
    Rat,
    ZERO,
    format_rat,
    require_valid,
    value_of,
)


class EventKind(Enum):
    ADMITTED = "admitted"
    EVICTED = "evicted"
    REJECTED = "rejected"
    PREEMPTED = "preempted"
    SENT = "sent"
    IDLE = "idle"


@dataclass(frozen=True)
class StepEvent:
    step: int
    kind: EventKind
    packet: Packet | None


@dataclass(frozen=True)
class Policy:
    kind: str  # "on" | "greedy"
    beta: Rat | None = None

    @classmethod
    def on(cls, beta: Rat) -> "Policy":
        if beta <= 0:
            raise ValueError("beta must be positive")
        return cls("on", Fraction(beta))

    @classmethod
    def greedy(cls) -> "Policy":
        return cls("greedy", None)

    def describe(self) -> str:
        if self.kind == "on":
            return f"on(beta={format_rat(self.beta)})"
        return "greedy"


@dataclass(frozen=True)
class RunTrace:
    policy: Policy
    events: tuple[StepEvent, ...]
    sent: tuple[Packet, ...]
    totals: Rat


def run(policy: Policy, inst: Instance) -> RunTrace:
    """Run a policy over an instance until the buffer drains.

    Within a step, arrivals are processed before delivery; the run
    continues past the last arrival step until the buffer is empty.
    Idle events are recorded only while later arrivals may still come.
    """
    require_valid(inst)
    arrivals = inst.arrivals
    last = arrivals[-1].key.step if arrivals else 0
    buf: list[Packet] = []
    events: list[StepEvent] = []
    sent_packets: list[Packet] = []
    i = 0
    t = 1
    while t <= last or buf:
        while i < len(arrivals) and arrivals[i].key.step == t:
            p = arrivals[i]
            i += 1
            if len(buf) == inst.capacity:
                # overflow: the earliest buffered 1-value packet goes; with
                # none, a 1-value arrival is rejected and an alpha evicts the head
                k = next((k for k, q in enumerate(buf) if not q.is_alpha), None)
                if k is None:
                    if not p.is_alpha:
                        events.append(StepEvent(t, EventKind.REJECTED, p))
                        continue
                    k = 0
                events.append(StepEvent(t, EventKind.EVICTED, buf.pop(k)))
            buf.append(p)
            events.append(StepEvent(t, EventKind.ADMITTED, p))
        if buf and policy.kind == "on" and not buf[0].is_alpha:
            alpha_at = [k for k, q in enumerate(buf) if q.is_alpha]
            if alpha_at:
                # D: the 1-value packets ahead of the last buffered alpha
                doomed = [q for q in buf[: alpha_at[-1]] if not q.is_alpha]
                if inst.alpha * len(alpha_at) >= policy.beta * len(doomed):
                    events.extend(StepEvent(t, EventKind.PREEMPTED, q) for q in doomed)
                    # left: every alpha, then the 1-value packets behind the last one
                    buf = [buf[k] for k in alpha_at] + buf[alpha_at[-1] + 1 :]
        if buf:
            sent = buf.pop(0)
            events.append(StepEvent(t, EventKind.SENT, sent))
            sent_packets.append(sent)
        elif t <= last:
            events.append(StepEvent(t, EventKind.IDLE, None))
        t += 1

    totals = sum((value_of(p, inst.alpha) for p in sent_packets), ZERO)
    return RunTrace(policy, tuple(events), tuple(sent_packets), totals)


def sends_by_step(trace: RunTrace) -> dict[int, Packet]:
    return {e.step: e.packet for e in trace.events if e.kind is EventKind.SENT}


def replay_events(trace: RunTrace) -> Iterator[tuple[StepEvent, list[Packet]]]:
    """Yield each event with the buffer just after it, rebuilt from the event log.

    The buffer is the replay's one live list, not a copy: it changes when
    the next event is drawn. Delivery must remove the current head; a
    mismatch means the trace itself violates FIFO order and raises.
    """
    buf: list[Packet] = []
    for e in trace.events:
        if e.kind is EventKind.ADMITTED:
            buf.append(e.packet)
        elif e.kind in (EventKind.EVICTED, EventKind.PREEMPTED):
            buf.remove(e.packet)
        elif e.kind is EventKind.SENT:
            if not buf or buf[0] is not e.packet:
                raise ValueError(f"non-FIFO send of {e.packet.id} at step {e.step}")
            buf.pop(0)
        yield e, buf


def replay_buffer_states(trace: RunTrace) -> list[tuple[StepEvent, tuple[Packet, ...]]]:
    """:func:`replay_events` with a snapshot of the buffer after every event."""
    return [(e, tuple(buf)) for e, buf in replay_events(trace)]


def format_trace(trace: RunTrace) -> str:
    """Line-oriented trace export: one event per line, then the exact total."""
    lines = []
    for e in trace.events:
        pid = e.packet.id if e.packet is not None else "-"
        lines.append(f"{e.step} {e.kind.value} {pid}")
    lines.append(f"total {format_rat(trace.totals)}")
    return "\n".join(lines) + "\n"
