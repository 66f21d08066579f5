"""Exact offline optimum for a FIFO buffer: feasibility, greedy optimum, DP.

A kept subset is delivered in arrival order, one packet per step, and an
arrival instant may never see more than B kept-but-unsent packets. Since
delaying a send never lowers future occupancy, sending the head as early
as possible is a complete feasibility test, and one pass over the kept
packets' release steps computes it: each goes at its release or one step
after the previous send, and the subset is infeasible as soon as one
waits B steps or more (it would arrive to a full buffer). A subset is
feasible iff its packets can be matched to distinct send slots in
[step, step + B - 1], so the feasible subsets form a transversal matroid
(Glover 1967) and the optimum is a greedy pick; that pass is both the
greedy's independence test and the optimum's schedule. The step
simulation and the exhaustive enumeration survive only as test oracles.
:func:`dp_opt` reaches the same value through an (arrival index, queue
length) dynamic program.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .model import Instance, Packet, Rat, ZERO, require_valid, value_of

BRUTE_FORCE_LIMIT = 20


class InstanceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class OptResult:
    value: Rat
    subset: frozenset[Packet]
    schedule: Mapping[Packet, int]


def feasible(inst: Instance, packets: Iterable[Packet]) -> tuple[bool, dict[Packet, int] | None]:
    """Can this subset be fully delivered? Returns the earliest-send schedule."""
    kept = [inst.arrivals[i] for i in _arrival_indices(inst, packets)]
    sends = _earliest_sends([p.key.step for p in kept], inst.capacity)
    if sends is None:
        return False, None
    return True, dict(zip(kept, sends))


def _arrival_indices(inst: Instance, packets: Iterable[Packet]) -> list[int]:
    """Ascending arrival indices of `packets`, each packet once."""
    index_of = {p: i for i, p in enumerate(inst.arrivals)}
    idxs: set[int] = set()
    for p in packets:
        if p not in index_of:
            raise ValueError(f"packet {p.id!r} does not belong to this instance")
        idxs.add(index_of[p])
    return sorted(idxs)


def _earliest_sends(steps: Sequence[int], capacity: int) -> list[int] | None:
    """Send step of each kept packet, from their release steps in key order.

    Each packet goes at its release or one step after the previous send,
    whichever is later. A packet that would wait `capacity` steps or more
    arrived to a full buffer, so the pass returns None there; agreement
    with a literal step simulation is property-tested.
    """
    sends = []
    send = 0
    for step in steps:
        send = step if step > send else send + 1
        if send - step >= capacity:
            return None
        sends.append(send)
    return sends


def _best_subset(inst: Instance, required: Iterable[Packet]) -> OptResult | None:
    """Maximum-value feasible subset containing `required`; None if `required` is infeasible.

    Seeded with `required`, the greedy offers the free alpha packets, then
    the free 1-value packets, each in key order, and keeps each that leaves
    the set feasible. Key order makes the result, among the optima, the one
    with the greatest indicator vector over arrivals (earliest preferred).
    """
    arr = inst.arrivals
    n = len(arr)
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"the offline optimum is limited to {BRUTE_FORCE_LIMIT} packets, got {n}"
        )
    kept = _arrival_indices(inst, required)
    steps = [p.key.step for p in arr]

    def sends_of(idxs: Iterable[int]) -> list[int] | None:
        return _earliest_sends([steps[i] for i in idxs], inst.capacity)

    if sends_of(kept) is None:
        return None
    if sends_of(range(n)) is not None:
        kept = list(range(n))
    else:
        req = set(kept)
        for i in sorted(range(n), key=lambda i: not arr[i].is_alpha):  # alphas first (stable sort)
            if i not in req:
                insort(kept, i)
                if sends_of(kept) is None:
                    kept.remove(i)
    sends = sends_of(kept)
    if sends is None:
        raise RuntimeError("internal error: optimizer returned an infeasible subset")
    a, b = inst.alpha.numerator, inst.alpha.denominator
    value = Fraction(sum(a if arr[i].is_alpha else b for i in kept), b)
    packets = [arr[i] for i in kept]  # ascending indices, so key order
    return OptResult(value, frozenset(packets), dict(zip(packets, sends)))


def brute_force_opt(inst: Instance) -> OptResult:
    """Maximum over all feasible subsets, by the greedy (guarded instance size).

    It keeps the name of the exhaustive search it replaced (same subset)
    because the CLI, the analysis and the benchmark tracer call it.
    """
    return _best_subset(inst, ())  # the empty requirement is always feasible


def opt_containing(inst: Instance, required: Iterable[Packet]) -> OptResult | None:
    """Best feasible subset containing `required`; None if no superset is feasible."""
    return _best_subset(inst, required)


def dp_opt(inst: Instance) -> Rat:
    """Optimum value by dynamic programming over (arrival, queue length).

    Scales past the greedy's instance-size guard; contracted to agree
    with :func:`brute_force_opt` wherever both run.
    """
    require_valid(inst)
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
