"""Exact offline optimum for a FIFO buffer: feasibility, greedy optimum, bound.

A kept subset is delivered in arrival order, one packet per step, and an
arrival instant may never see more than B kept-but-unsent packets. Since
delaying a send never lowers future occupancy, sending the head as early
as possible is a complete feasibility test, and one pass over the kept
packets' release steps computes it: each goes at its release or one step
after the previous send, and the subset is infeasible as soon as one
waits B steps or more (it would arrive to a full buffer). A subset is
feasible iff its packets can be matched to distinct send slots in
[step, step + B - 1], so the feasible subsets form a transversal matroid
(Glover 1967) and the optimum is a greedy pick. By Hall's condition on
those intervals, with F(x) = (kept packets released by step x) - x, a
subset is feasible iff F rises by less than B from any step to any later
one; adding a packet at step s lifts F at every step from s on, so the
greedy tests each offered packet with a suffix maximum and a running
minimum of F, and runs each of its two phases in linear time. The
earliest-send pass then gives the optimum's schedule, and :func:`dp_opt`
certifies its value with a tight bound, one integer pass per class that
makes two comparisons and no call per packet. Every
packet subset taken or returned is arrival indices: a required subset
comes in as indices, and a deliverable set (:class:`OptResult`) goes out
as its value, ascending indices and earliest send steps, so no packet is
hashed. :func:`feasible` is the one way to schedule an arbitrary set, and
its result is what :func:`~fifolab.analysis.run_ropt` takes. An
:class:`~fifolab.model.Instance` is valid by construction, so nothing
here checks one. The step simulation, the exhaustive enumeration, the
insertion greedy and the queue-length dynamic program survive only as
test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .model import Instance, Rat, arrival_indices, value_sum


class OptResult(NamedTuple):
    """A deliverable packet set by arrival index: an optimum, or any set :func:`feasible` schedules.

    ``indices`` ascend, so they list the packets in key order; ``sends``
    gives the step at which the earliest-send schedule sends each.
    """

    value: Rat
    indices: tuple[int, ...]
    sends: tuple[int, ...]


def feasible(inst: Instance, indices: Iterable[int]) -> OptResult | None:
    """The arrivals at `indices`, their value and earliest send steps; None if not all can be delivered."""
    kept = arrival_indices(inst, indices)
    sends = _earliest_sends([inst.steps[i] for i in kept], inst.capacity)
    if sends is None:
        return None
    alphas = sum([inst.is_alpha[i] for i in kept])
    return OptResult(value_sum(inst.alpha, len(kept) - alphas, alphas), tuple(kept), tuple(sends))


def _earliest_sends(steps: Iterable[int], capacity: int) -> list[int] | None:
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


def _best_subset(inst: Instance, required: Iterable[int]) -> OptResult | None:
    """Maximum-value feasible subset containing `required`; None if `required` is infeasible.

    Seeded with `required`, the greedy offers the free alpha packets, then
    the free 1-value packets, each in key order, and keeps each that leaves
    the set feasible. Key order makes the result, among the optima, the one
    with the greatest indicator vector over arrivals (earliest preferred).
    When every packet fits, that is the whole instance, and the one
    earliest-send pass that shows it is also the optimum's schedule.
    """
    steps, alpha, capacity = inst.steps, inst.is_alpha, inst.capacity
    n = len(steps)
    idxs = arrival_indices(inst, required)
    if idxs and _earliest_sends([steps[i] for i in idxs], capacity) is None:
        return None
    sends = _earliest_sends(steps, capacity)
    if sends is not None:
        kept_idxs = tuple(range(n))
        alphas = sum(alpha)
    else:
        kept = [False] * n
        for i in idxs:
            kept[i] = True
        _keep_fitting(steps, kept, alpha, capacity)
        _keep_fitting(steps, kept, [not a for a in alpha], capacity)
        kept_idxs = tuple(compress(range(n), kept))
        sends = _earliest_sends(compress(steps, kept), capacity)
        if sends is None:
            raise RuntimeError("internal error: optimizer returned an infeasible subset")
        alphas = sum(compress(alpha, kept))
    return OptResult(value_sum(inst.alpha, len(kept_idxs) - alphas, alphas), kept_idxs, tuple(sends))


def _keep_fitting(
    steps: Sequence[int], kept: list[bool], offered: Sequence[bool], capacity: int
) -> None:
    """Mark kept, in key order, each offered packet not yet kept that leaves the set feasible.

    `kept` must be feasible. With F(x) = (kept packets released by step x) - x,
    a packet at step s fits iff max_{y>=s} F - min_{x<s} F < capacity - 1.
    Every packet kept earlier in the pass sits at a step <= s, so the
    maximum is the starting set's suffix maximum (a backward pass over
    F at each packet's step) plus the count kept so far, and the minimum
    is a running one over F just before each packet's step.
    """
    n = len(steps)
    top = [0] * n  # max of F over the steps from steps[j] on, for the starting set
    count = sum(kept)  # kept packets at indices <= j
    high = count - steps[-1]
    for j in range(n - 1, -1, -1):
        f = count - steps[j]
        if f > high:
            high = f
        top[j] = high
        count -= kept[j]
    added = below = 0  # below: kept packets at indices < j
    low = 1 - steps[0]  # F just before the first release
    for j, step in enumerate(steps):
        f = below - step + 1
        if f < low:
            low = f
        if offered[j] and not kept[j] and top[j] + added - low < capacity - 1:
            kept[j] = True
            added += 1
        below += kept[j]


def brute_force_opt(inst: Instance) -> OptResult:
    """Maximum over all feasible subsets, by the greedy, in linear time.

    It keeps the name of the exhaustive search it replaced (same subset)
    because the CLI, the analysis and the benchmark tracer call it.
    """
    return _best_subset(inst, ())  # the empty requirement is always feasible


def opt_containing(inst: Instance, required_indices: Iterable[int]) -> OptResult | None:
    """Best feasible subset containing the arrivals at `required_indices`; None if none is."""
    return _best_subset(inst, required_indices)


def dp_opt(inst: Instance) -> Rat:
    """Optimum value as a tight weak-duality bound, in one integer pass per class.

    A schedule sends the packets released in steps [l, r] within [l, r + B - 1],
    so :func:`_cover` bounds |S & X| for a packet set X and every feasible S, and
    value(S) <= (alpha - 1) * cover(alpha packets) + cover(all packets). The bound
    is attained (Konig's theorem), so a feasible set reaching it is optimal. Each
    pass compares integers and calls no builtin per packet.
    """
    a, b = inst.alpha.as_integer_ratio()
    alpha_steps = compress(inst.steps, inst.is_alpha)
    return Fraction((a - b) * _cover(alpha_steps, inst.capacity) + b * _cover(inst.steps, inst.capacity), b)


def _cover(steps: Iterable[int], capacity: int) -> int:
    """Least cost of covering ascending `steps` by disjoint windows of release steps.

    A packet left out costs 1 and a window [l, r] costs r - l + capacity. `base` is the
    least (cover before l) - l + capacity so far, so a window ending at `step` costs
    base + step; its start, a window from step 0, never wins (steps start at 1). Each
    packet takes two integer comparisons and no call.
    """
    cover = 0
    base = capacity
    for step in steps:
        if cover + capacity - step < base:
            base = cover + capacity - step
        if base + step <= cover:
            cover = base + step
        else:
            cover += 1
    return cover
