"""Exact offline optimum for a FIFO buffer: feasibility, greedy optimum, DP.

A kept subset is delivered in arrival order, one packet per step, and an
arrival instant may never see more than B kept-but-unsent packets. Since
delaying a send never lowers future occupancy, sending the head as early
as possible is a complete feasibility test. One occupancy recurrence over
the kept packets' release steps decides it. A subset is feasible iff its
packets can be matched to distinct send slots in [step, step + B - 1], so
the feasible subsets form a transversal matroid (Glover 1967) and the
optimum is a greedy pick. The step simulation and the exhaustive enumeration
survive only as test oracles. :func:`dp_opt` reaches the same value
through an (arrival index, queue length) dynamic program.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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
    """Can this subset be fully delivered? Returns a witnessing schedule.

    The verdict is the occupancy recurrence of :func:`_feasible_steps`; the
    schedule sends each kept packet, in key order, at its release step or
    one step after the previous send, whichever is later.
    """
    chosen = set(packets)
    if not chosen <= set(inst.arrivals):
        raise ValueError("subset contains packets foreign to the instance")
    kept = [p for p in inst.arrivals if p in chosen]
    if not _feasible_steps(tuple(p.key.step for p in kept), inst.capacity):
        return False, None
    schedule: dict[Packet, int] = {}
    send = 0
    for p in kept:
        send = max(p.key.step, send + 1)
        schedule[p] = send
    return True, schedule


def _feasible_steps(steps: tuple[int, ...], capacity: int) -> bool:
    """Occupancy recurrence over the kept packets' release steps (ascending).

    Between consecutive kept arrivals, one send happens per elapsed step,
    so the queue decays by the step gap; agreement with a literal step
    simulation is property-tested.
    """
    q = 0
    prev = steps[0] if steps else 0
    for t in steps:
        q -= t - prev
        if q < 0:
            q = 0
        q += 1
        if q > capacity:
            return False
        prev = t
    return True


def _best_subset(inst: Instance, required: Iterable[Packet]) -> tuple[Rat, tuple[int, ...]] | None:
    """Maximum-value feasible subset containing `required`, as arrival indices.

    Seeded with `required`, the greedy offers the free alpha packets, then
    the free 1-value packets, each in key order, and keeps each that leaves
    the set feasible. Key order makes the result, among the optima, the one
    with the greatest indicator vector over arrivals (earliest preferred).
    """
    arr = inst.arrivals
    n = len(arr)
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"exhaustive search limited to {BRUTE_FORCE_LIMIT} packets, got {n}"
        )
    index_of = {p: i for i, p in enumerate(arr)}
    req_idx: set[int] = set()
    for p in required:
        if p not in index_of:
            raise ValueError(f"required packet {p.id!r} does not belong to this instance")
        req_idx.add(index_of[p])
    steps = tuple(p.key.step for p in arr)

    def feas(idxs: Iterable[int]) -> bool:
        return _feasible_steps(tuple(steps[i] for i in idxs), inst.capacity)

    kept = sorted(req_idx)
    if not feas(kept):
        return None
    if feas(range(n)):
        kept = list(range(n))
    else:
        for i in sorted(range(n), key=lambda i: not arr[i].is_alpha):  # alphas first (stable sort)
            if i not in req_idx:
                insort(kept, i)
                if not feas(kept):
                    kept.remove(i)
    a, b = inst.alpha.numerator, inst.alpha.denominator
    return Fraction(sum(a if arr[i].is_alpha else b for i in kept), b), tuple(kept)


def _as_result(inst: Instance, value: Rat, idxs: tuple[int, ...]) -> OptResult:
    packets = frozenset(inst.arrivals[i] for i in idxs)
    ok, schedule = feasible(inst, packets)
    if not ok:
        raise RuntimeError("internal error: optimizer returned an infeasible subset")
    return OptResult(value, packets, schedule)


def brute_force_opt(inst: Instance) -> OptResult:
    """Maximum over all feasible subsets, by the greedy (guarded instance size).

    It keeps the name of the exhaustive search it replaced (same subset)
    because the CLI, the analysis and the benchmark tracer call it.
    """
    value, idxs = _best_subset(inst, ())
    return _as_result(inst, value, idxs)


def opt_containing(inst: Instance, required: Iterable[Packet]) -> OptResult | None:
    """Best feasible subset containing `required`; None if no superset is feasible."""
    best = _best_subset(inst, required)
    if best is None:
        return None
    return _as_result(inst, *best)


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
