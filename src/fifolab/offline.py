"""Exact offline optimum for a FIFO buffer: feasibility, brute force, DP.

A kept subset is delivered in arrival order, one packet per step, and an
arrival instant may never see more than B kept-but-unsent packets. Since
delaying a send never lowers future occupancy, sending the head as early
as possible is a complete feasibility test. One occupancy recurrence over
the kept packets' release steps decides it, both in :func:`feasible` and
inside the exhaustive optimizer, which enumerates candidate subsets in
decreasing value order; the literal step-by-step simulation survives only
as a test oracle. :func:`dp_opt` reaches the same value through an
(arrival index, queue length) dynamic program so the two routes stay
independently comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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

    Enumerates value levels in decreasing order and stops at the first
    level with a feasible candidate. Ties within a level are broken
    toward the lexicographically greatest indicator vector over arrivals
    in key order (earliest packets preferred), so results are stable.
    """
    arr = inst.arrivals
    n = len(arr)
    if n > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"exhaustive search limited to {BRUTE_FORCE_LIMIT} packets, got {n}"
        )
    index_of = {p: i for i, p in enumerate(arr)}
    req_idx: list[int] = []
    for p in set(required):
        if p not in index_of:
            raise ValueError(f"required packet {p.id!r} does not belong to this instance")
        req_idx.append(index_of[p])
    req_idx.sort()
    steps = tuple(p.key.step for p in arr)
    capacity = inst.capacity

    def feas(idxs: tuple[int, ...]) -> bool:
        return _feasible_steps(tuple(steps[i] for i in idxs), capacity)

    if not feas(tuple(req_idx)):
        return None

    a, b = inst.alpha.numerator, inst.alpha.denominator
    weight = [a if p.is_alpha else b for p in arr]
    rank = [1 << (n - 1 - i) for i in range(n)]

    everything = tuple(range(n))
    if feas(everything):
        return Fraction(sum(weight), b), everything

    req_set = set(req_idx)
    free_alpha = [i for i in range(n) if arr[i].is_alpha and i not in req_set]
    free_one = [i for i in range(n) if not arr[i].is_alpha and i not in req_set]
    base = sum(weight[i] for i in req_idx)

    levels: dict[int, list[tuple[int, int]]] = {}
    for ka in range(len(free_alpha) + 1):
        for k1 in range(len(free_one) + 1):
            levels.setdefault(base + a * ka + b * k1, []).append((ka, k1))

    req_tuple = tuple(req_idx)
    for level in sorted(levels, reverse=True):
        best_rank = -1
        best_idxs: tuple[int, ...] | None = None
        for ka, k1 in levels[level]:
            for ca in combinations(free_alpha, ka):
                for c1 in combinations(free_one, k1):
                    idxs = tuple(sorted(req_tuple + ca + c1))
                    if feas(idxs):
                        r = sum(rank[i] for i in idxs)
                        if r > best_rank:
                            best_rank = r
                            best_idxs = idxs
        if best_idxs is not None:
            return Fraction(level, b), best_idxs
    return None  # unreachable: the required set itself is feasible


def _as_result(inst: Instance, value: Rat, idxs: tuple[int, ...]) -> OptResult:
    packets = frozenset(inst.arrivals[i] for i in idxs)
    ok, schedule = feasible(inst, packets)
    if not ok:
        raise RuntimeError("internal error: optimizer returned an infeasible subset")
    return OptResult(value, packets, schedule)


def brute_force_opt(inst: Instance) -> OptResult:
    """Exhaustive maximum over all feasible subsets (guarded instance size)."""
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

    Scales past the exhaustive-search limit; contracted to agree with
    :func:`brute_force_opt` wherever both run.
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
