"""Executable verification of the threshold policy's accounting argument.

Against a fixed optimal packet set O (canonically, the best optimum
containing every alpha packet the policy delivered), a relaxed reference
schedule replays the run: it accepts every O-packet on arrival and
mirrors the policy's send whenever that packet is an O-packet still in
its buffer, otherwise sending its earliest packet. Steps where the
relaxed schedule runs ahead of the policy link backward into *chains*,
recorded as it runs: from the step where it sent a packet, through the
step where it sent the policy's send of that step, and so on, down to a
head step where the policy sent a packet outside O.

The charge ledger then assigns every delivered value to exactly one
account: the policy is charged at each of its send steps; O-packets the
policy also sends are charged to the reference at those same steps; and
each O-packet the policy dropped is charged either at the head of a
chain (which is then closed, one charge per head) or as a lump on an
interval of consecutive alpha sends. Only the drop charges are decided,
so the ledger stores only them and the chains; the per-send charges are
the policy's sends, read off ``ropt.on.sends`` and the O-mask, and every
charge is worth its packet's value. Every structural claim the
accounting relies on is rechecked on the concrete traces: reference
capacity and completeness, send precedence, chain disjointness, head
shape, interval purity, exclusivity, and exact conservation of value.
A claim that fails to apply raises :class:`LedgerError` instead of being
patched over, surfacing the run as a counterexample.

No pass walks every step number or copies the buffer, and packets are
arrival indices throughout; steps and classes are read off the instance's
columns, and ids are rendered only to write text. Each stage takes the one
record the stage before it built and reads what that stage computed off
it: :func:`run_ropt` takes the policy's trace and O as the
:class:`~fifolab.offline.OptResult` the optimizer or
:func:`~fifolab.offline.feasible` built, with its earliest-send schedule,
and keeps both and the O-mask on its :class:`RoptTrace`; :func:`verify_ropt`
and :func:`build_ledger` take that, :func:`verify_ledger` the
:class:`ChargeLedger`. The reference schedule jumps over the steps at which
its buffer is empty. The reference checks and the ledger read the policy's
buffer off one replay of its event log,
:attr:`~fifolab.simulate.RunTrace.departures`, kept on the trace, so
:func:`analyze` replays the policy once. The checks take from it the step
each packet left: an O-packet is in the policy's buffer at a send step t,
with its chain live, exactly when the reference sent it by t and the
policy had not yet sent or dropped it, so the backlog maxima and chain
disjointness are sweeps over those intervals. The ledger walks only the
replay's drops and reads the alpha queue recorded at rejections and
preemptions; it and its check share the trace's map of where each run of
alpha sends ends. Every record here is a named tuple, as are the bound and
the packet (only a record that checks or caches is a dataclass); the
ones built on every call skip NamedTuple's Python-level constructor, and a
passing check without a detail is one shared record per check name. The
reference checks make one pass over O, and the ledger checks one pass over
the drop charges. The conservation check counts O's policy-sent packets and
the drop charges by class and compares the sum with O's value as scaled
integers; the ratio report tests ``ratio <= bound`` by cross-multiplying
integer numerators and denominators. The bounds, like
:meth:`~fifolab.simulate.Policy.on`, come from memos keyed on integers, so
no step of :func:`analyze` hashes a Fraction.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import Instance, Rat, ONE, format_rat, packet_id, packet_ids
from .offline import OptResult, brute_force_opt, dp_opt, opt_containing
from .simulate import EVICTED, PREEMPTED, REJECTED, Policy, RunTrace, run
from .theory import competitive_bound

SENT_BY_BOTH = "sent-by-both"
EVICTED_ALPHA_INTERVAL = "evicted-alpha-interval"
PREEMPTED_OPEN_CHAIN = "preempted-open-chain"
PREEMPTED_INTERVAL = "preempted-interval"
EVICTED_ONE_CHAIN = "evicted-one-chain"
REJECTED_ONE_CHAIN = "rejected-one-chain"

CHAIN_CHARGE_KINDS = frozenset({PREEMPTED_OPEN_CHAIN, EVICTED_ONE_CHAIN, REJECTED_ONE_CHAIN})


class LedgerError(RuntimeError):
    """A charging rule's stated precondition failed on a concrete run.

    This is a falsification signal: the offending instance is a
    counterexample to the accounting argument (or exposes a simulator
    bug) and must be surfaced, never patched over. ``step`` and ``packet``
    (an arrival index) locate it when one packet is at fault.
    """

    def __init__(self, message: str, step: int | None = None, packet: int | None = None):
        super().__init__(message)
        self.step = step
        self.packet = packet


# ---------------------------------------------------------------------------
# Relaxed reference schedule


class RoptTrace(NamedTuple):
    """The relaxed reference schedule: the step at which it sends each O-packet.

    ``on`` is the policy's trace it mirrors, and ``kept`` is O, whose
    ``sends`` are the reference's send steps. ``in_o`` is the O-mask and
    ``send_time`` the send step, both indexed like the arrivals of
    ``on.instance``; ``send_time`` is None for a packet the reference
    never sends. Every step that sends nothing has an empty reference buffer.

    ``link`` maps each send step that does not mirror the policy to the
    step at which the reference sent the policy's packet, or to None (a
    chain head) when that packet is outside O; ``head`` maps it to its
    chain's head. No step is linked from two later steps, so two chains
    share a step exactly when they share a head.
    """

    on: RunTrace
    kept: OptResult
    in_o: Sequence[bool]
    send_time: Sequence[int | None]
    link: Mapping[int, int | None]
    head: Mapping[int, int]

    def chain(self, index: int) -> tuple[int, ...]:
        """Ascending steps of the chain ending at the reference's send of arrival `index`."""
        steps = [self.send_time[index]]
        while (prev := self.link[steps[-1]]) is not None:
            steps.append(prev)
        return tuple(reversed(steps))


def run_ropt(on: RunTrace, kept: OptResult) -> RoptTrace:
    """Replay the reference schedule for O = `kept` against the run `on`.

    Accepts every O-packet at its arrival step; then, if the policy's
    send of the step is an O-packet still buffered here, mirrors it,
    otherwise sends the earliest buffered packet. Runs until the buffer
    drains, which may outlast the policy's own trace. The reference sends
    whenever its buffer is non-empty, so it is busy at exactly the steps
    of O's earliest-send schedule, ``kept.sends``; the loop visits only
    those steps and chooses which packet goes at each. `kept` is taken as
    the optimizer or :func:`~fifolab.offline.feasible` built it, which
    checked its indices and its deliverability.
    """
    n = len(on.instance.steps)
    in_o = [False] * n
    for i in kept.indices:
        in_o[i] = True
    # pending: the unsent O-packets in key order, so the buffer is its
    # released part; packets mirrored out of key order leave the front lazily
    pending = deque(kept.indices)
    send_time: list[int | None] = [None] * n
    link: dict[int, int | None] = {}
    head: dict[int, int] = {}
    for t in kept.sends:
        while send_time[pending[0]] is not None:
            pending.popleft()
        m = on.sends.get(t)
        if m is not None and in_o[m] and send_time[m] is None:
            send_time[m] = t
        else:
            send_time[pending.popleft()] = t
            # a policy-sent O-packet left here earlier, at a non-mirroring step
            prev = link[t] = None if m is None else send_time[m]
            head[t] = t if prev is None else head[prev]
    return RoptTrace(on, kept, in_o, send_time, link, head)


# ---------------------------------------------------------------------------
# Chains


class Chain(NamedTuple):
    """A chain of backward-linked steps, named by its owner.

    ``owner`` is the arrival index of the packet whose reference-send step
    ends the chain; its steps are ``ropt.chain(owner)`` and its head
    ``ropt.head[ropt.send_time[owner]]``. ``closing_charge`` is the arrival
    index of the packet charged at its head, or None while it is open.
    """

    owner: int
    closing_charge: int | None = None


# ---------------------------------------------------------------------------
# Charge ledger


class ChargeRecord(NamedTuple):
    """A drop charge: O-packet ``packet`` (an arrival index) at ``step`` or on ``interval``.

    The policy dropped the packet at ``drop_step``. The charge is worth the
    packet's value, alpha only for an evicted alpha packet, which is charged
    on an interval of alpha sends: :func:`build_ledger` raises on a rejected
    or preempted one.
    """

    packet: int
    kind: str
    step: int | None = None
    interval: tuple[int, int] | None = None
    drop_step: int | None = None


class ChargeLedger(NamedTuple):
    """The decided charges of one run: its drop charges and chains.

    The per-send charges are not stored: the policy is charged at each step
    of ``ropt.on.sends``, and the reference at the same step for each of
    those packets in O (``ropt.in_o``). Arrival indices are rows of
    ``ropt.on.instance``'s columns.
    """

    ropt: RoptTrace
    drop_charges: tuple[ChargeRecord, ...]
    chains: tuple[Chain, ...]
    diagnostics: Mapping[str, int]


def _id(inst: Instance, i: int) -> str:
    """The id of arrival `i`, rendered for a failure text."""
    return packet_id(inst.steps[i], inst.seqs[i])


def build_ledger(ropt: RoptTrace) -> ChargeLedger:
    """Materialize the charging scheme over concrete traces.

    Charges each dropped O-packet at a chain head (closing the chain) or
    as a lump on an interval; the charges at the policy's sends are those
    sends and are not recorded. Drop events are processed chronologically,
    arrival-phase drops before preemptions before the reference's own send
    of the step, because chain openness is stateful. A 1-value O-packet
    evicted before the reference has sent it gets its charge when that send
    happens; its chain is built from that very step. The drops and, at
    rejections and preemptions, the policy's alpha queue come from
    ``ropt.on.departures``.
    """
    on, inst = ropt.on, ropt.on.instance
    flags = inst.is_alpha
    in_o = ropt.in_o
    send_time = ropt.send_time

    charges: list[ChargeRecord] = []
    diagnostics = {
        "deferred-evictions": 0,
        "preempt-fallthrough-with-closed-chains": 0,
        "reject-context-non-o-packets": 0,
        "null-head-chains": 0,
    }

    # the closing charge per chain owner, None while its chain is open, in
    # first-touch order: the order of the ledger's chains
    closing: dict[int, int | None] = {}
    closed_heads: set[int] = set()

    def fail(message: str, step: int, i: int) -> LedgerError:
        return LedgerError(f"{message} (step {step}, packet {_id(inst, i)})", step, i)

    def head_of(owner: int) -> int:
        closing.setdefault(owner, None)
        return ropt.head[send_time[owner]]

    def close_chain(owner: int, charged: int, kind: str, drop_step: int) -> None:
        head = head_of(owner)
        if head in closed_heads:
            raise fail("chain head charged twice", head, charged)
        closed_heads.add(head)
        closing[owner] = charged
        if on.sends.get(head) is None:
            diagnostics["null-head-chains"] += 1
        charges.append(ChargeRecord(charged, kind, step=head, drop_step=drop_step))

    def sent_before(i: int, now: int) -> bool:
        """Has the reference sent arrival `i` before step `now`?"""
        sent = send_time[i]
        return sent is not None and sent < now

    def open_chain_candidates(alphas: Iterable[int], now: int) -> list[int]:
        """The policy's buffered alpha packets whose chain exists and is open."""
        return [j for j in alphas if sent_before(j, now) and head_of(j) not in closed_heads]

    # deferred evictions by (reference send step or math.inf, arrival index);
    # each closes its chain once the policy's events of that step are through
    deferred: list[tuple[float, int, int]] = []

    def reference_sends_before(step: int) -> None:
        while deferred and deferred[0][0] < step:
            _, i, drop_step = heapq.heappop(deferred)
            close_chain(i, i, EVICTED_ONE_CHAIN, drop_step=drop_step)

    # only drops push deferred evictions, and a drop pops every one sent
    # before its step, so popping at drops alone keeps the order of charges
    departures = on.departures
    for t, kind, i, ones_buffered, lo, hi in departures.drops:
        if deferred:
            reference_sends_before(t)
        is_alpha = flags[i]
        if kind is EVICTED and in_o[i]:
            if is_alpha:
                # the interval always includes the drop step itself, so
                # the purity check can catch a non-alpha send there
                end = on.alpha_run_ends.get(t + 1, t)
                charges.append(ChargeRecord(i, EVICTED_ALPHA_INTERVAL, interval=(t, end), drop_step=t))
            elif sent_before(i, t):
                close_chain(i, i, EVICTED_ONE_CHAIN, drop_step=t)
            else:
                sent = send_time[i]
                heapq.heappush(deferred, (math.inf if sent is None else sent, i, t))
                diagnostics["deferred-evictions"] += 1
        elif kind is REJECTED and in_o[i]:
            if is_alpha:
                raise fail("alpha packet self-rejected", t, i)
            if ones_buffered or hi - lo != inst.capacity:
                raise fail("rejection without a full all-alpha buffer", t, i)
            alphas = departures.alphas[lo:hi]
            diagnostics["reject-context-non-o-packets"] += sum(1 for q in alphas if not in_o[q])
            candidates = open_chain_candidates(alphas, t)
            if not candidates:
                raise fail("no open chain for rejected packet", t, i)
            close_chain(candidates[0], i, REJECTED_ONE_CHAIN, drop_step=t)
        elif kind is PREEMPTED:
            if is_alpha:
                raise fail("alpha packet preempted", t, i)
            if not in_o[i]:
                continue
            # only 1-value packets leave in a preemption, so the alpha
            # queue still holds the step's alpha context in order
            alphas = departures.alphas[lo:hi]
            candidates = open_chain_candidates(alphas, t)
            if candidates:
                close_chain(candidates[0], i, PREEMPTED_OPEN_CHAIN, drop_step=t)
            else:
                if any(sent_before(z, t) for z in alphas):
                    diagnostics["preempt-fallthrough-with-closed-chains"] += 1
                h = len(alphas)
                charges.append(ChargeRecord(i, PREEMPTED_INTERVAL, interval=(t, t + h - 1), drop_step=t))
    reference_sends_before(math.inf)

    if deferred:
        missing = ", ".join(sorted(_id(inst, i) for _, i, _ in deferred))
        raise LedgerError(f"evicted O-packets never sent by the reference: {missing}")

    chains = tuple(map(Chain, closing, closing.values()))
    return ChargeLedger(ropt, tuple(charges), chains, diagnostics)


# ---------------------------------------------------------------------------
# Check reports


class CheckStatus:
    PASS = "pass"
    FAIL = "fail"
    WARN = "warn"


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str = ""


class AnalysisReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == CheckStatus.FAIL)

    @property
    def warnings(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == CheckStatus.WARN)

    @property
    def ok(self) -> bool:
        return not self.failures


_PASS, _FAIL = CheckStatus.PASS, CheckStatus.FAIL  # bound once: each check reads one
_new = tuple.__new__  # a named tuple from all its fields, without NamedTuple's Python-level __new__


@lru_cache(maxsize=None)
def _passed(name: str) -> CheckResult:
    """The passing result of check `name` with no detail: one record per name, built once."""
    return CheckResult(name, _PASS)


def _result(name: str, ok: bool, detail: str = "") -> CheckResult:
    if ok and not detail:
        return _passed(name)
    return _new(CheckResult, (name, _PASS if ok else _FAIL, detail))


@lru_cache(maxsize=1024)
def _backlog_bound(capacity: int, a: int, b: int, c: int, d: int) -> tuple[int, int, str]:
    """B*beta/(alpha+beta) at alpha = a/b, beta = c/d: B*c*b, a*d + c*b, and its text as a Fraction's."""
    scaled, den = capacity * c * b, a * d + c * b
    g = math.gcd(scaled, den)
    return scaled, den, f"{scaled // g}" if den == g else f"{scaled // g}/{den // g}"


def verify_ropt(ropt: RoptTrace) -> AnalysisReport:
    """Structural checks on the reference schedule against the policy trace ``ropt.on``.

    Capacity safety at every acceptance instant, completeness (every
    O-packet sent exactly once), send precedence (the reference is never
    later than the policy on a shared packet), live-chain disjointness,
    and the buffered-backlog diagnostic with both the alpha-only and
    any-value counts against the bound B*beta/(alpha+beta).

    The replay of the policy's buffer (``on.departures``) gives the step
    at which each packet left it; the live chains at every send step are
    then interval sweeps over those departures. O's indices and its
    ascending send steps are read off ``ropt.kept``.
    """
    on, inst = ropt.on, ropt.on.instance
    in_o = ropt.in_o
    o_idx, ropt_steps = ropt.kept.indices, ropt.kept.sends
    send_time = ropt.send_time
    steps, flags, capacity = inst.steps, inst.is_alpha, inst.capacity
    # leave[i]: the step packet i left the policy's buffer (see Departures)
    leave, on_steps = on.departures.left, list(on.sends)
    checks: list[CheckResult] = []

    # One pass over O. The reference accepts O-packets in key order and, by
    # then, has sent one packet at each of its send steps before the
    # acceptance step, so `before` only grows. An O-packet z is in the
    # policy's buffer just after its send at step t, with the reference
    # already through it, exactly when send_time(z) <= t < leave(z):
    # positions [lo, hi) of on_steps, empty when z left by send_time(z), as
    # a packet both send at one step does. Each such packet owns a live
    # chain, and their count is the backlog.
    capacity_breach = ""
    before = unsent = 0
    spans: list[tuple[int, int, int]] = []  # (lo, hi, arrival index)
    for k, i in enumerate(o_idx, start=1):
        step = steps[i]
        before = bisect_left(ropt_steps, step, before)
        if k - before > capacity and not capacity_breach:
            capacity_breach = f"occupancy {k - before} at step {step} accepting {_id(inst, i)}"
        sent = send_time[i]
        if sent is None:
            unsent += 1
            continue
        left = leave[i]
        if left is None or left <= sent:
            continue
        lo = bisect_left(on_steps, sent)
        hi = bisect_left(on_steps, left, lo)
        if lo < hi:
            spans.append((lo, hi, i))
    checks.append(_result("ropt-capacity", not capacity_breach, capacity_breach))

    # sends outside O: every send minus those of the O-packets
    if unsent or len(send_time) - send_time.count(None) != len(o_idx) - unsent:
        missing = sorted([_id(inst, i) for i in o_idx if send_time[i] is None])
        extra = sorted([_id(inst, i) for i, t in enumerate(send_time) if t is not None and not in_o[i]])
        checks.append(_result("ropt-sends-all", False, f"missing={missing} extra={extra}"))
    else:
        checks.append(_passed("ropt-sends-all"))

    late = []
    for t, i in on.sends.items():
        if in_o[i] and (send_time[i] is None or send_time[i] > t):
            late.append((t, _id(inst, i)))
    checks.append(
        _result("send-precedence", not late, f"reference later than policy at {late}" if late else "")
    )

    max_any = max_alpha = 0
    if spans:
        any_diff = [0] * (len(on_steps) + 1)
        alpha_diff = [0] * (len(on_steps) + 1)
        for lo, hi, i in spans:
            any_diff[lo] += 1
            any_diff[hi] -= 1
            if flags[i]:
                alpha_diff[lo] += 1
                alpha_diff[hi] -= 1
        max_any = max(accumulate(any_diff))
        max_alpha = max(accumulate(alpha_diff))

    # Chains that share any step share their head, the first step of each,
    # so live chains overlap where two spans with one head overlap. In a
    # group sorted by start, the first start below the running end of the
    # earlier spans is the group's earliest overlap.
    by_head: dict[int, list[tuple[int, int]]] = {}
    for lo, hi, i in spans:
        by_head.setdefault(ropt.head[send_time[i]], []).append((lo, hi))
    first: int | None = None
    for group in by_head.values():
        group.sort()
        reach = group[0][1]
        for lo, hi in group[1:]:
            if lo < reach:
                if first is None or lo < first:
                    first = lo
                break
            reach = max(reach, hi)
    overlap = ""
    if first is not None:
        # name the pair as a walk of the buffer at that step would, in key order
        t = on_steps[first]
        owners: dict[int, int] = {}
        for lo, hi, i in spans:
            if lo <= first < hi:
                head = ropt.head[send_time[i]]
                owner = owners.setdefault(head, i)
                if owner != i:
                    overlap = f"step {head} shared by chains of {_id(inst, owner)} and {_id(inst, i)} at t={t}"
                    break
    checks.append(_result("chains-disjoint", not overlap, overlap))

    if on.policy.beta is not None:
        a, b = inst.alpha.as_integer_ratio()
        scaled, den, bound = _backlog_bound(capacity, a, b, *on.policy.beta.as_integer_ratio())
        detail = f"max alpha backlog {max_alpha}, max any {max_any}, bound {bound}"
        status = _PASS if max_alpha * den < scaled else CheckStatus.WARN
        checks.append(_new(CheckResult, ("backlog-bound", status, detail)))

    return AnalysisReport(tuple(checks))


def verify_ledger(ledger: ChargeLedger) -> AnalysisReport:
    """Accounting checks over a built ledger.

    Exact conservation on the reference's side (the policy's holds by
    construction: ``on.totals`` is summed from the very sends the policy is
    charged at); interval purity (charged intervals contain only alpha
    sends); exclusivity (no alpha-eviction charge drops inside a preemption
    interval); closed-chain head shape (the policy sends a 1-value non-O
    packet there, idle heads reported as warnings); and single closure per
    head. One pass over the drop charges sorts out what each check reads.
    """
    ropt = ledger.ropt
    on, inst = ropt.on, ropt.on.instance
    in_o, flags = ropt.in_o, inst.is_alpha
    checks: list[CheckResult] = []
    # the reference's charges by class: the O-packets the policy sent, then the drops
    sent = [flags[i] for i in on.sends.values() if in_o[i]]
    alphas, charged = sum(sent), len(sent) + len(ledger.drop_charges)
    eviction_drops: list[int] = []  # ascending: the ledger records alpha evictions in event order
    preemptions: list[tuple[int, int]] = []
    intervals: list[ChargeRecord] = []
    head_steps: list[int] = []
    for rec in ledger.drop_charges:
        alphas += flags[rec.packet]
        if rec.interval is not None:
            intervals.append(rec)
        kind = rec.kind
        if kind == EVICTED_ALPHA_INTERVAL:
            eviction_drops.append(rec.drop_step)
        elif kind == PREEMPTED_INTERVAL:
            preemptions.append(rec.interval)
        elif kind in CHAIN_CHARGE_KINDS:
            head_steps.append(rec.step)

    # scaled by alpha = a/b's denominator and cross-multiplied against the
    # value O's builder summed
    a, b = inst.alpha.as_integer_ratio()
    scaled = alphas * a + (charged - alphas) * b
    value = ropt.kept.value
    o_num, o_den = value.as_integer_ratio()
    conserved = scaled * o_den == o_num * b
    detail = "" if conserved else f"reference charges {Fraction(scaled, b)} vs optimum value {value}"
    checks.append(_result("charge-conservation", conserved, detail))

    exclusivity_breach = ""
    if eviction_drops:
        for lo, hi in preemptions:
            inside = eviction_drops[bisect_left(eviction_drops, lo) : bisect_right(eviction_drops, hi)]
            if inside:
                exclusivity_breach = (
                    f"alpha evictions at {inside} inside preemption interval [{lo}, {hi}]"
                )
                break
    checks.append(_result("interval-exclusive", not exclusivity_breach, exclusivity_breach))

    # the first step of [lo, hi] that is no alpha send follows the run of
    # alpha sends from lo; a run with no interval charge never builds the map
    impure = ""
    for rec in intervals:
        lo, hi = rec.interval
        if (end := on.alpha_run_ends.get(lo, lo - 1)) < hi:
            packet = _id(inst, rec.packet)
            impure = f"interval [{lo}, {hi}] of {packet}: step {end + 1} is not an alpha send"
            break
    checks.append(_result("alpha-send-intervals", not impure, impure))

    bad_head = ""
    null_heads = closed = 0
    for chain in ledger.chains:
        if chain.closing_charge is None:
            continue
        closed += 1
        head = ropt.head[ropt.send_time[chain.owner]]
        q = on.sends.get(head)
        if q is None:
            null_heads += 1
        elif (in_o[q] or inst.is_alpha[q]) and not bad_head:
            what = "O-packet" if in_o[q] else "alpha packet"
            bad_head = f"head {head} of {_id(inst, chain.owner)}'s chain sends {what} {_id(inst, q)}"
    if bad_head:
        checks.append(CheckResult("chain-heads", _FAIL, bad_head))
    elif null_heads:
        checks.append(
            CheckResult("chain-heads", CheckStatus.WARN, f"{null_heads} closed chain head(s) on idle steps")
        )
    else:
        checks.append(_passed("chain-heads"))

    closure = ""
    if len(set(head_steps)) < len(head_steps):
        duplicates = sorted(s for s, n in Counter(head_steps).items() if n > 1)
        closure = f"duplicated head charges at {duplicates}"
    elif closed != len(head_steps):
        closure = f"{closed} closed chains vs {len(head_steps)} chain-head charges"
    checks.append(_result("single-closure", not closure, closure))

    return AnalysisReport(tuple(checks))


# ---------------------------------------------------------------------------
# Ratio reports and whole-instance analysis


class RatioReport(NamedTuple):
    """OPT/ON as one exact ``ratio``; ``within_bound`` tests it against the competitive ``bound``."""

    policy_value: Rat
    opt_value: Rat
    ratio: Rat
    bound: Rat
    within_bound: bool


def _make_ratio(policy_value: Rat, opt_value: Rat, alpha: Rat, beta: Rat) -> RatioReport:
    # A run's value is 0 only on an empty instance, whose optimum is 0 and
    # ratio 1: the first arrival enters an empty buffer of capacity >= 1, a
    # preemption drops only 1-value packets ahead of the last alpha, and a
    # non-empty buffer always sends. A zero value against a positive optimum
    # cannot occur, and would raise ZeroDivisionError.
    bound = competitive_bound(alpha, beta).bound
    bound_num, bound_den = bound.as_integer_ratio()
    opt_num, opt_den = opt_value.as_integer_ratio()
    policy_num, policy_den = policy_value.as_integer_ratio()
    num, den = (opt_num * policy_den, opt_den * policy_num) if opt_num else (1, 1)
    within = num * bound_den <= bound_num * den
    return RatioReport(policy_value, opt_value, Fraction(num, den), bound, within)


def policy_ratio(policy: Policy, inst: Instance, reference_beta: Rat) -> RatioReport:
    """Ratio of the offline optimum to an arbitrary policy's value."""
    trace = run(policy, inst)
    opt_value = brute_force_opt(inst).value
    return _make_ratio(trace.totals, opt_value, inst.alpha, reference_beta)


class InstanceAnalysis(NamedTuple):
    instance: Instance
    ropt: RoptTrace  # ``on``: the policy's run, its beta on ``on.policy``; ``kept``: the canonical optimum
    ledger: ChargeLedger | None
    report: AnalysisReport
    ratio: RatioReport


def analyze(inst: Instance, beta: Rat) -> InstanceAnalysis:
    """Run the policy, fix the canonical optimum, and verify everything.

    The optimum is the best feasible set containing every alpha packet
    the policy delivered; its value matching the unconstrained optimum is
    itself one of the hard checks. A ledger that cannot be built is
    reported as a failed check carrying the falsification message.
    """
    on = run(Policy.on(beta), inst)
    exhaustive = brute_force_opt(inst)
    flags = inst.is_alpha
    alpha_sends = [i for i in on.sends.values() if flags[i]]
    # The greedy seeded with S = alpha_sends offers the free packets in the
    # unseeded greedy's order. If its optimum G contains S, the seeded one
    # keeps each packet of G (G is feasible) and drops each other packet
    # (the unseeded one dropped it against a subset of G), so it returns G.
    if set(alpha_sends).issubset(exhaustive.indices):
        optimum = exhaustive
    else:
        optimum = opt_containing(inst, alpha_sends)
    if optimum is None:
        raise RuntimeError("delivered alpha packets must form a deliverable set")
    dp_value = dp_opt(inst)
    # the details print each value; two Fractions, always in lowest terms,
    # are equal exactly when their texts are
    best = str(exhaustive.value)
    constrained = best if optimum is exhaustive else str(optimum.value)
    dp_text = str(dp_value)
    checks = [
        _result(
            "optimum-contains-alpha-sends",
            constrained == best,
            f"constrained {constrained} vs unconstrained {best}",
        ),
        _result("oracle-agreement", dp_text == best, f"dp {dp_text} vs exhaustive {best}"),
    ]
    ropt = run_ropt(on, optimum)
    checks += verify_ropt(ropt).checks

    ledger: ChargeLedger | None
    try:
        ledger = build_ledger(ropt)
    except LedgerError as exc:
        ledger = None
        checks.append(CheckResult("charging-complete", CheckStatus.FAIL, str(exc)))
    else:
        checks.append(_passed("charging-complete"))
        checks += verify_ledger(ledger).checks

    ratio = _make_ratio(on.totals, exhaustive.value, inst.alpha, beta)
    detail = f"ratio {ratio.ratio} vs bound {ratio.bound}"
    checks.append(_result("ratio-bound", ratio.within_bound, detail))
    report = AnalysisReport(tuple(checks))
    return InstanceAnalysis(inst, ropt, ledger, report, ratio)


def format_report(report: AnalysisReport) -> str:
    """Fixed-width table of check verdicts for terminal output; empty for no checks."""
    if not report.checks:
        return ""
    width = max(len(c.name) for c in report.checks)
    lines = []
    for c in report.checks:
        line = f"{c.name.ljust(width)}  {c.status.upper():4}"
        if c.detail:
            line += f"  {c.detail}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def format_ledger(ledger: ChargeLedger) -> str:
    """Line-oriented ledger export, stable for golden-file comparison.

    Ids are rendered from the instance's columns. The per-send lines come
    from the policy's sends: one ``on`` line per send, and a ``sent-by-both``
    charge for each sent O-packet. Charges sort by (step or interval start,
    arrival index): key order, in a valid instance.
    """
    ropt = ledger.ropt
    sends, inst = ropt.on.sends, ropt.on.instance
    ids, flags = packet_ids(inst.steps, inst.seqs), inst.is_alpha
    values = (format_rat(ONE), format_rat(inst.alpha))  # indexed by the alpha flag
    lines = [f"on {t} {values[flags[sends[t]]]}" for t in sorted(sends)]
    charges = [
        (t, i, f"{SENT_BY_BOTH} {ids[i]} {values[flags[i]]} step {t}")
        for t, i in sends.items() if ropt.in_o[i]
    ]
    for rec in ledger.drop_charges:
        i = rec.packet
        if rec.interval is None:
            start, target = rec.step, f"step {rec.step}"
        else:
            start, target = rec.interval[0], f"interval {rec.interval[0]} {rec.interval[1]}"
        charges.append((start, i, f"{rec.kind} {ids[i]} {values[flags[i]]} {target}"))
    charges.sort(key=lambda c: c[:2])
    lines += [f"ropt {text}" for _, _, text in charges]
    # distinct owners end at distinct steps, so no two walks are equal
    for steps, (owner, charged) in sorted((ropt.chain(c.owner), c) for c in ledger.chains):
        status = "open" if charged is None else "closed"
        closing = "-" if charged is None else ids[charged]
        lines.append(f"chain {ids[owner]} {status} {closing} " + " ".join(map(str, steps)))
    return "\n".join(lines) + "\n"
