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
interval of consecutive alpha sends. Every structural claim the
accounting relies on is rechecked on the concrete traces: reference
capacity and completeness, send precedence, chain disjointness, head
shape, interval purity, exclusivity, and exact conservation of value.
A claim that fails to apply raises :class:`LedgerError` instead of being
patched over, surfacing the run as a counterexample.

No pass walks every step number or copies the buffer: the reference
schedule jumps over the steps at which its buffer is empty, and the
checks and the ledger read the policy's live buffer while replaying its
events.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .model import Instance, Packet, Rat, ONE, total_value, value_of
from .offline import OptResult, brute_force_opt, dp_opt, feasible, opt_containing
from .simulate import EventKind, Policy, RunTrace, replay_events, run
from .theory import BoundBreakdown, competitive_bound

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
    bug) and must be surfaced, never patched over.
    """

    def __init__(self, message: str, step: int | None = None, packet: Packet | None = None):
        context = []
        if step is not None:
            context.append(f"step {step}")
        if packet is not None:
            context.append(f"packet {packet.id}")
        suffix = f" ({', '.join(context)})" if context else ""
        super().__init__(message + suffix)
        self.step = step
        self.packet = packet


# ---------------------------------------------------------------------------
# Relaxed reference schedule


@dataclass(frozen=True)
class RoptTrace:
    """The relaxed reference schedule: the step at which it sends each O-packet.

    ``last_step`` is its final send step (0 when O is empty). Every step
    that sends nothing has an empty reference buffer.

    ``link`` maps each send step that does not mirror the policy to the
    step at which the reference sent the policy's packet, or to None (a
    chain head) when that packet is outside O; ``head`` maps it to its
    chain's head. No step is linked from two later steps, so two chains
    share a step exactly when they share a head.
    """

    send_time: Mapping[Packet, int]
    last_step: int
    link: Mapping[int, int | None]
    head: Mapping[int, int]

    def chain(self, packet: Packet) -> tuple[int, ...]:
        """Ascending steps of the chain ending at the reference's send of `packet`."""
        steps = [self.send_time[packet]]
        while (prev := self.link[steps[-1]]) is not None:
            steps.append(prev)
        return tuple(reversed(steps))


def run_ropt(inst: Instance, chosen: Iterable[Packet], on: RunTrace) -> RoptTrace:
    """Replay the reference schedule for O = `chosen` against the policy trace.

    Accepts every O-packet at its arrival step; then, if the policy's
    send of the step is an O-packet still buffered here, mirrors it,
    otherwise sends the earliest buffered packet. Runs until the buffer
    drains, which may outlast the policy's own trace. The reference sends
    whenever its buffer is non-empty, so it is busy at exactly the steps
    of O's earliest-send schedule from :func:`feasible`; the loop visits
    only those steps and chooses which packet goes at each.
    """
    o_set = frozenset(chosen)
    ok, schedule = feasible(inst, o_set)
    if not ok:
        raise ValueError("chosen packet set is not deliverable offline")
    # pending: the unsent O-packets in key order, so the buffer is its
    # released part; packets mirrored out of key order leave the front lazily
    pending = deque(schedule)
    send_time: dict[Packet, int] = {}
    link: dict[int, int | None] = {}
    head: dict[int, int] = {}
    t = 0
    for t in schedule.values():
        while pending[0] in send_time:
            pending.popleft()
        mirrored = on.sends.get(t)
        if mirrored in o_set and mirrored not in send_time:
            send_time[mirrored] = t
        else:
            send_time[pending.popleft()] = t
            # a policy-sent O-packet left here earlier, at a non-mirroring step
            prev = link[t] = send_time.get(mirrored)
            head[t] = t if prev is None else head[prev]
    return RoptTrace(send_time, t, link, head)


# ---------------------------------------------------------------------------
# Chains


@dataclass(frozen=True)
class Chain:
    """Backward-linked steps coupling reference sends to policy sends.

    ``steps`` ascend; at every step after the head, the policy sends the
    packet the reference sent one link earlier; at the head the policy's
    send is outside O. ``owner`` is the packet whose reference-send step
    ends the chain.
    """

    owner: Packet
    steps: tuple[int, ...]
    status: str  # "open" | "closed"
    closing_charge: Packet | None = None

    @property
    def head(self) -> int:
        return self.steps[0]


# ---------------------------------------------------------------------------
# Charge ledger


@dataclass(frozen=True)
class ChargeRecord:
    packet: Packet
    kind: str
    amount: Rat
    step: int | None = None
    interval: tuple[int, int] | None = None
    drop_step: int | None = None


@dataclass(frozen=True)
class ChargeLedger:
    on_charges: Mapping[int, Rat]
    ropt_charges: tuple[ChargeRecord, ...]
    chains: tuple[Chain, ...]
    diagnostics: Mapping[str, int]


def build_ledger(
    inst: Instance, chosen: Iterable[Packet], on: RunTrace, ropt: RoptTrace
) -> ChargeLedger:
    """Materialize the charging scheme over concrete traces.

    Point charges for packets the policy sends; for dropped O-packets,
    chain-head charges (closing the chain) or interval lumps. Drop
    events are processed chronologically, arrival-phase drops before
    preemptions before the reference's own send of the step, because
    chain openness is stateful. A 1-value O-packet evicted before the
    reference has sent it gets its charge when that send happens; its
    chain is built from that very step.
    """
    o_set = frozenset(chosen)
    alpha = inst.alpha
    send_time = ropt.send_time

    on_charges: dict[int, Rat] = {}
    charges: list[ChargeRecord] = []
    diagnostics = {
        "deferred-evictions": 0,
        "preempt-fallthrough-with-closed-chains": 0,
        "reject-context-non-o-packets": 0,
        "null-head-chains": 0,
    }

    for t, p in on.sends.items():
        on_charges[t] = value_of(p, alpha)
        if p in o_set:
            charges.append(ChargeRecord(p, SENT_BY_BOTH, value_of(p, alpha), step=t))

    # the closing charge per chain owner, None while its chain is open, in
    # first-touch order: the order of the ledger's chains
    closing: dict[Packet, Packet | None] = {}
    closed_heads: set[int] = set()

    def head_of(owner: Packet) -> int:
        closing.setdefault(owner, None)
        return ropt.head[send_time[owner]]

    def close_chain(owner: Packet, charged: Packet, kind: str, drop_step: int) -> None:
        head = head_of(owner)
        if head in closed_heads:
            raise LedgerError("chain head charged twice", step=head, packet=charged)
        closed_heads.add(head)
        closing[owner] = charged
        if on.sends.get(head) is None:
            diagnostics["null-head-chains"] += 1
        charges.append(ChargeRecord(charged, kind, ONE, step=head, drop_step=drop_step))

    def open_chain_candidates(buffered: list[Packet], now: int) -> list[Packet]:
        """Alpha packets in the policy's buffer whose chain exists and is open."""
        out = []
        for z in buffered:
            if z.is_alpha and send_time.get(z, now) < now:
                if head_of(z) not in closed_heads:
                    out.append(z)
        return out

    def interval_end_of_alpha_run(start: int) -> int:
        """Last step of the run of alpha sends beginning after `start`."""
        t = start + 1
        while (q := on.sends.get(t)) is not None and q.is_alpha:
            t += 1
        return t - 1

    # the reference's sends in step order; each closes a deferred eviction's
    # chain once the policy's events of its step are through
    ref_sends = sorted(send_time.items(), key=lambda item: item[1])
    next_send = 0
    deferred: dict[Packet, int] = {}

    def reference_sends_before(step: int) -> None:
        nonlocal next_send
        while next_send < len(ref_sends) and ref_sends[next_send][1] < step:
            q = ref_sends[next_send][0]
            next_send += 1
            if q in deferred:
                close_chain(q, q, EVICTED_ONE_CHAIN, drop_step=deferred.pop(q))

    for event, buf in replay_events(on):
        t = event.step
        p = event.packet
        reference_sends_before(t)
        if event.kind is EventKind.EVICTED and p in o_set:
            if p.is_alpha:
                # the interval always includes the drop step itself, so
                # the purity check can catch a non-alpha send there
                end = interval_end_of_alpha_run(t)
                charges.append(
                    ChargeRecord(p, EVICTED_ALPHA_INTERVAL, alpha, interval=(t, end), drop_step=t)
                )
            elif send_time.get(p, t) < t:
                close_chain(p, p, EVICTED_ONE_CHAIN, drop_step=t)
            else:
                deferred[p] = t
                diagnostics["deferred-evictions"] += 1
        elif event.kind is EventKind.REJECTED and p in o_set:
            if p.is_alpha:
                raise LedgerError("alpha packet self-rejected", step=t, packet=p)
            if len(buf) != inst.capacity or not all(q.is_alpha for q in buf):
                raise LedgerError("rejection without a full all-alpha buffer", step=t, packet=p)
            diagnostics["reject-context-non-o-packets"] += sum(1 for q in buf if q not in o_set)
            candidates = open_chain_candidates(buf, t)
            if not candidates:
                raise LedgerError("no open chain for rejected packet", step=t, packet=p)
            close_chain(candidates[0], p, REJECTED_ONE_CHAIN, drop_step=t)
        elif event.kind is EventKind.PREEMPTED:
            if p.is_alpha:
                raise LedgerError("alpha packet preempted", step=t, packet=p)
            if p not in o_set:
                continue
            # only 1-value packets leave in a preemption, so the live
            # buffer still holds the step's alpha context in order
            candidates = open_chain_candidates(buf, t)
            if candidates:
                close_chain(candidates[0], p, PREEMPTED_OPEN_CHAIN, drop_step=t)
            else:
                if any(send_time.get(z, t) < t for z in buf if z.is_alpha):
                    diagnostics["preempt-fallthrough-with-closed-chains"] += 1
                h = sum(1 for q in buf if q.is_alpha)
                charges.append(
                    ChargeRecord(p, PREEMPTED_INTERVAL, ONE, interval=(t, t + h - 1), drop_step=t)
                )
    reference_sends_before(ropt.last_step + 1)

    if deferred:
        missing = ", ".join(sorted(p.id for p in deferred))
        raise LedgerError(f"evicted O-packets never sent by the reference: {missing}")

    chains = tuple(
        Chain(owner, ropt.chain(owner), "open" if charged is None else "closed", charged)
        for owner, charged in closing.items()
    )
    return ChargeLedger(dict(on_charges), tuple(charges), chains, diagnostics)


# ---------------------------------------------------------------------------
# Check reports


class CheckStatus:
    PASS = "pass"
    FAIL = "fail"
    WARN = "warn"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class AnalysisReport:
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


def _result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, CheckStatus.PASS if ok else CheckStatus.FAIL, detail)


def verify_ropt(
    inst: Instance, chosen: Iterable[Packet], on: RunTrace, ropt: RoptTrace
) -> AnalysisReport:
    """Structural checks on the reference schedule against the policy trace.

    Capacity safety at every acceptance instant, completeness (every
    O-packet sent exactly once), send precedence (the reference is never
    later than the policy on a shared packet), live-chain disjointness,
    and the buffered-backlog diagnostic with both the alpha-only and
    any-value counts against the bound B*beta/(alpha+beta).
    """
    o_set = frozenset(chosen)
    checks: list[CheckResult] = []

    # the reference accepts O-packets in key order and, by then, has sent
    # one packet at each send step before the acceptance step
    send_steps = sorted(ropt.send_time.values())
    capacity_breach = ""
    for k, p in enumerate((p for p in inst.arrivals if p in o_set), start=1):
        occupancy = k - bisect_left(send_steps, p.key.step)
        if occupancy > inst.capacity:
            capacity_breach = f"occupancy {occupancy} at step {p.key.step} accepting {p.id}"
            break
    checks.append(_result("ropt-capacity", not capacity_breach, capacity_breach))

    missing = sorted(p.id for p in o_set if p not in ropt.send_time)
    extra = sorted(p.id for p in ropt.send_time if p not in o_set)
    checks.append(
        _result(
            "ropt-sends-all",
            not missing and not extra,
            f"missing={missing} extra={extra}" if missing or extra else "",
        )
    )

    late = [
        (t, p.id)
        for t, p in on.sends.items()
        if p in o_set and ropt.send_time.get(p, t + 1) > t
    ]
    checks.append(
        _result("send-precedence", not late, f"reference later than policy at {late}" if late else "")
    )

    # One pass over the policy's sends (an idle step's buffer is empty). The
    # O-packets the reference has already sent but the policy still buffers
    # each own a chain, and simultaneously live chains must not share steps;
    # their count is also the backlog. Chains that share any step share their
    # head, the first step of each. The search stops at the first overlap,
    # the maxima do not.
    overlap = ""
    max_alpha = 0
    max_any = 0
    for event, buf in replay_events(on):
        if event.kind is not EventKind.SENT:
            continue
        t = event.step
        live = [z for z in buf if z in o_set and ropt.send_time.get(z, t + 1) <= t]
        max_any = max(max_any, len(live))
        max_alpha = max(max_alpha, sum(1 for z in live if z.is_alpha))
        if overlap:
            continue
        owners: dict[int, Packet] = {}
        for z in live:
            head = ropt.head[ropt.send_time[z]]
            owner = owners.setdefault(head, z)
            if owner is not z:
                overlap = f"step {head} shared by chains of {owner.id} and {z.id} at t={t}"
                break
    checks.append(_result("chains-disjoint", not overlap, overlap))

    if on.policy.kind == "on":
        beta = on.policy.beta
        bound = Fraction(inst.capacity) * beta / (inst.alpha + beta)
        strict_ok = Fraction(max_alpha) < bound
        detail = f"max alpha backlog {max_alpha}, max any {max_any}, bound {bound}"
        checks.append(
            CheckResult(
                "backlog-bound",
                CheckStatus.PASS if strict_ok else CheckStatus.WARN,
                detail,
            )
        )

    return AnalysisReport(tuple(checks))


def verify_ledger(
    ledger: ChargeLedger, inst: Instance, chosen: Iterable[Packet], on: RunTrace
) -> AnalysisReport:
    """Accounting checks over a built ledger.

    Exact conservation on both sides; interval purity (charged intervals
    contain only alpha sends); exclusivity (no alpha-eviction charge
    drops inside a preemption interval); closed-chain head shape (the
    policy sends a 1-value non-O packet there, idle heads reported as
    warnings); and single closure per head.
    """
    o_set = frozenset(chosen)
    checks: list[CheckResult] = []

    ropt_total = sum((rec.amount for rec in ledger.ropt_charges), Fraction(0))
    expected = total_value(inst, o_set)
    on_total = sum(ledger.on_charges.values(), Fraction(0))
    conserved = ropt_total == expected and on_total == on.totals
    checks.append(
        _result(
            "charge-conservation",
            conserved,
            "" if conserved else (
                f"reference charges {ropt_total} vs optimum value {expected}; "
                f"policy charges {on_total} vs delivered {on.totals}"
            ),
        )
    )

    eviction_drops = [
        rec.drop_step for rec in ledger.ropt_charges if rec.kind == EVICTED_ALPHA_INTERVAL
    ]
    exclusivity_breach = ""
    for rec in ledger.ropt_charges:
        if rec.kind != PREEMPTED_INTERVAL:
            continue
        lo, hi = rec.interval
        inside = [d for d in eviction_drops if lo <= d <= hi]
        if inside:
            exclusivity_breach = (
                f"alpha evictions at {inside} inside preemption interval [{lo}, {hi}]"
            )
            break
    checks.append(_result("interval-exclusive", not exclusivity_breach, exclusivity_breach))

    impure = ""
    for rec in ledger.ropt_charges:
        if rec.interval is None:
            continue
        lo, hi = rec.interval
        for s in range(lo, hi + 1):
            q = on.sends.get(s)
            if q is None or not q.is_alpha:
                impure = f"interval [{lo}, {hi}] of {rec.packet.id}: step {s} is not an alpha send"
                break
        if impure:
            break
    checks.append(_result("alpha-send-intervals", not impure, impure))

    bad_head = ""
    null_heads = 0
    for chain in ledger.chains:
        if chain.status != "closed":
            continue
        q = on.sends.get(chain.head)
        if q is None:
            null_heads += 1
        elif q in o_set:
            bad_head = f"head {chain.head} of {chain.owner.id}'s chain sends O-packet {q.id}"
            break
        elif q.is_alpha:
            bad_head = f"head {chain.head} of {chain.owner.id}'s chain sends alpha packet {q.id}"
            break
    if bad_head:
        checks.append(CheckResult("chain-heads", CheckStatus.FAIL, bad_head))
    elif null_heads:
        checks.append(
            CheckResult("chain-heads", CheckStatus.WARN, f"{null_heads} closed chain head(s) on idle steps")
        )
    else:
        checks.append(CheckResult("chain-heads", CheckStatus.PASS))

    head_charges = Counter(
        rec.step for rec in ledger.ropt_charges if rec.kind in CHAIN_CHARGE_KINDS
    )
    duplicates = sorted(s for s, n in head_charges.items() if n > 1)
    closed = sum(1 for chain in ledger.chains if chain.status == "closed")
    checks.append(
        _result(
            "single-closure",
            not duplicates and closed == head_charges.total(),
            f"duplicated head charges at {duplicates}" if duplicates else "",
        )
    )

    return AnalysisReport(tuple(checks))


# ---------------------------------------------------------------------------
# Ratio reports and whole-instance analysis


@dataclass(frozen=True)
class RatioReport:
    policy: Policy
    policy_value: Rat
    opt_value: Rat
    ratio: Rat | None  # None means unbounded (zero policy value against a positive optimum)
    bound: BoundBreakdown
    within_bound: bool


def _make_ratio(
    policy: Policy, policy_value: Rat, opt_value: Rat, alpha: Rat, beta: Rat
) -> RatioReport:
    if opt_value == 0:
        ratio: Rat | None = Fraction(1)
    elif policy_value == 0:
        ratio = None
    else:
        ratio = opt_value / policy_value
    bound = competitive_bound(alpha, beta)
    within = ratio is not None and ratio <= bound.bound
    return RatioReport(policy, policy_value, opt_value, ratio, bound, within)


def policy_ratio(policy: Policy, inst: Instance, reference_beta: Rat) -> RatioReport:
    """Ratio of the offline optimum to an arbitrary policy's value."""
    trace = run(policy, inst)
    opt_value = brute_force_opt(inst).value
    return _make_ratio(policy, trace.totals, opt_value, inst.alpha, reference_beta)


@dataclass(frozen=True)
class InstanceAnalysis:
    instance: Instance
    beta: Rat
    on: RunTrace
    optimum: OptResult
    ropt: RoptTrace
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
    alpha_sends = frozenset(p for p in on.sends.values() if p.is_alpha)
    optimum = opt_containing(inst, alpha_sends)
    if optimum is None:
        raise RuntimeError("delivered alpha packets must form a deliverable set")
    dp_value = dp_opt(inst)
    checks = [
        _result(
            "optimum-contains-alpha-sends",
            optimum.value == exhaustive.value,
            f"constrained {optimum.value} vs unconstrained {exhaustive.value}",
        ),
        _result(
            "oracle-agreement",
            dp_value == exhaustive.value,
            f"dp {dp_value} vs exhaustive {exhaustive.value}",
        ),
    ]
    ropt = run_ropt(inst, optimum.subset, on)
    checks += verify_ropt(inst, optimum.subset, on, ropt).checks

    ledger: ChargeLedger | None
    try:
        ledger = build_ledger(inst, optimum.subset, on, ropt)
    except LedgerError as exc:
        ledger = None
        checks.append(CheckResult("charging-complete", CheckStatus.FAIL, str(exc)))
    else:
        checks.append(CheckResult("charging-complete", CheckStatus.PASS))
        checks += verify_ledger(ledger, inst, optimum.subset, on).checks

    ratio = _make_ratio(on.policy, on.totals, exhaustive.value, inst.alpha, beta)
    checks.append(
        _result(
            "ratio-bound",
            ratio.within_bound,
            f"ratio {ratio.ratio} vs bound {ratio.bound.bound}",
        )
    )
    report = AnalysisReport(tuple(checks))
    return InstanceAnalysis(inst, beta, on, optimum, ropt, ledger, report, ratio)


def format_report(report: AnalysisReport) -> str:
    """Fixed-width table of check verdicts for terminal output."""
    width = max(len(c.name) for c in report.checks)
    lines = []
    for c in report.checks:
        line = f"{c.name.ljust(width)}  {c.status.upper():4}"
        if c.detail:
            line += f"  {c.detail}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def format_ledger(ledger: ChargeLedger) -> str:
    """Line-oriented ledger export, stable for golden-file comparison."""
    lines = []
    for t in sorted(ledger.on_charges):
        lines.append(f"on {t} {ledger.on_charges[t].numerator}/{ledger.on_charges[t].denominator}")
    def sort_key(rec: ChargeRecord):
        anchor = rec.step if rec.step is not None else rec.interval[0]
        return (anchor, rec.packet.key)
    for rec in sorted(ledger.ropt_charges, key=sort_key):
        target = f"step {rec.step}" if rec.interval is None else f"interval {rec.interval[0]} {rec.interval[1]}"
        lines.append(
            f"ropt {rec.kind} {rec.packet.id} {rec.amount.numerator}/{rec.amount.denominator} {target}"
        )
    for chain in sorted(ledger.chains, key=lambda c: c.steps):
        closing = chain.closing_charge.id if chain.closing_charge is not None else "-"
        lines.append(
            f"chain {chain.owner.id} {chain.status} {closing} " + " ".join(map(str, chain.steps))
        )
    return "\n".join(lines) + "\n"
