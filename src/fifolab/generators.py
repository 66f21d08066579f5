"""Instance construction: fixtures, seeded random instances, ratio search."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .analysis import RatioReport, policy_ratio
from .model import Instance, PacketClass, Rat, build_instance, validate_instance
from .simulate import Policy
from .theory import DEFAULT_BETA


def demo_instance(alpha: Rat) -> Instance:
    """Capacity-3 showcase: lazy preemption pays off in the final burst.

    Two cheap packets block an early alpha packet; a mid-run alpha burst
    forces evictions; the final burst is salvaged only by preempting the
    head. Delivered values: 5*alpha + 1 for the threshold policy with
    beta = alpha, against an offline optimum of 6*alpha + 1.
    """
    return build_instance(
        3,
        alpha,
        [
            (1, 0, "one"),
            (1, 1, "one"),
            (1, 2, "alpha"),
            (2, 0, "alpha"),
            (2, 1, "alpha"),
            (2, 2, "alpha"),
            (2, 3, "one"),
            (5, 0, "one"),
            (5, 1, "alpha"),
            (5, 2, "alpha"),
        ],
    )


def greedy_blocking(alpha: Rat) -> Instance:
    """Capacity-2 family where greedy forfeits an alpha packet.

    Greedy spends step 1 on the cheap head and loses the first alpha
    packet to eviction (total 1 + 2*alpha); the optimum delivers all
    three alpha packets. The threshold policy preempts the head instead
    and matches the optimum.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return build_instance(
        2,
        alpha,
        [(1, 0, "one"), (1, 1, "alpha"), (2, 0, "alpha"), (2, 1, "alpha")],
    )


@dataclass(frozen=True)
class GenConfig:
    """Knobs for seeded random instances; the seed fully determines output."""

    capacity_min: int = 1
    capacity_max: int = 5
    horizon: int = 12
    max_burst: int = 2
    alpha_choices: tuple[Rat, ...] = (Fraction(3, 2), Fraction(2), Fraction(5), Fraction(10))
    alpha_weight: Rat = Fraction(1, 2)
    seed: int = 0
    max_packets: int | None = 14

    def __post_init__(self) -> None:
        if self.capacity_min < 1 or self.capacity_min > self.capacity_max:
            raise ValueError("empty capacity range")
        if self.horizon < 1 or self.max_burst < 0 or (self.max_packets or 0) < 0:
            raise ValueError("empty horizon, burst or packet range")
        if not self.alpha_choices:
            raise ValueError("no alpha choices")
        if not 0 <= self.alpha_weight <= 1:
            raise ValueError("alpha weight must be a probability")


def random_instance(cfg: GenConfig) -> Instance:
    rng = random.Random(cfg.seed)
    capacity = rng.randint(cfg.capacity_min, cfg.capacity_max)
    alpha = rng.choice(cfg.alpha_choices)
    num, den = cfg.alpha_weight.numerator, cfg.alpha_weight.denominator
    specs: list[tuple[int, int, str]] = []
    for step in range(1, cfg.horizon + 1):
        burst = rng.randint(0, cfg.max_burst)
        for seq in range(burst):
            if cfg.max_packets is not None and len(specs) >= cfg.max_packets:
                break
            klass = "alpha" if rng.randrange(den) < num else "one"
            specs.append((step, seq, klass))
    return build_instance(capacity, alpha, specs)


def _mutate(inst: Instance, cfg: GenConfig, rng: random.Random, cap: int) -> Instance:
    """One local edit: insert/delete a packet, flip a class, move a step,
    or swap alpha within the configured choices. Always yields a valid
    instance (seq numbers are reassigned after the edit)."""
    pool = [(p.key.step, p.klass) for p in inst.arrivals]
    alpha = inst.alpha
    moves = ["insert", "flip", "shift", "delete", "alpha"]
    kind = rng.choice(moves)
    if kind == "insert" and len(pool) < cap:
        klass = (
            PacketClass.ALPHA
            if rng.randrange(cfg.alpha_weight.denominator) < cfg.alpha_weight.numerator
            else PacketClass.ONE
        )
        pool.append((rng.randint(1, cfg.horizon), klass))
    elif kind == "delete" and pool:
        pool.pop(rng.randrange(len(pool)))
    elif kind == "flip" and pool:
        i = rng.randrange(len(pool))
        step, klass = pool[i]
        flipped = PacketClass.ONE if klass is PacketClass.ALPHA else PacketClass.ALPHA
        pool[i] = (step, flipped)
    elif kind == "shift" and pool:
        i = rng.randrange(len(pool))
        step, klass = pool[i]
        step = min(cfg.horizon, max(1, step + rng.choice([-2, -1, 1, 2])))
        pool[i] = (step, klass)
    elif kind == "alpha":
        alpha = rng.choice(cfg.alpha_choices)
    pool.sort(key=lambda item: item[0])
    seqs: dict[int, int] = {}
    specs = []
    for step, klass in pool:
        seq = seqs.get(step, 0)
        seqs[step] = seq + 1
        specs.append((step, seq, klass))
    return build_instance(inst.capacity, alpha, specs)


def adversarial_search(
    policy: Policy, cfg: GenConfig, budget: int, max_packets: int = 14
) -> tuple[Instance, RatioReport]:
    """Hill-climb on the optimum-to-policy ratio; deterministic in (cfg, budget).

    Restart points begin with the structured families above (so their
    known ratios are floors on the result) and continue with seeded
    random instances; each climb applies local mutations and keeps
    strict improvements, restarting after a stagnation streak. Every
    candidate has at most `max_packets` packets.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    rng = random.Random(cfg.seed)
    reference_beta = policy.beta if policy.beta is not None else DEFAULT_BETA
    restarts = [greedy_blocking(a) for a in cfg.alpha_choices]
    restarts += [demo_instance(a) for a in cfg.alpha_choices]

    def score(report: RatioReport) -> Rat:
        return report.ratio if report.ratio is not None else Fraction(10**9)

    best: tuple[Instance, RatioReport] | None = None
    current: Instance | None = None
    current_score = Fraction(0)
    stagnation = 0
    evaluations = 0
    while evaluations < budget:
        if current is None:
            if restarts:
                candidate = restarts.pop(0)
            else:
                candidate = random_instance(
                    replace(cfg, seed=rng.getrandbits(63), max_packets=max_packets)
                )
        else:
            candidate = _mutate(current, cfg, rng, max_packets)
        if validate_instance(candidate) or len(candidate.arrivals) > max_packets:
            continue  # mutation landed outside the search space; retry free of charge
        report = policy_ratio(policy, candidate, reference_beta)
        evaluations += 1
        s = score(report)
        if best is None or s > score(best[1]):
            best = (candidate, report)
        if current is None or s > current_score:
            current, current_score, stagnation = candidate, s, 0
        else:
            stagnation += 1
            if stagnation >= 40:
                current, current_score, stagnation = None, Fraction(0), 0
    assert best is not None
    return best
