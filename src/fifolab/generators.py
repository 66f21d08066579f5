"""Instance construction: fixtures, seeded instances drawn straight into columns, ratio search."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .analysis import RatioReport, policy_ratio
from .model import Instance, Rat, build_instance
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
        for choice in self.alpha_choices:  # on ints: no Python-level Fraction comparison
            num, den = choice.as_integer_ratio()
            if num <= den:
                raise ValueError("alpha choices must exceed 1")
        num, den = self.alpha_weight.as_integer_ratio()
        if not 0 <= num <= den:
            raise ValueError("alpha weight must be a probability")


def random_instance(cfg: GenConfig) -> Instance:
    """The seeded instance of `cfg`; a seed always gives the same instance.

    One ``random.Random(cfg.seed)`` draws the capacity, alpha, then per step a burst
    size and per packet its class, and nothing once ``max_packets`` packets exist or
    when ``max_burst`` is 0. A value below ``n`` is drawn by ``Random._randbelow``'s
    rule, as in ``randint`` and ``choice``: ``getrandbits(n.bit_length())`` until ``< n``.
    """
    getrandbits = random.Random(cfg.seed).getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    capacity = cfg.capacity_min + below(cfg.capacity_max - cfg.capacity_min + 1)
    alpha = cfg.alpha_choices[below(len(cfg.alpha_choices))]
    num, den = cfg.alpha_weight.as_integer_ratio()
    cap = cfg.horizon * cfg.max_burst  # no run of bursts passes it; at 0 nothing is drawn
    cap = cap if cfg.max_packets is None else min(cap, cfg.max_packets)
    steps, seqs, flags = [], [], []  # the columns, in key order
    for step in range(1, cfg.horizon + 1):
        room = cap - len(steps)
        if not room:
            break  # no later draw can add a packet
        burst = below(cfg.max_burst + 1)
        for seq in range(burst if burst < room else room):
            steps.append(step)
            seqs.append(seq)
            flags.append(below(den) < num)
    alpha = alpha if type(alpha) is Fraction else Fraction(alpha)
    return Instance(capacity, alpha, tuple(steps), tuple(seqs), tuple(flags))


def _mutate(inst: Instance, cfg: GenConfig, rng: random.Random, cap: int) -> Instance:
    """One local edit: insert/delete a packet, flip a class, move a step,
    or swap alpha within the configured choices. Always yields a valid
    instance (seq numbers are reassigned after the edit)."""
    pool = list(zip(inst.steps, inst.is_alpha))  # (step, alpha flag)
    alpha = inst.alpha
    moves = ["insert", "flip", "shift", "delete", "alpha"]
    kind = rng.choice(moves)
    if kind == "insert" and len(pool) < cap:
        flag = rng.randrange(cfg.alpha_weight.denominator) < cfg.alpha_weight.numerator
        pool.append((rng.randint(1, cfg.horizon), flag))
    elif kind == "delete" and pool:
        pool.pop(rng.randrange(len(pool)))
    elif kind == "flip" and pool:
        i = rng.randrange(len(pool))
        step, flag = pool[i]
        pool[i] = (step, not flag)
    elif kind == "shift" and pool:
        i = rng.randrange(len(pool))
        step, flag = pool[i]
        step = min(cfg.horizon, max(1, step + rng.choice([-2, -1, 1, 2])))
        pool[i] = (step, flag)
    elif kind == "alpha":
        alpha = rng.choice(cfg.alpha_choices)
    pool.sort(key=lambda item: item[0])
    seqs: dict[int, int] = {}
    specs = []
    for step, flag in pool:
        seq = seqs.get(step, 0)
        seqs[step] = seq + 1
        specs.append((step, seq, "alpha" if flag else "one"))
    return build_instance(inst.capacity, alpha, specs)


def adversarial_search(
    policy: Policy, cfg: GenConfig, budget: int, beta: Rat = DEFAULT_BETA
) -> tuple[Instance, RatioReport]:
    """Hill-climb on the optimum-to-policy ratio; deterministic in (cfg, budget).

    Restart points begin with the structured families above (so their
    known ratios are floors on the result) and continue with seeded
    random instances; each climb applies local mutations and keeps
    strict improvements, restarting after a stagnation streak. Every
    candidate has at most `cfg.max_packets` packets. Reports carry the
    threshold policy's bound at the policy's own beta, or at `beta` for a
    policy without one.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    max_packets = cfg.max_packets
    if max_packets is None:
        raise ValueError("the search needs a packet cap (max_packets)")
    rng = random.Random(cfg.seed)
    reference_beta = policy.beta if policy.beta is not None else beta
    restarts = [greedy_blocking(a) for a in cfg.alpha_choices]
    restarts += [demo_instance(a) for a in cfg.alpha_choices]

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
                candidate = random_instance(replace(cfg, seed=rng.getrandbits(63)))
        else:
            candidate = _mutate(current, cfg, rng, max_packets)
        if len(candidate.steps) > max_packets:
            continue  # a restart instance can exceed the cap; retry free of charge
        report = policy_ratio(policy, candidate, reference_beta)
        evaluations += 1
        if best is None or report.ratio > best[1].ratio:
            best = (candidate, report)
        if current is None or report.ratio > current_score:
            current, current_score, stagnation = candidate, report.ratio, 0
        else:
            stagnation += 1
            if stagnation >= 40:
                current, current_score, stagnation = None, Fraction(0), 0
    assert best is not None
    return best
