import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fifolab import (
    GenConfig,
    Policy,
    adversarial_search,
    brute_force_opt,
    build_instance,
    demo_instance,
    format_instance,
    greedy_blocking,
    random_instance,
    run,
    validate_instance,
)

BETA_REF = Fraction(3284, 1000)


class TestFixtures:
    def test_demo_contents(self):
        inst = demo_instance(Fraction(2))
        assert inst.capacity == 3
        assert validate_instance(inst) == []
        specs = [(p.key.step, p.key.seq, p.klass) for p in inst.arrivals]
        assert specs == [
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
        ]

    def test_demo_totals_track_alpha(self):
        for alpha in (Fraction(2), Fraction(3), Fraction(10)):
            inst = demo_instance(alpha)
            assert run(Policy.on(alpha), inst).totals == 5 * alpha + 1
            assert brute_force_opt(inst).value == 6 * alpha + 1

    def test_blocking_family_values(self):
        inst = greedy_blocking(Fraction(10))
        assert validate_instance(inst) == []
        assert run(Policy.greedy(), inst).totals == 21  # 1 + 2 * alpha
        assert run(Policy.on(BETA_REF), inst).totals == 30  # 3 * alpha
        assert brute_force_opt(inst).value == 30

    def test_blocking_ratio_separation(self):
        opt = brute_force_opt(greedy_blocking(Fraction(10))).value
        greedy_total = run(Policy.greedy(), greedy_blocking(Fraction(10))).totals
        assert opt / greedy_total == Fraction(10, 7)
        assert opt / greedy_total > Fraction(4284, 3284)

    def test_blocking_rejects_tiny_alpha(self):
        with pytest.raises(ValueError):
            greedy_blocking(Fraction(1))


class TestRandomInstances:
    def test_same_seed_same_instance(self):
        cfg = GenConfig(seed=1234)
        assert random_instance(cfg) == random_instance(cfg)

    def test_seed_sweep_is_valid_and_bounded(self):
        cfg = GenConfig()
        for seed in range(1000):
            inst = random_instance(replace(cfg, seed=seed))
            assert validate_instance(inst) == []
            assert len(inst.arrivals) <= 14
            assert 1 <= inst.capacity <= 5

    def test_zero_burst_means_empty(self):
        inst = random_instance(GenConfig(max_burst=0, seed=5))
        assert inst.arrivals == ()

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            random_instance(GenConfig(capacity_min=3, capacity_max=2))
        with pytest.raises(ValueError):
            random_instance(GenConfig(alpha_choices=()))
        with pytest.raises(ValueError):
            GenConfig(max_packets=-1)
        for alpha in (Fraction(1), Fraction(1, 2)):
            with pytest.raises(ValueError):
                GenConfig(alpha_choices=(Fraction(2), alpha))


def _literal_random_instance(cfg):
    """The stdlib-call generator `random_instance` replaced: its draw oracle."""
    rng = random.Random(cfg.seed)
    capacity = rng.randint(cfg.capacity_min, cfg.capacity_max)
    alpha = rng.choice(cfg.alpha_choices)
    num, den = cfg.alpha_weight.numerator, cfg.alpha_weight.denominator
    cap = cfg.max_packets
    specs = []
    for step in range(1, cfg.horizon + 1):
        if cfg.max_burst == 0 or len(specs) == cap:
            break  # no later draw can add a packet
        burst = rng.randint(0, cfg.max_burst)
        for seq in range(burst):
            if len(specs) == cap:
                break
            klass = "alpha" if rng.randrange(den) < num else "one"
            specs.append((step, seq, klass))
    return build_instance(capacity, alpha, specs)


def _assert_matches_literal(cfg):
    inst, want = random_instance(cfg), _literal_random_instance(cfg)
    assert (inst.capacity, inst.alpha, type(inst.alpha)) == (want.capacity, want.alpha, Fraction)
    assert (inst.steps, inst.seqs, inst.is_alpha) == (want.steps, want.seqs, want.is_alpha)


class TestDrawsMatchLiteralOracle:
    def test_default_config_seeds(self):
        cfg = GenConfig()
        for seed in range(2000):
            _assert_matches_literal(replace(cfg, seed=seed))

    @pytest.mark.parametrize("max_burst", [0, 1, 3, 7, 8])
    def test_burst_weight_and_cap_grid(self, max_burst):
        weights = [0, 1, Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)]
        for weight, cap, seed in itertools.product(weights, [None, 0, 1, 14], range(6)):
            cfg = GenConfig(
                horizon=9, max_burst=max_burst, alpha_weight=weight, max_packets=cap, seed=seed
            )
            _assert_matches_literal(cfg)

    @pytest.mark.parametrize("low, high", [(1, 1), (7, 7), (1, 2), (3, 8), (1, 1000), (5, 2**70)])
    def test_capacity_ranges(self, low, high):
        for seed in range(40):
            _assert_matches_literal(GenConfig(capacity_min=low, capacity_max=high, seed=seed))

    @pytest.mark.parametrize("seed", [-1, -2**40, -(2**63) + 7, 2**63 - 1, 2**64 + 5, 10**30])
    def test_negative_and_large_seeds(self, seed):
        _assert_matches_literal(GenConfig(seed=seed))
        _assert_matches_literal(GenConfig(max_packets=None, horizon=30, max_burst=5, seed=seed))

    @pytest.mark.parametrize("capacity", [16, 256])
    def test_bench_dense_config(self, capacity):
        cfg = GenConfig(
            capacity_min=capacity,
            capacity_max=capacity,
            horizon=1400,
            max_burst=3,
            max_packets=None,
            alpha_choices=(Fraction(2),),
        )
        for seed in range(4):
            _assert_matches_literal(replace(cfg, seed=seed))

    def test_bench_sparse_config(self):
        cfg = GenConfig(capacity_min=3, capacity_max=3, horizon=3, max_burst=6, max_packets=12)
        rng = random.Random(0)
        for _ in range(200):
            _assert_matches_literal(replace(cfg, seed=rng.getrandbits(32)))


# sha256 of format_instance of the n = 10^5, B = 10^3 instance, pinned before
# the generator stopped calling randint, choice and randrange; also the digest
# of `fifolab gen random --seed 1 --b-min 1000 --b-max 1000 --horizon 68965
# --max-burst 3 --alphas 2 --max-packets 100000`
LARGE_INSTANCE_DIGEST = "96394a684620d10ffdac7edbfd82e3162e45af034c2c37f7b656abe4c549a0c7"


def test_large_instance_is_unchanged():
    cfg = GenConfig(
        seed=1,
        capacity_min=1000,
        capacity_max=1000,
        horizon=68965,
        max_burst=3,
        alpha_choices=(Fraction(2),),
        max_packets=100_000,
    )
    text = format_instance(random_instance(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_INSTANCE_DIGEST


def _literal_config_checks(alpha_choices, alpha_weight):
    """The alpha and weight checks GenConfig made on Fractions: the oracle of its integer ones."""
    if min(alpha_choices) <= 1:
        return "alpha choices must exceed 1"
    if not 0 <= alpha_weight <= 1:
        return "alpha weight must be a probability"
    return None


def test_config_alpha_and_weight_checks_match_literal():
    values = [Fraction(1), Fraction(1, 2), 2, Fraction(3, 2), Fraction(1000001, 1000000)]
    choice_tuples = [c for r in (1, 2) for c in itertools.permutations(values, r)]
    weights = [Fraction(-1, 2), 0, 1, Fraction(3, 2), Fraction(1, 2), -1, 2]
    outcomes = set()
    for choices, weight in itertools.product(choice_tuples, weights):
        want = _literal_config_checks(choices, weight)
        outcomes.add(want)
        if want is None:
            GenConfig(alpha_choices=choices, alpha_weight=weight)
            continue
        with pytest.raises(ValueError) as exc:
            GenConfig(alpha_choices=choices, alpha_weight=weight)
        assert str(exc.value) == want
    assert len(outcomes) == 3  # the grid meets both checks and passes them both


class TestSearch:
    def test_greedy_search_finds_the_blocking_ratio(self):
        cfg = GenConfig(alpha_choices=(Fraction(10),), seed=11)
        inst, report = adversarial_search(Policy.greedy(), cfg, budget=10)
        assert report.ratio is not None
        assert report.ratio >= Fraction(10, 7)

    def test_budget_one_returns_first_candidate(self):
        cfg = GenConfig(alpha_choices=(Fraction(3, 2), Fraction(10)), seed=0)
        inst, report = adversarial_search(Policy.greedy(), cfg, budget=1)
        assert inst == greedy_blocking(Fraction(3, 2))
        assert report.policy_value == run(Policy.greedy(), inst).totals

    def test_threshold_policy_stays_under_its_bound(self):
        cfg = GenConfig(seed=202)
        inst, report = adversarial_search(Policy.on(BETA_REF), cfg, budget=150)
        assert report.ratio is not None
        assert report.ratio <= Fraction(4284, 3284)
        assert report.within_bound

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            adversarial_search(Policy.greedy(), GenConfig(), budget=0)

    def test_config_packet_cap_bounds_the_result(self):
        # the 4-packet blocking restart would win if the cap were ignored
        for seed in range(3):
            cfg = GenConfig(max_packets=2, seed=seed)
            inst, _ = adversarial_search(Policy.greedy(), cfg, budget=60)
            assert len(inst.arrivals) <= 2

    def test_uncapped_config_rejected(self):
        with pytest.raises(ValueError):
            adversarial_search(Policy.greedy(), GenConfig(max_packets=None), budget=1)

    def test_deterministic(self):
        cfg = GenConfig(seed=77)
        a = adversarial_search(Policy.greedy(), cfg, budget=40)
        b = adversarial_search(Policy.greedy(), cfg, budget=40)
        assert a[0] == b[0]
        assert a[1].ratio == b[1].ratio
