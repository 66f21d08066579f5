from dataclasses import replace
from fractions import Fraction

import pytest

from fifolab import (
    GenConfig,
    Policy,
    adversarial_search,
    brute_force_opt,
    demo_instance,
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
        specs = [(p.key.step, p.key.seq, p.klass.value) for p in inst.arrivals]
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

    def test_deterministic(self):
        cfg = GenConfig(seed=77)
        a = adversarial_search(Policy.greedy(), cfg, budget=40)
        b = adversarial_search(Policy.greedy(), cfg, budget=40)
        assert a[0] == b[0]
        assert a[1].ratio == b[1].ratio
