from dataclasses import replace
from fractions import Fraction

from fifolab import (
    GenConfig,
    brute_force_opt,
    build_instance,
    demo_instance,
    dp_opt,
    feasible,
    greedy_blocking,
    opt_containing,
    random_instance,
)
from test_properties import _dp_oracle


def by_ids(inst, *ids):
    """Arrival indices of the packets with these ids."""
    index = {p.id: i for i, p in enumerate(inst.arrivals)}
    return {index[i] for i in ids}


def ids_of(inst, indices):
    return [inst.arrivals[i].id for i in indices]


class TestFeasible:
    def test_empty_subset(self):
        assert feasible(demo_instance(Fraction(2)), set()) == (0, (), ())

    def test_demo_optimal_set_sends_in_seven_steps(self):
        inst = demo_instance(Fraction(2))
        chosen = by_ids(inst, "1.2", "2", "2.1", "2.2", "5", "5.1", "5.2")
        schedule = feasible(inst, chosen)
        assert schedule.value == 13  # 6 * alpha + 1
        expected = {"1.2": 1, "2": 2, "2.1": 3, "2.2": 4, "5": 5, "5.1": 6, "5.2": 7}
        assert dict(zip(ids_of(inst, schedule.indices), schedule.sends)) == expected

    def test_blocking_family_cannot_keep_everything(self):
        inst = greedy_blocking(Fraction(10))
        assert feasible(inst, range(len(inst.arrivals))) is None

    def test_long_idle_gap(self):
        # a backlog of two at step 1, then nothing for 10^4 steps
        gap = 10**4
        inst = build_instance(
            2, Fraction(2), [(1, 0, "one"), (1, 1, "alpha"), (1 + gap, 0, "one"), (1 + gap, 1, "one")]
        )
        schedule = feasible(inst, range(4))
        assert schedule.indices == (0, 1, 2, 3)
        assert schedule.sends == (1, 2, 1 + gap, 2 + gap)


class TestBruteForce:
    def test_demo_value_and_subset(self):
        inst = demo_instance(Fraction(2))
        result = brute_force_opt(inst)
        assert result.value == 13  # 6 * alpha + 1
        assert ids_of(inst, result.indices) == ["1.2", "2", "2.1", "2.2", "5", "5.1", "5.2"]

    def test_empty_instance(self):
        result = brute_force_opt(build_instance(1, Fraction(2), []))
        assert result.value == 0 and result.indices == result.sends == ()

    def test_blocking_family_keeps_the_alphas(self):
        inst = greedy_blocking(Fraction(10))
        result = brute_force_opt(inst)
        assert result.value == 30
        assert ids_of(inst, result.indices) == ["1.1", "2", "2.1"]

    def test_past_twenty_packets_matches_dp(self):
        inst = build_instance(3, Fraction(2), [(s, q, "one") for s in range(1, 8) for q in range(3)])
        assert len(inst.arrivals) == 21
        assert brute_force_opt(inst).value == dp_opt(inst) == 9  # 7 steps plus 2 drained after

    def test_schedule_witnesses_subset(self):
        inst = demo_instance(Fraction(5))
        result = brute_force_opt(inst)
        assert list(result.indices) == sorted(set(result.indices))
        assert feasible(inst, result.indices) == result


class TestDp:
    def test_demo(self):
        assert dp_opt(demo_instance(Fraction(2))) == 13
        assert dp_opt(demo_instance(Fraction(7))) == 43  # 6 * alpha + 1

    def test_single_alpha(self):
        inst = build_instance(1, Fraction(10, 3), [(1, 0, "alpha")])
        assert dp_opt(inst) == Fraction(10, 3)

    def test_matches_brute_force_on_seeded_sweep(self):
        cfg = GenConfig(horizon=8, max_packets=12)
        for seed in range(500):
            inst = random_instance(replace(cfg, seed=seed))
            assert dp_opt(inst) == brute_force_opt(inst).value
            assert _dp_oracle(inst) == dp_opt(inst)


class TestOptContaining:
    def test_empty_requirement_matches_brute_force(self):
        inst = demo_instance(Fraction(2))
        result = opt_containing(inst, set())
        assert result is not None
        assert result.value == brute_force_opt(inst).value
        assert result.indices == brute_force_opt(inst).indices

    def test_required_alpha_sends_keep_full_value(self):
        # the packets the threshold policy delivers never cost optimality
        inst = demo_instance(Fraction(2))
        required = by_ids(inst, "2", "2.1", "2.2", "5.1", "5.2")
        result = opt_containing(inst, required)
        assert result is not None and result.value == 13

    def test_infeasible_requirement_returns_none(self):
        inst = greedy_blocking(Fraction(10))
        assert opt_containing(inst, range(len(inst.arrivals))) is None

    def test_monotone_in_requirements(self):
        inst = demo_instance(Fraction(3))
        small = by_ids(inst, "2")
        large = by_ids(inst, "2", "5", "1")
        v_small = opt_containing(inst, small).value
        v_large = opt_containing(inst, large).value
        assert v_small >= v_large
