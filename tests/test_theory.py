from fractions import Fraction

import pytest

from fifolab import (
    competitive_bound,
    discriminant_sign,
    optimal_beta,
    stability_condition,
)


class TestCompetitiveBound:
    def test_alpha_two_beta_two(self):
        breakdown = competitive_bound(Fraction(2), Fraction(2))
        assert breakdown.first_term == Fraction(3, 2)
        assert breakdown.second_term == Fraction(6, 5)  # (4 + 8) / (4 + 4 + 2)
        assert breakdown.bound == Fraction(3, 2)

    def test_beta_one_first_term(self):
        assert competitive_bound(Fraction(5), Fraction(1)).first_term == 2

    def test_reference_beta_first_term(self):
        breakdown = competitive_bound(Fraction(2), Fraction(3284, 1000))
        assert breakdown.first_term == Fraction(4284, 3284)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            competitive_bound(Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            competitive_bound(Fraction(2), Fraction(0))

    def test_both_terms_exceed_one(self):
        for alpha in (Fraction(101, 100), Fraction(2), Fraction(1000)):
            for beta in (Fraction(1, 2), Fraction(2), Fraction(5)):
                breakdown = competitive_bound(alpha, beta)
                assert breakdown.first_term > 1
                assert breakdown.second_term > 1


class TestBoundMemo:
    def test_cached_result_equals_fresh_evaluation(self):
        alpha, beta = Fraction(7, 3), Fraction(3284, 1000)
        first = competitive_bound(alpha, beta)
        hits = competitive_bound.cache_info().hits
        again = competitive_bound(alpha, beta)
        assert competitive_bound.cache_info().hits == hits + 1
        assert again == first == competitive_bound.__wrapped__(alpha, beta)

    def test_invalid_arguments_raise_on_every_call(self):
        for alpha, beta in ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))):
            for _ in range(3):
                with pytest.raises(ValueError):
                    competitive_bound(alpha, beta)

    def test_cache_is_bounded(self):
        maxsize = competitive_bound.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_integer_arguments_give_exact_terms(self):
        # an int call and the equal Fraction call share one cache entry
        competitive_bound.cache_clear()
        assert competitive_bound(2, 2).bound == Fraction(3, 2)
        for breakdown in (competitive_bound(2, 2), competitive_bound(Fraction(2), Fraction(2))):
            assert all(
                type(term) is Fraction
                for term in (breakdown.first_term, breakdown.second_term, breakdown.bound)
            )


class TestStability:
    def test_beta_one_always_holds(self):
        for alpha in (Fraction(11, 10), Fraction(2), Fraction(100)):
            assert stability_condition(alpha, Fraction(1))

    def test_reference_beta_alpha_sweep(self):
        beta = Fraction(3284, 1000)
        assert discriminant_sign(beta) < 0
        for alpha in (Fraction(11, 10), Fraction(2), Fraction(5), Fraction(10), Fraction(100)):
            assert stability_condition(alpha, beta)

    def test_fails_inside_the_root_window(self):
        # 36 - 72 + 20 = -16
        assert not stability_condition(Fraction(6), Fraction(4))

    def test_matches_first_term_dominance(self):
        # at beta = 4 the quadratic is 0 at alpha = 2 and alpha = 10: both terms are 5/4
        for beta in (Fraction(3), Fraction(3284, 1000), Fraction(7, 2), Fraction(4)):
            for alpha in (Fraction(3, 2), *map(Fraction, (2, 3, 4, 6, 10, 20))):
                breakdown = competitive_bound(alpha, beta)
                dominated = breakdown.first_term >= breakdown.second_term
                assert stability_condition(alpha, beta) == dominated


class TestDiscriminant:
    def test_hand_values(self):
        assert discriminant_sign(Fraction(3)) == -1  # 27 - 18 - 9 - 4 = -4
        assert discriminant_sign(Fraction(4)) == 1  # 64 - 32 - 12 - 4 = 16

    def test_reference_beta_negative_and_near_zero(self):
        beta = Fraction(3284, 1000)
        assert discriminant_sign(beta) == -1
        value = beta**3 - 2 * beta**2 - 3 * beta - 4
        assert abs(value) < Fraction(1, 100)

    def test_equivalent_factored_form(self):
        for beta in (Fraction(1), Fraction(3), Fraction(3284, 1000), Fraction(4), Fraction(9, 2)):
            cubic = beta**3 - 2 * beta**2 - 3 * beta - 4
            factored = beta * cubic
            assert discriminant_sign(beta) == (factored > 0) - (factored < 0)


class TestOptimalBeta:
    def test_coarse_tolerance(self):
        beta = optimal_beta(Fraction(1, 1000))
        assert Fraction(3283, 1000) <= beta <= Fraction(3285, 1000)

    def test_fine_tolerance_ratio(self):
        beta = optimal_beta(Fraction(1, 10**6))
        ratio = (1 + beta) / beta
        assert Fraction(13044, 10000) <= ratio <= Fraction(13046, 10000)

    def test_bisection_postcondition(self):
        tol = Fraction(1, 10**4)
        beta = optimal_beta(tol)
        assert discriminant_sign(beta) <= 0
        assert discriminant_sign(beta + 2 * tol) > 0


def _fraction_bisection(tol):
    """The literal bisection: halve [3, 4] in Fractions until it is no wider than tol."""
    lo, hi = Fraction(3), Fraction(4)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if discriminant_sign(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


class TestOptimalBetaOracle:
    @pytest.mark.parametrize(
        "tol",
        [
            Fraction(1),
            Fraction(2, 3),
            Fraction(1, 3),
            Fraction(7, 10**30),
            Fraction(1, 10**6),
            Fraction(1, 10**50),
            Fraction(1, 2),  # 1/2^k itself: the bracket may shrink to exactly tol
            Fraction(1, 2**40),
            Fraction(5),
            2,
        ],
    )
    def test_dyadic_bisection_matches_fraction_bisection(self, tol):
        beta = optimal_beta(tol)
        assert beta == _fraction_bisection(tol)
        assert type(beta) is Fraction

    def test_non_positive_tolerance_rejected(self):
        for tol in (Fraction(0), Fraction(-1, 3), 0):
            with pytest.raises(ValueError):
                optimal_beta(tol)


class TestRegimeShape:
    def test_first_term_decreasing_second_increasing_in_beta(self):
        betas = [Fraction(i, 4) for i in range(2, 24)]
        for alpha in (Fraction(3, 2), Fraction(3), Fraction(10)):
            breakdowns = [competitive_bound(alpha, b) for b in betas]
            firsts = [b.first_term for b in breakdowns]
            seconds = [b.second_term for b in breakdowns]
            assert all(a > b for a, b in zip(firsts, firsts[1:]))
            assert all(a < b for a, b in zip(seconds, seconds[1:]))

    def test_grid_minimum_sits_at_the_crossing(self):
        # Beta grid 2.0 .. 4.5; the alpha grid needs points near the
        # second term's peak (around 4) or betas just past the crossing
        # would be scored only by their shrinking first term.
        betas = [Fraction(i, 10) for i in range(20, 46)]
        alphas = [
            Fraction(101, 100),
            Fraction(3, 2),
            Fraction(2),
            Fraction(3),
            Fraction(4),
            Fraction(5),
            Fraction(10),
            Fraction(100),
            Fraction(1000),
        ]
        worst = {b: max(competitive_bound(a, b).bound for a in alphas) for b in betas}
        minimizer = min(worst, key=lambda b: worst[b])
        assert minimizer == Fraction(33, 10)
        assert abs(worst[minimizer] - Fraction(13045, 10000)) < Fraction(1, 100)
