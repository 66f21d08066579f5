"""Closed-form competitive-ratio bounds for the threshold policy.

The guarantee is the maximum of two regimes: (1 + beta) / beta from
steps dominated by preemption payback, and
(alpha^2 + 2 alpha beta) / (alpha^2 + alpha beta + beta) from intervals
that absorb evicted alpha packets. The first term dominates (is at least
the second) exactly when the quadratic alpha^2 - beta (beta - 1) alpha +
beta^2 + beta is non-negative. That holds for every alpha while the cubic
beta^3 - 2 beta^2 - 3 beta - 4 (the quadratic's discriminant over beta)
is non-positive; the best threshold sits at that cubic's positive root
(about 3.2844, giving a ratio near 1.3045).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .model import Rat

# Reference threshold: the cubic's root to three decimals, giving the
# near-minimal guarantee (1 + beta) / beta of about 1.3045.
DEFAULT_BETA = Fraction(3284, 1000)


class BoundBreakdown(NamedTuple):
    first_term: Rat
    second_term: Rat
    bound: Rat


def _evaluate(alpha: Rat, beta: Rat) -> BoundBreakdown:
    """Exact evaluation of both regime terms and their maximum, unmemoised."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    first = (1 + beta) / beta
    second = (alpha * alpha + 2 * alpha * beta) / (alpha * alpha + alpha * beta + beta)
    return BoundBreakdown(first, second, max(first, second))


@lru_cache(maxsize=1024)
def _bound_of_ratios(a: int, b: int, c: int, d: int) -> BoundBreakdown:
    return _evaluate(Fraction(a, b), Fraction(c, d))


def competitive_bound(alpha: Rat, beta: Rat) -> BoundBreakdown:
    """Exact evaluation of both regime terms and their maximum, memoised.

    Both arguments are taken as Fractions, so the terms are exact for int
    arguments too. The memo is keyed on alpha = a/b and beta = c/d as the
    integers (a, b, c, d), so equal arguments share an entry whatever
    their type, and a lookup hashes four ints.
    """
    a, b = (alpha if type(alpha) is Fraction else Fraction(alpha)).as_integer_ratio()
    c, d = (beta if type(beta) is Fraction else Fraction(beta)).as_integer_ratio()
    return _bound_of_ratios(a, b, c, d)


# the memo's controls, and the unmemoised evaluation, as lru_cache exposes them
competitive_bound.cache_info = _bound_of_ratios.cache_info
competitive_bound.cache_clear = _bound_of_ratios.cache_clear
competitive_bound.__wrapped__ = _evaluate


def stability_condition(alpha: Rat, beta: Rat) -> bool:
    """Does the first term dominate, ``first_term >= second_term``, at this alpha?

    Equivalently, is alpha^2 - beta (beta - 1) alpha + beta^2 + beta non-negative?
    """
    breakdown = competitive_bound(alpha, beta)
    return breakdown.first_term >= breakdown.second_term


def discriminant_sign(beta: Rat) -> int:
    """Sign of beta^3 - 2 beta^2 - 3 beta - 4.

    Non-positive means the quadratic of :func:`stability_condition` is
    non-negative at every alpha, so the first term dominates the bound for
    every alpha > 1.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    # at beta = b/d the cubic times d^3 > 0, which has the same sign, in integers
    b, d = beta.as_integer_ratio()
    value = ((b - 2 * d) * b - 3 * d * d) * b - 4 * d * d * d
    return (value > 0) - (value < 0)


def optimal_beta(tol: Rat) -> Rat:
    """Largest threshold (within tol) whose discriminant is non-positive.

    Exact bisection on [3, 4]; the returned value beta* has
    (1 + beta*) / beta* within tol-resolution of the minimal ratio. After
    k halvings the bracket is [3 + m/2^k, 3 + (m+1)/2^k], so the loop
    keeps the integers m and k, tests each midpoint with
    :func:`discriminant_sign`, and stops once 1/2^k <= tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    tol_num, tol_den = tol.as_integer_ratio()
    m = k = 0
    while tol_num << k < tol_den:
        k += 1  # the midpoint is b / 2^k
        b = (3 << k) + 2 * m + 1
        m = 2 * m + (discriminant_sign(Fraction(b, 1 << k)) <= 0)
    return Fraction((3 << k) + m, 1 << k)
