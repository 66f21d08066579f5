"""Closed-form competitive-ratio bounds for the threshold policy.

The guarantee is the maximum of two regimes: (1 + beta) / beta from
steps dominated by preemption payback, and
(alpha^2 + 2 alpha beta) / (alpha^2 + alpha beta + beta) from intervals
that absorb evicted alpha packets. The first term dominates for every
alpha exactly when the quadratic alpha^2 - beta (beta - 1) alpha +
beta^2 + beta stays positive, i.e. while the cubic
beta^3 - 2 beta^2 - 3 beta - 4 is negative; the best threshold sits at
that cubic's positive root (about 3.2844, giving a ratio near 1.3045).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import Rat

# Reference threshold: the cubic's root to three decimals, giving the
# near-minimal guarantee (1 + beta) / beta of about 1.3045.
DEFAULT_BETA = Fraction(3284, 1000)


@dataclass(frozen=True)
class BoundBreakdown:
    first_term: Rat
    second_term: Rat
    bound: Rat


@lru_cache(maxsize=1024)
def competitive_bound(alpha: Rat, beta: Rat) -> BoundBreakdown:
    """Exact evaluation of both regime terms and their maximum, memoised.

    Both arguments are taken as Fractions, so the terms are exact for int
    arguments too.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    first = (1 + beta) / beta
    second = (alpha * alpha + 2 * alpha * beta) / (alpha * alpha + alpha * beta + beta)
    return BoundBreakdown(first, second, max(first, second))


def stability_condition(alpha: Rat, beta: Rat) -> bool:
    """Does the first term dominate at this alpha?

    Exact sign test of alpha^2 - beta (beta - 1) alpha + beta^2 + beta.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return alpha * alpha - beta * (beta - 1) * alpha + beta * beta + beta > 0


def discriminant_sign(beta: Rat) -> int:
    """Sign of beta^3 - 2 beta^2 - 3 beta - 4.

    Negative means the quadratic above has no real root, so the first
    term dominates the bound for every alpha > 1.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    value = beta * beta * beta - 2 * beta * beta - 3 * beta - 4
    return (value > 0) - (value < 0)


def optimal_beta(tol: Rat) -> Rat:
    """Largest threshold (within tol) whose discriminant is non-positive.

    Exact-rational bisection on [3, 4]; the returned value beta* has
    (1 + beta*) / beta* within tol-resolution of the minimal ratio.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = Fraction(3), Fraction(4)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if discriminant_sign(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo
