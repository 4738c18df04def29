"""Closed-form moments of continuum watermelon marginals.

For two branches the individual moments have explicit values: with a wall
they combine pi and sqrt(2) with rational weights, without a wall pi alone.
For general branch number only the elementary symmetric polynomials admit
closed forms (in the squares when there is a wall).  All rational
bookkeeping is done in exact arithmetic and converted to float at the end.
The lower branch with a wall is the one exception to near-correct rounding:
its value is the sum of two float terms of opposite sign, which cancel
(order 5 is already 32 ulps off).  Each such sum carries a bound on its
relative error, and an order whose bound exceeds 1e-9 is refused.

Branch label convention at even orders (wall case).  Two assignments of the
+-32-type constant to the branches circulate; only one can be right.  With a
wall both branches are nonnegative and ordered, X_2(t) >= X_1(t) >= 0 for
all t, so every even moment of the upper branch strictly dominates the lower
one.  That forces the upper branch to carry the plus sign (15*pi + 32 at
order 2, and so on), which is the convention implemented here.  The Monte
Carlo cross-checks in the verification suite would fail loudly under the
opposite assignment.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

__all__ = [
    "first_moments_table",
    "moment_nowall_p2",
    "moment_wall_p2",
    "normalized_table_entry",
    "sym_nowall_expectation",
    "sym_wall_expectation",
]


def _check_time(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")


def _check_branch_order(branch: int, order: int) -> None:
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 (lower) or 2 (upper), got {branch}")
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")


def _check_sym_args(p: int, k: int, t: float) -> None:
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if not 1 <= k <= p:
        raise ValueError(f"k must satisfy 1 <= k <= p = {p}, got {k}")
    _check_time(t)


def _central_binomial(j: int) -> int:
    return math.comb(2 * j, j)


def _wall_even_normalized(branch: int, k: int) -> tuple[Fraction, Fraction]:
    """Normalized even wall moment, split into (pi coefficient, constant).

    Returns (a, b) with 3*pi*E[X_branch(t)^(2k)] / (t(1-t))^k = a*pi + b.
    """
    swing = Fraction(2 * (3 - k) * math.factorial(k + 1))
    amp = Fraction(
        (k * k + k + 3) * math.factorial(2 * k + 2),
        math.factorial(k + 1) * 2 ** (k + 1),
    )
    tail = sum(
        Fraction(2**j, j * _central_binomial(j)) for j in range(1, k + 2)
    )
    if branch == 2:
        return amp, 2 * amp * tail - swing
    return amp, swing - 2 * amp * tail


def _wall_odd_normalized(branch: int, k: int) -> tuple[Fraction, Fraction]:
    """Normalized odd wall moment, split into (constant, sqrt(2) coefficient).

    Returns (a, b) with
    3*sqrt(pi)*E[X_branch(t)^(2k-1)] / (t(1-t))^((2k-1)/2) = a + b*sqrt(2).
    """
    lead = Fraction(
        math.factorial(2 * k + 2) * (14 - 4 * k),
        2 ** (2 * k + 3) * math.factorial(k + 1),
    )
    amp = Fraction((4 * k * k + 11) * 2 ** (k - 1) * math.factorial(k))
    tail = sum(
        Fraction(_central_binomial(j), 2 ** (3 * j)) for j in range(0, k + 1)
    )
    if branch == 1:
        return lead - amp * tail, amp
    return amp * tail - lead, Fraction(0)


def _checked_sum(x: float, y: float, order: int) -> float:
    """x + y, refused with ValueError when cancellation leaves under ~30 good bits.

    2^-50 (|x| + |y|) / |x + y| bounds the relative error of the sum of two
    terms each within a few ulps of its exact value.
    """
    s = x + y
    if not 2.0**-50 * (abs(x) + abs(y)) <= 1e-9 * abs(s):
        raise ValueError(f"the moment of order {order} loses too many digits to cancellation")
    return s


def moment_wall_p2(branch: int, order: int, t: float) -> float:
    """E[X_branch(t)^order] for the two-branch continuum ensemble with wall.

    branch 1 is the lower path, branch 2 the upper one.  Even orders mix a
    rational multiple of pi with a rational constant, odd orders a rational
    with a rational multiple of sqrt(2); see the module docstring for the
    even-order branch labeling.  ValueError when that sum cancels too far
    (branch 1 from order 27); OverflowError past the float range.
    """
    _check_branch_order(branch, order)
    _check_time(t)
    u = t * (1.0 - t)
    if order % 2 == 0:
        k = order // 2
        pi_coeff, const = _wall_even_normalized(branch, k)
        total = _checked_sum(float(pi_coeff) * math.pi, float(const), order)
        return u**k * total / (3.0 * math.pi)
    k = (order + 1) // 2
    const, rad = _wall_odd_normalized(branch, k)
    scale = u ** (order / 2.0) / (3.0 * math.sqrt(math.pi))
    return scale * _checked_sum(float(const), float(rad) * math.sqrt(2.0), order)


def moment_nowall_p2(branch: int, order: int, t: float) -> float:
    """E[X_branch(t)^order] for the two-branch continuum ensemble, no wall.

    Even moments agree between the branches; odd moments are antisymmetric,
    positive on the upper branch 2.
    """
    _check_branch_order(branch, order)
    _check_time(t)
    u = t * (1.0 - t)
    if order % 2 == 0:
        k = order // 2
        val = Fraction(math.factorial(2 * k) * (k + 1), 2**k * math.factorial(k))
        return float(val) * u**k
    k = (order - 1) // 2
    tail = sum(
        Fraction(_central_binomial(j), 2 ** (3 * j)) for j in range(0, k + 1)
    )
    bracket = (
        Fraction(math.factorial(2 * k + 2), 2 ** (2 * k + 1) * math.factorial(k + 1))
        + (2 * k + 3) * 2**k * math.factorial(k) * tail
    )
    sign = 1.0 if branch == 2 else -1.0
    return sign * float(bracket) * u ** (order / 2.0) / (2.0 * math.sqrt(math.pi))


def _falling_mean(n: int, m: int, t: float) -> float:
    """perm(n, 2m) / (2^m m!) * (t(1-t))^m as a float.

    The exact coefficient has about 2m log2(n) bits, so a value whose
    lgamma estimate lies past 2^1025 raises OverflowError before it is
    built.  When the coefficient is past double range or (t(1-t))^m is
    below the smallest normal double, the exact value is rounded once.
    """
    u = t * (1.0 - t)
    log2_value = (
        math.lgamma(n + 1) - math.lgamma(n + 1 - 2 * m) - math.lgamma(m + 1)
    ) / math.log(2.0) + m * (math.log2(u) - 1.0)
    if log2_value > 1025:
        raise OverflowError(f"the mean is about 2^{log2_value:.0f}, past double range")
    coeff = Fraction(math.perm(n, 2 * m), 2**m * math.factorial(m))
    um = u**m
    if um < sys.float_info.min or coeff > sys.float_info.max:
        return float(coeff * Fraction(u) ** m)
    return float(coeff) * um


def sym_wall_expectation(p: int, k: int, t: float) -> float:
    """Mean of the k-th elementary symmetric polynomial of the squared branches.

    For a p-branch ensemble with wall, E[e_k(X_1^2, ..., X_p^2)] equals
    (2p+1)! / ((2p+1-2k)! 2^k k!) * (t(1-t))^k.  The coefficient obeys the
    recurrence c_k = (p-k+1)(2(p-k)+3)/k * c_{k-1} with c_0 = 1, which is how
    it can be grown degree by degree; the closed form above telescopes it.
    Its numerator is the product of the top 2k factors of (2p+1)!, so the
    cost grows with k, not with p.
    """
    _check_sym_args(p, k, t)
    return _falling_mean(2 * p + 1, k, t)


def sym_nowall_expectation(p: int, k: int, t: float) -> float:
    """Mean of the k-th elementary symmetric polynomial of the branches, no wall.

    Odd k vanishes by the symmetry of the ensemble under sign flip; even
    k = 2m gives (-1)^m p! / ((p-2m)! 2^m m!) * (t(1-t))^m.
    """
    _check_sym_args(p, k, t)
    if k % 2 == 1:
        return 0.0
    m = k // 2
    return (-1) ** m * _falling_mean(p, m, t)


def normalized_table_entry(wall: bool, branch: int, order: int) -> float:
    """One entry of the first-moments table in its scale-free normalization.

    The table lists c * E[X_branch(t)^order] / (t(1-t))^(order/2) where the
    constant c is 3*pi with a wall and 2*pi without; the combination does not
    depend on t, so it is evaluated here at t = 1/2 and rescaled.
    """
    t = 0.5
    u = t * (1.0 - t)
    norm = 3.0 * math.pi if wall else 2.0 * math.pi
    fn = moment_wall_p2 if wall else moment_nowall_p2
    return norm * fn(branch, order, t) / u ** (order / 2.0)


def first_moments_table() -> list[dict[str, object]]:
    """The table of normalized branch moments for orders 1 through 6.

    Each row carries the four normalized entries (both branches, both
    ensembles) as floats, ready for JSON emission by the command line tool.
    """
    rows: list[dict[str, object]] = []
    for order in range(1, 7):
        rows.append(
            {
                "order": order,
                "nowall_lower": normalized_table_entry(False, 1, order),
                "nowall_upper": normalized_table_entry(False, 2, order),
                "wall_lower": normalized_table_entry(True, 1, order),
                "wall_upper": normalized_table_entry(True, 2, order),
            }
        )
    return rows
