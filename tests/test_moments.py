"""Closed-form moment values, table reproduction, and oracle agreement."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon.moments import (
    _wall_even_normalized,
    _wall_odd_normalized,
    first_moments_table,
    moment_nowall_p2,
    moment_wall_p2,
    normalized_table_entry,
    sym_nowall_expectation,
    sym_wall_expectation,
)
from watermelon.stats_verify import branch_marginal_cdf

SQ2 = math.sqrt(2.0)
SPI = math.sqrt(math.pi)
PI = math.pi

# The published table of normalized branch moments, typed in by hand from
# the closed-form constants.  Keys are (wall, branch); entries are orders
# 1 through 6 of c * E[X^k] / (t(1-t))^(k/2) with c = 2*pi (no wall) or
# 3*pi (wall).
TABLE_TARGETS = {
    (False, 1): [-4 * SPI, 4 * PI, -14 * SPI, 18 * PI, -79 * SPI, 120 * PI],
    (False, 2): [4 * SPI, 4 * PI, 14 * SPI, 18 * PI, 79 * SPI, 120 * PI],
    (True, 1): [
        (15 * SQ2 - 15) * SPI,
        15 * PI - 32,
        (108 * SQ2 - 279 / 2) * SPI,
        135 * PI - 384,
        (1128 * SQ2 - 6213 / 4) * SPI,
        1575 * PI - 4800,
    ],
    (True, 2): [
        15 * SPI,
        15 * PI + 32,
        (279 / 2) * SPI,
        135 * PI + 384,
        (6213 / 4) * SPI,
        1575 * PI + 4800,
    ],
}


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("branch", [1, 2])
def test_table_reproduction(wall, branch):
    for order, want in enumerate(TABLE_TARGETS[(wall, branch)], start=1):
        got = normalized_table_entry(wall, branch, order)
        assert got == pytest.approx(want, rel=1e-12)


def test_table_rows_structure():
    rows = first_moments_table()
    assert [r["order"] for r in rows] == [1, 2, 3, 4, 5, 6]
    mid = rows[1]
    assert mid["wall_upper"] == pytest.approx(15 * PI + 32, rel=1e-12)
    assert mid["wall_lower"] == pytest.approx(15 * PI - 32, rel=1e-12)
    assert mid["nowall_upper"] == pytest.approx(4 * PI, rel=1e-12)


def test_upper_branch_dominates_even_orders():
    # with a wall the branches are ordered pointwise, so every even moment
    # of the upper branch must exceed the lower one; this is the check that
    # pins the labeling convention
    for order in (2, 4, 6):
        for t in (0.2, 0.5, 0.9):
            assert moment_wall_p2(2, order, t) > moment_wall_p2(1, order, t) > 0.0


def test_odd_antisymmetry_nowall():
    for order in (1, 3, 5):
        for t in (0.3, 0.5):
            a = moment_nowall_p2(1, order, t)
            b = moment_nowall_p2(2, order, t)
            assert a == -b
            assert b > 0.0


def test_known_scalar_values():
    t = 0.5
    u = t * (1 - t)
    # order-1 means, also confirmed against the spectral samplers
    assert moment_wall_p2(2, 1, t) == pytest.approx(15 * SPI / (3 * PI) * math.sqrt(u), rel=1e-14)
    assert moment_wall_p2(1, 1, t) == pytest.approx(
        (15 * SQ2 - 15) * SPI / (3 * PI) * math.sqrt(u), rel=1e-12
    )
    assert moment_nowall_p2(2, 1, t) == pytest.approx(2 / SPI * math.sqrt(u), rel=1e-14)
    # second moments
    assert moment_nowall_p2(1, 2, t) == pytest.approx(2 * u, rel=1e-14)
    assert moment_wall_p2(2, 2, t) == pytest.approx((15 * PI + 32) / (3 * PI) * u, rel=1e-14)


def test_time_scaling():
    # every closed form carries (t(1-t))^(order/2); ratios at two times must
    # collapse to that factor
    for wall in (False, True):
        fn = moment_wall_p2 if wall else moment_nowall_p2
        for order in range(1, 7):
            r = fn(2, order, 0.3) / fn(2, order, 0.5)
            want = (0.3 * 0.7 / 0.25) ** (order / 2)
            assert r == pytest.approx(want, rel=1e-12)


def test_symmetric_polynomial_values():
    t = 0.41
    u = t * (1 - t)
    assert sym_wall_expectation(1, 1, t) == pytest.approx(3 * u, rel=1e-14)
    assert sym_wall_expectation(2, 1, t) == pytest.approx(10 * u, rel=1e-14)
    assert sym_wall_expectation(2, 2, t) == pytest.approx(15 * u**2, rel=1e-14)
    assert sym_nowall_expectation(2, 1, t) == 0.0
    assert sym_nowall_expectation(2, 2, t) == pytest.approx(-u, rel=1e-14)
    assert sym_nowall_expectation(3, 2, t) == pytest.approx(-3 * u, rel=1e-14)
    assert sym_nowall_expectation(3, 3, t) == 0.0


def test_cross_law_identities():
    for t in (0.25, 0.5, 0.75):
        u = t * (1 - t)
        total = moment_wall_p2(1, 2, t) + moment_wall_p2(2, 2, t)
        assert total == pytest.approx(sym_wall_expectation(2, 1, t), rel=1e-14)
        assert 2 * moment_nowall_p2(1, 2, t) == pytest.approx(4 * u, rel=1e-14)


@given(p=st.integers(1, 30), k=st.integers(1, 30))
def test_sym_wall_coefficient_recurrence(p, k):
    # the closed-form coefficient must satisfy the degree-lowering recurrence
    # c_k = (p-k+1)(2(p-k)+3)/k * c_{k-1}
    if k > p:
        with pytest.raises(ValueError, match="1 <= k <= p"):
            sym_wall_expectation(p, k, 0.5)
        return
    t = 0.5
    u = t * (1 - t)
    cur = sym_wall_expectation(p, k, t) / u**k
    prev = 1.0 if k == 1 else sym_wall_expectation(p, k - 1, t) / u ** (k - 1)
    want = prev * (p - k + 1) * (2 * (p - k) + 3) / k
    assert cur == pytest.approx(want, rel=1e-9)


def test_sym_coefficients_equal_their_factorial_forms():
    # the falling-factorial coefficients give the values of the factorial
    # quotients (2p+1)!/((2p+1-2k)! 2^k k!) and p!/((p-2m)! 2^m m!), bit for bit
    t = 0.3
    u = t * (1 - t)
    for p in range(1, 41):
        for k in range(1, p + 1):
            wall = Fraction(math.factorial(2 * p + 1),
                            math.factorial(2 * p + 1 - 2 * k) * 2**k * math.factorial(k))
            assert sym_wall_expectation(p, k, t) == float(wall) * u**k
            m = k // 2
            free = 0 if k % 2 else Fraction((-1) ** m * math.factorial(p),
                                            math.factorial(p - 2 * m) * 2**m * math.factorial(m))
            assert sym_nowall_expectation(p, k, t) == float(free) * u**m


def test_sym_low_orders_cost_no_factorial_of_p():
    # the factorial quotient took seconds here; two factors take microseconds
    start = time.perf_counter()
    assert sym_wall_expectation(10**6, 1, 0.5) == 500000250000
    assert sym_nowall_expectation(10**6, 2, 0.5) == -(10**6) * (10**6 - 1) / 8
    assert time.perf_counter() - start < 1.0


def test_sym_means_past_double_range_refused_at_once():
    # the exact coefficients here run to millions of bits and took 19 s and
    # 3 s to build before their float conversion overflowed
    for fn, p, k in ((sym_wall_expectation, 10**6, 10**5),
                     (sym_nowall_expectation, 10**6, 8 * 10**4)):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="past double range"):
            fn(p, k, 0.5)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "fn,p,k,t",
    [(sym_wall_expectation, 10**6, 30, 0.001), (sym_nowall_expectation, 10**6, 60, 0.001),
     (sym_wall_expectation, 150, 150, 0.5)],
    ids=["wall-p1e6", "nowall-p1e6", "wall-p150"],
)
def test_sym_coefficient_past_double_range_with_mean_inside(fn, p, k, t):
    # the coefficient passes 2^1024 but the power of t(1-t) brings the mean
    # back (about 3.9e246, 3.4e228 and 5.5e218); the estimate sums the logs
    # of the factors of perm(n, 2m) / (2^m m!) (t(1-t))^m
    n, m = (2 * p + 1, k) if fn is sym_wall_expectation else (p, k // 2)
    log_mean = math.fsum(
        [math.log(n - j) for j in range(2 * m)]
        + [-math.log(2 * j) for j in range(1, m + 1)]
        + [m * math.log(t * (1 - t))]
    )
    value = fn(p, k, t)
    assert math.isfinite(value) and value > 1e218
    assert value == pytest.approx(math.exp(log_mean), rel=1e-9)


@pytest.mark.parametrize(
    "fn,p,k,t",
    [(sym_wall_expectation, 10**6, 20, 1e-17), (sym_nowall_expectation, 10**6, 40, 1e-17),
     (sym_wall_expectation, 10, 5, 1e-62), (sym_nowall_expectation, 12, 10, 1e-62)],
    ids=["wall-p1e6", "nowall-p1e6", "wall-p10", "nowall-p12"],
)
def test_sym_mean_inside_double_range_with_underflowing_power(fn, p, k, t):
    # (t(1-t))^m is 0 (the first two) or a subnormal that has lost bits (the
    # last two, 1e-310) while the mean is a normal double: it is the exact
    # rational rounded once, not a false 0 or a value wrong in its last digits
    n, m = (2 * p + 1, k) if fn is sym_wall_expectation else (p, k // 2)
    sign = 1 if fn is sym_wall_expectation else (-1) ** m
    exact = sign * Fraction(math.perm(n, 2 * m), 2**m * math.factorial(m)) * Fraction(t * (1 - t)) ** m
    assert (t * (1 - t)) ** m < 2.2250738585072014e-308
    assert fn(p, k, t) == float(exact)
    if (fn, p, k) == (sym_wall_expectation, 10**6, 20):
        assert fn(p, k, t) == 4.308386004168166e-113


def test_validation_rejections():
    with pytest.raises(ValueError, match="branch"):
        moment_wall_p2(3, 2, 0.5)
    with pytest.raises(ValueError, match="branch"):
        moment_nowall_p2(0, 2, 0.5)
    with pytest.raises(ValueError, match="order"):
        moment_wall_p2(1, 0, 0.5)
    with pytest.raises(ValueError, match="t must"):
        moment_nowall_p2(1, 2, 1.0)
    with pytest.raises(ValueError, match="1 <= k <= p"):
        sym_nowall_expectation(2, 3, 0.5)
    with pytest.raises(ValueError, match="positive"):
        sym_wall_expectation(0, 1, 0.5)


def test_lower_wall_branch_holds_its_error_bound_or_refuses():
    # the two terms of the lower branch cancel; up to order 26 the result is
    # within 1e-9 of the exact value, from 27 it is refused, and past the
    # float range the Fractions overflow
    t = 0.5
    for order in range(1, 27):
        with mpmath.workdps(60):
            if order % 2 == 0:
                a, b = _wall_even_normalized(1, order // 2)
                exact = (a.numerator / mpmath.mpf(a.denominator) * mpmath.pi
                         + b.numerator / mpmath.mpf(b.denominator)) / (3 * mpmath.pi)
            else:
                a, b = _wall_odd_normalized(1, (order + 1) // 2)
                exact = (a.numerator / mpmath.mpf(a.denominator)
                         + b.numerator / mpmath.mpf(b.denominator) * mpmath.sqrt(2)
                         ) / (3 * mpmath.sqrt(mpmath.pi))
            exact *= mpmath.mpf(t * (1 - t)) ** (mpmath.mpf(order) / 2)
            assert abs(moment_wall_p2(1, order, t) / exact - 1) <= 1e-9, order
    for order in (27, 90, 295):
        with pytest.raises(ValueError, match=f"order {order}"):
            moment_wall_p2(1, order, t)
    for branch in (1, 2):
        with pytest.raises(OverflowError):
            moment_wall_p2(branch, 296, t)
    # the upper branch does not cancel
    assert moment_wall_p2(2, 295, t) > 0.0


@settings(deadline=None, max_examples=12)
@given(
    wall=st.booleans(),
    branch=st.sampled_from([1, 2]),
    order=st.integers(1, 6),
)
def test_quadrature_oracle_agreement(wall, branch, order):
    # independent check: integrate x^order against the Gram-determinant
    # marginal CDF on a grid; the comparison tolerance covers the grid
    # discretization error at order 6
    t = 0.5
    F = branch_marginal_cdf(2, t, wall, branch - 1)
    hi = 10.0 * math.sqrt(t * (1 - t)) * math.sqrt(2)
    lo = 0.0 if wall else -hi
    grid = np.linspace(lo, hi, (1 << 15) + 1)
    vals = F(grid)
    mids = 0.5 * (grid[1:] + grid[:-1])
    got = float(np.sum(mids**order * np.diff(vals)))
    fn = moment_wall_p2 if wall else moment_nowall_p2
    want = fn(branch, order, t)
    assert got == pytest.approx(want, rel=5e-5)
