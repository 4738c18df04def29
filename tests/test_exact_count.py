"""Tests for exact star/watermelon counting and step probabilities.

The census (enumerate_brute_force) is the oracle throughout: closed forms
are checked against it on exhaustive sweeps, and every frozen example
value below was produced by it (or is small enough to check by hand).
The census itself is checked against a plain enumeration of every sign
sequence.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from watermelon.exact_count import (
    BRUTE_FORCE_BUDGET,
    BruteForceBudgetError,
    StarQuery,
    count_stars,
    count_stars_nowall,
    count_stars_wall,
    count_watermelons,
    enumerate_brute_force,
    factorial_ratio_log_exact,
    is_valid_cross_section,
    step_distribution,
    stirling_ratio_log_asymptotic,
    stirling_ratio_relative_error,
    watermelon_start,
)


def admissible_endpoints(p, m, wall):
    """All endpoint tuples a length-m star could possibly reach.

    Cartesian candidates with the right parity inside the reachable box,
    strictly increasing, nonnegative under the wall.  Includes unreachable
    tuples (the closed form and the oracle must agree those are 0).
    """
    lo = 0 if wall else -(m + 2)
    hi = m + 2 * p  # slack beyond the reachable range on purpose
    values = [v for v in range(lo, hi + 1) if (v - m) % 2 == 0]

    def grow(prefix, rest):
        if rest == 0:
            yield tuple(prefix)
            return
        start = prefix[-1] + 2 if prefix else values[0]
        for v in values:
            if v >= start:
                yield from grow(prefix + [v], rest - 1)

    yield from grow([], p)


# ---------------------------------------------------------------------------
# frozen examples (oracle-derived where not trivially hand-checkable)


@pytest.mark.parametrize(
    "p,m,e,expected",
    [
        (1, 2, (0,), 1),
        (2, 2, (0, 2), 1),
        (1, 0, (0,), 1),
        (1, 3, (1,), 2),  # UUD, UDU
        (1, 6, (0,), 5),  # Catalan number
        (3, 2, (0, 2, 4), 1),
        (2, 4, (0, 2), 3),
    ],
)
def test_count_stars_wall_examples(p, m, e, expected):
    q = StarQuery(p, m, e, True)
    assert count_stars_wall(q) == expected
    assert enumerate_brute_force(q) == expected


@pytest.mark.parametrize(
    "p,m,e,expected",
    [
        (1, 4, (2,), 4),  # C(4,3)
        (1, 0, (0,), 1),
        (2, 2, (0, 2), 3),
        (1, 2, (4,), 0),  # unreachable
        (2, 4, (0, 2), 20),
        (2, 2, (-2, 0), 1),  # both walkers forced down twice
    ],
)
def test_count_stars_nowall_examples(p, m, e, expected):
    q = StarQuery(p, m, e, False)
    assert count_stars_nowall(q) == expected
    assert enumerate_brute_force(q) == expected


def test_count_watermelons_examples():
    assert count_watermelons(1, 3, True) == 5
    assert count_watermelons(1, 3, False) == 20
    assert count_watermelons(2, 1, True) == 1
    assert count_watermelons(1, 0, True) == 1


def test_count_watermelons_matches_star_form():
    for p in (1, 2, 3):
        for n in (0, 1, 2, 3):
            for wall in (True, False):
                q = StarQuery(p, 2 * n, watermelon_start(p), wall)
                assert count_watermelons(p, n, wall) == count_stars(q)


def test_big_instance_is_exact_integer():
    # far beyond float precision; value regression-frozen from this code,
    # with its magnitude sanity-checked against 4^(2n)=2^80 total paths
    v = count_watermelons(2, 20, True)
    assert isinstance(v, int)
    assert v == 1904342169333848400
    assert v < 4 ** 40


# ---------------------------------------------------------------------------
# oracle sweeps


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_closed_form_matches_brute_force_sweep(p, wall):
    # unit-test-sized sweep; the acceptance run extends m to 8
    for m in range(0, 7 if p < 3 else 5):
        for e in admissible_endpoints(p, m, wall):
            q = StarQuery(p, m, e, wall)
            assert count_stars(q) == enumerate_brute_force(q), (p, m, e, wall)


def sign_sequence_tally(p, m, wall):
    """Endpoint tallies from walking all 2^(p*m) sign sequences one by one."""
    moves = list(itertools.product((-1, 1), repeat=p))
    tally = {}
    for seq in itertools.product(moves, repeat=m):
        pos = watermelon_start(p)
        for eps in seq:
            pos = tuple(x + s for x, s in zip(pos, eps))
            if (wall and pos[0] < 0) or any(a >= b for a, b in zip(pos, pos[1:])):
                break
        else:
            tally[pos] = tally.get(pos, 0) + 1
    return tally


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_census_matches_sign_sequence_enumeration(p, wall):
    # every length with p*m <= 12, so at most 4096 sequences per case
    for m in range(0, 12 // p + 1):
        tally = sign_sequence_tally(p, m, wall)
        assert tally, (p, m, wall)
        for e in admissible_endpoints(p, m, wall):
            got = enumerate_brute_force(StarQuery(p, m, e, wall))
            assert got == tally.get(e, 0), (p, m, e, wall)
        assert set(tally) <= set(admissible_endpoints(p, m, wall))


@pytest.mark.parametrize("wall", [True, False])
def test_chapman_kolmogorov(wall):
    # N(m, e) equals the sum of N(m-1, e-eps) over all sign vectors
    for p in (1, 2):
        for m in range(1, 6):
            for e in admissible_endpoints(p, m, wall):
                q = StarQuery(p, m, e, wall)
                total = 0
                for mask in range(1 << p):
                    eps = [1 if mask & (1 << i) else -1 for i in range(p)]
                    prev = tuple(a - s for a, s in zip(e, eps))
                    if any(x >= y for x, y in zip(prev, prev[1:])):
                        continue
                    if wall and prev[0] < 0:
                        continue
                    total += count_stars(StarQuery(p, m - 1, prev, wall))
                assert total == count_stars(q), (p, m, e, wall)


def test_budget_rejected():
    with pytest.raises(BruteForceBudgetError):
        enumerate_brute_force(StarQuery(3, 9, (1, 3, 5), True))
    assert 3 * 8 <= BRUTE_FORCE_BUDGET


# ---------------------------------------------------------------------------
# query validation


def test_invalid_queries_rejected():
    with pytest.raises(ValueError, match="increas"):
        StarQuery(2, 2, (2, 0), True)
    with pytest.raises(ValueError, match="parity"):
        StarQuery(1, 2, (1,), True)
    with pytest.raises(ValueError, match="nonnegative"):
        StarQuery(1, 2, (-2,), True)
    with pytest.raises(ValueError):
        StarQuery(0, 2, (), True)
    with pytest.raises(ValueError):
        count_stars_wall(StarQuery(1, 2, (0,), False))
    with pytest.raises(ValueError):
        count_stars_nowall(StarQuery(1, 2, (0,), True))


# ---------------------------------------------------------------------------
# step probabilities


def test_step_distribution_examples():
    assert dict(step_distribution(1, 2, 0, (0,), True))[(1,)] == 1
    assert dict(step_distribution(1, 2, 1, (1,), True))[(1,)] == Fraction(1, 2)
    assert dict(step_distribution(1, 1, 1, (1,), True))[(-1,)] == 1


def test_step_distribution_is_exact_ratio_of_counts():
    num = count_stars_wall(StarQuery(1, 2, (2,), True))
    den = count_stars_wall(StarQuery(1, 3, (1,), True))
    assert dict(step_distribution(1, 2, 1, (1,), True))[(1,)] == Fraction(num, den)


def test_step_distribution_sums_to_one_exactly():
    cases = [
        (1, 3, 2, (0,), True),
        (1, 3, 3, (1,), True),
        (2, 2, 1, (1, 3), True),
        (2, 3, 2, (0, 2), True),
        (2, 3, 3, (1, 3), False),
        (3, 2, 2, (0, 2, 4), False),
        (2, 4, 5, (-1, 1), False),
    ]
    for p, n, k, x, wall in cases:
        dist = step_distribution(p, n, k, x, wall)
        assert sum(pr for _, pr in dist) == Fraction(1)
        assert all(0 <= pr <= 1 for _, pr in dist)


def test_invalid_cross_sections_rejected():
    # wrong parity at odd time
    with pytest.raises(ValueError, match="cross-section"):
        step_distribution(1, 2, 1, (0,), True)
    # unreachable from the start in k steps
    with pytest.raises(ValueError, match="cross-section"):
        step_distribution(1, 4, 1, (3,), True)
    # reachable but not completable by time 2n
    with pytest.raises(ValueError, match="cross-section"):
        step_distribution(1, 2, 3, (3,), True)
    # the end of the watermelon has no next step
    with pytest.raises(ValueError, match="step index"):
        step_distribution(1, 2, 4, (0,), True)


def test_validity_helper():
    assert is_valid_cross_section(2, 2, 2, (0, 2), True)
    assert is_valid_cross_section(2, 2, 2, (0, 2), False)
    assert not is_valid_cross_section(1, 2, 1, (2,), True)
    assert not is_valid_cross_section(2, 2, 1, (1, 1), True)


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
    st.integers(min_value=0),
)
def test_property_closed_form_equals_oracle(p, m, wall, pick):
    if p * m > 18:
        m = 18 // p
    candidates = list(admissible_endpoints(p, m, wall))
    e = candidates[pick % len(candidates)]
    q = StarQuery(p, m, e, wall)
    assert count_stars(q) == enumerate_brute_force(q)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=200),
    st.booleans(),
)
def test_property_step_distribution_normalizes(p, n, seed, wall):
    # walk to a random interior time using the exact distribution itself,
    # then check the invariant there; the walk consumes the seed digits
    k = 0
    x = watermelon_start(p)
    digits = seed
    while k < n:  # stop mid-path; k = n < 2n so a next step always exists
        dist = [(e, pr) for e, pr in step_distribution(p, n, k, x, wall) if pr > 0]
        pick = digits % len(dist)
        digits //= len(dist)
        x = tuple(a + s for a, s in zip(x, dist[pick][0]))
        k += 1
    dist = step_distribution(p, n, k, x, wall)
    assert sum(pr for _, pr in dist) == 1


# ---------------------------------------------------------------------------
# factorial-ratio asymptotics


def test_asymptotic_small_value_matches_central_binomial():
    # b=0, a=c=d=0: the exact ratio is the central binomial coefficient
    for n, t in [(10, 1.0), (50, 0.5)]:
        k = round(n * t)
        exact = math.comb(2 * k, k)
        approx = math.exp(stirling_ratio_log_asymptotic(n, t, 0, 0.0, 0, 0))
        assert abs(approx / exact - 1) < 1.0 / math.sqrt(n)
        log_exact = factorial_ratio_log_exact(n, t, 0, 0.0, 0, 0)
        assert math.isclose(log_exact, math.log(exact), rel_tol=1e-12)


def test_relative_error_bound_and_decay():
    errs = [stirling_ratio_relative_error(n, 0.5, 2, 0.0, 1, 1) for n in (100, 10_000)]
    assert errs[1] < 5 / math.sqrt(10_000)
    # decreases by at least an order of magnitude over two decades
    assert errs[0] / errs[1] >= 10


def test_grid_b_example():
    n = 10_000
    b = round(0.1 * math.sqrt(2 * n)) / math.sqrt(2 * n)
    assert stirling_ratio_relative_error(n, 0.5, 2, b, 1, 1) < 5 / math.sqrt(n)


def test_ratio_grid_domain_rejections():
    with pytest.raises(ValueError, match="integer"):
        stirling_ratio_relative_error(100, 0.5, 0, 0.123, 0, 0)
    with pytest.raises(ValueError, match="t must"):
        stirling_ratio_relative_error(100, 1.5, 0, 0.0, 0, 0)
    with pytest.raises(ValueError, match="negative"):
        stirling_ratio_relative_error(4, 0.25, 0, 0.0, -3, 0)
