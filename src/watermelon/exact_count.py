"""Exact counting of stars and watermelons, and exact step probabilities.

A star is a family of p paths of m steps, each step +-1, the i-th path
starting at height 2i-2, mutually non-touching at every integer time,
with free endpoints; with the wall condition every path must in addition
stay nonnegative.  A watermelon of length 2n is a star of length 2n whose
endpoints return to the starting heights (0, 2, ..., 2p-2).

Counts are evaluated through closed product/factorial formulas using
integer arithmetic only, so they are exact for any size.  The independent
oracle on small instances is a census by transfer: it advances the
number of admissible prefixes ending at each configuration one time step
at a time over all 2^p sign vectors, sharing nothing with the closed
forms except the admissibility predicate.  The exact one-step conditional
probability of a uniformly random watermelon is the ratio of two star
counts; it is returned as an exact rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

#: bound on p*m for the census oracle, which is kept to small instances
BRUTE_FORCE_BUDGET = 24


class BruteForceBudgetError(ValueError):
    """Raised when a brute-force query exceeds the configured search budget."""


_fact = lru_cache(maxsize=None)(math.factorial)


@dataclass(frozen=True)
class StarQuery:
    """A star-counting query: p branches, m steps, fixed endpoints.

    Endpoints must be strictly increasing, share the parity of m (starting
    heights are even and each step flips parity), and be nonnegative when
    the wall condition is on.
    """

    p: int
    m: int
    endpoints: tuple[int, ...]
    wall: bool

    def __post_init__(self):
        object.__setattr__(self, "endpoints", tuple(int(e) for e in self.endpoints))
        if self.p < 1:
            raise ValueError(f"branch count must be positive, got p={self.p}")
        if self.m < 0:
            raise ValueError(f"path length must be nonnegative, got m={self.m}")
        if len(self.endpoints) != self.p:
            raise ValueError(
                f"expected {self.p} endpoints, got {len(self.endpoints)}"
            )
        for lo, hi in zip(self.endpoints, self.endpoints[1:]):
            if lo >= hi:
                raise ValueError(
                    f"endpoints must be strictly increasing, got {self.endpoints}"
                )
        for e in self.endpoints:
            if (e - self.m) % 2 != 0:
                raise ValueError(
                    f"endpoint parity mismatch: {e} with length {self.m}"
                )
        if self.wall and self.endpoints[0] < 0:
            raise ValueError(
                f"wall queries need nonnegative endpoints, got {self.endpoints}"
            )


def count_stars_wall(q: StarQuery) -> int:
    """Exact number of stars with wall ending at q.endpoints.

    Product form: up to the power of two, the count is
    prod_i (e_i + 1) * prod_{i<j} (e_j - e_i)(e_j + e_i + 2)
    times a factorial ratio per branch.  Evaluated with exact integers;
    a negative factorial argument means the endpoint set is unreachable
    and the count is 0.
    """
    if not q.wall:
        raise ValueError("count_stars_wall needs a wall=True query")
    p, m, e = q.p, q.m, q.endpoints
    numer = 1
    denom = 1 << (p * p - p)
    for i, ei in enumerate(e, start=1):
        down = (m - ei) // 2 + p - 1
        if down < 0:
            return 0
        numer *= _fact(m + 2 * i - 2)
        denom *= _fact((m + ei) // 2 + p) * _fact(down)
    for ei in e:
        numer *= ei + 1
    for i in range(p):
        for j in range(i + 1, p):
            numer *= (e[j] - e[i]) * (e[j] + e[i] + 2)
    if numer % denom:
        raise ArithmeticError(
            f"non-integral star count for {q}; formula inconsistency"
        )
    return numer // denom


def count_stars_nowall(q: StarQuery) -> int:
    """Exact number of stars without wall ending at q.endpoints.

    Product form: 2^(-p(p-1)/2) * prod_{i<j}(e_j - e_i) times a factorial
    ratio per branch.  Negative factorial arguments mean count 0.
    """
    if q.wall:
        raise ValueError("count_stars_nowall needs a wall=False query")
    p, m, e = q.p, q.m, q.endpoints
    numer = 1
    denom = 1 << (p * (p - 1) // 2)
    for i, ei in enumerate(e, start=1):
        up = (m + ei) // 2
        down = (m - ei) // 2 + p - 1
        if up < 0 or down < 0:
            return 0
        numer *= _fact(m - i + p)
        denom *= _fact(up) * _fact(down)
    for i in range(p):
        for j in range(i + 1, p):
            numer *= e[j] - e[i]
    if numer % denom:
        raise ArithmeticError(
            f"non-integral star count for {q}; formula inconsistency"
        )
    return numer // denom


def count_stars(q: StarQuery) -> int:
    """Dispatch on the wall flag of the query."""
    return count_stars_wall(q) if q.wall else count_stars_nowall(q)


def watermelon_start(p: int) -> tuple[int, ...]:
    """The pinned start/end configuration (0, 2, ..., 2p-2)."""
    return tuple(2 * i for i in range(p))


def count_watermelons(p: int, n: int, wall: bool) -> int:
    """Exact number of watermelons: stars of length 2n ending at the start."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return count_stars(StarQuery(p, 2 * n, watermelon_start(p), wall))


def _in_chamber(e: tuple[int, ...], wall: bool) -> bool:
    """The admissibility predicate: strictly increasing, nonnegative with a wall."""
    if wall and e[0] < 0:
        return False
    return all(lo < hi for lo, hi in zip(e, e[1:]))


def _count_or_zero(p: int, m: int, e: tuple[int, ...], wall: bool) -> int:
    """Star count extended by 0 to endpoint tuples violating the chamber."""
    if not _in_chamber(e, wall):
        return 0
    return count_stars(StarQuery(p, m, e, wall))


# ---------------------------------------------------------------------------
# census oracle


def _enumerate_endpoint_counts(p, m, wall):
    """Census of every admissible star of length m, one time step at a time.

    A layer maps each configuration reachable at time k to its number of
    admissible k-step prefixes.  Each layer is advanced by all 2^p sign
    vectors, dropping moves that leave the chamber, so after m layers it
    maps every endpoint tuple to its exact star count.
    """
    moves = [tuple(1 if mask & (1 << i) else -1 for i in range(p)) for mask in range(1 << p)]
    layer = {watermelon_start(p): 1}
    for _ in range(m):
        nxt_layer: dict[tuple[int, ...], int] = {}
        for pos, ways in layer.items():
            for mv in moves:
                nxt = tuple(x + s for x, s in zip(pos, mv))
                if _in_chamber(nxt, wall):
                    nxt_layer[nxt] = nxt_layer.get(nxt, 0) + ways
        layer = nxt_layer
    return layer


_enumerate_endpoint_counts = lru_cache(maxsize=64)(_enumerate_endpoint_counts)


def enumerate_brute_force(q: StarQuery) -> int:
    """Count stars by the transfer census; the test oracle.

    Independent of the closed forms: nothing is shared with them except
    the admissibility predicate.  Rejects queries with p*m above the
    budget.
    """
    if q.p * q.m > BRUTE_FORCE_BUDGET:
        raise BruteForceBudgetError(
            f"p*m = {q.p * q.m} exceeds brute-force budget {BRUTE_FORCE_BUDGET}"
        )
    return _enumerate_endpoint_counts(q.p, q.m, q.wall).get(q.endpoints, 0)


# ---------------------------------------------------------------------------
# exact one-step transition probabilities


def is_valid_cross_section(p, n, k, x, wall) -> bool:
    """True when x can be the time-k cross-section of some (p,2n)-watermelon."""
    if not (0 <= k <= 2 * n) or len(x) != p:
        return False
    if not _in_chamber(tuple(x), wall):
        return False
    for i, xi in enumerate(x):
        if (xi - k - 2 * i) % 2 != 0:
            return False
    # reachable from the pinned start, and completable back to it
    if _count_or_zero(p, k, tuple(x), wall) == 0:
        return False
    return _count_or_zero(p, 2 * n - k, tuple(x), wall) > 0


def step_distribution(p, n, k, x, wall):
    """Exact conditional probabilities of every next step of a uniform watermelon.

    Given that a uniformly drawn (p,2n)-watermelon passes through integer
    positions x at time k, the probability that branch i next moves by
    eps_i is the ratio of completion counts

        N(2n-k-1, x+eps) / N(2n-k, x)

    where N counts stars (by time reversal, completions from x in j steps
    are stars of length j ending at x).  Sign vectors are ordered by their
    bit mask (bit i set means branch i steps up).  Returns a list of
    (eps, Fraction) pairs including the zero-probability moves; the
    fractions sum to exactly 1.
    """
    x = tuple(int(v) for v in x)
    if not 0 <= k < 2 * n:
        raise ValueError(f"step index k={k} outside [0, 2n) with n={n}")
    if not is_valid_cross_section(p, n, k, x, wall):
        raise ValueError(
            f"invalid cross-section x={x} at time k={k} for (p={p}, n={n}, wall={wall})"
        )
    denom = _count_or_zero(p, 2 * n - k, x, wall)
    out = []
    for mask in range(1 << p):
        eps = tuple(1 if mask & (1 << i) else -1 for i in range(p))
        nxt = tuple(a + s for a, s in zip(x, eps))
        out.append((eps, Fraction(_count_or_zero(p, 2 * n - k - 1, nxt, wall), denom)))
    return out


# ---------------------------------------------------------------------------
# factorial-ratio asymptotics


def _ratio_grid_arguments(n, t, a, b, c, d):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < t <= 1:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    k = round(n * t)
    beta_real = b * math.sqrt(2 * n)
    beta = round(beta_real)
    if abs(beta_real - beta) > 1e-9:
        raise ValueError(
            f"b*sqrt(2n) = {beta_real} is not an integer; adjust b to the grid"
        )
    if 2 * k + a < 0 or k + beta + c < 0 or k - beta + d < 0:
        raise ValueError("factorial argument would be negative")
    return k, beta


def factorial_ratio_log_exact(n, t, a, b, c, d) -> float:
    """log of (2k+a)! / ((k+b*sqrt(2n)+c)! (k-b*sqrt(2n)+d)!) with k=round(nt).

    The factorials have exact integer arguments; the log is evaluated by
    lgamma, so this side is exact up to float rounding and serves as the
    reference when measuring the asymptotic's relative error.
    """
    k, beta = _ratio_grid_arguments(n, t, a, b, c, d)
    return (
        math.lgamma(2 * k + a + 1)
        - math.lgamma(k + beta + c + 1)
        - math.lgamma(k - beta + d + 1)
    )


def stirling_ratio_log_asymptotic(n, t, a, b, c, d) -> float:
    """log of the closed asymptotic form for the factorial ratio.

    The approximation is (2^(2k+a)/sqrt(pi)) (nt)^(a-c-d-1/2) e^(-2b^2/t)
    with k = round(nt); its relative error decays like 1/sqrt(n),
    uniformly over t in (0, 1] and bounded a, b, c, d.
    """
    k, _beta = _ratio_grid_arguments(n, t, a, b, c, d)
    return (
        (2 * k + a) * math.log(2.0)
        - 0.5 * math.log(math.pi)
        + (a - c - d - 0.5) * math.log(n * t)
        - 2.0 * b * b / t
    )


def stirling_ratio_relative_error(n, t, a, b, c, d) -> float:
    """|exact/asymptotic - 1| computed stably in log space."""
    return abs(
        math.expm1(
            factorial_ratio_log_exact(n, t, a, b, c, d)
            - stirling_ratio_log_asymptotic(n, t, a, b, c, d)
        )
    )
