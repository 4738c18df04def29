"""Uniform sampling of discrete watermelons.

A (p, 2n)-watermelon is sampled one time step at a time: standing at
cross-section x after k steps, each of the 2^p candidate sign vectors eps
gets weight N(2n-k-1, x+eps), the number of ways to finish the
configuration, and the next step is drawn from the normalized weights.
Telescoping these conditionals gives every complete watermelon probability
1/N_total exactly, so the sampler is uniform by construction.

Weights are never materialized as full counts.  For a fixed remaining
length M every candidate endpoint differs from its neighbors by small
rational factors, so the relative weight of each sign vector is a product
of small nonnegative integers (see step_weights).  Invalid moves pick up
a literal zero factor, which is why no admissibility filtering is needed
before normalization.

The batch sampler evaluates those factors as float rows: every factor of
every move is affine in (x, 1, M), so one cached matrix maps a chunk's
states to all of them in a single product, and one left-to-right product
over the factors gives weights bit-identical to multiplying them in the
order of step_weights.  A step therefore costs the same handful of numpy
calls whatever p is.

Randomness: numpy's PCG64 underlies everything, and this module is the one
home of its streams.  derive_replica_rng names three kinds:
PCG64(SeedSequence((base, r))) for replica r of a lattice batch and of a
spectral draw, and (seed, r, 0) and (seed, r, 1) for the base and rescue
streams of an SDE replica.  words is the one reader of them: a 53-bit draw
is one raw 64-bit word >> 11, word for word numpy's integers(0, 2**53).
The scalar sampler with seed s is bit-identical to replica 0 under base
seed s.  Each replica reads one draw per time step (replica_words), and a
draw u stands for the uniform (u + 1)/2^53 in (0, 1].  The inverse-CDF
selection takes the first move whose cumulative weight reaches that
uniform times the total, compared exactly with scaled integer weights
(scalar path) or in floats (batch path), so ties resolve to the lower move
index and a move of weight 0 is never taken, not even by u = 0.  Moves are
indexed by bit mask: bit i set means branch i steps up.

sample_watermelon returns a WatermelonPath, whose rows are plain integer
tuples.  That type and the path CSV reader and writer live in paths, which
needs only the standard library, and are re-exported here.
"""

from functools import lru_cache

import numpy as np

from .paths import WatermelonPath, read_path_csv, write_path_csv  # noqa: F401

U_BITS = 53
_U_DEN = 1 << U_BITS

# replicas per chunk of a batch; results are chunk-invariant because every
# replica owns its seed stream
_CHUNK = 1024
# the most values one sampler call may return, here and in sde_sim; checked
# before anything is drawn
_MAX_VALUES = 60_000_000


def derive_replica_rng(base_seed, replica, *stream):
    """The named per-replica stream: PCG64 seeded by SeedSequence((base, r, *stream))."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((base_seed, replica, *stream)))
    )


def words(rng, count):
    """The next count draws of integers(0, 2**53) on rng, as uint64.

    One draw is one raw 64-bit word >> 11: integers(0, 2**53) never rejects
    on that range, so both read the same words.
    """
    return rng.bit_generator.random_raw(count) >> (64 - U_BITS)


def replica_words(base_seed, replica, count, skip=0):
    """Draws skip .. skip+count-1 of replica stream r; skipping a draw skips one word."""
    rng = derive_replica_rng(base_seed, replica)
    rng.bit_generator.advance(skip)
    return words(rng, count)


def _moves(p):
    """All 2^p sign vectors, indexed by mask; bit i set = branch i up."""
    return tuple(
        tuple(1 if (mask >> i) & 1 else -1 for i in range(p)) for mask in range(1 << p)
    )


_moves = lru_cache(maxsize=None)(_moves)


def step_weights(p, n, wall, k, x):
    """Integer weights for each of the 2^p moves out of cross-section x at time k.

    weights[mask] is proportional to the number of completions after the
    corresponding move; the shared proportionality constant cancels on
    normalization.  Invalid moves get weight exactly 0.
    """
    M = 2 * n - k - 1
    out = []
    for eps in _moves(p):
        e = tuple(a + s for a, s in zip(x, eps))
        w = 1
        for i in range(p):
            if eps[i] == 1:
                f = (M - e[i]) // 2 + p
            elif wall:
                f = (M + e[i]) // 2 + p + 1
            else:
                f = (M + e[i]) // 2 + 1
            if f <= 0:
                w = 0
                break
            w *= f
            if wall:
                w *= e[i] + 1
        if w > 0:
            for i in range(p):
                for j in range(i + 1, p):
                    w *= e[j] - e[i]
                    if wall:
                        w *= e[j] + e[i] + 2
        out.append(max(w, 0))
    return out


def sample_watermelon(p, n, wall, seed):
    """Draw one watermelon exactly uniformly.

    Equals replica 0 of sample_path_batch under base seed `seed`.  Every
    configuration with p >= 1, n >= 1 admits at least one watermelon (the
    nested mirror paths), so no zero-count rejection can trigger in
    domain; out-of-domain parameters raise, and so does a path of over
    60,000,000 positions, before anything is drawn.
    """
    if p < 1 or n < 1:
        raise ValueError("need p >= 1 and n >= 1")
    if (2 * n + 1) * p > _MAX_VALUES:
        raise ValueError("this path would be too large; use a smaller n")
    u = replica_words(seed, 0, 2 * n)
    moves = _moves(p)
    x = tuple(range(0, 2 * p, 2))
    rows = [x]
    for k in range(2 * n):
        # the first move j with (u+1)/2^53 <= (w_0+...+w_j)/total, exactly in
        # integers; an exact tie lands on the lower index and, since u+1 > 0,
        # the chosen weight is positive
        weights = step_weights(p, n, wall, k, x)
        goal = (int(u[k]) + 1) * sum(weights)
        c = 0
        for j, w in enumerate(weights):
            c += w
            if c << U_BITS >= goal:
                break
        x = tuple(a + s for a, s in zip(x, moves[j]))
        rows.append(x)
    return WatermelonPath(p=p, n=n, positions=rows, wall=wall)


def _check_start(p, n, wall, replicas, k0, x0):
    """Reject a start that is not an admissible cross-section at step k0."""
    if not 0 <= k0 <= 2 * n:
        raise ValueError("the start step must lie in [0, 2n]")
    if x0.shape != (replicas, p):
        raise ValueError(f"start positions shape {x0.shape} != {(replicas, p)}")
    shift = x0 - np.arange(0, 2 * p, 2)
    if ((shift - k0) % 2 != 0).any() or (np.abs(shift) > min(k0, 2 * n - k0)).any():
        raise ValueError(f"start positions cannot be reached at step {k0}")
    if (p > 1 and not (x0[:, :-1] < x0[:, 1:]).all()) or (wall and (x0 < 0).any()):
        raise ValueError("start positions must be strictly ordered, and nonnegative with a wall")


@lru_cache(maxsize=None)
def _factor_matrix(p, wall):
    """Every factor of step_weights for every move, as rows affine in z = (x, 1, M).

    Row f * 2^p + mask holds factor f of move mask, the factors in the
    order step_weights multiplies them: f_i, then e_i + 1 with a wall, for
    each branch i; then e_j - e_i, then e_j + e_i + 2 with a wall, for each
    pair i < j.  With e = x + eps and eps_i^2 = 1,
    f_i = (M - eps_i e_i)/2 + offset = M/2 - eps_i x_i/2 - 1/2 + offset.
    """
    eps = np.array(_moves(p), dtype=float)  # (2^p, p)

    def factor(const, coefs, m=0.0):
        rows = np.zeros((1 << p, p + 2))
        for i, c in coefs:
            rows[:, i] = c
        rows[:, p] = const
        rows[:, p + 1] = m
        return rows

    down = p + 1 if wall else 1
    blocks = []
    for i in range(p):
        blocks.append(factor(np.where(eps[:, i] == 1, p, down) - 0.5, [(i, -0.5 * eps[:, i])], 0.5))
        if wall:
            blocks.append(factor(eps[:, i] + 1, [(i, 1.0)]))
    for i in range(p):
        for j in range(i + 1, p):
            blocks.append(factor(eps[:, j] - eps[:, i], [(j, 1.0), (i, -1.0)]))
            if wall:
                blocks.append(factor(eps[:, j] + eps[:, i] + 2, [(j, 1.0), (i, 1.0)]))
    a = np.concatenate(blocks)
    a.setflags(write=False)
    return a


def _move_weights(a, z):
    """Float weights of every move, shape (2^p, b), for states z = (x, 1, M) of shape (p+2, b)."""
    p, b = z.shape[0] - 2, z.shape[1]
    fac = a @ z
    np.maximum(fac, 0.0, out=fac)
    return np.multiply.reduce(fac.reshape(-1, 1 << p, b), axis=0)


def sample_marginal_batch(p, n, wall, base_seed, replicas, k_indices, *, start=None):
    """Cross-sections of many independent watermelons at the requested times.

    Runs the same conditional chain as sample_watermelon but vectorized
    across replicas with float weights (relative rounding ~1e-15, far
    below the 2^-53 uniform resolution; agreement with the exact sampler
    is tested at n = 512 and spot-checked at n = 2048).  Returns integer
    positions with shape (replicas, len(k_indices), p), snapshot times
    sorted ascending.  Replica r depends only on (base_seed, r), so the
    result is independent of chunking and of any outer work splitting.
    A request for over 60,000,000 positions, replicas * len(k_indices) * p,
    or for a chain whose per-chunk draws, (last index - start step) *
    min(replicas, 1024), exceed that count, is refused with ValueError
    before anything is drawn or allocated.

    The chain stops at the last requested index: the steps after it, and
    their draws, are never made.  start=(k0, x0) continues the chains from
    the cross-sections x0, shape (replicas, p), at step k0, with every
    replica's stream moved past its first k0 draws; every index must then
    be at least k0.  Continuing from a snapshot of an earlier call with the
    same base seed gives, bit for bit, the snapshots of one uninterrupted run.
    """
    if p < 1 or n < 1 or replicas < 1:
        raise ValueError("need p >= 1, n >= 1, replicas >= 1")
    if replicas * len(k_indices) * p > _MAX_VALUES:
        raise ValueError("this batch would be too large; use fewer replicas or snapshots")
    two_n = 2 * n
    k0 = 0
    if start is not None:
        k0, x0 = int(start[0]), np.asarray(start[1], dtype=np.int64)
        _check_start(p, n, wall, replicas, k0, x0)
    ks = sorted(set(int(k) for k in k_indices))
    if ks and not (k0 <= ks[0] and ks[-1] <= two_n):
        raise ValueError("snapshot indices must lie in [start step, 2n]")
    k_slot = {k: s for s, k in enumerate(ks)}
    # nothing reads the chain past its last snapshot
    k_end = max(ks, default=k0)
    if (k_end - k0) * min(replicas, _CHUNK) > _MAX_VALUES:
        raise ValueError("the draws of this chain would be too large; use a smaller n")

    a = _factor_matrix(p, wall)
    moves = np.array(_moves(p), dtype=float).T  # (p, 2^p)

    snaps = np.empty((replicas, len(ks), p), dtype=np.int64)
    pinned = np.arange(0, 2 * p, 2, dtype=np.int64)

    for lo in range(0, replicas, _CHUNK):
        hi = min(lo + _CHUNK, replicas)
        b = hi - lo
        # (steps, b), so that each step's uniforms are contiguous; every
        # stream skips the draws of steps 0..k0-1
        u = np.empty((k_end - k0, b))
        for r in range(lo, hi):
            u[:, r - lo] = replica_words(base_seed, r, k_end - k0, skip=k0)
        u += 1.0
        u /= _U_DEN
        # the chunk's states as float rows z = (x_0 .. x_{p-1}, 1, M)
        z = np.empty((p + 2, b))
        z[:p] = pinned[:, None] if start is None else x0[lo:hi].T
        z[p] = 1.0
        x = z[:p]
        if k0 in k_slot:
            snaps[lo:hi, k_slot[k0]] = x.T
        for k in range(k0, k_end):
            # The weights equal, bit for bit, the product of step_weights'
            # factors taken left to right:
            # - every entry of a @ z, and every partial sum of it, is a
            #   multiple of 1/2 below 2^13 (at n = 2048), so BLAS sums it
            #   exactly in any order, with or without FMA;
            # - inside the chamber only the f factors can be negative, and
            #   step_weights clips only those: the others are >= 0 there, so
            #   clipping them too changes nothing;
            # - a multiply reduce over axis 0 is a left fold from factor 0
            #   (only float add reductions sum pairwise);
            # - add.accumulate over axis 0 adds the moves in mask order.
            z[p + 1] = two_n - k - 1
            cum = np.add.accumulate(_move_weights(a, z), axis=0)
            j = (cum < u[k - k0] * cum[-1]).sum(axis=0)
            x += moves.take(j, axis=1)
            if k + 1 in k_slot:
                snaps[lo:hi, k_slot[k + 1]] = x.T
    return snaps


def sample_path_batch(p, n, wall, base_seed, replicas):
    """Full integer paths for a small batch, shape (replicas, 2n+1, p): a snapshot per step."""
    return sample_marginal_batch(p, n, wall, base_seed, replicas, range(2 * n + 1))
