"""Tests for the uniform watermelon sampler.

Oracle: the exact conditional distribution from exact_count.step_distribution.
The sampler's integer weight tables must normalize to those Fractions
exactly, which reduces sampler correctness to the inverse-CDF mechanics.
"""

import hashlib
import io
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from watermelon import discrete_walk
from watermelon.discrete_walk import (
    WatermelonPath,
    _factor_matrix,
    _move_weights,
    derive_replica_rng,
    read_path_csv,
    replica_words,
    sample_marginal_batch,
    sample_path_batch,
    sample_watermelon,
    step_weights,
    write_path_csv,
)
from watermelon.exact_count import count_watermelons, step_distribution, watermelon_start


# ---------------------------------------------------------------------------
# weights against the exact oracle


@pytest.mark.parametrize(
    "p,n,wall",
    [(1, 3, True), (2, 3, True), (2, 3, False), (3, 2, True), (3, 2, False), (1, 4, False)],
)
def test_step_weights_normalize_to_exact_distribution(p, n, wall):
    rnd = random.Random(70 + p)
    for _ in range(25):
        x = watermelon_start(p)
        for k in range(2 * n):
            dist = step_distribution(p, n, k, x, wall)
            w = step_weights(p, n, wall, k, x)
            total = sum(w)
            for (eps, pr), wi in zip(dist, w):
                assert Fraction(wi, total) == pr
            live = [(e, float(pr)) for e, pr in dist if pr > 0]
            eps = rnd.choices([e for e, _ in live], weights=[q for _, q in live])[0]
            x = tuple(a + s for a, s in zip(x, eps))


# ---------------------------------------------------------------------------
# frozen examples


def test_unique_watermelons_are_forced():
    path = sample_watermelon(1, 1, True, 0)
    assert path.positions == ((0,), (1,), (0,))
    path = sample_watermelon(2, 1, True, 123)
    assert path.positions == ((0, 2), (1, 3), (0, 2))


def test_p1_n2_wall_is_a_fair_coin():
    hits = sum(
        sample_watermelon(1, 2, True, s).positions[2][0] == 2 for s in range(2000)
    )
    # the peak path 0,1,2,1,0 has probability 1/2; 4.5 sigma band
    assert abs(hits / 2000 - 0.5) < 4.5 * math.sqrt(0.25 / 2000)


def test_determinism_bit_for_bit():
    a = sample_watermelon(2, 50, True, 99)
    b = sample_watermelon(2, 50, True, 99)
    assert np.array_equal(a.positions, b.positions)
    c = sample_watermelon(2, 50, True, 100)
    assert not np.array_equal(a.positions, c.positions)


def test_named_replica_stream_is_stable():
    # the documented stream: PCG64(SeedSequence((base, r))); frozen draws
    g = derive_replica_rng(12345, 3)
    assert g.integers(0, 1 << 53, size=3, dtype=np.int64).tolist() == [
        7244322032078620,
        6774808108302205,
        6511312921708219,
    ]


@pytest.mark.parametrize("seed,replica,skip", [(0, 0, 0), (12345, 3, 5), (20260824, 9999, 1024)])
def test_replica_words_are_bounded_integers_after_a_skip(seed, replica, skip):
    want = derive_replica_rng(seed, replica).integers(0, 1 << 53, size=skip + 700)[skip:]
    assert np.array_equal(replica_words(seed, replica, 700, skip=skip), want)


# ---------------------------------------------------------------------------
# path invariants


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_sampled_paths_satisfy_invariants(p, n, wall, seed):
    path = sample_watermelon(p, n, wall, seed)  # __post_init__ validates
    # time reversal of a watermelon is again a watermelon
    assert all(type(v) is int for row in path.positions for v in row)
    WatermelonPath(p=p, n=n, positions=path.positions[::-1], wall=wall)


def test_invalid_paths_rejected():
    with pytest.raises(ValueError, match="pinned"):
        WatermelonPath(p=1, n=1, positions=np.array([[0], [1], [2]]), wall=True)
    with pytest.raises(ValueError, match="ordered"):
        WatermelonPath(
            p=2, n=1, positions=np.array([[0, 2], [3, 1], [0, 2]]), wall=True
        )
    with pytest.raises(ValueError, match="exactly one"):
        WatermelonPath(p=1, n=2, positions=np.array([[0], [2], [2], [1], [0]]), wall=True)
    with pytest.raises(ValueError, match="nonnegative"):
        WatermelonPath(p=1, n=1, positions=np.array([[0], [-1], [0]]), wall=True)
    # the same excursion below zero is legal without the wall
    WatermelonPath(p=1, n=1, positions=np.array([[0], [-1], [0]]), wall=False)
    # a row too few for n = 2, a short row, and rows one branch too wide
    with pytest.raises(ValueError, match=re.escape("positions shape (4, 1) != (5, 1)")):
        WatermelonPath(p=1, n=2, positions=((0,), (1,), (2,), (1,)), wall=True)
    with pytest.raises(ValueError, match=re.escape("positions shape (3, 1) != (3, 2)")):
        WatermelonPath(p=2, n=1, positions=((0, 2), (1,), (0, 2)), wall=True)
    with pytest.raises(ValueError, match=re.escape("positions shape (3, 3) != (3, 2)")):
        WatermelonPath(p=2, n=1, positions=((0, 2, 4), (1, 3, 5), (0, 2, 4)), wall=True)
    with pytest.raises(ValueError, match="p >= 1"):
        sample_watermelon(0, 1, True, 0)


# ---------------------------------------------------------------------------
# exact uniformity on small instances (chi-square at 1%)


@pytest.mark.parametrize("p,n", [(1, 2), (1, 3), (2, 2)])
def test_uniformity_chi_square(p, n):
    total = count_watermelons(p, n, True)
    samples = 100_000
    counts = Counter(
        sample_watermelon(p, n, True, s).positions for s in range(samples)
    )
    assert len(counts) == total, "some watermelon was never sampled"
    expected = samples / total
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    crit = sps.chi2.isf(0.01, df=total - 1)
    assert chi2 < crit, (chi2, crit)


# ---------------------------------------------------------------------------
# batch sampler


def test_batch_replica_zero_matches_scalar():
    for p, n, wall in [(1, 40, True), (2, 30, False)]:
        paths = sample_path_batch(p, n, wall, 42, 3)
        scalar = sample_watermelon(p, n, wall, 42)
        assert np.array_equal(paths[0], scalar.positions)


@pytest.mark.parametrize("word", [0, (1 << 53) - 1])
@pytest.mark.parametrize("p,n,wall", [(1, 4, True), (2, 3, True), (2, 3, False), (3, 2, True)])
def test_extreme_draws_take_only_moves_of_positive_weight(monkeypatch, word, p, n, wall):
    # the smallest draw takes the first move of positive weight at every
    # step, the largest draw the last, in both samplers
    monkeypatch.setattr(discrete_walk, "replica_words",
                        lambda base_seed, replica, count, skip=0: np.full(count, word, np.uint64))
    rows = sample_watermelon(p, n, wall, 0).positions
    assert np.array_equal(sample_path_batch(p, n, wall, 0, 2), [rows, rows])
    for k, (x, y) in enumerate(zip(rows, rows[1:])):
        live = [j for j, w in enumerate(step_weights(p, n, wall, k, x)) if w > 0]
        eps = discrete_walk._moves(p)[live[0] if word == 0 else live[-1]]
        assert y == tuple(a + s for a, s in zip(x, eps))


def test_batch_chunk_invariance_and_snapshot_order(monkeypatch):
    monkeypatch.setattr(discrete_walk, "_CHUNK", 3)
    a = sample_marginal_batch(2, 40, True, 9, 10, [0, 40, 80])
    monkeypatch.setattr(discrete_walk, "_CHUNK", 1024)
    b = sample_marginal_batch(2, 40, True, 9, 10, [80, 0, 40])
    assert np.array_equal(a, b)
    paths = sample_path_batch(2, 40, True, 9, 10)
    assert np.array_equal(a[:, 0], paths[:, 0])
    assert np.array_equal(a[:, 1], paths[:, 40])
    assert np.array_equal(a[:, 2], paths[:, 80])


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_marginal_batch_continues_from_a_snapshot(monkeypatch, p, wall):
    # a chain stopped at its last snapshot and continued from it, with
    # chunks that split the 11 replicas unevenly, is the uninterrupted chain
    monkeypatch.setattr(discrete_walk, "_CHUNK", 4)
    whole = sample_marginal_batch(p, 40, wall, 5, 11, [10, 25, 80])
    monkeypatch.setattr(discrete_walk, "_CHUNK", 3)
    head = sample_marginal_batch(p, 40, wall, 5, 11, [10, 25])
    monkeypatch.setattr(discrete_walk, "_CHUNK", 4)
    tail = sample_marginal_batch(p, 40, wall, 5, 11, [25, 60, 80], start=(25, head[:, 1]))
    assert np.array_equal(whole[:, :2], head)
    assert np.array_equal(whole[:, 1:], tail[:, [0, 2]])
    paths = sample_path_batch(p, 40, wall, 5, 11)
    assert np.array_equal(tail, paths[:, [25, 60, 80]])


def test_marginal_batch_rejects_a_bad_start():
    x = sample_marginal_batch(2, 10, True, 3, 4, [6])[:, 0]
    with pytest.raises(ValueError, match="snapshot indices"):
        sample_marginal_batch(2, 10, True, 3, 4, [5], start=(6, x))
    with pytest.raises(ValueError, match="shape"):
        sample_marginal_batch(2, 10, True, 3, 3, [8], start=(6, x))
    with pytest.raises(ValueError, match="reached"):
        sample_marginal_batch(2, 10, True, 3, 4, [8], start=(7, x))
    with pytest.raises(ValueError, match="reached"):
        sample_marginal_batch(2, 10, True, 3, 4, [18], start=(16, x + 6))
    for bad in ([2, 2], [-2, 2]):  # a tie, and a branch below the wall
        with pytest.raises(ValueError, match="ordered"):
            sample_marginal_batch(2, 10, True, 3, 4, [8], start=(6, np.tile(bad, (4, 1))))


def test_batch_snapshot_parity_and_ordering():
    snaps = sample_marginal_batch(2, 64, False, 11, 50, [31, 64])
    assert ((snaps[:, 0] - 31) % 2 == 0).all()
    assert ((snaps[:, 1] - 64) % 2 == 0).all()
    assert (snaps[:, :, 0] < snaps[:, :, 1]).all()
    wall_snaps = sample_marginal_batch(2, 64, True, 11, 50, [32])
    assert wall_snaps.min() >= 0


def test_float_mode_agrees_with_exact_at_anchor():
    # the documented large-n anchor: exact scalar vs float batch, n = 512
    for p, wall in [(1, True), (2, True), (2, False)]:
        batch = sample_path_batch(p, 512, wall, 2024, 2)
        exact = sample_watermelon(p, 512, wall, 2024)
        assert np.array_equal(batch[0], exact.positions), (p, wall)


@pytest.mark.slow
def test_float_mode_agrees_with_exact_at_2048():
    batch = sample_path_batch(2, 2048, True, 7, 1)
    exact = sample_watermelon(2, 2048, True, 7)
    assert np.array_equal(batch[0], exact.positions)


def _step_factors(p, n, wall, k, x, mask):
    """step_weights' integer factors of one move, in its order, f clipped at 0."""
    M = 2 * n - k - 1
    eps = [1 if (mask >> i) & 1 else -1 for i in range(p)]
    e = [a + s for a, s in zip(x, eps)]
    out = []
    for i in range(p):
        if eps[i] == 1:
            f = (M - e[i]) // 2 + p
        else:
            f = (M + e[i]) // 2 + (p + 1 if wall else 1)
        out.append(max(f, 0))
        if wall:
            out.append(e[i] + 1)
    for i in range(p):
        for j in range(i + 1, p):
            out.append(e[j] - e[i])
            if wall:
                out.append(e[j] + e[i] + 2)
    return out


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("p", [2, 3])
def test_batch_weights_fold_factors_left_to_right(p, wall):
    # At n = 2048 the weights reach 2^89 (p = 3 with the wall): once the
    # running product passes 2^53 each factor rounds it, and a reorder of
    # those factors moves last bits (a reorder among the first few, whose
    # product stays exact, cannot show).  At the goldens' n = 64 almost no
    # product rounds.  Every batch weight must equal, bit for bit, the float
    # product of step_weights' factors taken left to right from 1.0.
    n = 2048
    a = _factor_matrix(p, wall)
    paths = sample_path_batch(p, n, wall, 20260824, 3)
    got, want = [], []
    for k in range(0, 2 * n, 7):
        x = paths[:, k]
        z = np.vstack([x.T, np.ones(len(x)), np.full(len(x), 2 * n - k - 1)]).astype(float)
        got.append(_move_weights(a, z).T)
        for row in x.tolist():
            exact = step_weights(p, n, wall, k, row)
            weights = []
            for mask in range(1 << p):
                factors = _step_factors(p, n, wall, k, row, mask)
                assert math.prod(factors) == exact[mask]
                w = 1.0
                for f in factors:
                    w *= float(f)
                weights.append(w)
            want.append(weights)
    got = np.concatenate(got)
    assert got.shape == (3 * len(range(0, 2 * n, 7)), 1 << p)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


# sha256 of repr(shape) followed by the little-endian int64 bytes.  These
# pin the chain sampler's output exactly: replica streams, move indexing,
# weights and the selection rule.  A float weight that moved by an ulp
# would flip a draw only about once in 2^52, so the weights themselves
# are pinned by test_batch_weights_fold_factors_left_to_right, not by this.
GOLDEN_MARGINALS = {
    (1, False): "f118354491727f46db8fd05560c94b4d33854a6f17a0eaf2980e49ae1edc46b4",
    (1, True): "55f734a002a1870cb30ed9d01f8d75f46a674aeeb2a55a550be967dbc41b6f39",
    (2, False): "e5a61fa54948d8a924df53aab3b77ef51a81785bdfce6a5ac530da2775df9a7f",
    (2, True): "1fd361a0dd3afb8ee2aa91fb8879a29b96453b5c68b2a42c9612aca8c27ec8c9",
    (3, False): "472d03fcb66db3ed75f7af685740759d21d8a1d3cad88237362d07c82887680c",
    (3, True): "34bb233b20309cf4aa5f2d55b17bae0c089f96dbcda10e57bb304308e0656d59",
}
GOLDEN_PATHS = "2867e37306418254eca154ded33aa4c638cb00ef7a91a2bcacee455cb95c30e6"


def array_digest(a):
    a = np.ascontiguousarray(a, dtype="<i8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("p,wall", sorted(GOLDEN_MARGINALS))
def test_marginal_batch_golden_bytes(monkeypatch, p, wall):
    n = 64
    monkeypatch.setattr(discrete_walk, "_CHUNK", 16)
    snaps = sample_marginal_batch(p, n, wall, 20260824 + p, 37, (0, 1, n, 2 * n))
    assert array_digest(snaps) == GOLDEN_MARGINALS[(p, wall)]


class DrawReached(Exception):
    pass


@pytest.fixture
def no_draws(monkeypatch):
    """The first draw of either sampler raises DrawReached: no step is made."""
    def first_draw(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(discrete_walk, "replica_words", first_draw)


def test_path_batch_size_cap_comes_before_the_chain(no_draws):
    # full paths hold at most 60,000,000 elements: 128 * (2 * 117,187 + 1) * 2
    # is exactly that; a larger batch is refused before any step is drawn
    with pytest.raises(DrawReached):
        sample_path_batch(2, 117_187, True, 0, 128)
    for p, n, replicas in ((2, 117_187, 129), (3, 20_000_000, 1)):
        with pytest.raises(ValueError, match="too large"):
            sample_path_batch(p, n, True, 0, replicas)


def test_marginal_batch_size_cap_comes_before_the_chain(no_draws):
    # replicas * snapshot indices * p: 20,000,000 * 1 * 3 is the most
    with pytest.raises(DrawReached):
        sample_marginal_batch(3, 2, True, 0, 20_000_000, [1])
    for replicas, ks in ((20_000_001, [1]), (10_000_001, [1, 3]), (10**12, [1])):
        with pytest.raises(ValueError, match="too large"):
            sample_marginal_batch(3, 2, True, 0, replicas, ks)


def test_marginal_batch_chain_draws_cap_comes_before_the_chain(no_draws, monkeypatch):
    # one snapshot can need a long chain: its per-chunk draws, (last index -
    # start step) * min(replicas, _CHUNK), are capped too
    with pytest.raises(ValueError, match="too large"):
        sample_marginal_batch(1, 10**12, True, 0, 1, [2 * 10**12])
    monkeypatch.setattr(discrete_walk, "_MAX_VALUES", 2048)
    monkeypatch.setattr(discrete_walk, "_CHUNK", 4)
    for replicas, k, start in ((10, 512, None), (2, 1024, None),
                               (4, 1024, (512, np.zeros((4, 1), dtype=np.int64)))):
        with pytest.raises(DrawReached):
            sample_marginal_batch(1, 1024, True, 0, replicas, [k], start=start)
    for replicas, k, start in ((10, 513, None), (3, 683, None),
                               (4, 1026, (512, np.zeros((4, 1), dtype=np.int64)))):
        with pytest.raises(ValueError, match="too large"):
            sample_marginal_batch(1, 1024, True, 0, replicas, [k], start=start)


def test_scalar_sample_size_cap_comes_before_the_draws(no_draws):
    # one path holds (2n + 1) * p positions, at most 60,000,000
    with pytest.raises(DrawReached):
        sample_watermelon(1, 29_999_999, True, 0)
    for p, n in ((1, 30_000_000), (2, 15_000_000), (1, 10**12)):
        with pytest.raises(ValueError, match="too large"):
            sample_watermelon(p, n, True, 0)


def test_path_batch_golden_bytes(monkeypatch):
    monkeypatch.setattr(discrete_walk, "_CHUNK", 2)
    assert array_digest(sample_path_batch(3, 40, True, 7, 5)) == GOLDEN_PATHS


# ---------------------------------------------------------------------------
# CSV round trip


# sha256 of the write_path_csv bytes of sample_watermelon(p, 30, wall, 100 + p),
# recorded while WatermelonPath still held its rows in a numpy array
GOLDEN_PATH_CSV = {
    (1, False): "367e5c27574dfa7b6cce35dd077343244294ee3ed8d0820ae6f8d533a23c03be",
    (1, True): "08528dc01a919165d102d828da8d21ab645914ee2bd7646673f906d379691f54",
    (2, False): "a5f7f103eec92265a8b33e63e3694c610498b698acc993e8fb579e61ec6ac047",
    (2, True): "5ec783b879a70f36d5148536a737b12aaf89f23774d78e5a7ac7d618aadfe3a6",
    (3, False): "d26a943b09189a27e1677931ff7b1457359503d9a933f8a56277e34f60f219e8",
    (3, True): "800dec6b54b84cb4d72d626463639b6f04dcd217bfe7d8a2cde1c7f49736f968",
}


@pytest.mark.parametrize("p,wall", sorted(GOLDEN_PATH_CSV))
def test_path_csv_golden_bytes(p, wall):
    buf = io.StringIO()
    write_path_csv(sample_watermelon(p, 30, wall, 100 + p), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_PATH_CSV[(p, wall)]


def test_csv_round_trip():
    path = sample_watermelon(2, 5, True, 8)
    buf = io.StringIO()
    write_path_csv(path, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "k,branch_1,branch_2"
    back = read_path_csv(io.StringIO(text), wall=True)
    assert back.p == 2 and back.n == 5
    assert np.array_equal(back.positions, path.positions)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("t,x_1\n0,0\n1,1\n2,0\n", "header"),
        ("k,branch_2\n0,0\n1,1\n2,0\n", "header"),
        # a valid p = 1 path whose k column is not the time grid
        ("k,branch_1\n7,0\n9,1\n5,0\n", "k column"),
        ("k,branch_1\n0,0\n2,1\n4,0\n", "k column"),
        ("k,branch_1,branch_2\n0,0,2\n1,1\n2,0,2\n", "shape"),
    ],
    ids=["empty", "foreign-header", "misnumbered-branch", "k-shuffled", "k-skips", "short-row"],
)
def test_csv_reader_rejects_malformed_files(text, message):
    with pytest.raises(ValueError, match=message):
        read_path_csv(io.StringIO(text), wall=True)
