import hashlib
import io
import math

import numpy as np
import pytest

from watermelon.sde_sim import (
    HalvingError,
    SdeConfig,
    Trajectory,
    drift_nowall,
    drift_wall,
    read_trajectory_csv,
    simulate,
    simulate_batch,
    summarize_batch,
    trajectory_to_csv,
    _base_rng,
)


# ---------------------------------------------------------------------------
# drift fields


def test_drift_wall_p1_balances_at_one():
    # -x/(1-t) + 1/x vanishes at x = 1, t = 0
    assert drift_wall(1, 0.0, [1.0]) == pytest.approx([0.0], abs=1e-15)


def test_drift_wall_p2_example():
    # x = (1, 2): branch 1 gets -1 + 1 + 2/(1-4) = -2/3,
    # branch 2 gets -2 + 1/2 + 4/(4-1) = -1/6
    out = drift_wall(2, 0.0, [1.0, 2.0])
    assert out == pytest.approx([-2.0 / 3.0, -1.0 / 6.0], rel=1e-14)


def test_drift_nowall_p2_example():
    out = drift_nowall(2, 0.0, [-1.0, 1.0])
    assert out == pytest.approx([0.5, -0.5], rel=1e-14)


def test_drift_nowall_p3_antisymmetry():
    x = np.array([-1.3, -0.2, 1.5])
    fwd = drift_nowall(3, 0.0, x)
    rev = drift_nowall(3, 0.0, -x[::-1])
    # mirroring the configuration mirrors the drift
    assert fwd == pytest.approx(-rev[::-1], rel=1e-13)


def test_drift_time_factor():
    x = [0.4, 1.1]
    near = np.asarray(drift_wall(2, 0.75, x))
    far = np.asarray(drift_wall(2, 0.0, x))
    # only the -x/(1-t) term moves with t
    delta = near - far
    expect = -np.asarray(x) * (1.0 / 0.25 - 1.0)
    assert delta == pytest.approx(expect, rel=1e-13)


def test_drift_validation():
    with pytest.raises(ValueError, match="ties"):
        drift_nowall(2, 0.0, [0.5, 0.5])
    with pytest.raises(ValueError, match="positive"):
        drift_wall(2, 0.0, [-0.1, 0.5])
    with pytest.raises(ValueError, match="t must"):
        drift_wall(1, 1.0, [1.0])
    with pytest.raises(ValueError, match="length-2"):
        drift_wall(2, 0.0, [1.0])


# ---------------------------------------------------------------------------
# config and trajectory invariants


def test_config_validation():
    with pytest.raises(ValueError, match="p must"):
        SdeConfig(p=0, wall=True)
    with pytest.raises(ValueError, match="t0"):
        SdeConfig(p=1, wall=True, t0=0.6)
    with pytest.raises(ValueError, match="dt"):
        SdeConfig(p=1, wall=True, dt=0.0)
    with pytest.raises(ValueError, match="gap_floor"):
        SdeConfig(p=1, wall=True, gap_floor=-1.0)
    with pytest.raises(ValueError, match="max_halvings"):
        SdeConfig(p=1, wall=True, max_halvings=0)


def test_trajectory_validation():
    good_t = np.array([0.1, 0.2, 0.3])
    good_v = np.array([[0.5, 1.0], [0.4, 1.1], [0.9, 0.6]])
    with pytest.raises(ValueError, match="ordered"):
        Trajectory(times=good_t, values=good_v, wall=False)
    good_v[2] = [0.6, 0.9]
    traj = Trajectory(times=good_t, values=good_v, wall=True)
    assert traj.p == 2
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=good_t[::-1].copy(), values=good_v, wall=False)
    with pytest.raises(ValueError, match="inside"):
        Trajectory(times=good_t + 0.8, values=good_v, wall=False)
    bad_v = good_v.copy()
    bad_v[0, 0] = -0.5
    with pytest.raises(ValueError, match="positive"):
        Trajectory(times=good_t, values=bad_v, wall=True)
    with pytest.raises(ValueError, match="matching"):
        Trajectory(times=good_t[:2], values=good_v, wall=False)


# ---------------------------------------------------------------------------
# integration determinism


def _quick_config(**kw):
    base = dict(p=2, wall=True, t0=0.1, dt=1e-3, seed=42)
    base.update(kw)
    return SdeConfig(**base)


def test_simulate_equals_batch_row_zero():
    cfg = _quick_config()
    traj = simulate(cfg)
    record = (0.25, 0.5, 0.75)
    snaps = simulate_batch(cfg, 3, record)
    for j, t in enumerate(record):
        i = int(np.argmin(np.abs(traj.times - t)))
        assert np.array_equal(traj.values[i], snaps[0, j])


def test_batch_chunk_invariance():
    cfg = _quick_config(seed=77)
    a = simulate_batch(cfg, 5, (0.3, 0.6), chunk=1)
    b = simulate_batch(cfg, 5, (0.3, 0.6), chunk=1024)
    assert np.array_equal(a, b)


def test_batch_replica_extension_is_stable():
    cfg = _quick_config(seed=5)
    small = simulate_batch(cfg, 2, (0.5,))
    large = simulate_batch(cfg, 6, (0.5,))
    assert np.array_equal(small, large[:2])


def test_record_times_must_sit_on_grid():
    cfg = _quick_config()
    with pytest.raises(ValueError, match="grid"):
        simulate_batch(cfg, 2, (0.33315,))


def test_trajectory_respects_invariants_end_to_end():
    cfg = SdeConfig(p=3, wall=True, t0=0.05, dt=5e-4, seed=9)
    traj = simulate(cfg)
    assert traj.times[0] == pytest.approx(0.05)
    assert traj.times[-1] == pytest.approx(0.95)
    assert (np.diff(traj.values, axis=1) > 0.0).all()
    assert (traj.values[:, 0] > 0.0).all()


# sha256 of repr(shape) followed by the little-endian float64 bytes, with
# the rescued-step count, recorded before the Euler step was rewritten
# column by column.  dt = 1e-3 gives 960 steps, so the normals of each
# replica come in two blocks; chunk 8 splits the 23 replicas unevenly.
# The p >= 2 digests and the trajectory were re-recorded when the initial
# spectra moved to numpy's eigvalsh (states within 4.4e-16 of the old
# ones, rescued counts unchanged).
GOLDEN_BATCHES = {
    (1, False): ("4a02f847c2b8542aa66835e1e105f26b2427e33071c68acf066fc46655fc0487", 0),
    (1, True): ("cc83574bd1fc6ab145e550d2cf974fb5cd71b7f9671ee36f0643fe492bd1affb", 1),
    (2, False): ("3442773271b64e5b16c8d314e4d0bd452cb36c5f6b6d97fccdae272fc4e478f7", 1),
    (2, True): ("a9d6163214131901f489bc20fe5c80acc4b57c9899b25a08694fc5defca56891", 2),
    (3, False): ("25ca898b323914b1eae3ddaf6d23c35f4166afab257c2cc35ec9c9a4922aea9e", 1),
    (3, True): ("270fad2966ecd751c75575c6716b68690999982049bd9e614e13457e4d40a963", 12),
}
GOLDEN_TRAJECTORY = (
    "8d8bf6c9724b15ca1567ce4fd4d6de1f5b42139ac020dfdb3a6b3895e56520d5",
    "4dbbb1d67c4f50bd48c05d485f066c83a58f3ad9ba843a36c8a8143a7d90a259",
)


def float_digest(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("p,wall", sorted(GOLDEN_BATCHES))
def test_batch_golden_bytes(p, wall):
    cfg = SdeConfig(p=p, wall=wall, dt=1e-3, seed=20260824 + p)
    snaps, diag = simulate_batch(cfg, 23, (0.25, 0.5, 0.75), chunk=8, with_diagnostics=True)
    assert (float_digest(snaps), diag["rescued_steps"]) == GOLDEN_BATCHES[(p, wall)]
    # the digests pin the rescue path too: only p = 1 without a wall,
    # which has nothing to break, never rescues
    assert diag["rescued_steps"] > 0 or (p, wall) == (1, False)


def test_simulate_golden_bytes():
    traj = simulate(SdeConfig(p=2, wall=True, dt=1e-3, seed=7))
    assert (float_digest(traj.times), float_digest(traj.values)) == GOLDEN_TRAJECTORY


@pytest.mark.parametrize("seed,replica", [(0, 0), (7, 3), (20260824, 9999)])
def test_base_stream_raw_words_match_bounded_integers(seed, replica):
    # the Euler blocks read the top 53 bits of raw words; this pins that
    # numpy's integers(0, 2**53) is that same value, word for word, so a
    # change of numpy's bounded-integer algorithm fails here first
    want = _base_rng(seed, replica).integers(0, 1 << 53, size=(3, 512, 2))
    raw = _base_rng(seed, replica).bit_generator.random_raw(3 * 512 * 2) >> 11
    assert np.array_equal(raw.reshape(3, 512, 2), want)


@pytest.mark.parametrize("p", [8, 9])
@pytest.mark.parametrize("wall", [False, True])
def test_drift_matches_pair_formula_past_seven_branches(p, wall):
    # From p = 8 numpy would sum a row of pair terms pairwise, so the
    # sequential sum is checked against the literal pair formula rather
    # than old bytes: the same float terms, summed exactly by fsum, to
    # 1e-14 of their summed magnitudes (the drift itself can cancel to ~0).
    rng = np.random.default_rng(p)
    t = 0.3
    for _ in range(20):
        x = np.sort(rng.uniform(0.1, 4.0, p)) if wall else np.sort(rng.normal(0.0, 2.0, p))
        got = (drift_wall if wall else drift_nowall)(p, t, x)
        for i in range(p):
            terms = [-x[i] / (1.0 - t)] + ([1.0 / x[i]] if wall else [])
            for j in range(p):
                if j != i:
                    terms.append(
                        2.0 * x[i] / (x[i] ** 2 - x[j] ** 2) if wall else 1.0 / (x[i] - x[j])
                    )
            scale = math.fsum(abs(v) for v in terms)
            assert abs(got[i] - math.fsum(terms)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# laws


def test_nowall_p1_bridge_moments():
    # X(t) in the p = 1 free case is the Brownian bridge marginal
    # N(0, t(1-t)); check mean and variance at mid-time
    cfg = SdeConfig(p=1, wall=False, t0=0.02, dt=5e-4, seed=12021)
    vals = simulate_batch(cfg, 4000, (0.5,))[:, 0, 0]
    n = vals.size
    se_mean = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean()) <= 3.0 * se_mean
    var = vals.var(ddof=1)
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - 0.25) <= 3.0 * se_var


def test_wall_p2_norm_squared_mean():
    # E |X(t)|^2 = d t(1-t) with Bessel dimension d = 10
    cfg = SdeConfig(p=2, wall=True, t0=0.02, dt=2e-4, seed=3001)
    snaps = simulate_batch(cfg, 2500, (0.5,))[:, 0, :]
    y = np.sum(snaps * snaps, axis=1)
    se = y.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.mean() - 2.5) <= 3.0 * se


def test_summarize_batch_shape():
    cfg = _quick_config(seed=88)
    out = summarize_batch(cfg, 50, (0.5,), max_order=2)
    assert out["p"] == 2 and out["wall"] is True
    assert out["times"] == [0.5]
    (per_time,) = out["moments"]
    assert len(per_time) == 2  # one list per branch
    assert [m["order"] for m in per_time[0]] == [1, 2]
    assert set(per_time[0][0]) == {"order", "mean", "standard_error"}
    (nsq,) = out["norm_squared_mean"]
    assert nsq["mean"] > 0.0 and nsq["standard_error"] > 0.0
    # one replica has no standard error
    with pytest.raises(ValueError, match="2 replicas"):
        summarize_batch(cfg, 1, (0.5,))


def test_halving_budget_exhaustion():
    # an unreachable margin forces the full recursion depth immediately
    cfg = SdeConfig(p=2, wall=True, t0=0.1, dt=1e-3, gap_floor=5.0,
                    max_halvings=3, seed=1)
    with pytest.raises(HalvingError, match="halving budget exhausted"):
        simulate(cfg)
    try:
        simulate(cfg)
    except HalvingError as err:
        assert err.min_gap < 5.0
        assert 0.0 < err.time < 1.0
        assert err.position.shape == (2,)


def test_rescue_diagnostics_counted():
    cfg = SdeConfig(p=2, wall=True, t0=0.02, dt=1e-3, gap_floor=5e-2, seed=61)
    _, diag = simulate_batch(cfg, 40, (0.5,), with_diagnostics=True)
    assert diag["rescued_steps"] > 0


# ---------------------------------------------------------------------------
# serialization


def test_csv_round_trip():
    cfg = _quick_config(seed=660)
    traj = simulate(cfg)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    buf.seek(0)
    back = read_trajectory_csv(buf, wall=True)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.values, traj.values)
    assert back.wall is True


def test_csv_header_required():
    with pytest.raises(ValueError, match="header"):
        read_trajectory_csv(io.StringIO("0.1,0.5\n"), wall=False)
