import hashlib
import io
import math

import numpy as np
import pytest

from watermelon import sde_sim
from watermelon.sde_sim import (
    HalvingError,
    SdeConfig,
    Trajectory,
    read_trajectory_csv,
    simulate,
    simulate_batch,
    summarize_batch,
    trajectory_to_csv,
)
from watermelon.discrete_walk import derive_replica_rng, words


# ---------------------------------------------------------------------------
# drift fields


def drift(p, wall, t, x):
    """The integrator's drift at one state x, as a length-p vector."""
    return sde_sim._drift_rows(p, wall, t, np.asarray(x, dtype=np.float64)[:, None])[:, 0]


def test_drift_wall_p1_balances_at_one():
    # -x/(1-t) + 1/x vanishes at x = 1, t = 0
    assert drift(1, True, 0.0, [1.0]) == pytest.approx([0.0], abs=1e-15)


def test_drift_wall_p2_example():
    # x = (1, 2): branch 1 gets -1 + 1 + 2/(1-4) = -2/3,
    # branch 2 gets -2 + 1/2 + 4/(4-1) = -1/6
    out = drift(2, True, 0.0, [1.0, 2.0])
    assert out == pytest.approx([-2.0 / 3.0, -1.0 / 6.0], rel=1e-14)


def test_drift_nowall_p2_example():
    out = drift(2, False, 0.0, [-1.0, 1.0])
    assert out == pytest.approx([0.5, -0.5], rel=1e-14)


def test_drift_nowall_p3_antisymmetry():
    x = np.array([-1.3, -0.2, 1.5])
    fwd = drift(3, False, 0.0, x)
    rev = drift(3, False, 0.0, -x[::-1])
    # mirroring the configuration mirrors the drift
    assert fwd == pytest.approx(-rev[::-1], rel=1e-13)


def test_drift_time_factor():
    x = [0.4, 1.1]
    near = drift(2, True, 0.75, x)
    far = drift(2, True, 0.0, x)
    # only the -x/(1-t) term moves with t
    delta = near - far
    expect = -np.asarray(x) * (1.0 / 0.25 - 1.0)
    assert delta == pytest.approx(expect, rel=1e-13)


def bits(values):
    """The float64 bytes of values, so -0.0 and 0.0 differ and NaN equals NaN."""
    return np.asarray(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("p", range(1, 10))
@pytest.mark.parametrize("wall", [False, True])
def test_drift_one_is_drift_rows_bit_for_bit(p, wall):
    # the float kernel's drift is the batch's, operation for operation, on
    # random chamber states near and far from the boundary
    rng = np.random.default_rng(100 + p)
    for t in (0.02, 0.5, 0.98):
        for scale in (1e-3, 1.0, 30.0):
            for _ in range(10):
                x = np.sort(scale * (rng.uniform(0.0, 3.0, p) if wall else rng.normal(0.0, 2.0, p)))
                want = sde_sim._drift_rows(p, wall, t, x[:, None].copy())[:, 0]
                assert bits(sde_sim._drift_one(p, wall, t, x.tolist())) == bits(want)


@pytest.mark.parametrize(
    "p,wall,x",
    [(2, True, [1e-170, 2e-170]),  # both squares underflow to 0
     (2, False, [0.5, 0.5]), (3, False, [0.1, 0.2, 0.2]), (2, False, [0.0, 0.0]),
     (2, True, [0.0, 1.0]), (2, True, [-0.0, 1.0]), (1, True, [0.0])],
)
def test_drift_one_zero_divisor_gives_numpys_inf_or_nan(p, wall, x):
    # Python raises ZeroDivisionError where numpy divides by 0 to inf or nan
    with np.errstate(all="ignore"):
        want = sde_sim._drift_rows(p, wall, 0.5, np.array(x)[:, None])[:, 0]
        assert bits(sde_sim._drift_one(p, wall, 0.5, x)) == bits(want)


@pytest.mark.parametrize(
    "y",
    [[0.1, 0.1001, np.nan], [np.nan, 0.1, 0.5], [0.1, np.nan, 0.5], [0.5, 0.1, 0.2],
     [-0.0, -0.0, 1.0], [0.0, -0.0, 1.0], [np.inf, np.inf, np.inf], [-np.inf, 1.0, 2.0]],
)
@pytest.mark.parametrize("wall", [False, True])
def test_float_margin_is_margin_rows(monkeypatch, y, wall):
    # np.minimum lets NaN win wherever it stands and gives the later term on
    # a tie; Python's min would hide min(0.5, nan) and flip a step's verdict.
    # With the drift -0.0 and the increment -0.0 the step returns y as is.
    monkeypatch.setattr(sde_sim, "_drift_one", lambda p, wall, t, x: [-0.0] * p)
    for p in range(1, len(y) + 1):
        got_y, got = sde_sim._euler_one(p, wall, 0.5, 1.0, y[:p], [-0.0] * p)
        assert bits(got_y) == bits(y[:p])
        with np.errstate(all="ignore"):
            want = sde_sim._margin_rows(p, wall, np.array(y[:p])[:, None])
        assert (got is None) == (want is None)
        if got is not None:
            assert bits([got]) == bits(want)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=np.array([bad, 0.2, 0.3]), values=good_v, wall=True)
        bad_v = good_v.copy()
        bad_v[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory(times=good_t, values=bad_v, wall=True)


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


@pytest.mark.parametrize(
    "p,wall,seed",
    [(1, False, 0), (1, True, 3), (2, False, 0), (2, True, 0), (3, False, 0), (3, True, 0)],
)
def test_simulate_is_batch_replica_zero_at_every_grid_index(p, wall, seed):
    # on a coarse grid with a wide floor replica 0 of these seeds rescues
    # steps, so the float kernel's rescue path is compared too; p = 1
    # without a wall has nothing to break
    cfg = SdeConfig(p=p, wall=wall, dt=2e-3, gap_floor=5e-2, seed=seed)
    traj = simulate(cfg)
    snaps = simulate_batch(cfg, 3, traj.times)
    assert bits(traj.values) == bits(snaps[0])
    _, diag = simulate_batch(cfg, 1, traj.times[-1:], with_diagnostics=True)
    assert diag["rescued_steps"] > 0 or (p, wall) == (1, False)


@pytest.mark.parametrize(
    "p,wall,start,floor",
    [(2, False, [0.3, 0.3], 1e-3), (2, True, [1e-170, 2e-170], 1e-300),
     (2, True, [0.0, 0.5], 1e-3), (3, False, [0.1, 0.2, np.inf], 5.0)],
)
def test_simulate_from_degenerate_start_fails_as_the_batch(monkeypatch, p, wall, start, floor):
    # from a start on or outside the chamber's boundary the batch either
    # exhausts its halvings or carries inf or nan to the end; the float
    # kernel raises HalvingError or ValueError (non-finite values) alike
    monkeypatch.setattr(sde_sim, "_initial_state", lambda cfg, replicas: np.array([start]))
    cfg = SdeConfig(p=p, wall=wall, dt=0.01, gap_floor=floor, max_halvings=8)
    times = sde_sim._grid(cfg)
    with np.errstate(all="ignore"):
        try:
            assert not np.isfinite(simulate_batch(cfg, 1, times)).all()
            want = ValueError
        except HalvingError:
            want = HalvingError
        with pytest.raises(want):
            simulate(cfg)


@pytest.mark.parametrize("run", ["batch", "simulate"])
def test_nonfinite_state_exhausts_the_halvings(monkeypatch, run):
    # inf - inf makes the first proposed state NaN: its NaN margin is
    # rejected like a margin below the floor, in base steps as in rescues
    monkeypatch.setattr(sde_sim, "_initial_state",
                        lambda cfg, replicas: np.array([[0.1, 0.2, np.inf]] * replicas))
    cfg = SdeConfig(p=3, wall=False, dt=0.01)
    with np.errstate(all="ignore"), pytest.raises(HalvingError) as err:
        if run == "batch":
            simulate_batch(cfg, 2, sde_sim._grid(cfg))
        else:
            simulate(cfg)
    assert err.value.time == cfg.t0
    assert err.value.position.tolist() == [0.1, 0.2, np.inf]
    assert "t=0.02" in str(err.value)


def test_batch_chunk_invariance(monkeypatch):
    cfg = _quick_config(seed=77)
    monkeypatch.setattr(sde_sim, "_CHUNK", 1)
    a = simulate_batch(cfg, 5, (0.3, 0.6))
    monkeypatch.setattr(sde_sim, "_CHUNK", 1024)
    b = simulate_batch(cfg, 5, (0.3, 0.6))
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
# ones, rescued counts unchanged).  Each entry holds the digest and count
# at t = 1/4, 1/2, 3/4, then those of the same batch recorded also at
# 0.98, the end of the window.  Integration stops at the last record time,
# so only the second count holds the rescues after t = 3/4; the second
# digest and count were recorded while every batch still ran to 0.98.
GOLDEN_BATCHES = {
    (1, False): ("4a02f847c2b8542aa66835e1e105f26b2427e33071c68acf066fc46655fc0487", 0,
                 "a5678022450d917112f9c65002dc0d3456897a2b55829a0e701e457e6e4f227a", 0),
    (1, True): ("cc83574bd1fc6ab145e550d2cf974fb5cd71b7f9671ee36f0643fe492bd1affb", 0,
                "26406b64add4c9da151572fc6f1f9f12e201409b4fc95138e653f5740bd9b779", 1),
    (2, False): ("3442773271b64e5b16c8d314e4d0bd452cb36c5f6b6d97fccdae272fc4e478f7", 1,
                 "41db6ce5f6fc543f2900436f972933767f7e0f57ca367911f1391fa0513f6580", 1),
    (2, True): ("a9d6163214131901f489bc20fe5c80acc4b57c9899b25a08694fc5defca56891", 1,
                "b5e8ad6fd5ac02b4f9978420c9f337803bcb0195382e8639813577a6a1339e3d", 2),
    (3, False): ("25ca898b323914b1eae3ddaf6d23c35f4166afab257c2cc35ec9c9a4922aea9e", 1,
                 "ddb8a185ca18129ff87558f658484bf0a1c8627472d1a52bbfb85d79399e3d10", 1),
    (3, True): ("270fad2966ecd751c75575c6716b68690999982049bd9e614e13457e4d40a963", 9,
                "4d7808eeb39acd2a6e220b8307f31005c088454631c7bd5cb549ddaf44036ad4", 12),
}
GOLDEN_TRAJECTORY = (
    "8d8bf6c9724b15ca1567ce4fd4d6de1f5b42139ac020dfdb3a6b3895e56520d5",
    "4dbbb1d67c4f50bd48c05d485f066c83a58f3ad9ba843a36c8a8143a7d90a259",
)


def float_digest(a):
    a = np.ascontiguousarray(a, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("p,wall", sorted(GOLDEN_BATCHES))
def test_batch_golden_bytes(monkeypatch, p, wall):
    digest, rescued, digest_to_end, rescued_to_end = GOLDEN_BATCHES[(p, wall)]
    cfg = SdeConfig(p=p, wall=wall, dt=1e-3, seed=20260824 + p)
    monkeypatch.setattr(sde_sim, "_CHUNK", 8)
    snaps, diag = simulate_batch(cfg, 23, (0.25, 0.5, 0.75), with_diagnostics=True)
    assert (float_digest(snaps), diag["rescued_steps"]) == (digest, rescued)
    longer, diag = simulate_batch(cfg, 23, (0.25, 0.5, 0.75, 0.98), with_diagnostics=True)
    assert float_digest(longer[:, :3]) == digest
    assert (float_digest(longer), diag["rescued_steps"]) == (digest_to_end, rescued_to_end)
    # the digests pin the rescue path too: only p = 1 without a wall,
    # which has nothing to break, never rescues
    assert rescued_to_end > 0 or (p, wall) == (1, False)


def test_simulate_golden_bytes():
    traj = simulate(SdeConfig(p=2, wall=True, dt=1e-3, seed=7))
    assert (float_digest(traj.times), float_digest(traj.values)) == GOLDEN_TRAJECTORY


@pytest.mark.parametrize("seed,replica", [(0, 0), (7, 3), (20260824, 9999)])
def test_base_stream_raw_words_match_bounded_integers(seed, replica):
    # the Euler blocks read the base stream (seed, r, 0) through words, the
    # top 53 bits of raw words; this pins that numpy's integers(0, 2**53) is
    # that same value, word for word, so a change of numpy's bounded-integer
    # algorithm fails here first
    want = derive_replica_rng(seed, replica, 0).integers(0, 1 << 53, size=(3, 512, 2))
    raw = words(derive_replica_rng(seed, replica, 0), 3 * 512 * 2)
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
        got = drift(p, wall, t, x)
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
    out = summarize_batch(cfg, 50, (0.5,))
    assert out["p"] == 2 and out["wall"] is True
    assert out["times"] == [0.5]
    (per_time,) = out["moments"]
    assert len(per_time) == 2  # one list per branch
    assert [m["order"] for m in per_time[0]] == [1, 2, 3, 4]
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


class IntegrationReached(Exception):
    pass


@pytest.fixture
def no_integration(monkeypatch):
    # a size check that passes reaches the first costly call, which then
    # raises: _integrate for a batch, _initial_state for one trajectory
    def integrate(*args, **kwargs):
        raise IntegrationReached

    monkeypatch.setattr(sde_sim, "_integrate", integrate)
    monkeypatch.setattr(sde_sim, "_initial_state", integrate)


def test_simulate_size_cap_comes_before_integration(no_integration):
    # one trajectory holds at most 4,000,000 grid values times p; a finer
    # grid is refused before anything is integrated
    span = 1.0 - 2.0 * 0.02
    with pytest.raises(IntegrationReached):  # 999,991 grid values, p = 4
        simulate(SdeConfig(p=4, wall=False, dt=span / 999_990))
    with pytest.raises(ValueError, match="too large"):  # 1,000,011 grid values
        simulate(SdeConfig(p=4, wall=False, dt=span / 1_000_010))


@pytest.mark.parametrize("dt", [1e-13, 5e-324])
def test_batch_grid_size_cap_comes_before_any_array(no_integration, dt):
    # a grid of over 4,000,000 points is refused from the float step count:
    # at 1e-13 the grid alone would take 69.8 TiB, and at 5e-324 the step
    # count is inf
    cfg = SdeConfig(p=1, wall=False, dt=dt)
    with pytest.raises(ValueError, match="too large"):
        simulate_batch(cfg, 2, (0.5,))
    with pytest.raises(ValueError, match="too large"):
        summarize_batch(cfg, 2, (0.5,))


def test_batch_grid_size_cap_boundary(no_integration):
    span = 1.0 - 2.0 * 0.02
    with pytest.raises(IntegrationReached):  # 4,000,000 grid points
        simulate_batch(SdeConfig(p=1, wall=False, dt=span / 3_999_999), 2, (0.02,))
    with pytest.raises(ValueError, match="too large"):  # 4,000,001 grid points
        simulate_batch(SdeConfig(p=1, wall=False, dt=span / 4_000_000), 2, (0.02,))


def test_batch_snapshot_size_cap_comes_before_integration(no_integration):
    # a batch holds at most 60,000,000 snapshot values: replicas times
    # record times times p (four times, so that the 3 x 3 initial matrices,
    # 45,000,000 entries here, stay inside their own bound)
    cfg = SdeConfig(p=3, wall=False, dt=0.01)
    with pytest.raises(IntegrationReached):
        simulate_batch(cfg, 5_000_000, (0.25, 0.5, 0.75, 0.9))
    with pytest.raises(ValueError, match="too large"):
        simulate_batch(cfg, 5_000_001, (0.25, 0.5, 0.75, 0.9))
    with pytest.raises(ValueError, match="too large"):
        summarize_batch(SdeConfig(p=1, wall=False, dt=0.01), 10**12, (0.25, 0.5, 0.75))


def test_batch_spectral_draw_cap_comes_before_integration(no_integration):
    # the initial state is one spectral draw of replicas (2p+1) x (2p+1)
    # matrices with the wall, p x p without; it is checked with the snapshots
    with pytest.raises(IntegrationReached):
        simulate_batch(SdeConfig(p=2, wall=True, dt=0.01), 2_400_000, (0.5,))
    with pytest.raises(ValueError, match="too large"):
        simulate_batch(SdeConfig(p=2, wall=True, dt=0.01), 2_400_001, (0.5,))
    with pytest.raises(ValueError, match="too large"):
        summarize_batch(SdeConfig(p=100_000, wall=False, dt=0.5), 2, (0.5,))


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("t\n0.1\n", "header"),
        ("t,y\n0.1,0.5\n", "header"),
        # two branches named, one value per row
        ("t,x_1,x_2\n0.1,0.5\n0.2,0.6\n", "row"),
        ("t,x_1\n0.1,0.5\n0.2,0.6,0.7\n", "row"),
        ("t,x_1\n0.1,0.5\n\n0.2,0.6\n", "row"),
        # every order check is a comparison, which nan and inf used to pass
        ("t,x_1,x_2\r\nnan,nan,inf\r\n0.5,1,2\r\n", "finite"),
        ("t,x_1,x_2\r\n0.25,-inf,2\r\n0.5,1,inf\r\n", "finite"),
    ],
    ids=[
        "empty", "no-branches", "foreign-header", "narrow-rows", "wide-row", "blank-row",
        "nan", "inf",
    ],
)
def test_csv_reader_rejects_malformed_files(text, message):
    with pytest.raises(ValueError, match=message):
        read_trajectory_csv(io.StringIO(text), wall=False)


# sha256 of the trajectory_to_csv bytes of simulate at dt = 1e-3, seed 40 + p,
# recorded while the writer still went through csv.writer.  The 961 rows
# fit one block of the writer, and split into ten blocks of at most 100.
GOLDEN_TRAJECTORY_CSV = {
    (1, False): "edca27e1a0a9beff346437f6356299f637d9cd97bad51b5bf19bee2c296c6ea0",
    (1, True): "41fc13b1d0f4b52f898035d2498aef969f1e6ef9de18343a1670f4093fa73d76",
    (2, False): "ad63f302cfc9060b5e93d66457429a8a4166b9d3cdbe88d3fac3fc689a12bc88",
    (2, True): "1749dbfb8fb2da37e8b0ff41ad31a05bd27d553e1f54f7a4ef798ba29b7f2d36",
}


@pytest.mark.parametrize("block", [sde_sim._CSV_BLOCK, 100])
@pytest.mark.parametrize("p,wall", sorted(GOLDEN_TRAJECTORY_CSV))
def test_trajectory_csv_golden_bytes(p, wall, block, monkeypatch):
    monkeypatch.setattr(sde_sim, "_CSV_BLOCK", block)
    buf = io.StringIO()
    trajectory_to_csv(simulate(SdeConfig(p=p, wall=wall, dt=1e-3, seed=40 + p)), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_TRAJECTORY_CSV[(p, wall)]
