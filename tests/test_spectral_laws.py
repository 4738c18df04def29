import math

import mpmath
import numpy as np
import pytest

from watermelon import spectral_laws
from watermelon.spectral_laws import (
    DensityParams,
    _replica_normals,
    _word_to_normal,
    density,
    evaluate_density_grid,
    nowall_density_constant,
    sample_gue_spectrum_batch,
    sample_wall_spectrum_batch,
    wall_density_constant,
)
from watermelon.stats_verify import (
    branch_marginal_cdf,
    ks_statistic,
    norm_squared_cdf,
)

KS95 = 1.3581015157406195


# ---------------------------------------------------------------------------
# densities


def _chamber_integral(p, t, wall, nodes=2049):
    """Integral of the density over its chamber, by Richardson trapezoid.

    Integrates the smooth symmetric extension over a box and divides by
    the number of chamber copies: 2^p p! with the wall, p! without.
    """
    params = DensityParams(p, t, wall)
    sigma = math.sqrt(t * (1.0 - t))
    hi = 10.0 * sigma * math.sqrt(p)
    xs = np.linspace(-hi, hi, nodes)

    def box(axis_pts):
        if p == 1:
            vals = evaluate_density_grid(params, axis_pts[:, None])
            return np.trapezoid(vals, axis_pts)
        xx, yy = np.meshgrid(axis_pts, axis_pts, indexing="ij")
        vals = evaluate_density_grid(params, np.stack([xx, yy], axis=-1))
        return np.trapezoid(np.trapezoid(vals, axis_pts, axis=1), axis_pts)

    fine = box(xs)
    coarse = box(xs[::2])
    total = fine + (fine - coarse) / 3.0
    copies = (2**p if wall else 1) * math.factorial(p)
    return total / copies


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("p", [1, 2])
def test_density_integrates_to_one(p, t, wall):
    assert _chamber_integral(p, t, wall) == pytest.approx(1.0, abs=1e-6)


def test_density_scaling_identity():
    # time enters only through the scale sqrt(t(1-t)):
    # f(t; x) = (s_half/s_t)^p f(1/2; x s_half/s_t)
    rng = np.random.default_rng(990)
    for p, wall in ((1, True), (2, True), (2, False), (3, False)):
        pts = rng.normal(size=(5, p))
        if wall:
            pts = np.sort(np.abs(pts), axis=1)
        for t in (0.1, 0.37, 0.8):
            s_ratio = 0.5 / math.sqrt(t * (1.0 - t))
            lhs = evaluate_density_grid(DensityParams(p, t, wall), pts)
            rhs = s_ratio**p * evaluate_density_grid(
                DensityParams(p, 0.5, wall), pts * s_ratio
            )
            assert np.allclose(lhs, rhs, rtol=1e-12)


def test_density_constants_small_p():
    # p = 1 closed forms: wall sqrt(2/pi), free 1/sqrt(2 pi)
    assert wall_density_constant(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert nowall_density_constant(1) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_density_chamber_boundaries():
    params_w = DensityParams(2, 0.5, True)
    params_f = DensityParams(2, 0.5, False)
    assert density(params_w, [-0.5, 1.0]) == 0.0
    assert density(params_w, [1.0, 0.5]) == 0.0
    assert density(params_f, [1.0, 0.5]) == 0.0
    assert density(params_f, [-1.0, 0.5]) > 0.0
    with pytest.raises(ValueError, match="vector"):
        density(params_w, [0.5, 1.0, 1.5])
    inside = np.array([0.4, 1.1])
    assert density(params_w, inside) == pytest.approx(
        float(evaluate_density_grid(params_w, inside)), rel=1e-15
    )


def test_density_refuses_values_outside_double_range():
    # at t = 1/2 the wall prefactor is 0 from p = 18 and overflows from
    # p = 23; a tiny t(1-t) overflows it at p = 2
    for p, t, wall in ((18, 0.5, True), (28, 0.5, False), (23, 0.5, True), (32, 0.5, False),
                       (2, 1e-300, False)):
        params = DensityParams(p, t, wall)
        with pytest.raises(ValueError, match="prefactor"):
            evaluate_density_grid(params, np.ones((3, p)))
        with pytest.raises(ValueError, match="prefactor"):
            density(params, np.arange(1.0, p + 1.0))
    assert evaluate_density_grid(DensityParams(17, 0.5, True), np.ones((2, 17))).shape == (2,)
    # inf times an underflowed exponential is nan: refused, without a warning
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="double range"):
            density(DensityParams(3, 0.5, False), [-1e200, 0.0, 1e200])


def test_density_refuses_a_false_zero_inside_the_chamber():
    # exp(-800) underflows while the true density is 4.68e-245; at x = 40
    # the true value, about e^-3200, is below the smallest double
    for p, t, wall, x in ((1, 1e-200, True, [4e-99]), (1, 0.5, False, [40.0]),
                          (2, 0.5, True, [30.0, 31.0])):
        with pytest.raises(ValueError, match="double range"):
            density(DensityParams(p, t, wall), x)
    # on the boundary and outside the chamber 0 is the density
    assert density(DensityParams(2, 0.5, True), [0.0, 1.0]) == 0.0
    assert density(DensityParams(2, 0.5, False), [1.0, 1.0]) == 0.0
    assert density(DensityParams(2, 0.5, True), [40.0, 40.0]) == 0.0
    assert density(DensityParams(1, 0.5, True), [-40.0]) == 0.0


def test_density_params_validation():
    with pytest.raises(ValueError, match="t must"):
        DensityParams(1, 0.0, True)
    with pytest.raises(ValueError, match="p must"):
        DensityParams(0, 0.5, True)


# ---------------------------------------------------------------------------
# samplers


def test_float_normal_map_is_scipys_ndtri_bit_for_bit():
    # the Python-float Cephes ndtri against scipy's on a seeded stream, the
    # map's edges, both sides of every branch test and the extreme words
    from scipy.special import ndtri

    top = 2 ** 53
    rng = np.random.Generator(np.random.PCG64(2023))
    words = [rng.bit_generator.random_raw(1_000_000) >> 11]
    words.append(np.array([0, 1, 2 ** 52 - 1, 2 ** 52, top - 2, top - 1], dtype=np.uint64))
    for y in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)):
        centre = int(y * top)
        words.append(np.arange(centre - 50, centre + 51, dtype=np.uint64))
    words.append(np.arange(0, 10 ** 5, dtype=np.uint64))
    words.append(np.arange(top - 10 ** 5, top, dtype=np.uint64))
    u = np.concatenate(words)
    want = ndtri((u.astype(np.float64) + 0.5) / top)
    got = np.array([_word_to_normal(w) for w in u.tolist()])
    assert got.tobytes() == want.tobytes()
    assert _word_to_normal(top - 1) == math.inf


def test_one_replica_normals_are_row_zero_of_a_batch():
    # one replica takes the float map, a batch scipy's; the values agree
    one = _replica_normals(31, 1, 500)
    assert one.shape == (1, 500)
    assert one.tobytes() == _replica_normals(31, 3, 500)[:1].tobytes()


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_batch_samplers_match_mpmath_eigenvalues(p, wall):
    # rebuild the matrices each sampler draws, from the same normals, and
    # solve them with 30 digits: A^T A of the antisymmetric A with the
    # wall, the tridiagonal Hermite model without
    seed, replicas = 4401 + p, 4
    if wall:
        d = 2 * p + 1
        iu, ju = np.triu_indices(d, 1)
        z = 0.5 * _replica_normals(seed, replicas, iu.size)
        got = sample_wall_spectrum_batch(p, seed, replicas)
    else:
        z = _replica_normals(seed, replicas, p * p)
        got = sample_gue_spectrum_batch(p, seed, replicas)
    with mpmath.workdps(30):
        for r in range(replicas):
            if wall:
                a = mpmath.zeros(d)
                for k, (i, j) in enumerate(zip(iu.tolist(), ju.tolist())):
                    a[i, j], a[j, i] = z[r, k], -z[r, k]
                w = sorted(mpmath.eigsy(a.T * a, eigvals_only=True))
                want = [mpmath.sqrt(abs(v)) for v in w[1::2]]
            else:
                tri = mpmath.diag(z[r, :p].tolist())
                pos = p
                for k in range(p - 1):
                    dof = 2 * (p - 1 - k)
                    chi = math.sqrt(np.sum(z[r, pos:pos + dof] ** 2) / 2.0)
                    tri[k, k + 1] = tri[k + 1, k] = chi
                    pos += dof
                w = sorted(mpmath.eigsy(tri, eigvals_only=True))
                want = [v / mpmath.sqrt(2) for v in w]
            assert np.allclose(got[r], np.array(want, dtype=float), rtol=0.0, atol=1e-12)


def test_batch_rows_are_ordered():
    lam = sample_wall_spectrum_batch(3, 2024, 500)
    assert (lam > 0).all()
    assert (np.diff(lam, axis=1) > 0).all()
    mu = sample_gue_spectrum_batch(3, 2024, 500)
    assert (np.diff(mu, axis=1) > 0).all()


def test_gue_p1_is_centered_gaussian():
    vals = sample_gue_spectrum_batch(1, 8101, 40_000).ravel()

    def cdf(x):
        return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x)))

    d = ks_statistic(vals, cdf)  # N(0, 1/2) has CDF Phi(x sqrt 2) = erf-form
    assert d <= KS95 / math.sqrt(vals.size)


def test_wall_p1_matches_quadrature_law():
    # at t = 1/2 the scaling prefactor 2 sqrt(t(1-t)) is 1, so the raw
    # spectrum follows the t = 1/2 marginal density directly
    vals = sample_wall_spectrum_batch(1, 8102, 40_000).ravel()
    d = ks_statistic(vals, branch_marginal_cdf(1, 0.5, True, 0))
    assert d <= KS95 / math.sqrt(vals.size)


@pytest.mark.parametrize("branch", [0, 1])
def test_wall_p2_branch_marginals(branch):
    lam = sample_wall_spectrum_batch(2, 8103, 10_000)
    thr = KS95 / math.sqrt(lam.shape[0])
    cdf = branch_marginal_cdf(2, 0.5, True, branch)
    assert ks_statistic(lam[:, branch], cdf) <= thr
    # the other branch's law is rejected by a wide margin
    other = branch_marginal_cdf(2, 0.5, True, 1 - branch)
    assert ks_statistic(lam[:, branch], other) > 10.0 * thr


@pytest.mark.parametrize("branch", [0, 1])
def test_gue_p2_branch_marginals(branch):
    # at t = 1/2 the scaling prefactor sqrt(2t(1-t)) is sqrt(1/2)
    mu = math.sqrt(0.5) * sample_gue_spectrum_batch(2, 8107, 10_000)
    thr = KS95 / math.sqrt(mu.shape[0])
    assert ks_statistic(mu[:, branch], branch_marginal_cdf(2, 0.5, False, branch)) <= thr
    assert ks_statistic(mu[:, branch], branch_marginal_cdf(2, 0.5, False, 1 - branch)) > 10.0 * thr


def test_norm_squared_gamma_laws():
    lam = sample_wall_spectrum_batch(2, 8104, 20_000)
    y = np.sum(lam * lam, axis=1)
    d_wall = ks_statistic(y, norm_squared_cdf(2, 0.5, True))
    assert d_wall <= KS95 / math.sqrt(y.size)

    mu = sample_gue_spectrum_batch(2, 8105, 20_000) / math.sqrt(2.0)
    y = np.sum(mu * mu, axis=1)  # scaled to the t = 1/2 law
    d_free = ks_statistic(y, norm_squared_cdf(2, 0.5, False))
    assert d_free <= KS95 / math.sqrt(y.size)


def test_gue_p2_eigenvalue_product_mean():
    # the product of the two eigenvalues is det of the tridiagonal model
    # over 2, whose expectation is exactly -1/2
    mu = sample_gue_spectrum_batch(2, 8106, 40_000)
    prod = mu[:, 0] * mu[:, 1]
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean() - (-0.5)) <= 3.0 * se


class DrawReached(Exception):
    pass


@pytest.mark.parametrize("wall, d", [(True, 7), (False, 3)])
def test_spectrum_draw_size_cap_comes_before_the_draw(monkeypatch, wall, d):
    # replicas d x d matrices, d = 2p+1 with the wall and p without, hold
    # at most _MAX_VALUES entries; a larger draw is refused before any word
    sampler = sample_wall_spectrum_batch if wall else sample_gue_spectrum_batch

    def first_draw(*args, **kwargs):
        raise DrawReached

    monkeypatch.setattr(spectral_laws, "replica_words", first_draw)
    with pytest.raises(ValueError, match="too large"):
        sampler(100_000, 1, 1)
    monkeypatch.setattr(spectral_laws, "_MAX_VALUES", 10 * d * d)
    with pytest.raises(DrawReached):
        sampler(3, 1, 10)
    with pytest.raises(ValueError, match="too large"):
        sampler(3, 1, 11)


def test_sampler_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_wall_spectrum_batch(0, 1, 1)
    with pytest.raises(ValueError):
        sample_gue_spectrum_batch(0, 1, 1)
