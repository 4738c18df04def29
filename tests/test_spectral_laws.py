import math

import mpmath
import numpy as np
import pytest

from watermelon.spectral_laws import (
    ChamberPoint,
    DensityParams,
    _replica_normals,
    density_nowall,
    density_wall,
    evaluate_density_grid,
    nowall_density_constant,
    sample_gue_spectrum,
    sample_gue_spectrum_batch,
    sample_wall_spectrum,
    sample_wall_spectrum_batch,
    wall_density_constant,
)
from watermelon.stats_verify import (
    branch_marginal_cdf,
    gamma_cdf,
    ks_statistic,
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
    assert density_wall(params_w, [-0.5, 1.0]) == 0.0
    assert density_wall(params_w, [1.0, 0.5]) == 0.0
    assert density_nowall(params_f, [1.0, 0.5]) == 0.0
    assert density_nowall(params_f, [-1.0, 0.5]) > 0.0
    with pytest.raises(ValueError, match="wall"):
        density_wall(params_f, [0.5, 1.0])
    with pytest.raises(ValueError, match="wall"):
        density_nowall(params_w, [0.5, 1.0])
    inside = np.array([0.4, 1.1])
    assert density_wall(params_w, inside) == pytest.approx(
        float(evaluate_density_grid(params_w, inside)), rel=1e-15
    )


def test_chamber_point_validation():
    with pytest.raises(ValueError, match="chamber"):
        ChamberPoint(x=[0.1, 0.2], chamber="left")
    with pytest.raises(ValueError, match="increase"):
        ChamberPoint(x=[0.2, 0.1], chamber="nowall")
    with pytest.raises(ValueError, match="x\\[0\\]"):
        ChamberPoint(x=[-0.1, 0.2], chamber="wall")
    pt = ChamberPoint(x=[0.5, 1.5, 2.5], chamber="wall")
    assert pt.p == 3


def test_density_params_validation():
    with pytest.raises(ValueError, match="t must"):
        DensityParams(1, 0.0, True)
    with pytest.raises(ValueError, match="p must"):
        DensityParams(0, 0.5, True)


# ---------------------------------------------------------------------------
# samplers


def test_scalar_samplers_match_batch_row_zero():
    for p in (1, 2, 3):
        assert np.array_equal(
            sample_wall_spectrum(p, 314).x, sample_wall_spectrum_batch(p, 314, 4)[0]
        )
        assert np.array_equal(
            sample_gue_spectrum(p, 314), sample_gue_spectrum_batch(p, 314, 4)[0]
        )


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
    cdf = branch_marginal_cdf(2, 0.5, True, branch, nodes=1025)
    assert ks_statistic(lam[:, branch], cdf) <= thr
    # the other branch's law is rejected by a wide margin
    other = branch_marginal_cdf(2, 0.5, True, 1 - branch, nodes=1025)
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
    d_wall = ks_statistic(y, lambda v: [gamma_cdf(5.0, 0.5, float(u)) for u in v])
    assert d_wall <= KS95 / math.sqrt(y.size)

    mu = sample_gue_spectrum_batch(2, 8105, 20_000) / math.sqrt(2.0)
    y = np.sum(mu * mu, axis=1)  # scaled to the t = 1/2 law
    d_free = ks_statistic(y, lambda v: [gamma_cdf(2.0, 0.5, float(u)) for u in v])
    assert d_free <= KS95 / math.sqrt(y.size)


def test_gue_p2_eigenvalue_product_mean():
    # the product of the two eigenvalues is det of the tridiagonal model
    # over 2, whose expectation is exactly -1/2
    mu = sample_gue_spectrum_batch(2, 8106, 40_000)
    prod = mu[:, 0] * mu[:, 1]
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean() - (-0.5)) <= 3.0 * se


def test_sampler_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_wall_spectrum_batch(0, 1, 1)
    with pytest.raises(ValueError):
        sample_gue_spectrum_batch(0, 1, 1)
