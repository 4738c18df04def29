import hashlib
import json
import math

import mpmath
import numpy as np
import pytest

from watermelon import stats_verify
from watermelon.stats_verify import (
    KS_SERIES_COEFF,
    CheckRecord,
    TestReport as SuiteReport,  # alias keeps pytest from collecting it
    branch_marginal_cdf,
    chi_square_critical,
    dequantize_lattice,
    derive_check_seed,
    empirical_moment,
    gamma_cdf,
    ks_statistic,
    ks_two_sample,
    norm_squared_cdf,
    report_to_json,
    run_suite,
)
from watermelon.spectral_laws import DensityParams

# values below were produced by a 30-digit mpmath evaluation of the
# regularized incomplete gamma function
GAMMA_ORACLE = [
    (2.5, 1.0, 3.7, 0.80744956692060427),
    (7.3, 2.2, 20.0, 0.76935293974969972),
    (0.5, 1.0, 0.04, 0.22270258921047846),
    (12.0, 0.5, 9.3, 0.95821012649643341),
]


# ---------------------------------------------------------------------------
# gamma machinery


def test_gamma_cdf_against_oracle():
    for shape, scale, x, want in GAMMA_ORACLE:
        assert gamma_cdf(shape, scale, x) == pytest.approx(want, rel=1e-13)


def test_gamma_cdf_median_of_shape_five():
    assert gamma_cdf(5.0, 1.0, 4.670908882795983) == pytest.approx(0.5, abs=1e-14)


def test_gamma_cdf_exponential_reduction():
    for x in (0.01, 0.7, 3.0, 25.0):
        assert gamma_cdf(1.0, 2.0, x) == pytest.approx(-math.expm1(-x / 2.0), rel=1e-13)


def test_gamma_cdf_erf_reduction():
    # shape 1/2, scale 1 is the law of Z^2/2 for standard normal Z
    assert gamma_cdf(0.5, 1.0, 0.8) == pytest.approx(0.79409678926793169, rel=1e-13)


def test_gamma_cdf_limits_and_validation():
    assert gamma_cdf(3.0, 1.0, 0.0) == 0.0
    assert gamma_cdf(3.0, 1.0, 1e4) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        gamma_cdf(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_cdf(1.0, 1.0, -0.5)


def test_chi_square_pvalue_dof_two_closed_form():
    # at dof 2 the upper tail is exp(-x/2), so that p-value's critical value is x
    for x in (0.3, 3.0, 11.0):
        assert chi_square_critical(math.exp(-x / 2.0), 2) == pytest.approx(x, rel=1e-12)


def test_chi_square_critical_known_values():
    assert chi_square_critical(0.05, 1) == pytest.approx(3.841458820694126, rel=1e-9)
    assert chi_square_critical(0.01, 4) == pytest.approx(13.276704135987625, rel=1e-9)


def test_chi_square_critical_roundtrip():
    for alpha, dof in ((0.05, 3), (0.01, 17), (0.2, 1)):
        crit = chi_square_critical(alpha, dof)
        assert gamma_cdf(dof / 2.0, 2.0, crit) == pytest.approx(1.0 - alpha)


def test_norm_squared_cdf_dimensions():
    # wall p = 1 uses d = 3, free p = 1 uses d = 1; the half-point values
    # follow from the chi-square laws at t = 1/2
    w = norm_squared_cdf(1, 0.5, True)
    f = norm_squared_cdf(1, 0.5, False)
    assert w(0.3) == pytest.approx(gamma_cdf(1.5, 0.5, 0.3), rel=1e-14)
    assert f(0.3) == pytest.approx(gamma_cdf(0.5, 0.5, 0.3), rel=1e-14)
    ys = np.array([0.0, 0.3, 2.0])
    assert np.array_equal(w(ys), [gamma_cdf(1.5, 0.5, y) for y in ys])
    with pytest.raises(ValueError):
        w(np.array([0.3, -0.1]))
    with pytest.raises(ValueError):
        norm_squared_cdf(1, 1.0, True)


# ---------------------------------------------------------------------------
# KS machinery


def test_ks_coefficient_values():
    # the tabulated coefficients come from inverting the full Kolmogorov
    # series; the closed one-term form sqrt(-log(alpha/2)/2) agrees to
    # 1e-16 at the 5% level and to seven digits at 1%
    assert KS_SERIES_COEFF[0.05] == 1.3581015157406195
    assert KS_SERIES_COEFF[0.01] == 1.6276236115189504
    for alpha, rel in ((0.05, 1e-15), (0.01, 1e-7)):
        one_term = math.sqrt(-0.5 * math.log(alpha / 2.0))
        assert one_term == pytest.approx(KS_SERIES_COEFF[alpha], rel=rel)


def test_ks_statistic_at_quantile_positions():
    # a sample placed exactly on the mid-quantiles of the reference law
    # achieves the minimal possible distance 1/(2N)
    n = 50
    sample = (np.arange(n) + 0.5) / n
    assert ks_statistic(sample, lambda x: np.asarray(x)) == pytest.approx(1.0 / (2 * n))


def test_ks_statistic_constant_sample():
    sample = np.full(32, 0.3)
    assert ks_statistic(sample, lambda x: np.asarray(x)) == pytest.approx(0.7)


def test_ks_statistic_detects_shift():
    rng = np.random.default_rng(4141)
    vals = rng.normal(0.8, 1.0, size=2000)

    def cdf(x):
        return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x) / math.sqrt(2.0)))

    assert ks_statistic(vals, cdf) > 0.2


def test_ks_self_consistency_at_five_percent():
    # the finite-sample rejection rate of the asymptotic threshold sits
    # near its nominal level; 3 sigma of Binomial(400, 0.05) is about 13
    rng = np.random.default_rng(20220)
    rejections = 0
    thr = KS_SERIES_COEFF[0.05] / math.sqrt(500)
    for _ in range(400):
        u = rng.random(500)
        if ks_statistic(u, lambda x: np.asarray(x)) > thr:
            rejections += 1
    assert 7 <= rejections <= 33


def test_ks_two_sample_extremes():
    a = np.arange(10.0)
    assert ks_two_sample(a, a + 100.0) == pytest.approx(1.0)
    assert ks_two_sample(a, a) == pytest.approx(0.0)


def test_empirical_moment_small_case():
    mean, se = empirical_moment(np.array([1.0, 2.0, 3.0]), 1)
    assert mean == pytest.approx(2.0)
    assert se == pytest.approx(1.0 / math.sqrt(3.0))
    mean2, _ = empirical_moment(np.array([1.0, 2.0, 3.0]), 2)
    assert mean2 == pytest.approx(14.0 / 3.0)
    with pytest.raises(ValueError):
        empirical_moment(np.array([1.0]), 0)


# ---------------------------------------------------------------------------
# quadrature CDFs


def test_branch_marginal_cdf_shape_and_range():
    cdf = branch_marginal_cdf(1, 0.5, False, 0)
    xs = np.linspace(-4.0, 4.0, 101)
    vals = cdf(xs)
    assert (np.diff(vals) >= 0.0).all()
    assert vals[0] <= 1e-12  # only tail mass below -4
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert cdf(-100.0) == 0.0  # clipped outside the grid
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-7)


def test_branch_marginal_cdf_wall_starts_at_zero():
    cdf = branch_marginal_cdf(1, 0.25, True, 0)
    assert cdf(-0.5) == 0.0
    assert cdf(0.0) == pytest.approx(0.0, abs=1e-12)


def _pair_density_oracle(t, wall, branch, u):
    """40-digit quadrature of the p = 2 density over the other coordinate.

    The density is written out from the formulas (constants 1/(3 pi s^5)
    with the wall and 1/(2 pi s^2) without, s = t(1-t)) and integrated on
    the ordered side: v > u for the lower branch, v < u for the upper.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(t) * (1 - mpmath.mpf(t))
        u = mpmath.mpf(u)
        if wall:
            c = 1 / (3 * mpmath.pi * s**5)

            def f(v):
                return c * u**2 * v**2 * (v**2 - u**2) ** 2 * mpmath.exp(-(u**2 + v**2) / (2 * s))

            ends = [u, mpmath.inf] if branch == 0 else [0, u]
        else:
            c = 1 / (2 * mpmath.pi * s**2)

            def f(v):
                return c * (v - u) ** 2 * mpmath.exp(-(u**2 + v**2) / (2 * s))

            ends = [u, mpmath.inf] if branch == 0 else [-mpmath.inf, u]
        return float(mpmath.quad(f, ends))


@pytest.mark.parametrize("t", [0.5, 0.2])
@pytest.mark.parametrize("wall,branch", [(False, 0), (False, 1), (True, 0), (True, 1)])
def test_pair_marginal_density_matches_mpmath(t, wall, branch):
    # on the grid branch_marginal_cdf builds, at ten nodes spread over the
    # bulk of the law (in units of sigma = sqrt(t(1-t)))
    sigma = math.sqrt(t * (1.0 - t))
    hi = 10.0 * sigma * math.sqrt(2)
    xs = np.linspace(0.0 if wall else -hi, hi, 4097)
    if wall:
        targets = [0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0, 4.0]
    else:
        targets = [-3.0, -2.0, -1.4, -0.8, -0.3, 0.2, 0.7, 1.3, 2.0, 3.0]
    idx = np.searchsorted(xs, sigma * np.array(targets))
    rho = stats_verify._pair_marginal_density(DensityParams(2, t, wall), xs, branch)
    for i in idx:
        assert rho[i] == pytest.approx(_pair_density_oracle(t, wall, branch, xs[i]), abs=1e-14)


# sha256 of repr(shape) and the little-endian float64 CDF values at the
# quadrature nodes: the mpmath test above checks the closed-form density's
# accuracy, these pin its bytes.
GOLDEN_PAIR_CDFS = {
    (False, 0): "8f9e4165174612c5d6b5a761de4edd3d3a6e1bad6fd2a2b7525bf0886022b47f",
    (False, 1): "4039f4345f59bd044b52822885c0abe2230aba435e49b18d0a86037e93ae7658",
    (True, 0): "4c61a1d89da2d59b5cc50f8c6b4c198e6368282b3cfe2800248a57fafe5895ee",
    (True, 1): "ddc464fb787ea9c22b5e558a326d2933b8c09b3e8b11ac144173a55e1fde6f68",
}


@pytest.mark.parametrize("wall,branch", sorted(GOLDEN_PAIR_CDFS))
def test_pair_cdf_golden_bytes(wall, branch):
    t = 0.5
    hi = 10.0 * math.sqrt(t * (1.0 - t)) * math.sqrt(2)
    nodes = np.linspace(0.0 if wall else -hi, hi, 513)
    # at a node the interpolation returns the table value itself
    vals = np.ascontiguousarray(branch_marginal_cdf(2, t, wall, branch, nodes=513)(nodes), "<f8")
    digest = hashlib.sha256(repr(vals.shape).encode() + vals.tobytes()).hexdigest()
    assert digest == GOLDEN_PAIR_CDFS[(wall, branch)]


def test_branch_marginal_cdf_validation():
    with pytest.raises(ValueError, match="p in"):
        branch_marginal_cdf(3, 0.5, True, 0)
    with pytest.raises(ValueError, match="branch"):
        branch_marginal_cdf(2, 0.5, True, 2)


# ---------------------------------------------------------------------------
# dequantization


def test_dequantize_shift_conventions():
    # wall: every branch moves up one lattice unit before scaling
    wall = dequantize_lattice(np.array([[0, 2]]), 2, True)
    assert np.allclose(wall, [[0.5, 1.5]])
    # free: recentering subtracts the mean start height p-1
    free = dequantize_lattice(np.array([[0, 2]]), 2, False)
    assert np.allclose(free, [[-0.5, 0.5]])
    # p = 1 free walks are already centered
    single = dequantize_lattice(np.array([[4]]), 8, False)
    assert np.allclose(single, [[1.0]])


def test_dequantize_jitter_stays_in_cell():
    rng = np.random.default_rng(505)
    pos = np.zeros((4000, 2), dtype=np.int64)
    pos[:, 1] = 2
    out = dequantize_lattice(pos, 2, True, rng)
    bare = dequantize_lattice(pos, 2, True)
    assert np.abs(out - bare).max() < 0.5  # jitter spans one lattice unit
    assert (out != bare).any()


def test_dequantize_validation():
    with pytest.raises(ValueError, match="n must"):
        dequantize_lattice(np.array([[1]]), 0, True)
    with pytest.raises(ValueError, match="branch axis"):
        dequantize_lattice(np.array(3), 4, True)


# ---------------------------------------------------------------------------
# seeds, records, reports


def test_derive_check_seed_frozen_values():
    assert derive_check_seed(1, "x") == 7463996259831113105
    assert derive_check_seed(2, "x") == 4030897760151165147
    assert derive_check_seed(1, "y") == 8413649280725796548


def test_derive_check_seed_fits_numpy():
    for name in ("a", "b", "c"):
        s = derive_check_seed(123, name)
        np.random.default_rng(s)  # must be a valid seed
        assert 0 <= s < 2**63


def test_report_json_deterministic_and_sorted():
    records = (
        CheckRecord("z_last", 1.0, 2.0, True, 10, 3, "tail"),
        CheckRecord("a_first", 0.5, 0.4, False, 5, 1, ""),
    )
    rep = SuiteReport(records=records)
    assert rep.verdict is False
    text = report_to_json(rep)
    assert text == report_to_json(SuiteReport(records=records))
    assert text.index('"a_first"') < text.index('"z_last"')
    assert '"verdict": false' in text


def test_report_json_escapes_strings():
    name = 'odd "name" \\ with\nbreak'
    detail = 'quote " backslash \\ newline\n tab\t end'
    rep = SuiteReport(records=(CheckRecord(name, 1.0, 2.0, True, 3, 4, detail),))
    (row,) = json.loads(report_to_json(rep))["checks"]
    assert row["name"] == name
    assert row["detail"] == detail


def test_report_json_rejects_non_finite():
    rep = SuiteReport(records=(CheckRecord("x", float("nan"), 1.0, False, 0, 0),))
    with pytest.raises(ValueError, match="non-finite"):
        report_to_json(rep)


# ---------------------------------------------------------------------------
# suite plumbing (cheap plans only; the full default plan runs in the
# acceptance tests)

CHEAP_PLAN = [
    {"check": "moment_table", "params": {}},
    {"check": "stirling_error_decay", "params": {}},
    {"check": "norm_gamma_oracle", "params": {}},
]


def test_run_suite_cheap_plan_passes():
    report = run_suite(plan=CHEAP_PLAN)
    assert report.verdict is True
    names = [r.name for r in report.records]
    assert names == sorted(names)
    assert "suite_runtime" in names


def test_run_suite_worker_count_invariance():
    a = report_to_json(run_suite(plan=CHEAP_PLAN, workers=1))
    b = report_to_json(run_suite(plan=CHEAP_PLAN, workers=2))
    assert a == b


def test_run_suite_tolerance_override():
    report = run_suite(plan=[{"check": "moment_table", "tolerance": 1e-20}])
    (rec, runtime) = report.records
    assert rec.name == "moment_table"
    assert rec.threshold == 1e-20
    assert not rec.passed  # float arithmetic cannot reach 1e-20


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(plan=[{"check": "astrology"}])
    with pytest.raises(ValueError, match="workers"):
        run_suite(plan=CHEAP_PLAN, workers=0)


def test_run_suite_rejects_duplicate_records():
    with pytest.raises(ValueError, match="duplicate"):
        run_suite(plan=[{"check": "moment_table"}, {"check": "moment_table"}])


def test_run_suite_empty_plan_passes_vacuously():
    report = run_suite(plan=[])
    assert report.records == ()
    assert report.verdict is True


def test_source_groups_of_default_plan():
    groups = stats_verify._source_groups(stats_verify.DEFAULT_PLAN)
    # plan order is kept, and every source is read by exactly one group
    assert [item for g in groups for item in g] == list(stats_verify.DEFAULT_PLAN)
    keys = [stats_verify._source_of(g[0]) for g in groups]
    sourced = [k for k in keys if k is not None]
    assert len(sourced) == len(set(sourced)) == 10
    for g, key in zip(groups, keys):
        assert all(stats_verify._source_of(item) == key for item in g)
        assert key is not None or len(g) == 1


def test_sde_source_computed_once_per_key(monkeypatch):
    # the step-halving check and the other SDE checks share the dt = 1e-4
    # source; the stub counts computations instead of integrating
    calls = []

    def counting_batch(cfg, replicas, record_times):
        calls.append((cfg.p, cfg.wall, cfg.dt))
        rng = np.random.default_rng(len(calls))
        raw = np.abs(rng.standard_normal((64, len(record_times), cfg.p))) + 0.1
        return np.cumsum(raw, axis=2)

    monkeypatch.setattr(stats_verify, "simulate_batch", counting_batch)
    plan = [
        {"check": "sde_step_halving", "params": {"p": 2, "wall": True}},
        {"check": "norm_law_sde", "params": {"p": 2, "wall": True}},
        {"check": "sde_invariants", "params": {"p": 2, "wall": True}},
        {"check": "sde_time_symmetry", "params": {"p": 2, "wall": True}},
    ]
    # a base seed of its own keeps the stubbed sources out of other tests
    run_suite(plan=plan, base_seed=-4242)
    assert sorted(calls) == [(2, True, 5e-5), (2, True, 1e-4)]
