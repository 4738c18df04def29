import functools
import hashlib
import inspect
import json
import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gammainc

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
    ks_statistic,
    ks_two_sample,
    norm_squared_cdf,
    report_to_json,
    run_suite,
)
from watermelon.exact_count import StarQuery, count_stars, watermelon_start
from watermelon.moments import moment_nowall_p2, moment_wall_p2

# (p, t, wall, x, P(|X(t)|^2 <= x)): a 30-digit mpmath evaluation of the
# regularized incomplete gamma at shape d/2 and scale 2t(1-t), covering the
# shapes 1/2, 3/2, 2 and 5 of (p, wall) = (1, F), (1, T), (2, F), (2, T)
GAMMA_ORACLE = [
    (1, 0.25, False, 0.04, 0.35583277731628982),
    (1, 0.5, True, 0.9, 0.69197782844100666),
    (2, 0.35, False, 1.3, 0.77847418282490454),
    (2, 0.75, True, 2.2, 0.69670008388560249),
    (2, 0.5, True, 1.0, 0.052653017343711157),
]


# ---------------------------------------------------------------------------
# gamma machinery


def test_gamma_cdf_against_oracle():
    for p, t, wall, x, want in GAMMA_ORACLE:
        assert norm_squared_cdf(p, t, wall)(x) == pytest.approx(want, rel=1e-13)


def test_gamma_cdf_median_of_shape_five():
    # p = 2 with the wall at t = 1/2 is Gamma(5, 1/2)
    cdf = norm_squared_cdf(2, 0.5, True)
    assert cdf(4.670908882795983 / 2.0) == pytest.approx(0.5, abs=1e-14)


def test_gamma_cdf_exponential_reduction():
    # shape 1 is the exponential law, whatever the scale
    for x in (0.01, 0.7, 3.0, 25.0):
        assert gammainc(1.0, x / 2.0) == pytest.approx(-math.expm1(-x / 2.0), rel=1e-13)


def test_gamma_cdf_erf_reduction():
    # p = 1 without the wall at t = 1/2 is Gamma(1/2, 1/2), the law of Z^2/4
    # for standard normal Z, so its CDF at y is erf(sqrt(2y))
    cdf = norm_squared_cdf(1, 0.5, False)
    assert cdf(0.4) == pytest.approx(0.79409678926793169, rel=1e-13)


def test_gamma_cdf_limits_and_validation():
    cdf = norm_squared_cdf(2, 0.5, False)
    assert cdf(0.0) == 0.0
    assert cdf(1e4) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        cdf(-0.5)


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
        assert gammainc(dof / 2.0, crit / 2.0) == pytest.approx(1.0 - alpha)


def test_norm_squared_cdf_dimensions():
    # wall p = 1 uses d = 3, free p = 1 uses d = 1; the half-point values
    # follow from the chi-square laws at t = 1/2
    w = norm_squared_cdf(1, 0.5, True)
    f = norm_squared_cdf(1, 0.5, False)
    assert w(0.3) == pytest.approx(gammainc(1.5, 0.3 / 0.5), rel=1e-14)
    assert f(0.3) == pytest.approx(gammainc(0.5, 0.3 / 0.5), rel=1e-14)
    ys = np.array([0.0, 0.3, 2.0])
    assert np.array_equal(w(ys), [gammainc(1.5, y / 0.5) for y in ys])
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


def test_ks_statistic_evaluates_the_cdf_on_the_whole_sample():
    sample = np.array([0.2, 0.4, 0.9])
    with pytest.raises(ValueError, match="cdf must map 3 points"):
        ks_statistic(sample, lambda x: 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        ks_statistic(-sample, norm_squared_cdf(1, 0.5, True))


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
# branch marginal CDFs


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


# (t, wall, branch, x, P(X_branch(t) <= x)) for p = 2, branch 0-based
# ascending: 30-digit nested mpmath.quad of the density over the ordered
# chamber (x_1 < x_2, and 0 < x_1 with the wall), the outer integral over
# the branch in question up to x, the inner over the other one.  The
# density is written out from the formulas, s = t(1-t): with the wall
# u^2 v^2 (v^2 - u^2)^2 exp(-(u^2 + v^2)/2s) / (3 pi s^5) on 0 < u < v,
# without (v - u)^2 exp(-(u^2 + v^2)/2s) / (2 pi s^2) on u < v.  A value
# took up to 11 s, so they are recorded, not recomputed.
PAIR_CDF_ORACLE = [
    (0.2, False, 0, -0.6, 0.32722333935998475),
    (0.2, False, 0, 0.08, 0.94298651307332418),
    (0.5, False, 0, -0.3, 0.72943212885952505),
    (0.5, False, 0, 0.45, 0.99284511446665822),
    (0.2, False, 1, -0.6, 0.00066745667656900708),
    (0.2, False, 1, 0.08, 0.13732436700979069),
    (0.5, False, 1, -0.3, 0.019008868375701904),
    (0.5, False, 1, 0.45, 0.39955790993094348),
    (0.2, True, 0, 0.24, 0.11859946554268825),
    (0.2, True, 0, 0.96, 0.98769095470019486),
    (0.5, True, 0, 0.5, 0.39702852257820903),
    (0.5, True, 0, 0.9, 0.89212289383240955),
    (0.2, True, 1, 0.24, 4.0062179524139866e-6),
    (0.2, True, 1, 0.96, 0.27332799172142104),
    (0.5, True, 1, 0.5, 0.00046756361938936955),
    (0.5, True, 1, 0.9, 0.051921488618707685),
]


@pytest.mark.parametrize("t", [0.5, 0.2])
@pytest.mark.parametrize("wall,branch", [(False, 0), (False, 1), (True, 0), (True, 1)])
def test_pair_cdf_matches_mpmath(t, wall, branch):
    cases = [(x, want) for tt, w, b, x, want in PAIR_CDF_ORACLE if (tt, w, b) == (t, wall, branch)]
    assert len(cases) == 2
    cdf = branch_marginal_cdf(2, t, wall, branch)
    for x, want in cases:
        assert abs(cdf(x) - want) <= 1e-13


def test_branch_marginal_cdf_validation():
    with pytest.raises(ValueError, match="branch_marginal_cdf supports p in"):
        branch_marginal_cdf(3, 0.5, True, 0)
    with pytest.raises(ValueError, match="branch out of range"):
        branch_marginal_cdf(2, 0.5, True, 2)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="t must lie in"):
            branch_marginal_cdf(1, t, False, 0)


def test_norm_gamma_oracle_fails_with_the_other_ensembles_dimension(monkeypatch):
    # the record compares two closed forms; swapping the Bessel dimensions
    # of the two ensembles must break it
    assert stats_verify._check_norm_gamma_oracle(0)[0].passed
    monkeypatch.setattr(stats_verify, "_bessel_dimension",
                        lambda p, wall: p * p if wall else p * (2 * p + 1))
    (record,) = stats_verify._check_norm_gamma_oracle(0)
    assert not record.passed


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


def _exact_half_time_law(p, n, wall):
    """Exact law of the time-n cross-section of a uniform (p, 2n)-watermelon.

    By time reversal the second half of a watermelon through x is a star of
    length n ending at x, run backwards, so P(X_n = x) = N_n(x)^2 / N_2n(start)
    with N the star counts (Gessel & Viennot, Adv. Math. 58, 1985; Fisher,
    J. Stat. Phys. 34, 1984).  The window of +-5 sqrt(2n) lattice units, ten
    standard deviations, leaves out less than 1e-18 of the mass.  Returns the
    atoms, shape (M, p), and their probabilities, each the correctly rounded
    ratio of two exact integers.
    """
    r = int(5 * math.sqrt(2 * n))
    heights = [x for x in range(0 if wall else -r, r + 1) if (x - n) % 2 == 0]
    atoms = list(combinations(heights, p))
    total = count_stars(StarQuery(p, 2 * n, watermelon_start(p), wall))
    probs = [count_stars(StarQuery(p, n, a, wall)) ** 2 / total for a in atoms]
    return np.array(atoms), np.array(probs)


@pytest.mark.parametrize("wall", [True, False])
def test_dequantized_exact_p1_marginal_matches_limit_cdf(wall):
    # The jittered lattice marginal that marginal_ks reads at n = 2048, exactly:
    # each atom spread uniformly over its cell [x - 1, x + 1).  Its distance to
    # the limit CDF is a few percent of the KS threshold (about 0.03 with the
    # wall, 0.009 without), so the record measures sampling noise, not lattice
    # bias.  Without the wall offset +1 the distance is 1.33 thresholds.
    n = 2048
    atoms, probs = _exact_half_time_law(1, n, wall)
    assert abs(probs.sum() - 1.0) < 1e-12
    # atoms sit two lattice units apart, so the cells tile the window
    edges = dequantize_lattice(np.append(atoms - 1, atoms[-1] + 1)[:, None], n, wall)[:, 0]
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    grid = np.linspace(edges[0], edges[-1], 32 * probs.size + 1)
    limit = branch_marginal_cdf(1, 0.5, wall, 0)
    gap = np.max(np.abs(np.interp(grid, edges, cum) - limit(grid)))
    threshold = KS_SERIES_COEFF[0.05] / math.sqrt(stats_verify._SOURCE_REPLICAS)
    assert gap < 0.1 * threshold


@pytest.mark.parametrize("wall", [True, False])
def test_dequantized_exact_p2_means_match_limit_moments(wall):
    # Exact branch means after the offsets +1 (wall) and -(p-1) (no wall),
    # against the continuum means, in lattice units: within half a unit, and
    # shrinking with n (0.11, 0.22 -> 0.06, 0.11 with the wall; 0.048 -> 0.024
    # without).  The bare positions are off by 0.78 to 1.05 units, not shrinking.
    moment = moment_wall_p2 if wall else moment_nowall_p2
    biases = []
    for n in (128, 512):
        atoms, probs = _exact_half_time_law(2, n, wall)
        assert abs(probs.sum() - 1.0) < 1e-12
        means = probs @ dequantize_lattice(atoms, n, wall)
        biases.append([abs(means[b] - moment(b + 1, 1, 0.5)) * math.sqrt(2 * n) for b in (0, 1)])
    assert max(biases[0]) < 0.5
    for coarse, fine in zip(*biases):
        assert fine < 0.6 * coarse



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


FAILING_PLAN = [{"check": "stirling_error_decay", "params": {}}]


def test_run_suite_reports_a_failing_record(monkeypatch):
    # grid sizes in decreasing order: the error grows along them, so the
    # monotone record fails while the bound still holds
    monkeypatch.setattr(stats_verify, "_STIRLING_GRID", (10000, 100))
    report = run_suite(plan=FAILING_PLAN)
    assert report.verdict is False
    passed = {r.name: r.passed for r in report.records}
    assert passed == {
        "stirling_error_decay/bound": True,
        "stirling_error_decay/monotone": False,
        "suite_runtime": True,
    }


@pytest.mark.parametrize("item", [
    {"check": "sde_time_symmetry", "params": {"p": 1, "Wall": False}},
    {"check": "marginal_ks", "params": {"p": 1, "wall": False, "replicas": 50}},
    {"check": "norm_law_sde", "params": {"p": 1}},
    {"check": "moment_table", "tolerance": 1e-20},
    {"check": "moment_table", "params": {"base_seed": 1}},
    {"check": "moment_table", "params": [1]},
    {"check": "marginal_ks", "params": {"p": 1, "wall": "false"}},
    {"check": "marginal_ks", "params": {"p": 1, "wall": 0}},
    {"check": "marginal_ks", "params": {"p": 2.7, "wall": False}},
    {"check": "marginal_ks", "params": {"p": True, "wall": False}},
    {"check": "norm_law_sde", "params": {"p": 0, "wall": False}},
    # parameters that are constants of their checks
    {"check": "stirling_error_decay", "params": {"grid_sizes": []}},
    {"check": "moment_mc", "params": {"source": "sde_sim", "wall": False, "max_order": 0}},
    {"check": "count_oracle_sweep", "params": {"max_steps": 0}},
    {"check": "count_oracle_sweep", "params": {"max_steps": 9}},
    {"check": "sampler_uniformity", "params": {"cases": []}},
    {"check": "sampler_uniformity", "params": {"samples": 200, "cases": [[1.5, 3.9]]}},
    # values outside a domain the check body used to refuse, or never did
    {"check": "marginal_ks", "params": {"p": 3, "wall": True}},
    {"check": "symmetric_poly_mc", "params": {"p": 4, "wall": False}},
    {"check": "moment_mc", "params": {"source": "sde", "wall": False}},
    {"check": "sampler_uniformity", "params": {"samples": True}},
])
def test_run_suite_rejects_a_malformed_item(item, monkeypatch):
    # every item is bound before any check runs; none of these reaches a source
    def unreachable(*args, **kwargs):
        raise AssertionError("a source was computed for a malformed plan")

    monkeypatch.setattr(stats_verify, "simulate_batch", unreachable)
    monkeypatch.setattr(stats_verify, "sample_marginal_batch", unreachable)
    lead = {"check": "moment_table", "params": {}}
    with pytest.raises(ValueError, match=item["check"]):
        run_suite(plan=[lead, item])


def test_malformed_item_names_the_parameters_of_its_check():
    with pytest.raises(ValueError, match=r"'replicas' \(parameters: p, wall\)"):
        run_suite(plan=[{"check": "marginal_ks", "params": {"p": 1, "wall": False, "replicas": 5}}])
    with pytest.raises(ValueError, match=r"\(parameters: none\)"):
        run_suite(plan=[{"check": "moment_table", "params": {"x": 1}}])


@pytest.mark.parametrize("item,message", [
    ({"check": "marginal_ks", "params": {"p": 3, "wall": True}},
     "p must be an integer >= 1 and <= 2, got 3"),
    ({"check": "norm_law_sde", "params": {"p": 2.0, "wall": True}},
     "p must be an integer >= 1, got 2.0"),
    ({"check": "sde_invariants", "params": {"p": 1, "wall": 1}},
     "wall must be one of False, True, got 1"),
    ({"check": "moment_mc", "params": {"source": "sde", "wall": True}},
     "source must be one of 'discrete_walk', 'sde_sim', got 'sde'"),
    ({"check": "sampler_uniformity", "params": {"samples": 0}},
     "samples must be an integer >= 1, got 0"),
])
def test_out_of_domain_value_names_its_domain(item, message):
    with pytest.raises(ValueError) as info:
        run_suite(plan=[item])
    assert str(info.value) == f"{item['check']}: {message}"


def test_every_check_takes_the_base_seed_then_keywords_only():
    for name, fn in stats_verify._CHECKS.items():
        first, *rest = inspect.signature(fn).parameters.values()
        assert first.name == "base_seed", name
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in rest), name
        # the binder reads each keyword's annotation as its domain
        assert all(p.annotation is not inspect.Parameter.empty for p in rest), name


def test_default_plan_spells_out_no_signature_default():
    # a value is declared once: the plan passes only parameters without a
    # default, and the sample count the benchmark scales
    for item in stats_verify.DEFAULT_PLAN:
        signature = inspect.signature(stats_verify._CHECKS[item["check"]])
        for key in item["params"]:
            if key != "samples":
                assert signature.parameters[key].default is inspect.Parameter.empty, (item, key)


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(plan=[{"check": "astrology"}])
    with pytest.raises(ValueError, match="workers"):
        run_suite(plan=CHEAP_PLAN, workers=0)


def test_run_suite_rejects_duplicate_records():
    with pytest.raises(ValueError, match="duplicate"):
        run_suite(plan=[{"check": "moment_table"}, {"check": "moment_table"}])


@pytest.mark.parametrize("first,second", [
    # record names do not depend on samples
    ({"check": "sampler_uniformity", "params": {"samples": 10}},
     {"check": "sampler_uniformity", "params": {"samples": 20}}),
    ({"check": "norm_law_sde", "params": {"p": 1, "wall": False}},
     {"check": "norm_law_sde", "params": {"wall": False, "p": 1}}),
    ({"check": "moment_table", "params": {}}, {"check": "moment_table"}),
])
def test_run_suite_refuses_a_repeated_item_before_anything_runs(first, second, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a check or source ran before the repeat was refused")

    monkeypatch.setattr(stats_verify, "simulate_batch", unreachable)
    monkeypatch.setattr(stats_verify, "sample_marginal_batch", unreachable)
    for name, fn in list(stats_verify._CHECKS.items()):
        stub = functools.wraps(fn)(lambda *args, **kwargs: unreachable())
        monkeypatch.setitem(stats_verify._CHECKS, name, stub)
    with pytest.raises(ValueError, match=f"{first['check']}: duplicate plan item"):
        run_suite(plan=[{"check": "stirling_error_decay"}, first, second])


def test_run_suite_still_refuses_duplicate_record_names(monkeypatch):
    # distinct items whose records collide get past the binding pass; the
    # check of the finished report's names still refuses them
    table = stats_verify._CHECKS["moment_table"]
    monkeypatch.setitem(stats_verify._CHECKS, "norm_gamma_oracle", table)
    with pytest.raises(ValueError, match=r"duplicate record names: \['moment_table'\]"):
        run_suite(plan=[{"check": "moment_table"}, {"check": "norm_gamma_oracle"}])


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


def test_source_groups_match_the_sources_checks_read(monkeypatch):
    # every default item runs, on small sources, with _source recording the
    # (kind, p, wall) it is asked for: a source-reading check missing from
    # _source_of would be scheduled apart from the other readers of its source
    reads = []
    real = stats_verify._source

    def recording(kind, p, wall, base_seed, t):
        reads[-1].add((kind, p, wall))
        return real(kind, p, wall, base_seed, t)

    monkeypatch.setattr(stats_verify, "_source", recording)
    monkeypatch.setattr(stats_verify, "_SOURCE_REPLICAS", 12)
    monkeypatch.setattr(stats_verify, "_SOURCES", {})
    read_by_group = []
    for group in stats_verify._source_groups(stats_verify.DEFAULT_PLAN):
        read_by_group.append(set())
        for item in group:
            reads.append(set())
            stats_verify._run_plan_item(item, 77)
            if stats_verify._source_of(item) is None:
                assert reads[-1] == set(), item
            read_by_group[-1] |= reads[-1]
    for a, b in combinations(read_by_group, 2):
        assert not a & b
    assert sum(map(len, read_by_group)) == 11  # 10 sources and one dt/2 twin


def test_sde_source_computed_once_per_key(monkeypatch):
    # the step-halving check and the other SDE checks share the dt = 1e-4
    # source, and the dt/2 twin records only the time it is read at; the
    # stub counts computations instead of integrating, into a cache of
    # this test's own
    calls = []

    def counting_batch(cfg, replicas, record_times):
        calls.append((cfg.p, cfg.wall, cfg.dt, tuple(record_times)))
        rng = np.random.default_rng(len(calls))
        raw = np.abs(rng.standard_normal((64, len(record_times), cfg.p))) + 0.1
        return np.cumsum(raw, axis=2)

    monkeypatch.setattr(stats_verify, "simulate_batch", counting_batch)
    monkeypatch.setattr(stats_verify, "_SOURCES", {})
    plan = [
        {"check": "sde_step_halving", "params": {"p": 2, "wall": True}},
        {"check": "norm_law_sde", "params": {"p": 2, "wall": True}},
        {"check": "sde_invariants", "params": {"p": 2, "wall": True}},
        {"check": "sde_time_symmetry", "params": {"p": 2, "wall": True}},
    ]
    run_suite(plan=plan)
    assert sorted(calls) == [(2, True, 5e-5, (0.5,)),
                             (2, True, 1e-4, (0.25, 0.35, 0.5, 0.65, 0.75))]


def test_lattice_sources_stop_at_their_last_read(monkeypatch):
    # the default plan's lattice items, on small real sources: every source
    # runs its chain once, in continuation calls that end at the furthest
    # index any item reads from it (t = 1/2 for p = 3, t = 3/4 otherwise)
    calls = {}
    real = stats_verify.sample_marginal_batch

    def counting_batch(p, n, wall, base_seed, replicas, k_indices, start=None):
        k0 = 0 if start is None else start[0]
        calls.setdefault((p, wall), []).append((k0, max(k_indices)))
        return real(p, n, wall, base_seed, replicas, k_indices, start=start)

    monkeypatch.setattr(stats_verify, "sample_marginal_batch", counting_batch)
    monkeypatch.setattr(stats_verify, "_SOURCE_REPLICAS", 12)
    monkeypatch.setattr(stats_verify, "_SOURCES", {})
    plan = [item for item in stats_verify.DEFAULT_PLAN
            if (stats_verify._source_of(item) or (None,))[0] == "discrete"]
    run_suite(plan=plan)
    assert sorted(calls) == [(p, wall) for p in (1, 2, 3) for wall in (False, True)]
    for (p, wall), spans in calls.items():
        # each call starts where the previous one stopped
        assert [k0 for k0, _ in spans] == [0] + [k1 for _, k1 in spans[:-1]]
        assert sum(k1 - k0 for k0, k1 in spans) == (2048 if p == 3 else 3072)


def test_source_caches_are_keyed_on_the_replica_count(monkeypatch):
    # the replica count is read when a source is computed; a source cached
    # at one count must not answer for another
    plan = [{"check": "norm_law_sde", "params": {"p": 1, "wall": False}},
            {"check": "marginal_ks", "params": {"p": 1, "wall": False}}]
    monkeypatch.setattr(stats_verify, "_SOURCES", {})
    for replicas in (12, 24):
        monkeypatch.setattr(stats_verify, "_SOURCE_REPLICAS", replicas)
        sizes = {r.sample_size for r in run_suite(plan=plan, base_seed=77).records
                 if r.name != "suite_runtime"}
        assert sizes == {replicas}
    assert sorted(stats_verify._SOURCES) == [
        (kind, 1, False, 77, replicas) for kind in ("discrete", "sde") for replicas in (12, 24)
    ]


# sha256 of report_to_json for the default plan at 1/100 of its Monte Carlo
# size (100 source replicas, 1,000 uniformity samples) at DEFAULT_BASE_SEED:
# a change to any lattice, SDE, census or statistic byte moves it
SCALED_PLAN_SHA256 = "4250940ba07fd75a6ba3158703cc78b4729cab935afc34dd9bc029323d07ee3f"


def test_default_plan_at_one_hundredth_keeps_its_bytes(monkeypatch):
    monkeypatch.setattr(stats_verify, "_SOURCE_REPLICAS", 100)
    plan = []
    for item in stats_verify.DEFAULT_PLAN:
        if item["check"] == "sampler_uniformity":
            item = dict(item, params=dict(item["params"], samples=1000))
        plan.append(item)
    text = report_to_json(run_suite(plan=plan))
    assert hashlib.sha256(text.encode()).hexdigest() == SCALED_PLAN_SHA256
