"""Acceptance gate: each numbered criterion runs as one test.

The default verification plan is executed twice, once serially and once
with eight workers, and every criterion below reads its records out of
those reports.  Expected record names are spelled out in full so a plan
regression (a silently dropped check) fails loudly here.
"""

import hashlib
import math
import time

import pytest

from watermelon.stats_verify import (
    KS_SERIES_COEFF,
    chi_square_critical,
    report_to_json,
    run_suite,
)

pytestmark = pytest.mark.slow

KS_05 = KS_SERIES_COEFF[0.05] / math.sqrt(10_000)
# sha256 of report_to_json for the default plan at DEFAULT_BASE_SEED
REPORT_SHA256 = "7821a1ee16441916fbec312d92918f3f92a7168b99bc26404995d913f0ca0c7a"


@pytest.fixture(scope="module")
def serial_run():
    start = time.monotonic()
    report = run_suite(workers=1)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def parallel_run():
    start = time.monotonic()
    report = run_suite(workers=8)
    return report, time.monotonic() - start


def by_name(report):
    return {r.name: r for r in report.records}


def grab(report, names):
    table = by_name(report)
    missing = [n for n in names if n not in table]
    assert not missing, f"plan lost records: {missing}"
    return [table[n] for n in names]


def test_criterion_1_exact_count_oracle(serial_run):
    report, _ = serial_run
    equality, runtime, normalization = grab(report, [
        "count_oracle_sweep/equality",
        "count_oracle_sweep/runtime",
        "count_oracle_sweep/transition_normalization",
    ])
    assert equality.passed and equality.sample_size == 884  # full census, m <= 8
    assert normalization.passed
    assert runtime.passed  # indicator: sweep stayed under its minute


def test_criterion_2_sampler_uniformity(serial_run):
    report, _ = serial_run
    small, tiny, runtime = grab(report, [
        "sampler_uniformity/p1_n3",
        "sampler_uniformity/p2_n2",
        "sampler_uniformity/runtime",
    ])
    assert small.sample_size == 100_000 and tiny.sample_size == 100_000
    assert small.threshold == pytest.approx(chi_square_critical(0.01, 4))
    assert tiny.threshold == pytest.approx(chi_square_critical(0.01, 2))
    assert small.passed and tiny.passed and runtime.passed


def test_criterion_3_marginal_convergence(serial_run):
    report, _ = serial_run
    records = grab(report, [
        "marginal_ks/p1/nowall/branch1",
        "marginal_ks/p1/wall/branch1",
        "marginal_ks/p2/nowall/branch1",
        "marginal_ks/p2/nowall/branch2",
        "marginal_ks/p2/wall/branch1",
        "marginal_ks/p2/wall/branch2",
    ])
    for r in records:
        assert r.sample_size == 10_000
        assert r.threshold == pytest.approx(KS_05)
        assert r.passed, f"{r.name}: {r.statistic:.5f} > {r.threshold:.5f}"


def test_criterion_4_norm_square_law(serial_run):
    report, _ = serial_run
    (oracle,) = grab(report, ["norm_gamma_oracle"])
    assert oracle.threshold == 1e-6 and oracle.passed
    names = [
        f"norm_law_{source}/p{p}/{tag}/t{t}"
        for source in ("discrete", "sde")
        for p in (1, 2)
        for tag in ("wall", "nowall")
        for t in (25, 50, 75)
    ]
    for r in grab(report, names):
        assert r.threshold == pytest.approx(KS_05)
        assert r.passed, f"{r.name}: {r.statistic:.5f} > {r.threshold:.5f}"


def test_criterion_5_moment_formulas(serial_run):
    report, _ = serial_run
    (table,) = grab(report, ["moment_table"])
    assert table.sample_size == 24 and table.threshold == 1e-12 and table.passed
    mc = grab(report, [
        "moment_mc/discrete/nowall",
        "moment_mc/discrete/wall",
        "moment_mc/sde/nowall",
        "moment_mc/sde/wall",
    ])
    for r in mc:
        assert r.threshold == 3.0  # standard errors
        assert r.passed, f"{r.name}: worst z {r.statistic:.3f}"


def test_criterion_6_symmetric_polynomials(serial_run):
    report, _ = serial_run
    names = [
        f"symmetric_poly_mc/p{p}/{tag}"
        for p in (1, 2, 3)
        for tag in ("wall", "nowall")
    ]
    for r in grab(report, names):
        assert r.threshold == 3.0
        assert r.passed, f"{r.name}: worst z {r.statistic:.3f}"


def test_criterion_7_sde_integrity(serial_run):
    report, _ = serial_run
    invariants = grab(report, [
        "sde_invariants/p1/nowall",
        "sde_invariants/p1/wall",
        "sde_invariants/p2/nowall",
        "sde_invariants/p2/wall",
    ])
    for r in invariants:
        assert r.statistic == 0.0, f"{r.name}: {r.statistic:g} violations"
        assert r.passed
    (halving,) = grab(report, ["sde_step_halving/p2/wall"])
    assert halving.threshold == 2.0
    assert halving.passed, f"halving z {halving.statistic:.3f}"


def test_criterion_8_ratio_asymptotics(serial_run):
    report, _ = serial_run
    bound, monotone = grab(report, [
        "stirling_error_decay/bound",
        "stirling_error_decay/monotone",
    ])
    assert bound.passed, f"scaled error {bound.statistic:.3f} > {bound.threshold}"
    assert monotone.passed


def test_criterion_9_deterministic_reports(serial_run, parallel_run):
    report_a, elapsed_a = serial_run
    report_b, elapsed_b = parallel_run
    assert report_a.verdict is True
    text = report_to_json(report_a)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256
    assert text == report_to_json(report_b)
    assert elapsed_a < 600.0, f"serial run took {elapsed_a:.0f}s"
    assert elapsed_b < 600.0, f"8-worker run took {elapsed_b:.0f}s"
