"""End-to-end tests for the command line adapters.

Each subcommand is exercised through main(argv) so exit codes and
stdout/stderr behavior are pinned down without spawning subprocesses,
plus one real subprocess test for the console entry point.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

import watermelon
from watermelon import stats_verify
from watermelon.cli import BRANCH_COLORS, RenderSpec, main
from watermelon.discrete_walk import read_path_csv
from watermelon.exact_count import StarQuery, count_stars, count_watermelons
from watermelon.moments import moment_wall_p2, normalized_table_entry
from watermelon.sde_sim import SdeConfig, read_trajectory_csv, simulate, trajectory_to_csv
from watermelon.spectral_laws import DensityParams, density
from watermelon.stats_verify import format_json

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count


def test_count_watermelon_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "1", "--n", "3", "--wall")
    assert code == 0
    assert out == "5\n"


def test_count_matches_library(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--n", "4")
    assert code == 0
    assert out.strip() == str(count_watermelons(2, 4, False))


def test_count_stars_endpoints(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--m", "2", "--e", "0,2")
    assert code == 0
    assert out.strip() == str(count_stars(StarQuery(2, 2, (0, 2), False)))


def test_count_prints_past_the_int_str_digit_limit(capsys):
    # str(int) refuses more than 4300 digits by default
    code, out, err = run_cli(capsys, "count", "--p", "3", "--n", "2400", "--wall")
    assert code == 0, err
    digits = out.strip()
    assert digits.isascii() and digits.isdigit()
    assert len(digits) > 4300
    value = count_watermelons(3, 2400, True)
    assert 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
    assert digits[-60:] == f"{value % 10**60:060d}"


def test_count_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "1", "--n", "2", "--m", "2")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "count", "--p", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "count", "--p", "1", "--m", "2")
    assert code == 2  # stars need --e


# ---------------------------------------------------------------------------
# sample


def test_sample_single_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "path.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--p", "2", "--n", "5", "--wall", "--seed", "11",
        "--out", str(out_file),
    )
    assert code == 0
    with open(out_file, newline="") as f:
        path = read_path_csv(f, True)
    assert path.p == 2 and path.n == 5 and path.wall is True


def test_sample_stdout_deterministic(capsys):
    code, out_a, _ = run_cli(capsys, "sample", "--p", "1", "--n", "4", "--seed", "3")
    assert code == 0
    _, out_b, _ = run_cli(capsys, "sample", "--p", "1", "--n", "4", "--seed", "3")
    assert out_a == out_b
    _, out_c, _ = run_cli(capsys, "sample", "--p", "1", "--n", "4", "--seed", "4")
    assert out_a != out_c


def test_sample_env_seed(tmp_path, capsys, monkeypatch):
    _, explicit, _ = run_cli(capsys, "sample", "--p", "1", "--n", "6", "--seed", "7")
    monkeypatch.setenv("WATERMELON_SEED", "7")
    _, from_env, _ = run_cli(capsys, "sample", "--p", "1", "--n", "6")
    assert from_env == explicit
    monkeypatch.setenv("WATERMELON_SEED", "pear")
    code, _, err = run_cli(capsys, "sample", "--p", "1", "--n", "6")
    assert code == 2
    assert "WATERMELON_SEED" in err


# sha256 over each file's name, a newline and its bytes, in name order,
# recorded while WatermelonPath still held its rows in a numpy array
GOLDEN_BATCH_DIRECTORY = "6002fa8660a2c00edb53fd573939deab51bdc59df8efc2ec85b843f56ec82bd7"


def test_sample_batch_directory(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code, out, _ = run_cli(
        capsys, "sample", "--p", "2", "--n", "12", "--wall", "--seed", "5",
        "--batch", "3", "--out", str(out_dir),
    )
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert [f.name for f in files] == [
        "watermelon_0000.csv", "watermelon_0001.csv", "watermelon_0002.csv",
    ]
    digest = hashlib.sha256()
    for f in files:
        with open(f, newline="") as fh:
            path = read_path_csv(fh, True)
        assert path.p == 2 and path.n == 12
        digest.update(f.name.encode() + b"\n" + f.read_bytes())
    assert digest.hexdigest() == GOLDEN_BATCH_DIRECTORY


@pytest.mark.parametrize(
    "extra",
    [["--p", "2", "--n", "0", "--batch", "2"], ["--p", "3", "--n", "20000000", "--batch", "1"]],
    ids=["n-zero", "oversized"],
)
def test_sample_batch_usage_error_makes_no_directory(tmp_path, capsys, extra):
    out_dir = tmp_path / "batch"
    code, _, err = run_cli(capsys, "sample", *extra, "--out", str(out_dir))
    assert code == 2 and err.startswith("error:")
    assert not out_dir.exists()


def test_sample_batch_needs_out(capsys):
    code, _, _ = run_cli(capsys, "sample", "--p", "1", "--n", "3", "--batch", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_and_summary(tmp_path, capsys):
    csv_file = tmp_path / "traj.csv"
    json_file = tmp_path / "summary.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--p", "1", "--t0", "0.1", "--dt", "0.001",
        "--seed", "2", "--out", str(csv_file),
        "--summary-out", str(json_file), "--replicas", "8", "--record", "0.5",
    )
    assert code == 0
    with open(csv_file, newline="") as f:
        traj = read_trajectory_csv(f, False)
    assert traj.values.shape[1] == 1
    summary = json.loads(json_file.read_text())
    assert summary["times"] == [0.5]
    assert len(summary["moments"]) == 1
    assert "norm_squared_mean" in summary


def test_simulate_summary_of_one_replica_is_a_usage_error(tmp_path, capsys):
    # one replica has no standard error; the summary must not be written
    # with a nan, which is not JSON
    json_file = tmp_path / "summary.json"
    code, out, err = run_cli(
        capsys, "simulate", "--p", "1", "--dt", "0.01",
        "--summary-out", str(json_file), "--replicas", "1",
    )
    assert code == 2
    assert "replicas" in err
    assert "nan" not in out.lower()
    assert not json_file.exists() or "nan" not in json_file.read_text().lower()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--replicas", "1"], "replicas"),
        (["--record", "1.5"], "grid"),
        (["--record", "0.5,abc"], "finite numbers"),
        (["--record", "nan"], "finite numbers"),
        (["--dt", "1e-13"], "too large"),
        (["--replicas", "1000000000000"], "too large"),
    ],
    ids=["replicas-1", "record-off-grid", "record-not-a-number", "record-nan", "dt-too-small",
         "summary-too-large"],
)
def test_simulate_usage_error_writes_nothing(tmp_path, capsys, extra, message):
    # the replica count, the summary's size and the record times are
    # checked before the trajectory is integrated
    csv_file, json_file = tmp_path / "t.csv", tmp_path / "s.json"
    code, _, err = run_cli(
        capsys, "simulate", "--p", "1", "--dt", "0.01", "--out", str(csv_file),
        "--summary-out", str(json_file), *extra,
    )
    assert code == 2
    assert message in err
    assert not csv_file.exists() and not json_file.exists()


@pytest.mark.parametrize("dt", ["1e-13", "5e-324"])
def test_simulate_too_small_dt_is_a_usage_error(capsys, dt):
    # the trajectory size is decided from the step count, before a grid of
    # trillions of points (or an infinite step count) is asked for
    code, out, err = run_cli(capsys, "simulate", "--p", "1", "--dt", dt)
    assert code == 2
    assert out == "" and err.startswith("error:") and "too large" in err


def test_simulate_halving_failure_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--p", "2", "--wall", "--t0", "0.1", "--dt", "0.001",
        "--gap-floor", "5.0", "--max-halvings", "2", "--seed", "1",
    )
    assert code == 1
    assert "failed" in err


def test_simulate_defaults_are_those_of_sde_config(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--p", "2", "--wall", "--seed", "3")
    assert code == 0
    want = io.StringIO(newline="")
    trajectory_to_csv(simulate(SdeConfig(p=2, wall=True, seed=3)), want)
    assert out == want.getvalue()


# ---------------------------------------------------------------------------
# density


def test_density_nowall_center(capsys):
    code, out, _ = run_cli(capsys, "density", "--p", "1", "--t", "0.5", "--x", "0")
    assert code == 0
    assert math.isclose(float(out), math.sqrt(2.0 / math.pi), rel_tol=1e-12)
    assert float(out) == pytest.approx(0.79788, abs=5e-6)


def test_density_wall_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--p", "2", "--t", "0.25", "--wall",
        "--x", "0.3,0.9", "--x", "0.1,0.4",
    )
    assert code == 0
    lines = out.splitlines()
    params = DensityParams(2, 0.25, True)
    assert float(lines[0]) == pytest.approx(density(params, [0.3, 0.9]), rel=1e-15)
    assert float(lines[1]) == pytest.approx(density(params, [0.1, 0.4]), rel=1e-15)


def test_density_bad_point_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "density", "--p", "1", "--t", "0.5", "--x", "zero")
    assert code == 2
    # non-finite coordinates are usage errors, not a density of 0
    for point, wall in (("nan,1", ["--wall"]), ("inf", []), ("-inf", [])):
        p = str(len(point.split(",")))
        code, out, err = run_cli(
            capsys, "density", "--p", p, "--t", "0.5", *wall, f"--x={point}",
        )
        assert code == 2, point
        assert out == "" and "finite" in err


# ---------------------------------------------------------------------------
# moments


def test_moments_table_json(capsys):
    code, out, _ = run_cli(capsys, "moments", "--table")
    assert code == 0
    table = json.loads(out)["normalized_table"]
    assert [row["order"] for row in table] == [1, 2, 3, 4, 5, 6]
    assert table[1]["wall_lower"] == pytest.approx(
        normalized_table_entry(True, 1, 2), rel=1e-15
    )


def test_moments_branch_query(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--wall", "--branch", "1", "--order", "2", "--t", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == 1 and payload["wall"] is True
    assert payload["value"] == pytest.approx(moment_wall_p2(1, 2, 0.5), rel=1e-15)


def test_moments_symmetric_query(capsys):
    code, out, _ = run_cli(capsys, "moments", "--p", "3", "--order", "2", "--t", "0.25")
    assert code == 0
    assert json.loads(out)["p"] == 3


def test_moments_table_with_query(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--table", "--wall", "--branch", "1", "--order", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["normalized_table"]) == 6
    assert payload["value"] == pytest.approx(moment_wall_p2(1, 1, 0.5), rel=1e-15)


def test_moments_usage_errors(capsys):
    exactly_one = "exactly one of --branch (p = 2) or --p (symmetric)"
    for argv, message in [
        ([], "needs --table, --order, or both"),
        (["--order", "2"], exactly_one),
        (["--order", "2", "--branch", "1", "--p", "2"], exactly_one),
        (["--table", "--order", "2"], exactly_one),
        # the closed forms' own refusals
        (["--order", "9", "--p", "2"], "k must satisfy 1 <= k <= p = 2, got 9"),
        (["--order", "2", "--branch", "3"], "branch must be 1 (lower) or 2 (upper), got 3"),
        (["--order", "2", "--branch", "1", "--t", "1.5"], "t must lie strictly inside (0, 1)"),
    ]:
        code, out, err = run_cli(capsys, "moments", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and message in err, argv


def test_moments_order_26_keeps_its_bytes(capsys):
    # the last lower-branch wall order whose two terms cancel within bounds
    code, out, _ = run_cli(capsys, "moments", "--wall", "--branch", "1", "--order", "26")
    assert code == 0
    assert out == (
        '{"wall": true, "order": 26, "t": 0.5, "branch": 1, "value": 656.07718848947854}\n'
    )


# ---------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize(
    "argv",
    [
        # prefactor 0: the true densities are 5.3e-220 and 4.9e11
        ["density", "--p", "20", "--t", "0.5", "--wall",
         "--x=" + ",".join(str(0.5 * i) for i in range(1, 21))],
        ["density", "--p", "30", "--t", "0.5",
         "--x=" + ",".join(repr(0.3 * i - 4.35) for i in range(30))],
        # inf times an underflowed exponential
        ["density", "--p", "3", "--t", "0.5", "--x=-1e200,0,1e200"],
        # prefactor overflow
        ["density", "--p", "25", "--t", "0.5", "--wall",
         "--x=" + ",".join(str(i) for i in range(1, 26))],
        ["density", "--p", "2", "--t", "1e-300", "--x", "0.1,0.2"],
        # cancellation of the lower wall branch, then float overflow
        ["moments", "--wall", "--branch", "1", "--order", "27"],
        ["moments", "--wall", "--branch", "1", "--order", "90"],
        ["moments", "--wall", "--branch", "1", "--order", "296"],
        ["moments", "--branch", "1", "--order", "300"],
        # a mean of about 2^2354676, refused before its exact coefficient is built
        ["moments", "--wall", "--p", "1000000", "--order", "100000"],
        # a path of 2 * 10^12 + 1 positions
        ["sample", "--p", "1", "--n", "1000000000000"],
        # a 100,000 x 100,000 initial spectral draw
        ["simulate", "--p", "100000", "--dt", "0.5"],
        # an exponential that underflows on its own: the true density is 4.68e-245
        ["density", "--p", "1", "--wall", "--t", "1e-200", "--x", "4e-99"],
        ["density", "--p", "1", "--t", "0.5", "--x", "40"],
    ],
    ids=["density-wall-p20", "density-nowall-p30", "density-nan", "density-wall-p25",
         "density-tiny-t", "moments-27", "moments-90", "moments-296", "moments-nowall-300",
         "moments-sym-p1e6", "sample-huge-n", "simulate-huge-p", "density-false-zero",
         "density-far-tail"],
)
def test_refusals_are_clean_usage_errors(capsys, argv):
    # exit 2, one error line, nothing on stdout: no traceback, no numpy
    # warning, and no nan or false 0 printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_plan_file(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"check": "moment_table"}]))
    report_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--plan", str(plan), "--out", str(report_file),
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["verdict"] is True
    names = [r["name"] for r in report["checks"]]
    assert names == sorted(names)


def test_verify_plan_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a decreasing grid fails the monotone record
    monkeypatch.setattr(stats_verify, "_STIRLING_GRID", (10000, 100))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"check": "stirling_error_decay", "params": {}}]))
    code, out, _ = run_cli(capsys, "verify", "--plan", str(plan))
    assert code == 1
    assert json.loads(out)["verdict"] is False


@pytest.mark.parametrize("item", [
    {"check": "sde_time_symmetry", "params": {"p": 1, "Wall": False}},
    {"check": "marginal_ks", "params": {"p": 1, "wall": False, "replicas": 50}},
    {"check": "moment_table", "tolerance": 1e-20},
    {"check": "marginal_ks", "params": {"p": 1, "wall": "false"}},
    {"check": "marginal_ks", "params": {"p": 2.7, "wall": False}},
])
def test_verify_plan_rejects_a_malformed_item(tmp_path, capsys, item):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([item]))
    code, out, err = run_cli(capsys, "verify", "--plan", str(plan))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and item["check"] in err


def test_verify_from_file_roundtrip(tmp_path, capsys):
    path_file = tmp_path / "melon.csv"
    run_cli(capsys, "sample", "--p", "2", "--n", "6", "--wall", "--seed", "9",
            "--out", str(path_file))
    code, out, _ = run_cli(
        capsys, "verify", "--from-file", str(path_file), "--wall",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["checks"][0]["name"] == "path_file_invariants"


def test_verify_from_file_rejects_corruption(tmp_path, capsys):
    path_file = tmp_path / "bad.csv"
    run_cli(capsys, "sample", "--p", "1", "--n", "2", "--wall", "--seed", "9",
            "--out", str(path_file))
    rows = path_file.read_text().splitlines()
    rows[1] = rows[1].split(",")[0] + ",44"  # teleporting step
    path_file.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "verify", "--from-file", str(path_file), "--wall")
    assert code == 1
    assert json.loads(out)["verdict"] is False
    assert "invalid path file" in err


# path files that read_path_csv must refuse; the last holds a valid p = 1
# path under a k column that is not 0, 1, 2
MALFORMED_PATH_FILES = {
    "empty": "",
    "foreign-header": "t,x_1\n0,0\n1,1\n2,0\n",
    "k-shuffled": "k,branch_1\n7,0\n9,1\n5,0\n",
}


@pytest.mark.parametrize("text", MALFORMED_PATH_FILES.values(), ids=MALFORMED_PATH_FILES)
def test_verify_from_file_rejects_malformed_files(tmp_path, capsys, text):
    path_file = tmp_path / "bad.csv"
    path_file.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--from-file", str(path_file), "--wall")
    assert code == 1
    (record,) = json.loads(out)["checks"]
    assert record["name"] == "path_file_invariants" and record["passed"] is False
    assert "invalid path file" in err


def test_verify_usage_errors(tmp_path, capsys):
    assert run_cli(capsys, "verify")[0] == 2
    plan = tmp_path / "plan.json"
    plan.write_text("[]")
    assert run_cli(capsys, "verify", "--default", "--plan", str(plan))[0] == 2
    plan.write_text(json.dumps({"check": "moment_table"}))
    assert run_cli(capsys, "verify", "--plan", str(plan))[0] == 2  # not a list
    plan.write_text(json.dumps(["moment_table"]))
    assert run_cli(capsys, "verify", "--plan", str(plan))[0] == 2  # items not objects
    plan.write_text("{nonsense")
    assert run_cli(capsys, "verify", "--plan", str(plan))[0] == 2  # not JSON


# ---------------------------------------------------------------------------
# render


def polylines(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f"{SVG_NS}polyline"), root.findall(f"{SVG_NS}line")


def test_render_unique_wall_watermelon(tmp_path, capsys):
    path_file = tmp_path / "unique.csv"
    run_cli(capsys, "sample", "--p", "1", "--n", "1", "--wall", "--seed", "0",
            "--out", str(path_file))
    code, out, _ = run_cli(capsys, "render", str(path_file), "--wall")
    assert code == 0
    lines, axes = polylines(out)
    assert len(lines) == 1
    assert len(lines[0].get("points").split()) == 3
    assert len(axes) == 1  # the wall axis
    assert lines[0].get("stroke") == BRANCH_COLORS[0]


def test_render_branch_colors_cycle(tmp_path, capsys):
    path_file = tmp_path / "wide.csv"
    run_cli(capsys, "sample", "--p", "3", "--n", "4", "--seed", "1",
            "--out", str(path_file))
    _, out, _ = run_cli(capsys, "render", str(path_file))
    lines, axes = polylines(out)
    assert [pl.get("stroke") for pl in lines] == list(BRANCH_COLORS[:3])
    assert axes == []  # no wall axis without --wall


def test_render_up_steps_point_up(tmp_path, capsys):
    # the unique (1,2)-watermelon rises then falls; in SVG coordinates the
    # middle vertex must have the smallest y
    path_file = tmp_path / "unique.csv"
    run_cli(capsys, "sample", "--p", "1", "--n", "1", "--wall", "--seed", "0",
            "--out", str(path_file))
    _, out, _ = run_cli(capsys, "render", str(path_file), "--wall")
    pts = polylines(out)[0][0].get("points").split()
    ys = [float(pair.split(",")[1]) for pair in pts]
    assert ys[1] < ys[0] and ys[1] < ys[2]


def test_render_missing_file_is_usage_error(capsys):
    assert run_cli(capsys, "render", "/nonexistent/file.csv")[0] == 2


@pytest.mark.parametrize("text", MALFORMED_PATH_FILES.values(), ids=MALFORMED_PATH_FILES)
def test_render_malformed_file_is_usage_error(tmp_path, capsys, text):
    path_file = tmp_path / "bad.csv"
    path_file.write_text(text)
    code, out, err = run_cli(capsys, "render", str(path_file))
    assert code == 2
    assert out == "" and "error" in err


def test_render_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        RenderSpec(width=0)
    with pytest.raises(ValueError, match="margin"):
        RenderSpec(width=100, height=100, margin=60)
    for width in (0.0, math.nan):
        with pytest.raises(ValueError, match="stroke"):
            RenderSpec(stroke_width=width)


# ---------------------------------------------------------------------------
# plumbing


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["harvest"])
    assert info.value.code == 2


def test_json_float_formatting():
    # one writer, defined at the package root and re-exported by stats_verify
    assert format_json is watermelon.format_json
    assert format_json(0.1) == "0.10000000000000001"
    assert format_json({"a": [1, 0.5, True, None, "s"]}) == (
        '{"a": [1, 0.5, true, null, "s"]}'
    )
    with pytest.raises(TypeError):
        format_json({"bad": object()})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            format_json({"x": [bad]})


# runs the console entry point, then reports on its last stderr line the
# modules of interest the call loaded, its OPENBLAS_NUM_THREADS and, on
# Linux, its thread count
ENTRYPOINT_SCRIPT = """
import json, os, sys
sys.argv[0] = 'watermelon'
from watermelon.cli import entrypoint
try:
    entrypoint()
finally:
    print(json.dumps({
        'loaded': sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'decimal'}),
        'blas_threads': os.environ.get('OPENBLAS_NUM_THREADS'),
        'threads': len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None,
    }), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, expect, unloaded, preset",
    [
        (["count", "--p", "1", "--n", "3", "--wall"], "5\n", {"numpy", "scipy"}, None),
        (["moments", "--table"], '{"normalized_table": [', {"numpy", "scipy"}, None),
        (["sample", "--p", "2", "--n", "3", "--seed", "1"], "k,branch_1,branch_2",
         {"scipy", "decimal"}, None),
        (["density", "--p", "1", "--t", "0.5", "--x", "0"], "0.797", {"scipy", "decimal"}, None),
        (["density", "--p", "1", "--t", "0.5", "--x", "0"], "0.797", {"scipy", "decimal"}, "2"),
        (["simulate", "--p", "2", "--wall", "--dt", "1e-3", "--seed", "7", "--out", "{traj}"], "",
         {"scipy", "decimal"}, None),
        (["render", "{path}", "--wall"], "<svg", {"numpy", "scipy", "decimal"}, None),
        (["verify", "--from-file", "{path}", "--wall"], '{\n  "schema": ',
         {"numpy", "scipy", "decimal"}, None),
    ],
    ids=["count", "moments", "sample", "density", "density-blas-2", "simulate", "render",
         "verify-from-file"],
)
def test_console_entrypoint_subprocess(tmp_path, capsys, argv, expect, unloaded, preset):
    # each subcommand imports only the layers it runs, and OpenBLAS runs on
    # one thread unless the caller chose otherwise
    path_file = tmp_path / "melon.csv"
    run_cli(capsys, "sample", "--p", "2", "--n", "3", "--wall", "--out", str(path_file))
    argv = [a.format(path=path_file, traj=tmp_path / "traj.csv") for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", ENTRYPOINT_SCRIPT, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(expect)
    report = json.loads(proc.stderr.splitlines()[-1])
    loaded = set(report["loaded"])
    assert not loaded & unloaded, f"{argv[0]} loaded {sorted(loaded & unloaded)}"
    assert report["blas_threads"] == (preset or "1")
    if preset is None and report["threads"] is not None:
        assert report["threads"] == 1


def test_module_run_is_the_cli():
    # python -m watermelon.cli runs the same entry point
    proc = subprocess.run(
        [sys.executable, "-m", "watermelon.cli", "count", "--p", "1", "--n", "3", "--wall"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "5\n"), proc.stderr
