"""End-to-end tests for the command line adapters.

Each subcommand is exercised through main(argv) so exit codes and
stdout/stderr behavior are pinned down without spawning subprocesses,
plus one real subprocess test for the console entry point.
"""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from watermelon.cli import BRANCH_COLORS, RenderSpec, _fmt, main
from watermelon.discrete_walk import read_path_csv
from watermelon.exact_count import StarQuery, count_stars, count_watermelons
from watermelon.moments import moment_wall_p2, normalized_table_entry
from watermelon.sde_sim import read_trajectory_csv
from watermelon.spectral_laws import DensityParams, density_wall
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


def test_sample_batch_directory(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code, out, _ = run_cli(
        capsys, "sample", "--p", "1", "--n", "3", "--wall", "--seed", "5",
        "--batch", "3", "--out", str(out_dir),
    )
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert [f.name for f in files] == [
        "watermelon_0000.csv", "watermelon_0001.csv", "watermelon_0002.csv",
    ]
    for f in files:
        with open(f, newline="") as fh:
            path = read_path_csv(fh, True)
        assert path.p == 1 and path.n == 3


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


def test_simulate_halving_failure_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--p", "2", "--wall", "--t0", "0.1", "--dt", "0.001",
        "--gap-floor", "5.0", "--max-halvings", "2", "--seed", "1",
    )
    assert code == 1
    assert "failed" in err


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
    assert float(lines[0]) == pytest.approx(density_wall(params, [0.3, 0.9]), rel=1e-15)
    assert float(lines[1]) == pytest.approx(density_wall(params, [0.1, 0.4]), rel=1e-15)


def test_density_bad_point_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "density", "--p", "1", "--t", "0.5", "--x", "zero")
    assert code == 2


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
    assert run_cli(capsys, "moments")[0] == 2  # no --table, no --order
    assert run_cli(capsys, "moments", "--order", "2")[0] == 2  # no branch/p
    assert run_cli(capsys, "moments", "--order", "9", "--p", "2")[0] == 2


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


def test_verify_plan_failure_exit_code(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"check": "moment_table", "tolerance": 1e-20}]))
    code, out, _ = run_cli(capsys, "verify", "--plan", str(plan))
    assert code == 1
    assert json.loads(out)["verdict"] is False


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


def test_render_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        RenderSpec(width=0)
    with pytest.raises(ValueError, match="margin"):
        RenderSpec(width=100, height=100, margin=60)
    with pytest.raises(ValueError, match="stroke"):
        RenderSpec(stroke_width=0.0)
    with pytest.raises(ValueError, match="color"):
        RenderSpec(colors=())


# ---------------------------------------------------------------------------
# plumbing


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["harvest"])
    assert info.value.code == 2


def test_json_float_formatting():
    assert _fmt(0.1) == "0.10000000000000001"
    assert format_json({"a": [1, 0.5, True, None, "s"]}) == (
        '{"a": [1, 0.5, true, null, "s"]}'
    )
    with pytest.raises(TypeError):
        format_json({"bad": object()})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            format_json({"x": [bad]})


def test_console_entrypoint_subprocess():
    script = (
        "import sys; sys.argv = ['watermelon', 'count', '--p', '1', '--n', '3', "
        "'--wall']; from watermelon.cli import entrypoint; entrypoint()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"
