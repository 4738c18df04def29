"""Command-line surface: counting, sampling, simulation, densities,
moments, verification, and SVG rendering of sampled watermelons.

Every subcommand is a thin adapter over the library modules; no
numerical logic lives here.  CSV output uses '.' decimals regardless of
locale and JSON numbers carry 17 significant digits, so artifacts are
reproducible across platforms.  Exit codes: 0 on success, 1 when a
verification verdict or simulation fails, 2 on usage errors.

Each handler imports the layers it runs, so a cold `count`, `moments`,
`render` or `verify --from-file` loads neither numpy nor scipy, and
`sample`, `density` or `simulate` without `--summary-out` no scipy; only
`count` imports decimal.  The rest of `simulate` and `verify` load both.

The console script and `python -m watermelon.cli` run through
`entrypoint`, which runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS
is already set; the verify workers inherit the setting.  `main` leaves
the environment alone.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

from . import CheckRecord, TestReport, format_json, report_to_json

# matplotlib's familiar 10-color cycle, reused so a p = 10 figure gets
# one distinct color per branch
BRANCH_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class RenderSpec:
    """Geometry and styling for the SVG renderer."""

    width: int = 900
    height: int = 360
    margin: int = 24
    stroke_width: float = 1.5
    wall_axis: bool = False

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("render dimensions must be positive")
        if self.margin < 0 or 2 * self.margin >= min(self.width, self.height):
            raise ValueError("margin must leave a positive drawing area")
        if not self.stroke_width > 0:
            raise ValueError("stroke width must be positive")


def _parse_floats(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise ValueError(f"expected comma-separated finite numbers, got {text!r}")


def _parse_ints(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _env_seed(explicit, fallback):
    if explicit is not None:
        return explicit
    env = os.environ.get("WATERMELON_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"WATERMELON_SEED must be an integer, got {env!r}")
    return fallback


@contextlib.contextmanager
def _output(path):
    """The text stream for --out: stdout for None or "-", else the file, closed after."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as f:
            yield f


# ---------------------------------------------------------------------------
# subcommands


def _print_count(value):
    # str(int) refuses more than 4300 digits by default; an int converts
    # to Decimal exactly and without that cap, and prints every digit
    from decimal import Decimal

    print(Decimal(value))


def _cmd_count(args):
    from .exact_count import StarQuery, count_stars, count_watermelons

    if (args.n is None) == (args.m is None):
        raise ValueError("count needs exactly one of --n (watermelons) or --m/--e (stars)")
    if args.n is not None:
        _print_count(count_watermelons(args.p, args.n, args.wall))
        return 0
    if args.e is None:
        raise ValueError("star counting needs --e with the endpoint heights")
    q = StarQuery(args.p, args.m, tuple(_parse_ints(args.e)), args.wall)
    _print_count(count_stars(q))
    return 0


def _cmd_sample(args):
    from .discrete_walk import sample_path_batch, sample_watermelon
    from .paths import WatermelonPath, write_path_csv

    seed = _env_seed(args.seed, 0)
    if args.batch is not None:
        if args.batch < 1:
            raise ValueError("--batch must be positive")
        if args.out is None:
            raise ValueError("--batch needs --out DIRECTORY")
        # drawn before the directory is made, so a usage error leaves none
        block = sample_path_batch(args.p, args.n, args.wall, seed, args.batch)
        os.makedirs(args.out, exist_ok=True)
        for r in range(args.batch):
            path = WatermelonPath(p=args.p, n=args.n, positions=block[r].tolist(), wall=args.wall)
            name = os.path.join(args.out, f"watermelon_{r:04d}.csv")
            with open(name, "w", newline="") as f:
                write_path_csv(path, f)
        print(f"wrote {args.batch} paths to {args.out}")
        return 0
    path = sample_watermelon(args.p, args.n, args.wall, seed)
    with _output(args.out) as out:
        write_path_csv(path, out)
    return 0


def _cmd_simulate(args):
    from .sde_sim import (
        SdeConfig,
        _batch_record_indices,
        _check_trajectory_size,
        simulate,
        summarize_batch,
        trajectory_to_csv,
    )

    cfg = SdeConfig(
        p=args.p,
        wall=args.wall,
        t0=args.t0,
        dt=args.dt,
        gap_floor=args.gap_floor,
        max_halvings=args.max_halvings,
        seed=_env_seed(args.seed, 0),
    )
    # usage errors first: nothing is integrated or written before these
    # pass, and no grid is built for a dt too small to hold one
    _check_trajectory_size(cfg)
    if args.summary_out is not None:
        if args.replicas < 2:
            raise ValueError(f"--summary-out needs --replicas >= 2, got {args.replicas}")
        record = _parse_floats(args.record)
        _batch_record_indices(cfg, args.replicas, record)
    traj = simulate(cfg)
    with _output(args.out) as out:
        trajectory_to_csv(traj, out)
    if args.summary_out is not None:
        text = format_json(summarize_batch(cfg, args.replicas, record))
        with open(args.summary_out, "w") as f:
            f.write(text + "\n")
    return 0


def _cmd_density(args):
    from .spectral_laws import DensityParams, density

    params = DensityParams(args.p, args.t, args.wall)
    # every point is evaluated before any is printed: a refused one leaves stdout empty
    print("\n".join(format_json(density(params, _parse_floats(x))) for x in args.x))
    return 0


def _cmd_moments(args):
    from .moments import MomentQuery, evaluate_moment, first_moments_table

    if not args.table and args.order is None:
        raise ValueError("moments needs --table, --order, or both")
    out = {}
    if args.table:
        out["normalized_table"] = first_moments_table()
    if args.order is not None:
        query = MomentQuery(
            wall=args.wall, order=args.order, t=args.t, branch=args.branch, p=args.p
        )
        out["wall"] = args.wall
        out["order"] = args.order
        out["t"] = args.t
        if args.branch is not None:
            out["branch"] = args.branch
        else:
            out["p"] = args.p
        out["value"] = evaluate_moment(query)
    print(format_json(out))
    return 0


def _verify_path_file(args):
    from .paths import read_path_csv

    with open(args.from_file, newline="") as f:
        try:
            path = read_path_csv(f, args.wall)
        except ValueError as err:
            print(f"invalid path file: {err}", file=sys.stderr)
            path = None
    ok = path is not None
    record = CheckRecord(
        name="path_file_invariants",
        statistic=0.0 if ok else 1.0,
        threshold=0.5,
        passed=ok,
        sample_size=2 * path.n + 1 if ok else 0,
        seed=0,
        detail=f"stored path {'satisfies' if ok else 'violates'} the walk invariants",
    )
    return TestReport(records=(record,))


def _cmd_verify(args):
    modes = sum(1 for v in (args.default, args.plan, args.from_file) if v)
    if modes != 1:
        raise ValueError("verify needs exactly one of --default, --plan FILE, --from-file CSV")
    if args.from_file:
        report = _verify_path_file(args)
    else:
        from .stats_verify import DEFAULT_BASE_SEED, run_suite

        if args.plan:
            with open(args.plan) as f:
                plan = json.load(f)
            if not isinstance(plan, list):
                raise ValueError("a plan file must hold a JSON list of check items")
        else:
            plan = None
        base_seed = _env_seed(args.base_seed, DEFAULT_BASE_SEED)
        report = run_suite(plan=plan, base_seed=base_seed, workers=args.workers)
    text = report_to_json(report)
    with _output(args.out) as out:
        out.write(text)
    return 0 if report.verdict else 1


def _render_svg(path, spec):
    k_max = 2 * path.n
    rows = path.positions
    lo = float(min(map(min, rows)))
    if spec.wall_axis:
        lo = min(lo, 0.0)
    hi = float(max(map(max, rows)))
    if hi <= lo:
        hi = lo + 1.0
    inner_w = spec.width - 2 * spec.margin
    inner_h = spec.height - 2 * spec.margin

    def sx(k):
        return spec.margin + inner_w * (k / k_max if k_max else 0.5)

    def sy(v):
        # SVG y grows downward; invert so up-steps point up
        return spec.margin + inner_h * (1.0 - (v - lo) / (hi - lo))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">'
    ]
    if spec.wall_axis:
        y0 = sy(0.0)
        lines.append(
            f'<line x1="{sx(0):.2f}" y1="{y0:.2f}" x2="{sx(k_max):.2f}" '
            f'y2="{y0:.2f}" stroke="#444444" stroke-width="1" />'
        )
    for b in range(path.p):
        pts = " ".join(f"{sx(k):.2f},{sy(row[b]):.2f}" for k, row in enumerate(rows))
        color = BRANCH_COLORS[b % len(BRANCH_COLORS)]
        lines.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{spec.stroke_width}" points="{pts}" />'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_render(args):
    from .paths import read_path_csv

    with open(args.infile, newline="") as f:
        path = read_path_csv(f, args.wall)
    spec = RenderSpec(
        width=args.width,
        height=args.height,
        margin=args.margin,
        stroke_width=args.stroke_width,
        wall_axis=args.wall,
    )
    svg = _render_svg(path, spec)
    with _output(args.out) as out:
        out.write(svg)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    top = argparse.ArgumentParser(
        prog="watermelon",
        description="non-intersecting path ensembles: count, sample, simulate, verify",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="exact watermelon or star counts")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, help="half-length for watermelon counting")
    c.add_argument("--m", type=int, help="step count for star counting")
    c.add_argument("--e", help="comma-separated star endpoints, e.g. 0,2,4")
    c.add_argument("--wall", action="store_true")
    c.set_defaults(func=_cmd_count)

    s = sub.add_parser("sample", help="draw uniform watermelons as CSV")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--wall", action="store_true")
    s.add_argument("--seed", type=int)
    s.add_argument("--batch", type=int, help="write this many paths into --out directory")
    s.add_argument("--out", help="file (single path) or directory (--batch)")
    s.set_defaults(func=_cmd_sample)

    m = sub.add_parser("simulate", help="integrate the limiting interacting SDE")
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--wall", action="store_true")
    m.add_argument("--t0", type=float, default=0.02)
    m.add_argument("--dt", type=float, default=1e-4)
    m.add_argument("--gap-floor", type=float, default=1e-3, dest="gap_floor")
    m.add_argument("--max-halvings", type=int, default=40, dest="max_halvings")
    m.add_argument("--seed", type=int)
    m.add_argument("--out", help="trajectory CSV destination (default stdout)")
    m.add_argument("--summary-out", dest="summary_out", help="also write a moment summary JSON")
    m.add_argument("--replicas", type=int, default=256, help="batch size for --summary-out")
    m.add_argument("--record", default="0.25,0.5,0.75", help="record times for --summary-out")
    m.set_defaults(func=_cmd_simulate)

    d = sub.add_parser("density", help="evaluate a limit marginal density")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--t", type=float, required=True)
    d.add_argument("--x", action="append", required=True,
                   help="comma-separated coordinates; repeatable")
    d.add_argument("--wall", action="store_true")
    d.set_defaults(func=_cmd_density)

    mo = sub.add_parser("moments", help="closed-form moments as JSON")
    mo.add_argument("--table", action="store_true", help="print the normalized table")
    mo.add_argument("--wall", action="store_true")
    mo.add_argument("--order", type=int)
    mo.add_argument("--t", type=float, default=0.5)
    mo.add_argument("--branch", type=int, help="branch moment (p = 2): 1 lower, 2 upper")
    mo.add_argument("--p", type=int, help="symmetric polynomial mean for this p")
    mo.set_defaults(func=_cmd_moments)

    v = sub.add_parser("verify", help="run the statistical verification suite")
    v.add_argument("--default", action="store_true", help="run the built-in plan")
    v.add_argument("--plan", help="JSON file: list of {check, params}, params being "
                   "the check's keyword arguments, each within the domain its "
                   "annotation declares")
    v.add_argument("--from-file", dest="from_file", help="validate a stored path CSV")
    v.add_argument("--wall", action="store_true", help="wall flag for --from-file")
    v.add_argument("--base-seed", type=int, dest="base_seed")
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--out", help="report destination (default stdout)")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("render", help="draw a stored path CSV as SVG")
    r.add_argument("infile", help="path CSV produced by sample")
    r.add_argument("--out", help="SVG destination (default stdout)")
    r.add_argument("--wall", action="store_true", help="draw the wall axis")
    r.add_argument("--width", type=int, default=900)
    r.add_argument("--height", type=int, default=360)
    r.add_argument("--margin", type=int, default=24)
    r.add_argument("--stroke-width", type=float, default=1.5, dest="stroke_width")
    r.set_defaults(func=_cmd_render)

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, KeyError, TypeError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"failed: {err}", file=sys.stderr)
        return 1


def entrypoint():
    # before any handler imports numpy or scipy: their OpenBLAS pools would
    # otherwise spin on every core for products too small to thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
