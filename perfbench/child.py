"""One timed unit of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py verify --base-seed S --workers W --scale K --out DIR [--trace]
    python3 perfbench/child.py cli --out DIR -- <watermelon arguments>

`verify` runs the default verification plan at 1/K of its Monte Carlo
size (K = 1 is the plan itself) and writes DIR/report.json (the report
bytes) and DIR/result.json (import and run_suite times, and for an
untraced serial run the wall and CPU time of each plan item).  `cli` runs one
traced `watermelon` invocation; its output goes to this process's stdout
exactly as the console script would write it.  With tracing on, every
process that took part, pool workers included, writes DIR/spans-<pid>.json.

Scaling and worker-side tracing reach the pool workers through
`stats_verify.ProcessPoolExecutor`, swapped for a subclass whose
initializer applies both.  run_suite starts its workers with spawn, so the
module-level code below the `__main__` guard must not run on import.
"""

import argparse
import json
import os
import sys
import time


def import_watermelon():
    """Import the whole package, as a user's process loads it; return seconds taken.

    Everything else this file needs is imported afterwards, so modules the
    package pulls in (scipy, concurrent.futures) count towards this time.
    """
    t0 = time.perf_counter()
    import watermelon.cli  # noqa: F401

    return time.perf_counter() - t0


def scale_suite(sv, scale):
    """Shrink every Monte Carlo sample of the default plan by `scale`; return the plan.

    The source replica count is a module constant of stats_verify, read on
    each source computation; it is set here, in the main process, and by
    the pool initializer, in every worker.  Sampler uniformity takes its
    sample count from the plan.  Census, quadrature and closed-form checks
    keep their full size.
    """
    if scale == 1:
        return None
    if not isinstance(getattr(sv, "_SOURCE_REPLICAS", None), int):
        raise SystemExit("stats_verify._SOURCE_REPLICAS is gone; the scaled plan needs it")
    sv._SOURCE_REPLICAS //= scale
    plan = []
    for item in sv.DEFAULT_PLAN:
        item = dict(item)
        if item["check"] == "sampler_uniformity":
            params = dict(item["params"])
            params["samples"] //= scale
            item["params"] = params
        plan.append(item)
    return plan


def _init_worker(scale, trace_dir):
    from multiprocessing import util

    from tracer import Tracer, install
    from watermelon import stats_verify as sv

    scale_suite(sv, scale)
    if trace_dir is not None:
        tracer = Tracer()
        install(tracer)
        # pool workers leave through multiprocessing's exit path, which runs
        # registered finalizers but not atexit handlers
        path = os.path.join(trace_dir, f"spans-{tracer.pid}.json")
        util.Finalize(None, tracer.dump, args=(path,), exitpriority=10)


def _pool_class(scale, trace_dir):
    from concurrent.futures import ProcessPoolExecutor

    class BenchPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, initializer=_init_worker,
                             initargs=(scale, trace_dir), **kwargs)

    return BenchPool


def time_plan_items(sv):
    """Record (wall, CPU) seconds of every plan item run in this process, in order.

    A serial run_suite looks `_run_plan_item` up in stats_verify for each
    item, so one timer around it sees every item.  The list stays empty if
    a later version has no such name.
    """
    times = []
    run_item = getattr(sv, "_run_plan_item", None)
    if run_item is None:
        return times

    def timed(*args, **kwargs):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return run_item(*args, **kwargs)
        finally:
            times.append((time.perf_counter() - t0, time.process_time() - c0))

    sv._run_plan_item = timed
    return times


def run_verify(args):
    import_s = import_watermelon()
    from tracer import Tracer, install
    from watermelon import stats_verify as sv

    trace_dir = args.out if args.trace else None
    sv.ProcessPoolExecutor = _pool_class(args.scale, trace_dir)
    tracer = None
    items = []
    if args.trace:
        tracer = Tracer()
        install(tracer)
    elif args.workers == 1:
        items = time_plan_items(sv)
    plan = scale_suite(sv, args.scale)
    t0 = time.perf_counter()
    report = sv.run_suite(plan=plan, base_seed=args.base_seed, workers=args.workers)
    wall = time.perf_counter() - t0
    with open(os.path.join(args.out, "report.json"), "w") as f:
        f.write(sv.report_to_json(report))
    if tracer is not None:
        tracer.dump(os.path.join(args.out, f"spans-{tracer.pid}.json"))
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump({"import_s": import_s, "wall_s": wall, "items": items}, f)
    return 0


def run_cli(args):
    import_s = import_watermelon()
    from tracer import Tracer, install
    from watermelon import cli

    tracer = Tracer()
    install(tracer)
    op = tracer.wrap(cli.main, f"cli.op.{args.argv[0]}")
    try:
        code = op(args.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    tracer.dump(os.path.join(args.out, f"spans-{tracer.pid}.json"))
    with open(os.path.join(args.out, f"result-{tracer.pid}.json"), "w") as f:
        json.dump({"import_s": import_s}, f)
    return code


def main():
    top = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="mode", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--base-seed", type=int, required=True)
    v.add_argument("--workers", type=int, required=True)
    v.add_argument("--scale", type=int, required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--trace", action="store_true")
    v.set_defaults(func=run_verify)
    c = sub.add_parser("cli")
    c.add_argument("--out", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(func=run_cli)
    args = top.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
