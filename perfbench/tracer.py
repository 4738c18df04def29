"""Span tracer that times watermelon's public functions from outside.

Nothing under src/ knows about it.  `install` replaces a function in the
namespace its consumer looks it up in: stats_verify imports names
directly, so the wrapper goes on `stats_verify.simulate_batch`, not on
`sde_sim.simulate_batch`.  Every wrapped call appends one span (name,
start, end, parent, a few counts) to an in-memory list; `dump` writes the
list out once, at the end of the process.  `layer_metrics` turns the
spans of one traced run, from every process that took part, into the
per-layer metrics the benchmark reports; one `stats_verify.check.<name>_self_s`
metric per check registered in `stats_verify._CHECKS`, as `install` found it.

A name that a later version of the package moves or removes is skipped
and listed in `Tracer.missing`, so the metrics it fed read 0 instead of
the traced run failing.
"""

import json
import math
import os
import time
from statistics import median


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.missing = []
        self.checks = []
        self._stack = []

    def wrap(self, fn, name, measure=None):
        """Return fn timed as span `name`; measure(fn, args, kwargs) -> (result, attrs)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                if measure is None:
                    result, attrs = fn(*args, **kwargs), None
                else:
                    result, attrs = measure(fn, args, kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if attrs:
                rec.update(attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, measure=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(fn, name, measure))

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"pid": self.pid, "spans": self.spans, "missing": self.missing,
                       "checks": self.checks}, f)


# ---------------------------------------------------------------------------
# measures: call the function and attach the counts a layer metric needs


def _sde_batch(fn, args, kwargs):
    """simulate_batch with its rescue counter switched on, then stripped.

    with_diagnostics only returns a count the integrator keeps anyway, so
    the arithmetic and the snapshots are the same as without it.
    """
    config, replicas, record_times = args[:3]
    if kwargs.get("with_diagnostics"):
        result = fn(*args, **kwargs)
        snaps, diag = result
    else:
        snaps, diag = fn(*args, **kwargs, with_diagnostics=True)
        result = snaps
    # the base grid of sde_sim._grid; rescue sub-steps are counted apart
    steps = max(1, math.ceil((1.0 - 2.0 * config.t0) / config.dt - 1e-9))
    return result, {
        "key": repr((config, replicas, tuple(float(t) for t in record_times))),
        "replica_steps": int(replicas) * steps,
        "rescued": int(diag.get("rescued_steps", 0)),
    }


def _marginal_batch(fn, args, kwargs):
    p, n, wall, base_seed, replicas, k_indices = args[:6]
    result = fn(*args, **kwargs)
    return result, {
        "key": repr((p, n, wall, base_seed, replicas, tuple(k_indices))),
        "move_evals": int(replicas) * 2 * int(n) * (1 << int(p)),
    }


def _eigensolve(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, {"matrices": int(len(args[0]))}


def _returns_traced_cdf(tracer, name):
    """For factories such as norm_squared_cdf: time the returned callable."""

    def measure(fn, args, kwargs):
        return tracer.wrap(fn(*args, **kwargs), name), None

    return measure


def install(tracer):
    """Wrap the public functions of every layer where their consumer finds them."""
    from watermelon import cli, sde_sim, spectral_laws, stats_verify as sv

    tracer.checks = list(sv._CHECKS)
    for name, fn in list(sv._CHECKS.items()):
        sv._CHECKS[name] = tracer.wrap(fn, f"check.{name}")
    tracer.patch(sv, "run_suite", "run_suite")
    tracer.patch(sv, "_run_plan_item", "plan_item")

    tracer.patch(sv, "simulate_batch", "sde.batch", _sde_batch)
    tracer.patch(cli, "simulate", "sde.single")
    tracer.patch(cli, "summarize_batch", "sde.summary")

    tracer.patch(sv, "sample_marginal_batch", "walk.marginal_batch", _marginal_batch)
    tracer.patch(sv, "sample_path_batch", "walk.path_batch")
    tracer.patch(cli, "sample_path_batch", "walk.path_batch")
    tracer.patch(cli, "sample_watermelon", "walk.scalar_sample")

    tracer.patch(sv, "enumerate_brute_force", "count.brute_force")
    tracer.patch(cli, "count_watermelons", "count.count")
    tracer.patch(cli, "count_stars", "count.count")

    tracer.patch(sde_sim, "sample_wall_spectrum_batch", "spectral.spectrum_batch")
    tracer.patch(sde_sim, "sample_gue_spectrum_batch", "spectral.spectrum_batch")
    tracer.patch(spectral_laws, "eigensolve_symmetric_batch", "spectral.eigensolve", _eigensolve)
    tracer.patch(sv, "evaluate_density_grid", "spectral.density_grid")
    tracer.patch(spectral_laws, "evaluate_density_grid", "spectral.density_grid")

    for name in ("evaluate_moment", "sym_wall_expectation", "sym_nowall_expectation",
                 "normalized_table_entry", "first_moments_table"):
        tracer.patch(sv, name, "moments.eval")
    for name in ("evaluate_moment", "first_moments_table"):
        tracer.patch(cli, name, "moments.eval")

    tracer.patch(sv, "ks_statistic", "stats.ks")
    tracer.patch(sv, "ks_two_sample", "stats.ks")
    tracer.patch(sv, "norm_squared_cdf", "stats.gamma_factory",
                 _returns_traced_cdf(tracer, "stats.gamma_cdf"))
    tracer.patch(sv, "branch_marginal_cdf", "stats.quadrature_cdf")
    tracer.patch(sv, "chi_square_critical", "stats.chi2_critical")


# ---------------------------------------------------------------------------
# from spans to metrics


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(per_process, checks, cli_ops):
    """Per-layer metrics, keyed as in BENCHMARK.json, from every process's spans."""
    tot = {}
    self_tot = {}
    count = {}
    keys = {"sde.batch": [], "walk.marginal_batch": []}
    sums = {"replica_steps": 0, "rescued": 0, "move_evals": 0, "matrices": 0}
    busy = {}
    ops = {}
    for pid, spans in per_process:
        for s, self_s in zip(spans, _self_times(spans)):
            name, dur = s["name"], s["end"] - s["start"]
            tot[name] = tot.get(name, 0.0) + dur
            self_tot[name] = self_tot.get(name, 0.0) + self_s
            count[name] = count.get(name, 0) + 1
            if name in keys:
                keys[name].append(s["key"])
            for k in sums:
                sums[k] += s.get(k, 0)
            if name == "plan_item":
                busy[pid] = busy.get(pid, 0.0) + dur
            if name.startswith("cli.op."):
                ops.setdefault(name, []).append(dur)

    def t(name):
        return tot.get(name, 0.0)

    def per(seconds, units):
        return seconds / units * 1e9 if units else 0.0

    sde_calls = len(keys["sde.batch"])
    sde_distinct = len(set(keys["sde.batch"]))
    walk_calls = len(keys["walk.marginal_batch"])
    walk_distinct = len(set(keys["walk.marginal_batch"]))
    m = {
        "sde_sim.batch_s": t("sde.batch"),
        "sde_sim.batch_calls": sde_calls,
        "sde_sim.batch_distinct": sde_distinct,
        "sde_sim.replica_steps": sums["replica_steps"],
        "sde_sim.ns_per_replica_step": per(self_tot.get("sde.batch", 0.0), sums["replica_steps"]),
        "sde_sim.rescued_steps": sums["rescued"],
        "sde_sim.single_s": t("sde.single"),
        "sde_sim.summary_s": t("sde.summary"),
        "discrete_walk.marginal_batch_s": t("walk.marginal_batch"),
        "discrete_walk.marginal_batch_calls": walk_calls,
        "discrete_walk.marginal_batch_distinct": walk_distinct,
        "discrete_walk.move_evals": sums["move_evals"],
        "discrete_walk.ns_per_move_eval": per(t("walk.marginal_batch"), sums["move_evals"]),
        "discrete_walk.path_batch_s": t("walk.path_batch"),
        "discrete_walk.scalar_sample_s": t("walk.scalar_sample"),
        "exact_count.brute_force_s": t("count.brute_force"),
        "exact_count.brute_force_calls": count.get("count.brute_force", 0),
        "exact_count.count_s": t("count.count"),
        "spectral_laws.spectrum_batch_s": t("spectral.spectrum_batch"),
        "spectral_laws.eigensolve_s": t("spectral.eigensolve"),
        "spectral_laws.matrices": sums["matrices"],
        "spectral_laws.density_grid_s": t("spectral.density_grid"),
        "moments.eval_s": t("moments.eval"),
        "moments.eval_calls": count.get("moments.eval", 0),
    }
    for c in checks:
        m[f"stats_verify.check.{c}_self_s"] = self_tot.get(f"check.{c}", 0.0)
    m.update({
        "stats_verify.ks_s": t("stats.ks"),
        "stats_verify.gamma_cdf_s": t("stats.gamma_cdf"),
        "stats_verify.quadrature_cdf_s": t("stats.quadrature_cdf"),
        "stats_verify.chi2_critical_s": t("stats.chi2_critical"),
        "stats_verify.worker_busy_max_s": max(busy.values(), default=0.0),
        "stats_verify.worker_busy_min_s": min(busy.values(), default=0.0),
        "stats_verify.source_recomputes": (sde_calls - sde_distinct) + (walk_calls - walk_distinct),
    })
    for op in cli_ops:
        durs = ops.get(f"cli.op.{op}", [])
        m[f"cli.op.{op}_ms"] = median(durs) * 1e3 if durs else 0.0
    return m


def worker_table(per_process):
    """Per process: plan items run, busy seconds, and the sources it computed."""
    rows = []
    for pid, spans in per_process:
        items = [s for s in spans if s["name"] == "plan_item"]
        if not items:
            continue
        rows.append({
            "pid": pid,
            "plan_items": len(items),
            "busy_s": sum(s["end"] - s["start"] for s in items),
            "sde_sources": [s["key"] for s in spans if s["name"] == "sde.batch"],
            "lattice_sources": [s["key"] for s in spans if s["name"] == "walk.marginal_batch"],
        })
    return rows
