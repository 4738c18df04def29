"""Euler integration of the interacting-branch diffusions on a safe window.

The continuum ensembles solve singular SDEs: every branch feels a pinning
term -x/(1-t), a wall repulsion 1/x when there is a wall, and pairwise
repulsion that blows up when branches meet.  The equations degenerate at
t = 0 (all branches leave one point) and t = 1 (pinning), so integration
runs on [t0, 1-t0] with the state at t0 drawn from the exact marginal via
the spectral samplers.  Inside the window the scheme is plain Euler with
identity diffusion, plus a reject-and-halve policy: a proposed step that
breaks ordering or positivity, or lands within gap_floor of doing so, is
abandoned and the step is split into two halves with freshly drawn
increments, recursively up to max_halvings.

Randomness.  Replica r consumes two private streams derived from the
configured seed: (seed, r, 0) drives the base-grid increments, (seed, r, 1)
is touched only when a rejection forces redraws.  Keeping the rescue draws
out of the base stream makes results independent of chunking and lets the
one-trajectory path reuse the batch machinery verbatim.  Gaussians come
from the inverse normal CDF applied to 53-bit uniforms, the same mapping
the spectral samplers use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .discrete_walk import U_BITS
from .spectral_laws import (
    sample_gue_spectrum_batch,
    sample_wall_spectrum_batch,
    words_to_normals,
)

__all__ = [
    "HalvingError",
    "SdeConfig",
    "Trajectory",
    "drift_nowall",
    "drift_wall",
    "read_trajectory_csv",
    "simulate",
    "simulate_batch",
    "summarize_batch",
    "trajectory_to_csv",
]

class HalvingError(RuntimeError):
    """Raised when a step cannot be completed within the halving budget."""

    def __init__(self, time: float, position: np.ndarray, min_gap: float):
        self.time = time
        self.position = np.asarray(position, dtype=np.float64)
        self.min_gap = min_gap
        super().__init__(
            f"step halving budget exhausted at t={time:.6g}, "
            f"position {self.position.tolist()}, smallest margin {min_gap:.3e}"
        )


@dataclass(frozen=True)
class SdeConfig:
    """Integration parameters for one ensemble.

    t0 truncates the singular endpoints; dt is the base grid step;
    gap_floor is the margin below which a proposed state triggers halving;
    max_halvings bounds the recursion depth per base step.
    """

    p: int
    wall: bool
    t0: float = 0.02
    dt: float = 1e-4
    gap_floor: float = 1e-3
    max_halvings: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if not 0.0 < self.t0 < 0.5:
            raise ValueError(f"t0 must lie in (0, 1/2), got {self.t0}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.gap_floor > 0.0:
            raise ValueError(f"gap_floor must be positive, got {self.gap_floor}")
        if self.max_halvings < 1:
            raise ValueError(f"max_halvings must be >= 1, got {self.max_halvings}")


@dataclass(frozen=True)
class Trajectory:
    """One recorded path: times in [t0, 1-t0] and branch positions rowwise."""

    times: np.ndarray
    values: np.ndarray
    wall: bool

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 2 or v.shape[0] != t.shape[0]:
            raise ValueError("times must be (m,) and values (m, p) with matching m")
        if t.shape[0] < 1:
            raise ValueError("a trajectory needs at least one recorded time")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValueError("times must stay inside [0, 1]")
        if v.shape[1] > 1 and np.any(np.diff(v, axis=1) <= 0.0):
            raise ValueError("branch values must be strictly ordered at every time")
        if self.wall and np.any(v[:, 0] <= 0.0):
            raise ValueError("wall trajectories must keep the lowest branch positive")

    @property
    def p(self) -> int:
        return int(self.values.shape[1])


def _drift_rows(p: int, wall: bool, t: float, x: np.ndarray) -> np.ndarray:
    """Drift for a (p, b) block of valid states, one row per branch; no validation.

    Row i is (-x_i/(1-t) [+ 1/x_i]) + S_i.  S_i adds the pair terms
    1/(x_i - x_j), or 2x_i/(x_i^2 - x_j^2) with a wall, over j != i strictly
    from left to right, starting from the first term.  Each pair is visited
    once: the term of j on i is minus the term of i on j, or shares its
    denominator with a wall.

    The order is pinned because float addition is not associative.  It is
    the order in which numpy's sum over the last axis of a (b, p, p) block of
    pair terms, with the diagonal masked to 0.0, adds a row shorter than
    eight, so trajectories stay bit-for-bit those of that formulation for
    p <= 7.  From p = 8 on numpy sums such a row in unrolled pairwise order,
    so there the drift may differ from it in the last bits.
    """
    out = x / (t - 1.0)  # t - 1 is exactly -(1 - t), so this is -x/(1-t) bit for bit
    if wall:
        out += 1.0 / x
    if p == 1:
        return out
    if wall:
        num = 2.0 * x
        sq = x * x
    s = np.empty_like(x)
    for i in range(p - 1):
        for j in range(i + 1, p):
            if wall:
                d = sq[i] - sq[j]
                a = num[i] / d
                c = num[j] / d
            else:
                a = c = 1.0 / (x[i] - x[j])
            if j == 1:
                s[0] = a
            else:
                s[i] += a
            if i == 0:
                np.negative(c, out=s[j])
            else:
                s[j] -= c
    out += s
    return out


def _check_drift_point(p: int, wall: bool, t: float, x: np.ndarray) -> None:
    if x.shape != (p,):
        raise ValueError(f"x must be a length-{p} vector, got shape {x.shape}")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    if p > 1 and np.any(np.diff(x) <= 0.0):
        raise ValueError("branches must be strictly ordered (ties make the drift singular)")
    if wall and x[0] <= 0.0:
        raise ValueError("the lowest branch must be strictly positive with a wall")


def drift_wall(p: int, t: float, x) -> np.ndarray:
    """Drift of the wall ensemble: pinning, wall repulsion, pair repulsion."""
    x = np.asarray(x, dtype=np.float64)
    _check_drift_point(p, True, t, x)
    return _drift_rows(p, True, t, x[:, None])[:, 0]


def drift_nowall(p: int, t: float, x) -> np.ndarray:
    """Drift of the free ensemble: pinning plus inverse-distance repulsion."""
    x = np.asarray(x, dtype=np.float64)
    _check_drift_point(p, False, t, x)
    return _drift_rows(p, False, t, x[:, None])[:, 0]


def _margin_rows(p: int, wall: bool, y: np.ndarray):
    """Smallest ordering margin per column of a (p, b) block.

    The margin is the smallest gap, and the lowest height with a wall; None
    when nothing can break (p = 1 without a wall).
    """
    m = y[1] - y[0] if p > 1 else None
    for i in range(2, p):
        np.minimum(m, y[i] - y[i - 1], out=m)
    if wall:
        m = y[0] if m is None else np.minimum(m, y[0], out=m)
    return m


def _normals(rng: np.random.Generator, shape) -> np.ndarray:
    return words_to_normals(rng.integers(0, 1 << U_BITS, size=shape).astype(np.float64))


def _base_rng(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, replica, 0))))


def _rescue_rng(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, replica, 1))))


def _advance_scalar(
    cfg: SdeConfig,
    x: np.ndarray,
    s: float,
    h: float,
    rng: np.random.Generator,
    depth: int,
) -> np.ndarray:
    """One rescued step of size h from time s, splitting further on rejection."""
    drift = _drift_rows(cfg.p, cfg.wall, s, x[:, None])[:, 0]
    y = x + drift * h + math.sqrt(h) * _normals(rng, cfg.p)
    m = _margin_rows(cfg.p, cfg.wall, y[:, None])
    if m is None or m[0] >= cfg.gap_floor:
        return y
    if depth >= cfg.max_halvings:
        raise HalvingError(s, x, float(m[0]))
    mid = _advance_scalar(cfg, x, s, 0.5 * h, rng, depth + 1)
    return _advance_scalar(cfg, mid, s + 0.5 * h, 0.5 * h, rng, depth + 1)


def _grid(cfg: SdeConfig) -> np.ndarray:
    span = 1.0 - 2.0 * cfg.t0
    n_steps = max(1, int(math.ceil(span / cfg.dt - 1e-9)))
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    times[-1] = 1.0 - cfg.t0
    if times[-1] <= times[-2]:
        times = times[:-1].copy()
        times[-1] = 1.0 - cfg.t0
    return times


def _record_indices(times: np.ndarray, record_times) -> list[int]:
    idx = []
    for rt in record_times:
        j = int(np.argmin(np.abs(times - rt)))
        if abs(times[j] - rt) > 1e-9 + 1e-12:
            raise ValueError(
                f"record time {rt} is not on the integration grid "
                f"(nearest grid point {times[j]:.10g})"
            )
        idx.append(j)
    return idx


def _initial_state(cfg: SdeConfig, replicas: int) -> np.ndarray:
    scale = (
        2.0 * math.sqrt(cfg.t0 * (1.0 - cfg.t0))
        if cfg.wall
        else math.sqrt(2.0 * cfg.t0 * (1.0 - cfg.t0))
    )
    if cfg.wall:
        draw = sample_wall_spectrum_batch(cfg.p, cfg.seed, replicas)
    else:
        draw = sample_gue_spectrum_batch(cfg.p, cfg.seed, replicas)
    return scale * draw


def _integrate(
    cfg: SdeConfig,
    replicas: int,
    record_times,
    collect_full: bool,
    chunk: int,
):
    times = _grid(cfg)
    rec = _record_indices(times, record_times)
    rec_slot = {j: s for s, j in enumerate(sorted(set(rec)))}
    n_steps = len(times) - 1

    if collect_full and replicas * len(times) * cfg.p > 4_000_000:
        raise ValueError("full-path collection is only supported for small batches")

    p, wall, floor = cfg.p, cfg.wall, cfg.gap_floor
    snaps = np.empty((replicas, len(rec_slot), p))
    full = np.empty((replicas, len(times), p)) if collect_full else None
    n_rescued = 0

    x0 = _initial_state(cfg, replicas)
    block = 512
    for lo in range(0, replicas, chunk):
        hi = min(lo + chunk, replicas)
        b = hi - lo
        # states are held as (p, b), one row per branch, so that every
        # branch is a contiguous vector
        x = x0[lo:hi].T.copy()
        # the exact initial draw can in principle sit closer to the boundary
        # than gap_floor; it is still a valid chamber point, and the first
        # accepted step is required to clear the floor
        if collect_full:
            full[lo:hi, 0] = x.T
        if 0 in rec_slot:
            snaps[lo:hi, rec_slot[0]] = x.T
        rescues = [None] * b
        base = [_base_rng(cfg.seed, r) for r in range(lo, hi)]
        for k0 in range(0, n_steps, block):
            k1 = min(k0 + block, n_steps)
            ts = times[k0:k1 + 1].tolist()
            # one draw per replica and block, turned into sqrt(h)-scaled
            # increments in one pass; g[:, k - k0] is the (p, b) increment.  A raw
            # word >> 11 is integers(0, 2**53): on that range Lemire's method never rejects
            g = np.empty((p, k1 - k0, b))
            for i in range(b):
                raw = base[i].bit_generator.random_raw((k1 - k0) * p) >> (64 - U_BITS)
                g[:, :, i] = raw.reshape(k1 - k0, p).T
            words_to_normals(g)
            g *= np.sqrt(np.diff(ts))[:, None]
            for k in range(k0, k1):
                t = ts[k - k0]
                h = ts[k - k0 + 1] - t
                # y = (x + drift*h) + sqrt(h)*g, in this order
                y = _drift_rows(p, wall, t, x)
                y *= h
                y += x
                y += g[:, k - k0]
                m = _margin_rows(p, wall, y)
                if m is not None and (m < floor).any():
                    for i in np.flatnonzero(m < floor):
                        if rescues[i] is None:
                            rescues[i] = _rescue_rng(cfg.seed, lo + i)
                        half = 0.5 * h
                        mid = _advance_scalar(cfg, x[:, i], t, half, rescues[i], 1)
                        y[:, i] = _advance_scalar(cfg, mid, t + half, half, rescues[i], 1)
                        n_rescued += 1
                x = y
                if collect_full:
                    full[lo:hi, k + 1] = x.T
                if k + 1 in rec_slot:
                    snaps[lo:hi, rec_slot[k + 1]] = x.T
    out = snaps[:, [rec_slot[j] for j in rec]]
    return times, out, full, n_rescued


def simulate(config: SdeConfig) -> Trajectory:
    """Integrate one trajectory over the full base grid.

    Identical to replica 0 of a batch with the same configuration.
    """
    times, _, full, _ = _integrate(config, 1, (), collect_full=True, chunk=1)
    return Trajectory(times=times, values=full[0], wall=config.wall)


def simulate_batch(
    config: SdeConfig,
    replicas: int,
    record_times,
    chunk: int = 1024,
    with_diagnostics: bool = False,
):
    """Marginal snapshots for many trajectories, shape (replicas, times, p).

    record_times must lie on the integration grid.  Replica r is a pure
    function of (config.seed, r), so results do not depend on chunking or
    on how a batch is split across workers.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    _, snaps, _, n_rescued = _integrate(
        config, replicas, record_times, collect_full=False, chunk=chunk
    )
    if with_diagnostics:
        return snaps, {"rescued_steps": n_rescued}
    return snaps


def summarize_batch(config: SdeConfig, replicas: int, record_times, max_order: int = 4) -> dict:
    """Sample-moment summary of a batch at the requested times.

    Returns plain floats ready for JSON: per time and branch the moments up
    to max_order with standard errors, plus the squared-norm mean.  A
    standard error needs at least two replicas.
    """
    if replicas < 2:
        raise ValueError(f"a summary needs at least 2 replicas, got {replicas}")
    snaps = simulate_batch(config, replicas, record_times)
    out: dict = {
        "p": config.p,
        "wall": config.wall,
        "replicas": replicas,
        "times": [float(t) for t in record_times],
        "moments": [],
        "norm_squared_mean": [],
    }
    for s in range(len(record_times)):
        block = snaps[:, s, :]
        per_time = []
        for b in range(config.p):
            col = block[:, b]
            per_branch = []
            for r in range(1, max_order + 1):
                v = col**r
                per_branch.append(
                    {
                        "order": r,
                        "mean": float(np.mean(v)),
                        "standard_error": float(np.std(v, ddof=1) / math.sqrt(len(v))),
                    }
                )
            per_time.append(per_branch)
        out["moments"].append(per_time)
        nsq = np.sum(block**2, axis=1)
        out["norm_squared_mean"].append(
            {
                "mean": float(np.mean(nsq)),
                "standard_error": float(np.std(nsq, ddof=1) / math.sqrt(len(nsq))),
            }
        )
    return out


def trajectory_to_csv(traj: Trajectory, fileobj) -> None:
    """Write a trajectory as rows t,x_1,...,x_p with full float precision."""
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(traj.p)])
    for t, row in zip(traj.times, traj.values):
        writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def read_trajectory_csv(fileobj, wall: bool) -> Trajectory:
    """Inverse of trajectory_to_csv; the wall flag is not stored in the CSV."""
    reader = csv.reader(fileobj)
    header = next(reader)
    if not header or header[0] != "t":
        raise ValueError("trajectory CSV must start with a 't' header column")
    times = []
    rows = []
    for rec in reader:
        if not rec:
            continue
        times.append(float(rec[0]))
        rows.append([float(v) for v in rec[1:]])
    return Trajectory(times=np.asarray(times), values=np.asarray(rows), wall=wall)
