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
configured seed, both named by discrete_walk.derive_replica_rng: (seed, r, 0)
drives the base-grid increments, (seed, r, 1) is touched only when a
rejection forces redraws.  The initial state reads the spectral streams
(seed, r).  Keeping the rescue draws out of the base stream makes results
independent of chunking.  Every draw is a 53-bit integer read by
discrete_walk.words, and Gaussians come from the inverse normal CDF applied
to it, the same mapping the spectral samplers use.  The one-trajectory path
is a float kernel: it steps replica 0 in Python floats with the batch's
operations in the batch's order, and maps its draws with the float twin of
scipy's ndtri (spectral_laws._word_to_normal), as do rescued steps, so it
is bit-identical to replica 0 and never loads scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .discrete_walk import _MAX_VALUES, derive_replica_rng, words
from .spectral_laws import (
    _check_draw_size,
    _word_to_normal,
    sample_gue_spectrum_batch,
    sample_wall_spectrum_batch,
    words_to_normals,
)

__all__ = [
    "HalvingError",
    "SdeConfig",
    "Trajectory",
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
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ValueError("times and values must be finite")
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
    if p > 1:
        out += _pair_sums(p, x, 2.0 * x, x * x) if wall else _pair_sums(p, x)
    return out


def _pair_sums(p: int, x, num=None, sq=None) -> list:
    """[S_0, ..., S_{p-1}] of _drift_rows for p > 1; the wall's when num = 2x and sq = x*x.

    x, num and sq each hold p rows of a block, or p floats.
    """
    s = [None] * p
    for i in range(p - 1):
        for j in range(i + 1, p):
            if num is None:
                a = c = 1.0 / (x[i] - x[j])
            else:
                d = sq[i] - sq[j]
                a, c = num[i] / d, num[j] / d
            s[i] = a if j == 1 else s[i] + a
            s[j] = -c if i == 0 else s[j] - c
    return s


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


def _drift_one(p: int, wall: bool, t: float, x: list) -> list:
    """_drift_rows at one state, a list of p floats: the same operations in the same order."""
    try:
        out = [v / (t - 1.0) + 1.0 / v for v in x] if wall else [v / (t - 1.0) for v in x]
        if p == 1:
            return out
        s = _pair_sums(p, x, [2.0 * v for v in x], [v * v for v in x]) if wall else _pair_sums(p, x)
        return [o + v for o, v in zip(out, s)]
    except ZeroDivisionError:
        # a divisor of exactly 0, where numpy gives inf or nan
        return _drift_rows(p, wall, t, np.array(x)[:, None])[:, 0].tolist()


def _euler_one(p: int, wall: bool, t: float, h: float, x: list, inc) -> tuple:
    """(x + drift*h) + inc for a list of p floats, and its margin, both as the batch takes them."""
    y = [(a + d * h) + g for a, d, g in zip(x, _drift_one(p, wall, t, x), inc)]
    m = None
    for g in [b - a for a, b in zip(y, y[1:])] + (y[:1] if wall else []):
        if m is None or not (m < g or m != m):  # np.minimum: NaN wins, a tie gives g
            m = g
    return y, m


def _advance_scalar(cfg: SdeConfig, x: list, s: float, h: float, rng, depth: int) -> list:
    """Step a list of p floats by h from time s, drawing from the rescue stream rng.

    Depth 0 is a rejected base step, halved at once.  Deeper, a step whose
    margin is below gap_floor or NaN is halved, down to max_halvings.
    """
    if depth > 0:
        inc = [math.sqrt(h) * _word_to_normal(w) for w in words(rng, cfg.p).tolist()]
        y, m = _euler_one(cfg.p, cfg.wall, s, h, x, inc)
        if m is None or m >= cfg.gap_floor:
            return y
        if depth >= cfg.max_halvings:
            raise HalvingError(s, x, m)
    mid = _advance_scalar(cfg, x, s, 0.5 * h, rng, depth + 1)
    return _advance_scalar(cfg, mid, s + 0.5 * h, 0.5 * h, rng, depth + 1)


def _steps(cfg: SdeConfig) -> int:
    """Base steps on [t0, 1 - t0]; the grid holds one more point, or as many.

    ValueError when the grid would hold over 4,000,000 points, decided from
    the float count before any array exists.  For a tiny dt that count is
    inf, which math.ceil refuses.
    """
    steps = (1.0 - 2.0 * cfg.t0) / cfg.dt - 1e-9
    # ceil(steps) + 1 <= 4,000,000 exactly when steps <= 3,999,999
    if steps > 3_999_999:
        raise ValueError("the integration grid would be too large; use a larger dt")
    return max(1, int(math.ceil(steps)))


def _check_trajectory_size(cfg: SdeConfig) -> None:
    """ValueError when one full trajectory would hold over 4,000,000 values."""
    if (_steps(cfg) + 1) * cfg.p > 4_000_000:
        raise ValueError("a full trajectory on this grid would be too large; use a larger dt")


def _grid(cfg: SdeConfig) -> np.ndarray:
    n_steps = _steps(cfg)
    times = cfg.t0 + cfg.dt * np.arange(n_steps + 1)
    times[-1] = 1.0 - cfg.t0
    if times[-1] <= times[-2]:
        times = times[:-1].copy()
        times[-1] = 1.0 - cfg.t0
    return times


def _batch_record_indices(config: SdeConfig, replicas: int, record_times) -> list[int]:
    """Grid indices of a batch's record times, after its size checks.

    ValueError unless replicas is positive, the snapshots and the initial
    spectral draw each hold at most 60,000,000 values and every record time
    is on the grid.  Nothing is integrated, so a caller can check a batch
    before it writes anything.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    if replicas * len(record_times) * config.p > _MAX_VALUES:
        raise ValueError("snapshots for this batch would be too large; use fewer replicas")
    _check_draw_size(config.p, config.wall, replicas)
    return _record_indices(_grid(config), record_times)


def _record_indices(times: np.ndarray, record_times) -> list[int]:
    idx = []
    for rt in record_times:
        j = int(np.argmin(np.abs(times - rt)))
        if not abs(times[j] - rt) <= 1e-9 + 1e-12:  # NaN is on no grid
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


# replicas per chunk of a batch; results are chunk-invariant because every
# replica owns its streams
_CHUNK = 1024
_BLOCK = 512  # base steps per draw of increments


def _integrate(cfg: SdeConfig, replicas: int, rec_indices):
    """(snapshots at the grid indices rec_indices, shape (replicas, len, p), rescued steps)."""
    times = _grid(cfg)
    rec_slot = {j: s for s, j in enumerate(sorted(set(rec_indices)))}
    # nothing reads the state past the last record index
    n_steps = max(rec_indices, default=0)

    p, wall, floor = cfg.p, cfg.wall, cfg.gap_floor
    snaps = np.empty((replicas, len(rec_slot), p))
    n_rescued = 0

    x0 = _initial_state(cfg, replicas)
    for lo in range(0, replicas, _CHUNK):
        hi = min(lo + _CHUNK, replicas)
        b = hi - lo
        # states are held as (p, b), one row per branch, so that every
        # branch is a contiguous vector
        x = x0[lo:hi].T.copy()
        # the exact initial draw can in principle sit closer to the boundary
        # than gap_floor; it is still a valid chamber point, and the first
        # accepted step is required to clear the floor
        if 0 in rec_slot:
            snaps[lo:hi, rec_slot[0]] = x.T
        rescues = [None] * b
        base = [derive_replica_rng(cfg.seed, r, 0) for r in range(lo, hi)]
        for k0 in range(0, n_steps, _BLOCK):
            k1 = min(k0 + _BLOCK, n_steps)
            ts = times[k0:k1 + 1].tolist()
            # one draw per replica and block, turned into sqrt(h)-scaled
            # increments in one pass; g[:, k - k0] is the (p, b) increment
            g = np.empty((p, k1 - k0, b))
            for i in range(b):
                g[:, :, i] = words(base[i], (k1 - k0) * p).reshape(k1 - k0, p).T
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
                # a NaN margin is rejected too, as a rescued step rejects it
                if m is not None and not (m >= floor).all():
                    for i in np.flatnonzero(~(m >= floor)):
                        if rescues[i] is None:
                            rescues[i] = derive_replica_rng(cfg.seed, lo + i, 1)
                        y[:, i] = _advance_scalar(cfg, x[:, i].tolist(), t, h, rescues[i], 0)
                        n_rescued += 1
                x = y
                if k + 1 in rec_slot:
                    snaps[lo:hi, rec_slot[k + 1]] = x.T
    return snaps[:, [rec_slot[j] for j in rec_indices]], n_rescued


def simulate(config: SdeConfig) -> Trajectory:
    """Integrate one trajectory over the full base grid.

    Replica 0 of a batch with the same configuration, bit for bit, at every
    grid index, stepped in Python floats: at one replica a numpy step is
    mostly call overhead.
    """
    _check_trajectory_size(config)
    times = _grid(config)
    p, wall, floor = config.p, config.wall, config.gap_floor
    x = _initial_state(config, 1)[0].tolist()
    values = np.empty((len(times), p))
    values[0] = x
    base = derive_replica_rng(config.seed, 0, 0)
    rescue = derive_replica_rng(config.seed, 0, 1)
    for k0 in range(0, len(times) - 1, _BLOCK):
        ts = times[k0:k0 + _BLOCK + 1].tolist()
        z = [_word_to_normal(w) for w in words(base, (len(ts) - 1) * p).tolist()]
        rows = [None] * (len(ts) - 1)
        for k in range(len(rows)):
            t, h = ts[k], ts[k + 1] - ts[k]
            r = math.sqrt(h)
            y, m = _euler_one(p, wall, t, h, x, [r * v for v in z[k * p:k * p + p]])
            if m is not None and not (m >= floor):
                y = _advance_scalar(config, x, t, h, rescue, 0)
            rows[k] = x = y
        values[k0 + 1:k0 + 1 + len(rows)] = rows
    return Trajectory(times=times, values=values, wall=wall)


def simulate_batch(
    config: SdeConfig,
    replicas: int,
    record_times,
    *,
    with_diagnostics: bool = False,
):
    """Marginal snapshots for many trajectories, shape (replicas, times, p).

    record_times must lie on the integration grid.  Replica r is a pure
    function of (config.seed, r), so results do not depend on chunking or
    on how a batch is split across workers.  Integration stops at the last
    record time; a snapshot is the same whatever later times are recorded.
    With with_diagnostics the result comes with {"rescued_steps": count}
    of the base steps that were halved, up to the last record time.
    A grid of over 4,000,000 points, or a batch of over 60,000,000 snapshot
    values or initial matrix entries, is refused with ValueError before
    anything is integrated.
    """
    rec = _batch_record_indices(config, replicas, record_times)
    snaps, n_rescued = _integrate(config, replicas, rec)
    if with_diagnostics:
        return snaps, {"rescued_steps": n_rescued}
    return snaps


def summarize_batch(config: SdeConfig, replicas: int, record_times) -> dict:
    """Sample-moment summary of a batch at the requested times.

    Returns plain floats ready for JSON: per time and branch the moments of
    orders 1 to 4 with standard errors, plus the squared-norm mean.  A
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
            for r in range(1, 5):
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


# rows per block of trajectory_to_csv
_CSV_BLOCK = 1024


def trajectory_to_csv(traj: Trajectory, fileobj) -> None:
    """Write a trajectory as CSV rows t,x_1,...,x_p with full float precision."""
    # one format string per row; lines end in \r\n, as csv.writer ends them.
    # Rows go out in blocks, so only one block's Python floats are alive.
    fileobj.write(",".join(["t"] + [f"x_{i + 1}" for i in range(traj.p)]) + "\r\n")
    row = ",".join(["%.17g"] * (traj.p + 1)) + "\r\n"
    for lo in range(0, len(traj.times), _CSV_BLOCK):
        block = slice(lo, lo + _CSV_BLOCK)
        fileobj.writelines(
            row % (t, *x) for t, x in zip(traj.times[block].tolist(), traj.values[block].tolist())
        )


def read_trajectory_csv(fileobj, wall: bool) -> Trajectory:
    """Inverse of trajectory_to_csv; the wall flag is not stored in the CSV.

    Raises ValueError on an empty file, on a header other than t,x_1,...,x_p
    with p >= 1, on a row without p + 1 values, and on values that are not
    a trajectory.
    """
    reader = csv.reader(fileobj)
    header = next(reader, None)
    if header is None:
        raise ValueError("empty trajectory file")
    p = len(header) - 1
    if p < 1 or header != ["t"] + [f"x_{i + 1}" for i in range(p)]:
        raise ValueError(f"header must be t,x_1,...,x_p, got {','.join(header)!r}")
    rows = [[float(v) for v in rec] for rec in reader]
    if any(len(rec) != p + 1 for rec in rows):
        raise ValueError(f"every row must hold t and {p} branch values")
    table = np.array(rows, dtype=np.float64).reshape(len(rows), p + 1)
    return Trajectory(times=table[:, 0], values=table[:, 1:], wall=wall)
