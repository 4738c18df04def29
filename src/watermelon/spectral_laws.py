"""Continuum marginal densities and exact-law spectral samplers.

Two limit laws appear throughout the package.  With the wall, the
rescaled cross-section at interior time t has density

    f(t; x) = c_p (t(1-t))^(-(p^2 + p/2)) prod_{i<j} (x_j^2 - x_i^2)^2
              * prod_i x_i^2 * exp(-|x|^2 / (2t(1-t)))

on the ordered orthant 0 <= x_1 < ... < x_p, and without the wall

    g(t; x) = 2^(-p/2) pi^(-p/2) (t(1-t))^(-p^2/2) / (prod_{i<1..p-1} i!)
              * prod_{i<j} (x_j - x_i)^2 * exp(-|x|^2 / (2t(1-t)))

on the ordered line x_1 < ... < x_p.  Both integrate to 1 (checked by
quadrature in the tests).  The time dependence enters only through the
scale sqrt(t(1-t)), which gives the scaling identities tested below.

The associated t-free spectra are defined as the laws at t = 1/2:
Lambda for the wall (positive spectrum of a Gaussian antisymmetric
matrix) and the GUE spectrum for the free case.  Sampling is exact:

* wall: A is (2p+1)x(2p+1) real antisymmetric with Normal(0, 1/4)
  entries above the diagonal.  The spectrum of A^T A = -A^2 consists of
  p doubled values mu_k^2 plus a single zero; the mu_k, ascending, have
  joint density proportional to prod (x_j^2-x_i^2)^2 prod x_i^2
  exp(-2|x|^2), which is exactly f(1/2; .).

* free: the beta=2 tridiagonal Hermite model (Gaussian diagonal,
  chi-distributed off-diagonal with 2(p-1), 2(p-2), ..., 2 degrees of
  freedom over sqrt(2)), scaled by 1/sqrt(2).  At p=1 this is
  Normal(0, 1/2).

Gaussians are drawn by inverse CDF: one 53-bit integer u per variate
from the replica stream of discrete_walk.derive_replica_rng, mapped
through ndtri((u + 0.5) / 2^53).  Scalar samplers equal replica 0 of
the batch samplers.

Eigenvalues of each stack of sampled matrices come from
numpy.linalg.eigvalsh, ascending.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .discrete_walk import U_BITS, derive_replica_rng

_U_DEN = float(1 << U_BITS)


class ConvergenceError(RuntimeError):
    """A sampled spectrum is degenerate: a zero or repeated value (probability zero)."""


@dataclass(frozen=True)
class ChamberPoint:
    """An ordered configuration, tagged by which chamber it lives in."""

    x: np.ndarray
    chamber: str

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if self.chamber not in ("wall", "nowall"):
            raise ValueError("chamber must be 'wall' or 'nowall'")
        if x.ndim != 1 or x.size < 1 or not np.isfinite(x).all():
            raise ValueError("x must be a finite vector")
        if not (np.diff(x) > 0).all():
            raise ValueError("coordinates must increase strictly")
        if self.chamber == "wall" and x[0] < 0:
            raise ValueError("wall configurations need x[0] >= 0")

    @property
    def p(self):
        return self.x.size


@dataclass(frozen=True)
class DensityParams:
    p: int
    t: float
    wall: bool

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if not 0.0 < self.t < 1.0:
            raise ValueError("t must lie strictly inside (0, 1)")


def wall_density_constant(p):
    """Normalizing constant of the wall density at fixed t."""
    pairs = 1.0
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            pairs *= (j - i) * (j + i - 1)
    return 2.0 ** (1.5 * p) * math.factorial(p) / (
        math.factorial(2 * p) * math.pi ** (p / 2) * pairs
    )


def nowall_density_constant(p):
    fact = 1.0
    for i in range(1, p):
        fact *= math.factorial(i)
    return 2.0 ** (-p / 2) / (math.pi ** (p / 2) * fact)


def _coords(x):
    if isinstance(x, ChamberPoint):
        return np.asarray(x.x, dtype=float)
    return np.asarray(x, dtype=float)


def evaluate_density_grid(params, points):
    """The smooth symmetric extension of the density on arbitrary points.

    points has shape (..., p); no chamber restriction is applied, so the
    result is the plain formula: even and permutation-symmetric.  The
    integral over all of R^p is 2^p p! (wall) or p! (no wall) times the
    chamber integral; quadrature code relies on this smooth unfolding.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != params.p:
        raise ValueError("points must have p coordinates on the last axis")
    s2 = params.t * (1.0 - params.t)
    p = params.p
    if params.wall:
        out = np.full(pts.shape[:-1], wall_density_constant(p) * s2 ** -(p * p + p / 2))
        for i in range(p):
            out *= pts[..., i] ** 2
            for j in range(i + 1, p):
                out *= (pts[..., j] ** 2 - pts[..., i] ** 2) ** 2
    else:
        out = np.full(pts.shape[:-1], nowall_density_constant(p) * s2 ** -(p * p / 2))
        for i in range(p):
            for j in range(i + 1, p):
                out *= (pts[..., j] - pts[..., i]) ** 2
    return out * np.exp(-np.sum(pts * pts, axis=-1) / (2.0 * s2))


def density_wall(params, x):
    """Limit marginal density with the wall; 0 outside the closed chamber."""
    if not params.wall:
        raise ValueError("params.wall must be true for density_wall")
    v = _coords(x)
    if v.shape != (params.p,):
        raise ValueError(f"x must be a vector of length {params.p}")
    if v[0] < 0 or not (np.diff(v) >= 0).all():
        return 0.0
    return float(evaluate_density_grid(params, v))


def density_nowall(params, x):
    """Limit marginal density without the wall; 0 outside the closed chamber."""
    if params.wall:
        raise ValueError("params.wall must be false for density_nowall")
    v = _coords(x)
    if v.shape != (params.p,):
        raise ValueError(f"x must be a vector of length {params.p}")
    if not (np.diff(v) >= 0).all():
        return 0.0
    return float(evaluate_density_grid(params, v))


# ---------------------------------------------------------------------------
# samplers


def words_to_normals(u):
    """Standard normals ndtri((u + 0.5) / 2^53) from 53-bit integers held as floats, in place."""
    u += 0.5
    u /= _U_DEN
    return ndtri(u, out=u)


def _replica_normals(base_seed, replicas, count):
    """(replicas, count) standard normals, one private stream per replica."""
    u = np.empty((replicas, count))
    for r in range(replicas):
        u[r] = derive_replica_rng(base_seed, r).integers(
            0, 1 << U_BITS, size=count, dtype=np.int64
        )
    return words_to_normals(u)


def sample_wall_spectrum_batch(p, base_seed, replicas):
    """(replicas, p) draws of the wall spectrum, each row ascending positive."""
    if p < 1:
        raise ValueError("p must be at least 1")
    d = 2 * p + 1
    iu, ju = np.triu_indices(d, 1)
    z = 0.5 * _replica_normals(base_seed, replicas, iu.size)
    a = np.zeros((replicas, d, d))
    a[:, iu, ju] = z
    a[:, ju, iu] = -z
    s = np.matmul(np.transpose(a, (0, 2, 1)), a)
    w = np.linalg.eigvalsh(s)
    lam = np.sqrt(np.maximum(w[:, 1::2], 0.0))
    return lam


def sample_wall_spectrum(p, seed):
    """One exact draw of the positive wall spectrum, as a wall ChamberPoint.

    Scaling 2*sqrt(t(1-t)) * result is distributed with density f(t; .).
    """
    lam = sample_wall_spectrum_batch(p, seed, 1)[0]
    if not (lam[0] > 0 and (np.diff(lam) > 0).all()):
        raise ConvergenceError("degenerate spectrum (probability-zero event)")
    return ChamberPoint(x=lam, chamber="wall")


def sample_gue_spectrum_batch(p, base_seed, replicas):
    """(replicas, p) draws of the scaled GUE spectrum, rows ascending."""
    if p < 1:
        raise ValueError("p must be at least 1")
    z = _replica_normals(base_seed, replicas, p * p)
    tri = np.zeros((replicas, p, p))
    idx = np.arange(p)
    tri[:, idx, idx] = z[:, :p]
    pos = p
    for k in range(p - 1):
        dof = 2 * (p - 1 - k)
        chi = np.sqrt(np.sum(z[:, pos:pos + dof] ** 2, axis=1) / 2.0)
        pos += dof
        tri[:, k, k + 1] = chi
        tri[:, k + 1, k] = chi
    w = np.linalg.eigvalsh(tri)
    return w / math.sqrt(2.0)


def sample_gue_spectrum(p, seed):
    """One exact draw of the scaled GUE spectrum (ascending p-vector).

    Scaling sqrt(2t(1-t)) * result has the no-wall density g(t; .); at
    p=1 the draw is Normal(0, 1/2).
    """
    return sample_gue_spectrum_batch(p, seed, 1)[0]
