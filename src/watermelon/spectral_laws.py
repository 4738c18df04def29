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
from the replica stream (discrete_walk.replica_words), mapped through
ndtri((u + 0.5) / 2^53): scipy's on arrays for batches
(words_to_normals), and its Python-float twin _word_to_normal, bit for bit
the same, for one replica and the lone SDE trajectory, which so never load
scipy.  Both keep the map's edges: u + 0.5 rounds to even for u >= 2^52,
and u = 2^53 - 1 maps to +inf, with probability 2^-53 per draw.

Eigenvalues of each stack of sampled matrices come from
numpy.linalg.eigvalsh, ascending.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrete_walk import _MAX_VALUES, _U_DEN, replica_words


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


def evaluate_density_grid(params, points):
    """The smooth symmetric extension of the density on arbitrary points.

    points has shape (..., p); no chamber restriction is applied, so the
    result is the plain formula: even and permutation-symmetric.  The
    integral over all of R^p is 2^p p! (wall) or p! (no wall) times the
    chamber integral.
    ValueError when the prefactor, the constant times the power of
    t(1-t), overflows a double or underflows to 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != params.p:
        raise ValueError("points must have p coordinates on the last axis")
    s2 = params.t * (1.0 - params.t)
    p = params.p
    try:
        if params.wall:
            prefactor = wall_density_constant(p) * s2 ** -(p * p + p / 2)
        else:
            prefactor = nowall_density_constant(p) * s2 ** -(p * p / 2)
    except OverflowError:
        prefactor = math.inf
    if not 0.0 < prefactor < math.inf:
        raise ValueError(f"the density prefactor at p = {p}, t = {params.t} "
                         "is outside double range")
    out = np.full(pts.shape[:-1], prefactor)
    if params.wall:
        for i in range(p):
            out *= pts[..., i] ** 2
            for j in range(i + 1, p):
                out *= (pts[..., j] ** 2 - pts[..., i] ** 2) ** 2
    else:
        for i in range(p):
            for j in range(i + 1, p):
                out *= (pts[..., j] - pts[..., i]) ** 2
    return out * np.exp(-np.sum(pts * pts, axis=-1) / (2.0 * s2))


def density(params, x):
    """Limit marginal density at x; 0 outside the closed chamber.

    The chamber is 0 <= x_1 <= ... <= x_p with the wall (params.wall) and
    x_1 <= ... <= x_p without it.  A value a double cannot carry, such as
    inf times an underflowed exponential, or a 0 strictly inside the
    chamber, where the true value is positive, is refused with ValueError.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (params.p,):
        raise ValueError(f"x must be a vector of length {params.p}")
    gaps = np.diff(v)
    if (params.wall and v[0] < 0) or not (gaps >= 0).all():
        return 0.0
    with np.errstate(all="ignore"):
        value = float(evaluate_density_grid(params, v))
    # the density is positive strictly inside the chamber: a 0 there underflowed
    interior = (gaps > 0).all() and not (params.wall and v[0] == 0)
    if not math.isfinite(value) or (value == 0.0 and interior):
        raise ValueError(f"the density at {v.tolist()} is outside double range")
    return value


# ---------------------------------------------------------------------------
# samplers


def words_to_normals(u):
    """Standard normals ndtri((u + 0.5) / 2^53) from 53-bit integers held as floats, in place."""
    # imported here, the one scipy call of this module, so that density,
    # one-replica draws and a lone trajectory (_word_to_normal) never load scipy
    from scipy.special import ndtri

    u += 0.5
    u /= _U_DEN
    return ndtri(u, out=u)


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the algorithm of scipy.special.ndtri: a rational function of
# (y - 1/2)^2 on the centre, written out in _word_to_normal, and (P, Q) of
# 1/x, x = sqrt(-2 log y), on the tails, for x < 8 and from 8 on; each Q
# has an implicit leading 1.
_NDTRI_TAILS = (
    ((4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
     (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)),
    ((3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
     (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)),
)
_EXP_M2 = 0.13533528323661269189


def _word_to_normal(w):
    """ndtri((w + 0.5) / 2^53) in Python floats: Cephes' operations in its order, with libm's log."""
    y = (w + 0.5) / _U_DEN
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        s = y * y
        a = (((-5.99633501014107895267e1 * s + 9.80010754185999661536e1) * s
              - 5.66762857469070293439e1) * s + 1.39312609387279679503e1) * s - 1.23916583867381258016e0
        b = (((((((s + 1.95448858338141759834e0) * s + 4.67627912898881538453e0) * s
                 + 8.63602421390890590575e1) * s - 2.25462687854119370527e2) * s
               + 2.00260212380060660359e2) * s - 8.20372256168333339912e1) * s
             + 1.59056225126211695515e1) * s - 1.18331621121330003142e0
        return (y + y * (s * a / b)) * 2.50662827463100050242e0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = _NDTRI_TAILS[x >= 8.0]
    a, b = p[0], z + q[0]
    for c in p[1:]:
        a = a * z + c
    for c in q[1:]:
        b = b * z + c
    x = (x - math.log(x) / x) - z * a / b
    return x if upper else -x


def _check_draw_size(p, wall, replicas):
    """ValueError when replicas model matrices would hold over 60,000,000 entries.

    A matrix is d x d, d = 2p+1 with the wall and p without.
    """
    d = 2 * p + 1 if wall else p
    if replicas * d * d > _MAX_VALUES:
        raise ValueError("this spectral draw would be too large; use a smaller p or fewer replicas")


def _replica_normals(base_seed, replicas, count):
    """(replicas, count) standard normals, one private stream per replica.

    One replica: the float map.
    """
    if replicas == 1:
        return np.array([[_word_to_normal(w) for w in replica_words(base_seed, 0, count).tolist()]])
    u = np.empty((replicas, count))
    for r in range(replicas):
        u[r] = replica_words(base_seed, r, count)
    return words_to_normals(u)


def sample_wall_spectrum_batch(p, base_seed, replicas):
    """(replicas, p) draws of the wall spectrum, each row ascending positive."""
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_draw_size(p, True, replicas)
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


def sample_gue_spectrum_batch(p, base_seed, replicas):
    """(replicas, p) draws of the scaled GUE spectrum, rows ascending."""
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_draw_size(p, False, replicas)
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
