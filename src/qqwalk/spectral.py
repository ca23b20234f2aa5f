"""Spectral analysis of the momentum symbol and weak-limit densities.

The 4x4 unitary symbol U(theta) of the walk has four eigen-angles
lambda_m(theta); their theta-derivatives (group velocities) fill the
support (-r, r) of the limit law of X_n / n.  The eigenpairs come from one
eigen-solve of U(theta): U is normal, so its eigenvalues are perfectly
conditioned and a double root comes out split only by round-off.  Since
dU/dtheta = i SIGMA U with SIGMA = diag(1, 1, -1, -1), the group velocity
of a branch with unit eigenvector v is exactly v^H SIGMA v.  The module
also gives the quartic characteristic polynomial in closed form, the
closed quaternionic eigenvector construction through the direction
C = B^{-1} A of `appendix_ab`, and the one weak-limit law: the
arcsine-type density f_r(y) = sqrt(1 - r^2) / (pi (1 - y^2)
sqrt(r^2 - y^2)), where only the support radius r depends on the coin
(r = |a| for complex coins, the closed form `support_radius` for
trace-free coins, whose diagonal has vanishing real parts), with
quadrature that absorbs the inverse-square-root edge singularity by the
substitution y = r sin(phi).  Each quantity has one route here; the
paper's other printings of C and r and a numeric scan for r are test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import _numpy as np
from .coin import ZERO_TOL, Coin, u_theta
from .errors import DegenerateABError, DegenerateError, DomainError
from .quaternion import Quaternion, _phi_of
from .walk import Distribution, distribution, evolve

__all__ = [
    "EigenPair",
    "LimitDensity",
    "CompareResult",
    "char_poly_coeffs",
    "eigen_system",
    "appendix_ab",
    "eigenvector_closed",
    "group_velocities",
    "case5_angle",
    "case5_group_velocity",
    "support_radius",
    "qw_limit_density",
    "qw_limit_params",
    "qqw_limit_params",
    "qqw_limit_density",
    "weight_constant",
    "integrate_weighted_density",
    "limit_cdf",
    "kolmogorov_distance",
    "limit_compare",
]


# ---------------------------------------------------------------------
# characteristic polynomial and eigensystem
# ---------------------------------------------------------------------

def char_poly_coeffs(coin: Coin, theta: float) -> np.ndarray:
    """Coefficients of det(lambda I - U(theta)), descending powers.

    [1, -2(a0 e^{it} + d0 e^{-it}),
        2(2 a0 d0 - Re(bc) + |a|^2 cos 2t),
     -2(d0 e^{it} + a0 e^{-it}), 1]
    """
    a0 = coin.a.re
    d0 = coin.d.re
    asq = coin.a.norm_sq()
    re_bc = (coin.b * coin.c).re
    eit = np.exp(1j * theta)
    emit = np.exp(-1j * theta)
    return np.array([
        1.0,
        -2.0 * (a0 * eit + d0 * emit),
        2.0 * (2.0 * a0 * d0 - re_bc + asq * math.cos(2.0 * theta)),
        -2.0 * (d0 * eit + a0 * emit),
        1.0,
    ], dtype=np.complex128)


DEGENERACY_TOL = 1e-8  # eigenvalues closer than this count as one


@dataclass
class EigenPair:
    theta: float
    lam: float                 # eigen-angle in [-pi, pi)
    value: complex             # e^{i lam}
    vector: np.ndarray         # (4,) complex, unit norm
    residual: float            # ||U v - value v||


def _angles(values: np.ndarray) -> np.ndarray:
    """Angles of unit-modulus values, in [-pi, pi)."""
    angles = np.angle(values)
    angles[angles >= math.pi] -= 2.0 * math.pi
    return angles


def _real_positive(vec: np.ndarray) -> np.ndarray:
    """vec times the unit phase that makes its largest component real and
    positive.  Components within a relative 1e-12 of the largest modulus
    count as tied, and the first of them is chosen, so the choice does not
    depend on last-bit rounding."""
    mod = np.abs(vec)
    k = int(np.argmax(mod >= (1.0 - 1e-12) * mod.max()))
    return vec / (vec[k] / mod[k])


def eigen_system(coin: Coin, theta: float) -> list[EigenPair]:
    """Four eigenpairs of U(theta), sorted by eigen-angle.

    Each eigenvector is scaled to unit norm with its largest component
    real and positive.  Raises DegenerateError when two eigenvalues are
    closer than DEGENERACY_TOL; such momentum nodes must be excluded by
    the caller.
    """
    u = u_theta(coin, theta)
    values, vectors = np.linalg.eig(u)
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) < DEGENERACY_TOL:
        raise DegenerateError(theta)
    angles = _angles(values)
    pairs = []
    for idx in np.argsort(angles):
        lam = float(angles[idx])
        value = complex(np.exp(1j * lam))
        vec = _real_positive(vectors[:, idx])
        vec /= np.linalg.norm(vec)
        residual = float(np.linalg.norm(u @ vec - value * vec))
        pairs.append(EigenPair(theta, lam, value, vec, residual))
    return pairs


# ---------------------------------------------------------------------
# closed eigenvector construction
# ---------------------------------------------------------------------

def appendix_ab(coin: Coin, theta: float, lam: float) -> tuple[Quaternion, Quaternion]:
    """The quaternion pair (A, B) of the relation A s = B s i for the

    simplex-perplex halves of the eigenvector; both vanish only at
    degenerate nodes.
    """
    a, b, c, d = coin.entries()
    bbar = b.conj()
    cm = math.cos(lam - theta)
    cp = math.cos(lam + theta)
    c2 = math.cos(2.0 * lam)
    sm = math.sin(lam - theta)
    sp = math.sin(lam + theta)
    s2 = math.sin(2.0 * lam)
    av = c + (d * bbar) * cm + (bbar * a) * cp - bbar * c2
    bv = -(d * bbar) * sm - (bbar * a) * sp + bbar * s2
    return av, bv


def eigenvector_closed(coin: Coin, theta: float, lam: float) -> np.ndarray:
    """Unit eigenvector of U(theta) for eigenvalue e^{i lam}, built from

    the closed construction: C = B^{-1} A from `appendix_ab` is the
    direction quaternion (unit and pure imaginary at true eigen-angles);
    s = p - C p i with seed p = |b|^2, then
    t = (conj(b)/|b|^2) (s e^{i(lam-theta)} - a s); the vector is
    (s', conj(s''), t', conj(t'')).

    The map p -> p - C p i is twice a projection; when C approaches -i
    the real seed lands in its kernel.  The perplex seed p = |b|^2 j spans
    the complementary branches, so whichever seed gives the larger s wins.
    """
    b = coin.b
    bsq = b.norm_sq()
    if bsq <= 1e-20:
        raise DegenerateABError("construction needs b != 0")
    av, bv = appendix_ab(coin, theta, lam)
    if av.norm() * bv.norm() <= 1e-10:
        raise DegenerateABError(f"|A||B| ~ 0 at theta={theta!r}, lambda={lam!r}")
    cq = bv.inverse() * av
    unit_i = Quaternion.i()
    candidates = [Quaternion(bsq), Quaternion(0.0, 0.0, bsq, 0.0)]
    s = max((p - cq * p * unit_i for p in candidates),
            key=lambda q: q.norm())
    phase = Quaternion(math.cos(lam - theta), math.sin(lam - theta), 0.0, 0.0)
    t = (b.conj() / bsq) * (s * phase - coin.a * s)
    vec = _phi_of(np.array([s.to_array(), t.to_array()]))
    norm = np.linalg.norm(vec)
    if norm <= 1e-14:
        raise DegenerateABError("construction produced a null vector")
    return _real_positive(vec / norm)


# ---------------------------------------------------------------------
# group velocities
# ---------------------------------------------------------------------

# U(theta) = diag(e^{it}, e^{it}, e^{-it}, e^{-it}) chi(coin), so
# dU/dtheta = i SIGMA U with SIGMA = diag(1, 1, -1, -1)
_SIGMA = (1.0, 1.0, -1.0, -1.0)


def group_velocities(coin: Coin, theta: float) -> np.ndarray:
    """d lambda_m / d theta for the four branches, sorted by angle.

    U is normal, so for a unit eigenvector v first-order perturbation
    (Hellmann-Feynman) gives d lambda / d theta = v^H SIGMA v exactly.
    Raises DegenerateError where `eigen_system` does.
    """
    sigma = np.array(_SIGMA)
    return np.array([sigma @ np.abs(p.vector) ** 2
                     for p in eigen_system(coin, theta)])


def _case5_params(coin: Coin) -> tuple[float, float]:
    # The trace-free predicate (Re a = Re d = 0) is the actual domain of
    # the closed limit law; coins in the overlap with the split-structure
    # class carry the case4 tag but still satisfy it.
    if abs(coin.a.re) > ZERO_TOL or abs(coin.d.re) > ZERO_TOL:
        raise DomainError("limit law requires vanishing real parts of a and d")
    if any(q.is_zero() for q in coin.entries()):
        raise DomainError("limit law requires a, b, c, d all nonzero")
    return coin.a.norm_sq(), (coin.b * coin.c).re


def case5_angle(coin: Coin, theta: float) -> float:
    """The eigen-angle lambda in [0, pi/2] of a trace-free coin:

    cos 2*lambda = Re(bc) - |a|^2 cos 2*theta, so the spectrum is
    {e^{i lam}, -e^{i lam}, e^{-i lam}, -e^{-i lam}}.
    """
    u, s = _case5_params(coin)
    c2l = min(1.0, max(-1.0, s - u * math.cos(2.0 * theta)))
    return 0.5 * math.acos(c2l)


def case5_group_velocity(coin: Coin, theta: float) -> float:
    """Analytic d lambda / d theta magnitude for a trace-free coin.

    y = |a|^2 sin 2t / (sqrt(1 - Re(bc) + |a|^2 cos 2t)
                        * sqrt(1 + Re(bc) - |a|^2 cos 2t)),
    with the radicands rearranged into sums of non-negative terms
    (1 +- Re(bc) -+ |a|^2) + 2 |a|^2 {sin, cos}^2(t), so the value stays
    accurate arbitrarily close to band-touching momenta.  The constant
    offsets are clamped at zero: they are non-negative for every unitary
    coin and only float representation noise can push them below.
    """
    u, s = _case5_params(coin)
    st, ct = math.sin(theta), math.cos(theta)
    base_plus = max(0.0, (1.0 + s) - u)
    base_minus = max(0.0, (1.0 - s) - u)
    d_plus = base_plus + 2.0 * u * st * st    # 1 + cos 2*lambda
    d_minus = base_minus + 2.0 * u * ct * ct  # 1 - cos 2*lambda
    denom = math.sqrt(d_plus * d_minus)
    num = u * math.sin(2.0 * theta)
    if denom == 0.0:
        return math.nan
    return num / denom


# ---------------------------------------------------------------------
# limit densities
# ---------------------------------------------------------------------

@dataclass
class LimitDensity:
    """Parameters of the weak-limit law f_r of a coin.

    r is the support radius: |a| for a complex coin, `support_radius`
    for a trace-free one.  g = 1 + |a|^4 - Re(bc)^2 is the paper's G.
    """

    r: float
    g: float


def _g_constant(u: float, s: float) -> float:
    # grouped so that G = 1 exactly when |Re(bc)| = |a|^2 in floats
    return 1.0 + (u * u - s * s)


def support_radius(coin: Coin) -> float:
    """r = sqrt((G - sqrt(G^2 - 4 |a|^4)) / 2) for a trace-free coin.

    The discriminant is computed as (G - 2|a|^2)(G + 2|a|^2) and clamped
    at zero: coins whose b*c is real sit exactly on the double-root
    boundary, where the naive expression would turn representation noise
    of order 1e-16 into an error of order 1e-8 in r.
    """
    u, s = _case5_params(coin)
    g = _g_constant(u, s)
    disc = max(0.0, (g - 2.0 * u) * (g + 2.0 * u))
    return math.sqrt(max(0.0, (g - math.sqrt(disc)) / 2.0))


def qw_limit_params(coin: Coin) -> LimitDensity:
    """Limit-density parameters of a complex-coin walk: support |a|."""
    if not coin.is_complex():
        raise DomainError("coin entries must be complex")
    if any(q.is_zero() for q in coin.entries()):
        raise DomainError("limit law requires a, b, c, d all nonzero")
    u = coin.a.norm_sq()
    s = (coin.b * coin.c).re
    return LimitDensity(r=math.sqrt(u), g=_g_constant(u, s))


def qqw_limit_params(coin: Coin) -> LimitDensity:
    """Limit-density parameters of a trace-free quaternionic coin."""
    u, s = _case5_params(coin)
    return LimitDensity(r=support_radius(coin), g=_g_constant(u, s))


def qw_limit_density(y, r: float):
    """The arcsine-type density sqrt(1 - r^2) / (pi (1 - y^2) sqrt(r^2 - y^2))

    on (-r, r); zero outside; +inf exactly at the edges.  Vectorized in y.
    """
    return _density(r, y)


def _check_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise DomainError("support radius must satisfy 0 < r < 1")


def _edge_free_factor(r: float, y: np.ndarray) -> np.ndarray:
    """f_r(y) * sqrt(r^2 - y^2) = sqrt(1 - r^2) / (pi (1 - y^2)).

    Every route to the limit law passes here, so the radius is checked here;
    `limit_cdf`, which divides by r first, checks it before that too.
    """
    _check_radius(r)
    return math.sqrt(1.0 - r * r) / (math.pi * (1.0 - y * y))


def _density(r: float, y):
    """f_r(y) as the edge-free factor over sqrt(r^2 - y^2) on (-r, r); zero
    outside; +inf exactly at the edges.  Vectorized in y."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < r
    yy = y[inside]
    out[inside] = _edge_free_factor(r, yy) / np.sqrt(r * r - yy * yy)
    out[np.abs(y) == r] = math.inf
    if out.ndim == 0:
        return float(out)
    return out


def qqw_limit_density(params: LimitDensity, y):
    """The trace-free limit density of `qqw_limit_params(coin)`.

    The paper writes it through G = 1 + |a|^4 - Re(bc)^2.  With r^2 and
    R^2 the roots of z^2 - G z + |a|^4 its numerator
    (G - 2) y^2 + G - 2|a|^4 + (1 - y^2)(R^2 - r^2) is 2 (1 - r^2)(R^2 - y^2),
    so the density is the arcsine-type law `qw_limit_density(y, r)` at the
    trace-free support radius r.  Vectorized in y.
    """
    return _density(params.r, y)


def weight_constant(coin: Coin, alpha: Quaternion, beta: Quaternion) -> float:
    """The linear skew of the limit density:

    |alpha|^2 - |beta|^2 + 2 Re(a alpha conj(b beta)) / |a|^2.

    The cross term is computed as a real part, which is always real; for
    quaternionic data the two summands of the printed symmetrization can
    carry opposite imaginary parts, and the real part is what the moment
    expansion uses.
    """
    asq = coin.a.norm_sq()
    if asq <= 1e-24:
        raise DomainError("weight constant requires a != 0")
    cross = (coin.a * alpha * (coin.b * beta).conj()).re
    return alpha.norm_sq() - beta.norm_sq() + 2.0 * cross / asq


@lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _weighted_integrals(params: LimitDensity, weight_c: float, moment: int,
                        phi_hi: np.ndarray, n_nodes: int) -> np.ndarray:
    """integral of t^moment (1 - C t) f(t) dt from -r to r sin(phi_hi), for
    each entry of phi_hi in [-pi/2, pi/2].

    Under t = r sin(phi) the Jacobian cancels the inverse-square-root edge
    factor analytically, so the integrand is the bounded function
    t^moment (1 - C t) [f(t) sqrt(r^2 - t^2)], sampled at open
    Gauss-Legendre nodes on each (-pi/2, phi_hi).
    """
    x, w = _gauss_legendre(n_nodes)
    half = 0.5 * (phi_hi + 0.5 * math.pi)          # (ny,)
    mid = 0.5 * (phi_hi - 0.5 * math.pi)
    phi = mid[:, None] + half[:, None] * x[None, :]  # (ny, nn)
    t = params.r * np.sin(phi)
    factor = 1.0 - weight_c * t
    if moment:  # limit_cdf's moment 0 skips a power over its (ny, nn) grid
        factor = (t ** moment) * factor
    integrand = factor * _edge_free_factor(params.r, t)
    return np.sum(w[None, :] * integrand, axis=1) * half


DENSITY_NODES = 2000  # Gauss-Legendre nodes of `integrate_weighted_density`


def integrate_weighted_density(params: LimitDensity, weight_c: float = 0.0,
                               moment: int = 0) -> float:
    """integral of y^moment (1 - C y) f(y) dy over (-r, r)."""
    whole = np.array([0.5 * math.pi])
    return float(_weighted_integrals(params, weight_c, moment, whole,
                                     DENSITY_NODES)[0])


def limit_cdf(params: LimitDensity, weight_c: float, ys, n_nodes: int = 400):
    """F(y) = integral_{-r}^{y} (1 - C t) f(t) dt, vectorized over ys."""
    _check_radius(params.r)
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    phi_hi = np.arcsin(np.clip(ys / params.r, -1.0, 1.0))
    return _weighted_integrals(params, weight_c, 0, phi_hi, n_nodes)


def kolmogorov_distance(dist: Distribution, params: LimitDensity,
                        weight_c: float) -> float:
    """max_i |F_emp(y_i) - F_limit(y_i)| over the support points y_i = x/n

    of the rescaled distribution at time n, with F_emp right-continuous.

    Evaluating at the support points (rather than taking the full
    two-sided supremum) avoids the half-atom offset of order max_x P(x)/2
    that atomization alone contributes near the band-edge singularity; it
    is the statistic such convergence studies plot.
    """
    n = dist.n
    ys = dist.positions() / n
    cum = np.cumsum(dist.probs)
    f_lim = limit_cdf(params, weight_c, ys)
    return float(np.max(np.abs(cum - f_lim)))


@dataclass
class CompareResult:
    kolmogorov: float
    r: float
    g: float
    weight_c: float


def limit_compare(coin: Coin, alpha: Quaternion, beta: Quaternion,
                  n: int) -> CompareResult:
    """Kolmogorov distance between the exact rescaled distribution at time n

    and the weak-limit CDF of a trace-free coin.
    """
    if n < 100 or n % 2:
        raise DomainError("comparison is defined for even n >= 100")
    params = qqw_limit_params(coin)
    c = weight_constant(coin, alpha, beta)
    dist = distribution(evolve(coin, alpha, beta, n))
    dist_val = kolmogorov_distance(dist, params, c)
    return CompareResult(kolmogorov=dist_val, r=params.r, g=params.g, weight_c=c)
