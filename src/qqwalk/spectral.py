"""Spectral analysis of the momentum symbol and weak-limit densities.

The 4x4 unitary symbol U(theta) of the walk has four eigen-angles
lambda_m(theta); their theta-derivatives (group velocities) fill the
support (-r, r) of the limit law of X_n / n.  The eigenpairs come from a
Jacobi solve of a Hermitian part of U(theta) on Python complexes, so the
spectrum needs no numpy; U is normal, so its eigenvalues are well
conditioned and a double root comes out split only by round-off.  Since
dU/dtheta = i SIGMA U with SIGMA = diag(1, 1, -1, -1), the group velocity
of a branch with unit eigenvector v is exactly v^H SIGMA v.  The module
also gives the quartic characteristic polynomial in closed form, the
closed quaternionic eigenvector construction through the direction
C = B^{-1} A of `appendix_ab`, and the one weak-limit law: the
arcsine-type density f_r(y) = sqrt(1 - r^2) / (pi (1 - y^2)
sqrt(r^2 - y^2)), where only the support radius r depends on the coin
(the closed form `support_radius` for trace-free coins, whose diagonal
has vanishing real parts, and |a| for the other case3, case4 and complex
coins; `coin.closed_family` decides which coins have a law, and case1,
case2 and general coins have none).  The weighted moments of f_r are
closed forms on Python floats, and so is the weighted CDF that the
Kolmogorov distance of `limit_compare` reads against the exact
distribution from `exact`.  `limit_cdf` integrates that CDF by quadrature
that absorbs the inverse-square-root edge singularity by the substitution
y = r sin(phi), as the tests' reference.  The paper's other printings of
C and r and a numeric scan for r are test oracles.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

from . import _numpy as np
from . import exact, walk
from .coin import Coin, _require_kernel_family, _u_rows
from .errors import DegenerateABError, DegenerateError, DomainError
from .quaternion import Quaternion, _phi_of

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
MU = 0.5772156649015329  # weight of H2 in H(MU) = H1 + MU H2; any generic value
CLUSTER_TOL = 1e-2  # H(MU) eigenvalues closer than this are split again by H2


class EigenPair(NamedTuple):
    theta: float
    lam: float                 # eigen-angle in [-pi, pi)
    value: complex             # e^{i lam}
    vector: tuple              # four Python complexes, unit norm
    residual: float            # ||U v - value v||


def _real_positive(vec) -> tuple:
    """vec at unit norm with its largest component real and positive; of
    components within a relative 1e-12 of the largest modulus the first is
    chosen, so the choice does not depend on last-bit rounding."""
    mod = [abs(z) for z in vec]
    top = (1.0 - 1e-12) * max(mod)
    k = next(i for i, m in enumerate(mod) if m >= top)
    scale = vec[k] / mod[k] * math.hypot(*mod)
    return tuple(z / scale for z in vec)


def _matvec(m, v) -> list:
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def _vdot(v, w) -> complex:  # v^H w
    return sum(x.conjugate() * y for x, y in zip(v, w))


def _jacobi(u, vecs, w: complex, floor: float) -> list[float]:
    """Rotate vecs (changed in place) to eigenvectors of w U + conj(w) U^H
    on their span and return its eigenvalues: cyclic complex Jacobi on its
    Hermitian matrix a in vecs, each rotation the real one of its 2 x 2
    block once a phase on column q makes a_pq real; entries up to floor
    count as zero."""
    images = [_matvec(u, x) for x in vecs]
    m = [[w * _vdot(v, ux) for ux in images] for v in vecs]
    a = [[x + y.conjugate() for x, y in zip(row, col)] for row, col in zip(m, zip(*m))]
    rotated = True
    while rotated:
        rotated = False
        for p, q in combinations(range(len(a)), 2):
            mod = abs(a[p][q])
            if mod <= floor:
                continue
            rotated = True
            f = a[p][q].conjugate() / mod
            tau = (a[q][q].real - a[p][p].real) / (2.0 * mod)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            sf, cf, sg, cg = s * f, c * f, s * f.conjugate(), c * f.conjugate()
            for row in a:  # a <- a J, then a <- J^H a
                row[p], row[q] = c * row[p] - sf * row[q], s * row[p] + cf * row[q]
            a[p], a[q] = ([c * x - sg * y for x, y in zip(a[p], a[q])],
                          [s * x + cg * y for x, y in zip(a[p], a[q])])
            a[p][q] = a[q][p] = 0j
            vp, vq = vecs[p], vecs[q]
            vp[:], vq[:] = ([c * x - sf * y for x, y in zip(vp, vq)],
                            [s * x + cf * y for x, y in zip(vp, vq)])
    return [row[i].real for i, row in enumerate(a)]


def eigen_system(coin: Coin, theta: float) -> list[EigenPair]:
    """Four eigenpairs of U(theta), sorted by eigen-angle.

    U commutes with H1 = (U + U^H)/2 and H2 = (U - U^H)/(2i), which take
    cos(lam) and sin(lam) on the branch e^{i lam}; the eigenvectors are
    those of H(MU).  Branches with lam1 + lam2 = 2 atan(MU) (mod 2 pi), met
    by most trace-free coins at some theta, share an eigenvalue of H(MU), so
    each run of H(MU) eigenvalues closer than CLUSTER_TOL is rotated again
    to diagonalize H2 on its span, skipping couplings up to 1e-14: near
    lam = +-pi/2 H2 separates close branches only to second order, and
    rotating on rounding noise would mix them.  Each vector v is scaled to
    unit norm with its largest component real and positive, and its
    eigenvalue is v^H U v at unit modulus.  Raises ValueError for a
    non-finite theta, and DegenerateError when two eigenvalues are closer
    than DEGENERACY_TOL; such momentum nodes must be excluded by the caller.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    u = _u_rows(coin, theta)
    vecs = [[complex(i == j) for i in range(4)] for j in range(4)]
    diag = _jacobi(u, vecs, 0.5 - 0.5j * MU, 1e-18)  # to convergence
    order = sorted(range(4), key=diag.__getitem__)
    cuts = [n for n in (1, 2, 3) if diag[order[n]] - diag[order[n - 1]] >= CLUSTER_TOL]
    for lo, hi in zip([0] + cuts, cuts + [4]):
        _jacobi(u, [vecs[i] for i in order[lo:hi]], -0.5j, 1e-14)
    lams = [math.atan2(z.imag, z.real) for z in (_vdot(v, _matvec(u, v)) for v in vecs)]
    found = sorted(((lam - 2.0 * math.pi if lam >= math.pi else lam, v)
                    for lam, v in zip(lams, vecs)), key=lambda pair: pair[0])
    values = [complex(math.cos(lam), math.sin(lam)) for lam, _ in found]
    if any(abs(x - y) < DEGENERACY_TOL for x, y in combinations(values, 2)):
        raise DegenerateError(theta)
    pairs = []
    for (lam, vec), value in zip(found, values):
        vec = _real_positive(vec)
        residual = math.hypot(*(abs(y - value * z)
                                for y, z in zip(_matvec(u, vec), vec)))
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
    if np.linalg.norm(vec) <= 1e-14:
        raise DegenerateABError("construction produced a null vector")
    return np.array(_real_positive(vec))


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
    return np.array([sum(s * abs(z) ** 2 for s, z in zip(_SIGMA, p.vector))
                     for p in eigen_system(coin, theta)])


def _case5_params(coin: Coin) -> tuple[float, float]:
    # trace-free coins with split structure carry the case4 tag, and complex
    # ones the complex family, but still have the closed radius of
    # `support_radius`; trace-free case1 and case2 coins have no law
    if not coin.is_trace_free():
        raise DomainError("limit law requires vanishing real parts of a and d")
    _require_kernel_family(coin, "limit law")
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

class LimitDensity(NamedTuple):
    """Parameters of the weak-limit law f_r of a coin: the support radius r
    (`support_radius` for a trace-free coin, |a| for a case3, case4 or
    complex one) and the paper's G = 1 + |a|^4 - Re(bc)^2 as g."""

    r: float
    g: float


def _g_constant(u: float, s: float) -> float:
    # grouped so that G = 1 exactly when |Re(bc)| = |a|^2 in floats
    return 1.0 + (u * u - s * s)


def support_radius(coin: Coin) -> float:
    """r = sqrt((G - sqrt(G^2 - 4 |a|^4)) / 2) for a trace-free coin.

    The discriminant is computed as (G - 2|a|^2)(G + 2|a|^2).  Coins whose
    b*c is real sit on the double-root boundary G = 2|a|^2, where rounding
    noise of order 1e-16 in G - 2|a|^2 would become an error of order 1e-8
    in r; below 1e-6 that factor is taken in its exact form |Im(bc)|^2
    (= |b|^4 - Re(bc)^2 on a unitary coin), which vanishes there.
    """
    u, s = _case5_params(coin)
    g = _g_constant(u, s)
    gap = g - 2.0 * u
    if gap < 1e-6:
        gap = (coin.b * coin.c).imag_part().norm_sq()
    disc = max(0.0, gap * (g + 2.0 * u))
    return math.sqrt(max(0.0, (g - math.sqrt(disc)) / 2.0))


def qqw_limit_params(coin: Coin) -> LimitDensity:
    """Limit-density parameters of a coin: r = `support_radius` when it is
    trace-free, else r = |a| when `coin.closed_family` puts it in the
    closed family (case3, case4, complex).  DomainError for other coins:
    case1, case2 and general.
    """
    if coin.is_trace_free():
        r = support_radius(coin)
    else:
        _require_kernel_family(coin, "limit law")
        r = math.sqrt(coin.a.norm_sq())
    return LimitDensity(r=r, g=_g_constant(coin.a.norm_sq(), (coin.b * coin.c).re))


def _check_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise DomainError("support radius must satisfy 0 < r < 1")


def _edge_free_factor(r: float, y):
    """f_r(y) * sqrt(r^2 - y^2) = sqrt(1 - r^2) / (pi (1 - y^2)), for a
    float or an array y.  The callers check the radius."""
    return math.sqrt(1.0 - r * r) / (math.pi * (1.0 - y * y))


def _density(r: float, y: float) -> float:
    """f_r(y) for one float y as the edge-free factor over sqrt(r^2 - y^2)
    on (-r, r); zero outside; +inf at the edges and wherever r^2 - y^2
    rounds to zero."""
    if abs(y) < r:
        root = math.sqrt(r * r - y * y)
        return _edge_free_factor(r, y) / root if root else math.inf
    return math.inf if abs(y) == r else 0.0


def qqw_limit_density(params: LimitDensity, y):
    """The arcsine-type density f_r of `qqw_limit_params(coin)`:

    sqrt(1 - r^2) / (pi (1 - y^2) sqrt(r^2 - y^2)) on (-r, r); zero
    outside; +inf exactly at the edges.  The paper writes the trace-free
    law through G = 1 + |a|^4 - Re(bc)^2.  With r^2 and R^2 the roots of
    z^2 - G z + |a|^4 its numerator
    (G - 2) y^2 + G - 2|a|^4 + (1 - y^2)(R^2 - r^2) is 2 (1 - r^2)(R^2 - y^2),
    which leaves f_r at the trace-free support radius r.  y is a float,
    giving a float, or an iterable of floats, giving a list; the radius is
    checked once.
    """
    _check_radius(params.r)
    if isinstance(y, (int, float)):
        return _density(params.r, float(y))
    return [_density(params.r, v) for v in map(float, y)]


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


QUAD_BLOCK = 64  # rows of ys per block of `limit_cdf`


def integrate_weighted_density(params: LimitDensity, weight_c: float = 0.0,
                               moment: int = 0) -> float:
    """integral of y^moment (1 - C y) f_r(y) dy over (-r, r), in closed form.

    f_r is even, so this is m_p for an even order p and -C m_{p+1} for an
    odd one, with m_{2k} the integral of y^{2k} f_r.  Since
    y^{2k} / (1 - y^2) = 1 / (1 - y^2) - sum_{j<k} y^{2j},
    m_{2k} = 1 - sqrt(1 - r^2) sum_{j<k} r^{2j} C(2j, j) / 4^j, each term
    rounded from r**(2j) and the exact C(2j, j) / 4^j and added by
    `math.fsum`.  ValueError for a negative order: the integral diverges.
    """
    if moment < 0:
        raise ValueError("moment order must be non-negative")
    _check_radius(params.r)
    r = params.r
    total = math.fsum(r ** (2 * j) * (math.comb(2 * j, j) / 4 ** j)
                      for j in range((moment + 1) // 2))
    even = 1.0 - math.sqrt((1.0 - r) * (1.0 + r)) * total
    return -weight_c * even if moment % 2 else even


def limit_cdf(params: LimitDensity, weight_c: float, ys, n_nodes: int = 400):
    """F(y) = integral_{-r}^{y} (1 - C t) f_r(t) dt at each of ys, as an
    array, by quadrature; `_closed_cdf` is the same function in closed form.

    Under t = r sin(phi) the Jacobian cancels the inverse-square-root edge
    factor analytically, so the integrand is the bounded function
    (1 - C t) [f_r(t) sqrt(r^2 - t^2)], sampled at open Gauss-Legendre
    nodes on each (-pi/2, asin(y / r)).  The (rows, nodes) grids are built
    QUAD_BLOCK rows at a time, so they stay in cache whatever the number of
    ys; each row is summed on its own, as in one whole grid.
    """
    _check_radius(params.r)
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    phi_hi = np.arcsin(np.clip(ys / params.r, -1.0, 1.0))
    x, w = _gauss_legendre(n_nodes)
    half = 0.5 * (phi_hi + 0.5 * math.pi)          # (ny,)
    mid = 0.5 * (phi_hi - 0.5 * math.pi)
    out = np.empty_like(half)
    for lo in range(0, half.size, QUAD_BLOCK):
        rows = slice(lo, lo + QUAD_BLOCK)
        phi = mid[rows, None] + half[rows, None] * x[None, :]  # (block, nn)
        t = params.r * np.sin(phi)
        integrand = (1.0 - weight_c * t) * _edge_free_factor(params.r, t)
        out[rows] = np.sum(w[None, :] * integrand, axis=1) * half[rows]
    return out


def _closed_cdf(params: LimitDensity, weight_c: float, ys) -> Iterator[float]:
    """F(y) = integral_{-r}^{y} (1 - C t) f_r(t) dt in closed form, for
    each float of ys:

    F(y) = 1/2 + atan2(y sqrt(1 - r^2), sqrt(r^2 - y^2)) / pi
               + (C / pi) atan2(sqrt(r^2 - y^2), sqrt(1 - r^2))

    on (-r, r), 0 below and 1 above: the first term is the primitive of
    f_r, the second of -C t f_r.  The caller checks the radius.
    """
    r = params.r
    edge = math.sqrt((1.0 - r) * (1.0 + r))
    for y in ys:
        if y <= -r:
            yield 0.0
        elif y >= r:
            yield 1.0
        else:
            root = math.sqrt((r - y) * (r + y))
            yield 0.5 + (math.atan2(y * edge, root)
                         + weight_c * math.atan2(root, edge)) / math.pi


def kolmogorov_distance(dist: walk.Distribution, params: LimitDensity,
                        weight_c: float) -> float:
    """max_i |F_emp(y_i) - F_limit(y_i)| over the support points y_i = x/n

    of the rescaled distribution at time n, with F_emp right-continuous.
    The probabilities may be a list or an array; F_emp is their running
    sum and F_limit the closed form of `_closed_cdf` (`limit_cdf` is the
    same function by quadrature).

    Evaluating at the support points (rather than taking the full
    two-sided supremum) avoids the half-atom offset of order max_x P(x)/2
    that atomization alone contributes near the band-edge singularity; it
    is the statistic such convergence studies plot.
    """
    _check_radius(params.r)
    n = dist.n
    ys = (x / n for x in range(-n, n + 1, 2))
    return float(max(abs(cum - f) for cum, f in
                     zip(accumulate(dist.probs), _closed_cdf(params, weight_c, ys))))


class CompareResult(NamedTuple):
    kolmogorov: float
    r: float
    g: float
    weight_c: float


def limit_compare(coin: Coin, alpha: Quaternion, beta: Quaternion,
                  n: int) -> CompareResult:
    """Kolmogorov distance between the exact rescaled distribution at time n

    and the weak-limit CDF of the coin's law from `qqw_limit_params`.  The
    distribution is `exact.closed_form_distribution`, which covers every
    coin that `qqw_limit_params` accepts, so no walk is run.
    """
    if n < 100 or n % 2:
        raise DomainError("comparison is defined for even n >= 100")
    params = qqw_limit_params(coin)
    c = weight_constant(coin, alpha, beta)
    dist = exact.closed_form_distribution(coin, alpha, beta, n)
    dist_val = kolmogorov_distance(dist, params, c)
    return CompareResult(kolmogorov=dist_val, r=params.r, g=params.g, weight_c=c)
