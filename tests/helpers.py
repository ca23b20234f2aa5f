"""Shared independent oracles for the test suite.

Everything here is deliberately written against the package's public
definitions but through a different computational route, so agreement is
meaningful: a dict-based walk evolution, the site-by-site steppers the
momentum-space propagator of `qqwalk.walk.evolve` is checked against
(`step` in quaternion arithmetic, `step_fourier` by the complex images of
the move operators, built by `move_images` from `split_pq` rather than
from `u_theta`, and `step_walk`, which also records the total
probability after every step), path sums by enumeration of every path,
the Laurent coefficients of the Chebyshev polynomials
U_j(s - (u/2)(w + 1/w)) of the closed forms in exact integer arithmetic
(`chebyshev_laurent`) and, on the line s + u = 1, by a single binomial
sum per coefficient (`chebyshev_touching`), the case4 split into two commuting
subwalks, a determinant-sampling route to
characteristic-polynomial coefficients, the arcsine-type law f_r as one
numpy expression (`arcsine_density`), the paper's printed G-form of the
trace-free limit density, the `limit` CSV and the limit CDF as whole-array
numpy computations (`numpy_limit_csv`, `unblocked_limit_cdf`), the
weighted moments of f_r by Gauss-Legendre quadrature
(`quadrature_moment`), the paper's general-momentum and trace-free
printings of the eigenvector direction C and |B|^2 (`paper_direction`),
its surd form of the trace-free support radius
(`paper_support_radius_surd`), the radius as the supremum of the group
velocity by grid scan and golden-section search
(`scan_support_radius`), eigen-angles from numpy's
`eigvals` and group velocities by their finite differences, the
eigensystem of U(theta) from numpy's `eig` (`numpy_eigen_system`), the
product of small quaternion matrices by scalar quaternion products, and tiny
utilities (`max_abs`, `is_unitary`, random quaternions and spinors, and
coins a rounding off their class: `near_zero_coin`, `zero_entry_coin`).
The componentwise array arithmetic `qmul_arr`, `qconj_arr` and
`qnorm_arr` over (..., 4) float arrays serves the steppers and the bulk
algebra checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from qqwalk import DegenerateABError, DegenerateError, DomainError, Quaternion
from qqwalk.coin import (
    ZERO_TOL,
    Coin,
    MoveOperators,
    classify,
    split_pq,
    u_theta,
    validate_coin,
)
from qqwalk.quaternion import _phi_of, chi_inv_matrix, chi_matrix
from qqwalk.spectral import DEGENERACY_TOL, EigenPair, case5_group_velocity
from qqwalk.walk import WalkState, init_state


def qmul_arr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hamilton product of float arrays of shape (..., 4), broadcast over
    leading axes, componentwise rather than through `Quaternion`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p0, p1, p2, p3 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    q0, q1, q2, q3 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return np.stack([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ], axis=-1)


def qconj_arr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm_arr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.sum(x * x, axis=-1))


def dict_evolve(coin: Coin, alpha: Quaternion, beta: Quaternion, steps: int):
    """Reference evolution on a sparse dict x -> (left, right) amplitudes.

    Applies the componentwise update
        L'(x) = a L(x+1) + b R(x+1),  R'(x) = c L(x-1) + d R(x-1)
    literally, with scalar quaternion arithmetic.
    """
    a, b, c, d = coin.entries()
    zero = Quaternion.zero()
    state = {0: (alpha, beta)}
    for _ in range(steps):
        nxt: dict[int, list[Quaternion]] = {}
        for x, (left, right) in state.items():
            lo = nxt.setdefault(x - 1, [zero, zero])
            lo[0] = lo[0] + a * left + b * right
            hi = nxt.setdefault(x + 1, [zero, zero])
            hi[1] = hi[1] + c * left + d * right
        state = {x: (v[0], v[1]) for x, v in nxt.items()}
    return state


def step(state: WalkState, ops: MoveOperators) -> WalkState:
    """One evolution step in quaternion arithmetic; coin entries multiply
    amplitudes from the left."""
    coin = ops.p + ops.q
    cur = state.psi
    nxt = np.zeros((cur.shape[0] + 1, 2, 4))
    nxt[:-1, 0] = qmul_arr(coin[0, 0], cur[:, 0]) + qmul_arr(coin[0, 1], cur[:, 1])
    nxt[1:, 1] = qmul_arr(coin[1, 0], cur[:, 0]) + qmul_arr(coin[1, 1], cur[:, 1])
    return WalkState(state.n + 1, _phi_of(nxt))


def _step_c4(cur: np.ndarray, cp: np.ndarray, cq: np.ndarray) -> np.ndarray:
    """One update of the 4-component complex amplitudes: (N, 4) -> (N + 1, 4)."""
    n = cur.shape[0]
    nxt = np.zeros((n + 1, 4), dtype=np.complex128)
    nxt[:n] = cur @ cp.T
    nxt[1:] += cur @ cq.T
    return nxt


def move_images(coin: Coin) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 complex images of the left and right move operators, built
    from `split_pq` and `chi_matrix` rather than from `u_theta`."""
    ops = split_pq(coin)
    return chi_matrix(ops.p), chi_matrix(ops.q)


def step_fourier(state: WalkState, coin: Coin) -> WalkState:
    """One evolution step by the complex images of the move operators."""
    return WalkState(state.n + 1, _step_c4(state.phi, *move_images(coin)))


def step_walk(coin: Coin, alpha: Quaternion, beta: Quaternion,
              steps: int) -> tuple[WalkState, np.ndarray]:
    """Step the complex amplitudes `steps` times from the origin state.

    Returns the final state and the total probability after every step
    (length steps + 1).  The move images are built once per walk.
    """
    phi = init_state(alpha, beta).phi
    cp, cq = move_images(coin)
    norms = np.zeros(steps + 1)
    norms[0] = np.vdot(phi, phi).real
    for s in range(steps):
        phi = _step_c4(phi, cp, cq)
        norms[s + 1] = np.vdot(phi, phi).real
    return WalkState(steps, phi), norms


def enumerate_xi(ops: MoveOperators, n_max: int) -> dict[tuple[int, int], np.ndarray]:
    """Every path sum Xi(l, m) with l + m <= n_max, keyed by (l, m), as
    (2, 2, 4) quaternion matrices, by enumeration.

    Visits every word of at most n_max copies of P and Q depth first, on
    the 4x4 complex images of P and Q, and adds its product to the sum of
    its letter counts.  Words are in time order: each product is the one
    of its prefix with the factor for the latest step multiplied from the
    left, so every path is still multiplied out, once.
    """
    p4, q4 = chi_matrix(ops.p), chi_matrix(ops.q)
    sums: dict[tuple[int, int], np.ndarray] = {}

    def visit(prod: np.ndarray, l: int, m: int) -> None:
        sums[l, m] = sums[l, m] + prod if (l, m) in sums else prod
        if l + m < n_max:
            visit(p4 @ prod, l + 1, m)
            visit(q4 @ prod, l, m + 1)

    visit(np.eye(4, dtype=np.complex128), 0, 0)
    return {key: chi_inv_matrix(total) for key, total in sums.items()}


def chebyshev_laurent(j_max: int, s: Fraction, u: Fraction) -> list[list[float]]:
    """For j = 0 .. j_max, the coefficients [w^k] U_j(X), k = 0 .. j, of
    X = s - (u/2)(w + 1/w), each rounded once from its exact rational value.

    With D the common denominator of s and u, V_j = (2D)^j U_j(X) has
    integer coefficients and obeys the Chebyshev recurrence
    V_{j+1} = 2Y V_j - (2D)^2 V_{j-1} with Y = 2D X = 2sD - uD (w + 1/w).
    Entry k + j of a Laurent coefficient list holds [w^k].
    """
    den = math.lcm(s.denominator, u.denominator)
    two_s, u_den = int(2 * s * den), int(u * den)
    scale = 2 * den
    prev, cur = [], [1]  # V_-1 = 0, V_0 = 1
    out = [[1.0]]
    for j in range(j_max):
        nxt = [0] * (2 * j + 3)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * two_s * c
            nxt[i] -= 2 * u_den * c
            nxt[i + 2] -= 2 * u_den * c
        for i, c in enumerate(prev):
            nxt[i + 2] -= scale * scale * c
        prev, cur = cur, nxt
        out.append([c / scale ** (j + 1) for c in cur[j + 1:]])
    return out


def chebyshev_touching(j: int, u: Fraction, k: int) -> float:
    """[w^k] U_j(X) of X = (1 - u) - (u/2)(w + 1/w), on the line s + u = 1
    where the bands touch, rounded once from its exact rational value.

    It is the single sum
    sum_{i=|k|}^{j} (-u)^i C(j+i+1, 2i+1) C(2i, i+|k|), from the expansion
    U_j(x) = sum_i (-2)^i C(j+i+1, 2i+1) (1-x)^i about x = 1 and
    1 - X = (u/2)(v + 1/v)^2 with v^2 = w, so one coefficient costs O(j)
    integer products where `chebyshev_laurent` builds every j before it.
    """
    k = abs(k)
    num, den = u.numerator, u.denominator
    c1, c2 = comb(j + k + 1, 2 * k + 1), 1  # C(j+i+1, 2i+1), C(2i, i+k) at i = k
    power = (-num) ** k * den ** (j - k)  # (-u)^i times den^j
    total = 0
    for i in range(k, j + 1):
        total += power * c1 * c2
        c1 = c1 * (j + i + 2) * (j - i) // ((2 * i + 2) * (2 * i + 3))
        c2 = c2 * (2 * i + 1) * (2 * i + 2) // ((i + k + 1) * (i - k + 1))
        power = power * -num // den
    return total / den ** j


def case4_split(coin: Coin) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split the complex images of P and Q into the two commuting subwalks.

    Returns (P1, P2, Q1, Q2): P1 keeps row 0 of chi(P), P2 row 1, Q2 row 2
    of chi(Q), Q1 row 3.  Products across the two families vanish, and
    P1 + Q1 on components (0, 3), P2 + Q2 on (1, 2), are the complex 2x2
    coins of the two subwalks.
    """
    if classify(coin) != "case4":
        raise DomainError("coin must classify as case4")
    cp, cq = move_images(coin)
    p1 = np.zeros_like(cp)
    p2 = np.zeros_like(cp)
    q1 = np.zeros_like(cq)
    q2 = np.zeros_like(cq)
    p1[0] = cp[0]
    p2[1] = cp[1]
    q2[2] = cq[2]
    q1[3] = cq[3]
    return p1, p2, q1, q2


def dict_distribution(state) -> dict[int, float]:
    return {x: l.norm_sq() + r.norm_sq() for x, (l, r) in state.items()}


def numeric_char_poly(coin: Coin, theta: float) -> np.ndarray:
    """Coefficients of det(lambda I - U(theta)) from determinant samples.

    Evaluates the determinant at five points on a circle of radius 2 and
    solves the Vandermonde system; no eigen-solve involved.
    """
    u = u_theta(coin, theta)
    lams = 2.0 * np.exp(2j * np.pi * np.arange(5) / 5)
    vals = np.array([np.linalg.det(lam * np.eye(4) - u) for lam in lams])
    vander = np.vander(lams, 5)  # columns lam^4 ... lam^0
    return np.linalg.solve(vander, vals)


def _angles(values: np.ndarray) -> np.ndarray:
    """Angles of unit-modulus values, in [-pi, pi)."""
    angles = np.angle(values)
    angles[angles >= math.pi] -= 2.0 * math.pi
    return angles


def eigen_angles(coin: Coin, theta: float) -> np.ndarray:
    """Sorted eigen-angles of U(theta) in [-pi, pi), from `eigvals` alone."""
    return np.sort(_angles(np.linalg.eigvals(u_theta(coin, theta))))


def _real_positive(vec: np.ndarray) -> np.ndarray:
    """vec times the unit phase that makes its largest component real and
    positive.  Components within a relative 1e-12 of the largest modulus
    count as tied, and the first of them is chosen, so the choice does not
    depend on last-bit rounding."""
    mod = np.abs(vec)
    k = int(np.argmax(mod >= (1.0 - 1e-12) * mod.max()))
    return vec / (vec[k] / mod[k])


def numpy_eigen_system(coin: Coin, theta: float) -> list[EigenPair]:
    """Four eigenpairs of U(theta), sorted by eigen-angle.

    Each eigenvector is scaled to unit norm with its largest component
    real and positive.  Raises DegenerateError when two eigenvalues are
    closer than DEGENERACY_TOL; such momentum nodes must be excluded by
    the caller.  The eigen-solve is numpy's `eig` of the whole symbol, and
    the vectors are numpy arrays.
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


def central_difference_velocities(coin: Coin, theta: float,
                                  h: float = 1e-5) -> np.ndarray:
    """d lambda / d theta of the angle-sorted branches by central differences.

    Each eigen-angle at theta is matched to the nearest angle on the circle
    at theta +- h, so a branch that wraps across +-pi keeps its identity;
    no eigenvector is involved.
    """
    lam0 = eigen_angles(coin, theta)

    def shifted(t: float) -> np.ndarray:
        lam = eigen_angles(coin, t)
        diff = np.angle(np.exp(1j * (lam[None, :] - lam0[:, None])))
        return lam0 + diff[np.arange(4), np.argmin(np.abs(diff), axis=1)]

    return (shifted(theta + h) - shifted(theta - h)) / (2.0 * h)


def arcsine_density(r: float, y: np.ndarray) -> np.ndarray:
    """f_r(y) = sqrt(1 - r^2) / (pi (1 - y^2) sqrt(r^2 - y^2)) on |y| < r,
    as one numpy expression."""
    y = np.asarray(y, dtype=float)
    return math.sqrt(1.0 - r * r) / (math.pi * (1.0 - y * y) * np.sqrt(r * r - y * y))


def paper_qqw_density(coin: Coin, y: np.ndarray) -> np.ndarray:
    """The paper's printed limit density of a trace-free coin, on |y| < r.

    With G = 1 + |a|^4 - Re(bc)^2 and r^2 <= R^2 the roots of
    z^2 - G z + |a|^4,

        f(y) = sqrt(2) sqrt((G - 2) y^2 + G - 2|a|^4
                            + (1 - y^2) sqrt(G^2 - 4|a|^4))
               / (2 pi (1 - y^2) sqrt(R^2 - y^2) sqrt(r^2 - y^2)).
    """
    u = coin.a.norm_sq()
    s = (coin.b * coin.c).re
    g = 1.0 + (u * u - s * s)
    disc = math.sqrt(max(0.0, (g - 2.0 * u) * (g + 2.0 * u)))
    y = np.asarray(y, dtype=float)
    num = np.maximum((g - 2.0) * y * y + (g - 2.0 * u * u)
                     + (1.0 - y * y) * disc, 0.0)
    return (math.sqrt(2.0) * np.sqrt(num)
            / (2.0 * math.pi * (1.0 - y * y) * np.sqrt((g + disc) / 2.0 - y * y)
               * np.sqrt((g - disc) / 2.0 - y * y)))


def numpy_limit_csv(params, weight_c: float, grid: int) -> bytes:
    """The bytes of `qqwalk limit` computed on whole numpy arrays: the
    np.linspace(-1, 1, grid) points and (1 - C y) f_r(y), with f_r(y) the
    edge-free factor sqrt(1 - r^2) / (pi (1 - y^2)) over sqrt(r^2 - y^2) on
    |y| < r, +inf at |y| = r and zero outside."""
    r = params.r
    ys = np.linspace(-1.0, 1.0, grid)
    dens = np.zeros_like(ys)
    inside = np.abs(ys) < r
    yy = ys[inside]
    with np.errstate(divide="ignore"):
        dens[inside] = (math.sqrt(1.0 - r * r) / (math.pi * (1.0 - yy * yy))
                        / np.sqrt(r * r - yy * yy))
    dens[np.abs(ys) == r] = math.inf
    dens = dens * (1.0 - weight_c * ys)
    lines = ["y,density"] + [f"{float(y):.17g},{float(f):.17g}"
                             for y, f in zip(ys, dens)]
    return ("\n".join(lines) + "\n").encode()


def unblocked_limit_cdf(params, weight_c: float, ys, n_nodes: int = 400) -> np.ndarray:
    """F(y) = integral_{-r}^{y} (1 - C t) f_r(t) dt under t = r sin(phi), on
    one (len(ys), n_nodes) grid of Gauss-Legendre nodes, each row summed
    along the nodes."""
    r = params.r
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    phi_hi = np.arcsin(np.clip(ys / r, -1.0, 1.0))
    half = 0.5 * (phi_hi + 0.5 * math.pi)
    mid = 0.5 * (phi_hi - 0.5 * math.pi)
    t = r * np.sin(mid[:, None] + half[:, None] * x[None, :])
    integrand = (1.0 - weight_c * t) * (math.sqrt(1.0 - r * r)
                                        / (math.pi * (1.0 - t * t)))
    return np.sum(w[None, :] * integrand, axis=1) * half


@lru_cache(maxsize=4)
def _leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n_nodes)


def quadrature_moment(params, weight_c: float = 0.0, moment: int = 0,
                      n_nodes: int = 2000) -> float:
    """integral of y^moment (1 - C y) f_r(y) dy over (-r, r) by n_nodes
    Gauss-Legendre nodes under y = r sin(phi), whose Jacobian cancels the
    edge singularity: the bounded integrand y^moment (1 - C y)
    sqrt(1 - r^2) / (pi (1 - y^2)) over phi in (-pi/2, pi/2)."""
    r = params.r
    x, w = _leggauss(n_nodes)
    t = r * np.sin(0.5 * math.pi * x)
    integrand = t ** moment * (1.0 - weight_c * t) * (math.sqrt(1.0 - r * r)
                                                      / (math.pi * (1.0 - t * t)))
    return float(np.sum(w * integrand) * 0.5 * math.pi)


def paper_direction(coin: Coin, theta: float, lam: float,
                    formula: str) -> tuple[Quaternion, float]:
    """The paper's printed direction quaternion C and |B|^2, for comparison
    with C = B^{-1} A from `appendix_ab`.  With T = b d conj(b) + conj(c) d c:

    formula="general":  C = Im(2|b|^2 sin(l-t) a + sin(l+t) T + b c sin 2l
                               - b conj(d)^2 c sin 2t) / |B|^2,
                        |B|^2 in the general-momentum printing;
    formula="case5":    the trace-free variant
                        C = Im(2|b|^2 a sin(l-t) + T sin(l+t)
                               + b c (sin 2l + |a|^2 sin 2t)) / |B|^2,
                        |B|^2 = 2|a|^2 Re(bc) cos 2t + G - 2|a|^4.
    """
    a, b, c, d = coin.entries()
    t_quat = b * d * b.conj() + c.conj() * d * c
    sm = math.sin(lam - theta)
    sp = math.sin(lam + theta)
    s2l = math.sin(2.0 * lam)
    s2t = math.sin(2.0 * theta)
    bnorm = b.norm_sq()
    anorm = a.norm_sq()
    if formula == "general":
        big = (2.0 * bnorm * sm) * a + sp * t_quat + (b * c) * s2l \
            - (b * d.conj() * d.conj() * c) * s2t
        a0, d0 = a.re, d.re
        re_aabc = (a.conj() * a.conj() * b * c).re
        bsq = (anorm * bnorm * (sm * sm + sp * sp)
               - 2.0 * bnorm * (a0 * sp + d0 * sm) * s2l
               - 2.0 * re_aabc * sm * sp
               + bnorm * s2l * s2l)
    elif formula == "case5":
        re_bc = (b * c).re
        g = 1.0 + anorm * anorm - re_bc * re_bc
        big = (2.0 * bnorm * sm) * a + sp * t_quat \
            + (b * c) * (s2l + anorm * s2t)
        bsq = 2.0 * anorm * re_bc * math.cos(2.0 * theta) + g - 2.0 * anorm * anorm
    else:
        raise ValueError(f"unknown formula {formula!r}")
    if abs(bsq) <= 1e-12:
        raise DegenerateABError(f"|B|^2 ~ 0 at theta={theta!r}, lambda={lam!r}")
    return big.imag_part() / bsq, bsq


def paper_support_radius_surd(coin: Coin) -> float:
    """The paper's surd form of the trace-free support radius,

    (sqrt((1 + |a|^2)^2 - Re(bc)^2) - sqrt((1 - |a|^2)^2 - Re(bc)^2)) / 2,
    with both radicands factored into ((1 +- |a|^2) - Re(bc)) *
    ((1 +- |a|^2) + Re(bc)) and clamped: coins with real b*c sit exactly on
    the double-root boundary, where representation noise would otherwise
    make a radicand negative.
    """
    u = coin.a.norm_sq()
    s = (coin.b * coin.c).re
    hi = max(0.0, ((1.0 + u) - s) * ((1.0 + u) + s))
    lo = max(0.0, ((1.0 - u) - s) * ((1.0 - u) + s))
    return (math.sqrt(hi) - math.sqrt(lo)) / 2.0


SCAN_GRID = 4096  # theta nodes of `scan_support_radius` before refinement


def scan_support_radius(coin: Coin) -> float:
    """sup over theta of |d lambda / d theta| of a trace-free coin, by a
    grid scan plus golden-section refinement of the package's analytic
    branch derivative `case5_group_velocity`.
    """
    def speed(th: float) -> float:
        val = case5_group_velocity(coin, th)
        return abs(val) if math.isfinite(val) else -math.inf

    thetas = (np.arange(SCAN_GRID) + 0.5) * (math.pi / SCAN_GRID)
    values = np.array([speed(t) for t in thetas])
    k = int(np.argmax(values))
    # the supremum can sit at a band-touching endpoint, so widen the
    # refinement bracket to the interval edge when the best grid point
    # is the first or last one
    lo = thetas[k - 1] if k > 0 else 0.0
    hi = thetas[k + 1] if k < SCAN_GRID - 1 else math.pi
    # golden-section maximization on [lo, hi]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = speed(x1), speed(x2)
    for _ in range(200):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = speed(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = speed(x1)
        if hi - lo < 1e-13:
            break
    return max(values[k], f1, f2)


def quat_mat_to_complex(mat: np.ndarray) -> np.ndarray:
    """(2, 2, 4) quaternion matrix -> its 4x4 complex image, re-derived."""
    out = np.zeros((4, 4), dtype=np.complex128)
    for r in range(2):
        for c in range(2):
            x0, x1, x2, x3 = mat[r, c]
            sp = complex(x0, x1)
            pp = complex(x2, x3)
            out[2 * r, 2 * c] = sp
            out[2 * r, 2 * c + 1] = -pp
            out[2 * r + 1, 2 * c] = np.conj(pp)
            out[2 * r + 1, 2 * c + 1] = np.conj(sp)
    return out


def qmat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of quaternion matrices given as (r, k, 4) and (k, c, 4)."""
    r, k, _ = a.shape
    k2, c, _ = b.shape
    if k != k2:
        raise ValueError("shape mismatch")
    out = np.zeros((r, c, 4))
    for t in range(k):
        out += qmul_arr(a[:, t, None, :], b[None, t, :, :])
    return out


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def is_unitary(m: np.ndarray, tol: float) -> bool:
    m = np.asarray(m)
    eye = np.eye(m.shape[0], dtype=m.dtype)
    return max_abs(m @ m.conj().T - eye) <= tol


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_array(rng.normal(size=4))


def random_spinor(rng: np.random.Generator) -> tuple[Quaternion, Quaternion]:
    """A random normalized initial pair (alpha, beta)."""
    v = rng.normal(size=8)
    v /= np.linalg.norm(v)
    return Quaternion.from_array(v[:4]), Quaternion.from_array(v[4:])


def ratio4_coin() -> Coin:
    """The case4 coin a = d = 1/sqrt5, b = c = 2j/sqrt5: |b|^2/|a|^2 = 4.

    From n of a few hundred on, (|a|^2)^(n-1) underflows, and so do the top
    Chebyshev coefficients (-|a|^2)^j of its closed forms.
    """
    s = 1.0 / math.sqrt(5.0)
    b = Quaternion(0.0, 0.0, 2.0 * s, 0.0)
    return validate_coin(Quaternion(s), b, b, Quaternion(s))


def near_zero_coin(rng: np.random.Generator, coin: Coin) -> Coin:
    """The coin with each zero entry replaced by one of norm below ZERO_TOL
    and each other zero component by one below ZERO_TOL / 2 in size: it
    keeps its class, and is ZERO_TOL off it."""
    entries = []
    for q in coin.entries():
        x = q.to_array()
        if not x.any():
            x = rng.normal(size=4)
            x *= rng.uniform() * ZERO_TOL / np.linalg.norm(x)
        else:
            x = np.where(x == 0.0, rng.uniform(-0.5, 0.5, size=4) * ZERO_TOL, x)
        entries.append(Quaternion.from_array(x))
    return validate_coin(*entries)


def zero_entry_coin(rng: np.random.Generator, coin: Coin, zeroed: str,
                    size: float) -> Coin:
    """A valid coin with entry `zeroed` (one of 'abcd') zero and its partner
    (b for c, a for d and back) of norm `size`, in the partner's direction
    or a random one; the other two entries are the coin's at unit norm.
    It is `size` off a diagonal or antidiagonal coin."""
    entries = dict(zip("abcd", coin.entries()))
    partner = {"a": "d", "b": "c", "c": "b", "d": "a"}[zeroed]
    x = entries[partner].to_array()
    if not x.any():
        x = rng.normal(size=4)
    for key in "abcd":
        if key not in (zeroed, partner):
            entries[key] = entries[key] / entries[key].norm()
    entries[zeroed] = Quaternion.zero()
    entries[partner] = Quaternion.from_array(x * (size / np.linalg.norm(x)))
    return validate_coin(*entries.values())
