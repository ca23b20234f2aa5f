"""Closed-form distributions and path-sum matrices.

The path sum over all time-ordered products of l left moves and m right
moves has closed forms for three families of coins: fully complex coins,
coins with real diagonal entries, and coins whose diagonal is complex while
the off-diagonal lives in the j-k plane.  A brute-force enumeration of all
C(l+m, l) products serves as the independent oracle.  On top of the path
sums sits the closed-form position distribution with its interference term,
plus the exact edge probabilities P(X_n = +-n) valid for every coin.

The alternating binomial sums in the distribution formula cancel heavily
for n around 50, so they are evaluated in exact rational arithmetic and
rounded once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import _kernels
from .coin import Coin, MoveOperators, classify, split_pq
from .errors import DomainError, NotNormalizedError, TooLargeError
from .quaternion import Quaternion, chi_inv_matrix, chi_matrix, qmat_from_quaternions
from .walk import Distribution

__all__ = [
    "PathSum",
    "BRUTE_FORCE_LIMIT",
    "xi_bruteforce",
    "xi_closed_complex",
    "xi_closed_case3",
    "xi_closed_case4",
    "xi_closed",
    "case4_split",
    "case4_subcoins",
    "boundary_prob",
    "closed_form_prob",
    "closed_form_distribution",
]

BRUTE_FORCE_LIMIT = 14


@dataclass
class PathSum:
    """2x2 quaternion matrix mapping the initial spinor to position m - l."""

    l: int
    m: int
    matrix: np.ndarray  # (2, 2, 4)
    n_paths: int | None = None

    @property
    def n(self) -> int:
        return self.l + self.m

    @property
    def position(self) -> int:
        return self.m - self.l


def _check_lm(l: int, m: int) -> None:
    if l < 0 or m < 0:
        raise DomainError("l and m must be non-negative")


def xi_bruteforce(ops: MoveOperators, l: int, m: int) -> PathSum:
    """Enumerate all interleavings of l copies of P and m copies of Q.

    Products are taken in time order (the factor for the latest step
    multiplies from the left).  Bounded at l + m <= 14.
    """
    _check_lm(l, m)
    n = l + m
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"l + m = {n} exceeds the bound {BRUTE_FORCE_LIMIT}")
    if n == 0:
        ident = qmat_from_quaternions([[Quaternion.one(), Quaternion.zero()],
                                       [Quaternion.zero(), Quaternion.one()]])
        return PathSum(0, 0, ident, n_paths=1)
    total4, count = _kernels.xi_brute_numpy(chi_matrix(ops.p), chi_matrix(ops.q), l, m)
    return PathSum(l, m, chi_inv_matrix(total4, tol=1e-8), n_paths=count)


def _require_nonzero_entries(coin: Coin) -> None:
    if any(q.is_zero() for q in coin.entries()):
        raise DomainError("closed form requires a, b, c, d all nonzero")


def _require_interior(l: int, m: int) -> None:
    if min(l, m) < 1:
        raise DomainError("closed form requires l >= 1 and m >= 1; "
                          "use the edge formulas for pure P^n or Q^n")


def xi_closed_complex(coin: Coin, l: int, m: int) -> PathSum:
    """Closed form of the path sum for a coin with complex entries."""
    _check_lm(l, m)
    if not coin.is_complex():
        raise DomainError("coin entries must be complex (no j or k components)")
    _require_nonzero_entries(coin)
    _require_interior(l, m)
    a, b = coin.a.simplex, coin.b.simplex
    c, d = coin.c.simplex, coin.d.simplex
    ratio = -(abs(b) ** 2) / (abs(a) ** 2)
    det = a * d - b * c
    top = np.zeros((2, 2), dtype=np.complex128)
    for g in range(1, min(l, m) + 1):
        w = ratio ** g * comb(l - 1, g - 1) * comb(m - 1, g - 1) / g
        top[0, 0] += w * l
        top[0, 1] += w * (b * c * l + det * g) / (a * c)
        top[1, 0] += w * (b * c * m + det * g) / (b * d)
        top[1, 1] += w * m
    top *= a ** l * d ** m
    mat = np.zeros((2, 2, 4))
    mat[:, :, 0] = top.real
    mat[:, :, 1] = top.imag
    return PathSum(l, m, mat)


def xi_closed_case3(coin: Coin, l: int, m: int) -> PathSum:
    """Closed form for coins with real diagonal: d = s*a, c = -s*conj(b)."""
    _check_lm(l, m)
    if classify(coin) != "case3":
        raise DomainError("coin must classify as case3")
    _require_nonzero_entries(coin)
    _require_interior(l, m)
    a0 = coin.a.re
    b = coin.b
    sign = 1.0 if abs(coin.d.re - a0) < abs(coin.d.re + a0) else -1.0
    bsq = b.norm_sq()
    asq = a0 * a0
    ratio = -bsq / asq
    n = l + m
    diag_l = 0.0
    diag_m = 0.0
    coef_b = 0.0
    coef_bbar = 0.0
    for g in range(1, min(l, m) + 1):
        w = ratio ** g * comb(l - 1, g - 1) * comb(m - 1, g - 1) / g
        diag_l += w * l
        diag_m += w * m
        coef_b += w * (bsq * l - g) / (a0 * bsq)
        coef_bbar += w * (-bsq * m + g) / (a0 * bsq)
    scale = sign ** m * a0 ** n
    mat = np.zeros((2, 2, 4))
    mat[0, 0, 0] = scale * diag_l
    mat[1, 1, 0] = scale * diag_m
    mat[0, 1] = (scale * coef_b) * b.to_array()
    mat[1, 0] = (scale * coef_bbar) * b.conj().to_array()
    return PathSum(l, m, mat)


def case4_split(coin: Coin) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split the complex images of P and Q into the two commuting subwalks.

    Returns (P1, P2, Q1, Q2): P1 keeps row 0 of chi(P), P2 row 1, Q2 row 2
    of chi(Q), Q1 row 3.  Products across the two families vanish.
    """
    if classify(coin) != "case4":
        raise DomainError("coin must classify as case4")
    ops = split_pq(coin)
    cp = chi_matrix(ops.p)
    cq = chi_matrix(ops.q)
    p1 = np.zeros_like(cp)
    p2 = np.zeros_like(cp)
    q1 = np.zeros_like(cq)
    q2 = np.zeros_like(cq)
    p1[0] = cp[0]
    p2[1] = cp[1]
    q2[2] = cq[2]
    q1[3] = cq[3]
    return p1, p2, q1, q2


def case4_subcoins(coin: Coin) -> tuple[np.ndarray, np.ndarray]:
    """The two complex 2x2 coins driving the subwalks of a case4 coin."""
    if classify(coin) != "case4":
        raise DomainError("coin must classify as case4")
    ap, bp = coin.a.simplex, coin.b.perplex
    cp, dp = coin.c.perplex, coin.d.simplex
    u1 = np.array([[ap, -bp], [np.conj(cp), np.conj(dp)]], dtype=np.complex128)
    u2 = np.array([[np.conj(ap), np.conj(bp)], [-cp, dp]], dtype=np.complex128)
    return u1, u2


def xi_closed_case4(coin: Coin, l: int, m: int) -> PathSum:
    """Closed form for case4 coins, assembled from the two subwalk sums."""
    _check_lm(l, m)
    if classify(coin) != "case4":
        raise DomainError("coin must classify as case4")
    _require_nonzero_entries(coin)
    _require_interior(l, m)
    ap = coin.a.simplex
    bp = coin.b.perplex
    dp = coin.d.simplex
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    ratio = -bsq / asq
    xi1 = np.zeros((4, 4), dtype=np.complex128)
    xi2 = np.zeros((4, 4), dtype=np.complex128)
    for g in range(1, min(l, m) + 1):
        w = ratio ** g * comb(l - 1, g - 1) * comb(m - 1, g - 1) / (asq * bsq * g)
        xi1[0, 0] += w * asq * bsq * l
        xi1[0, 3] += -w * (bsq * l - g) * np.conj(ap) * bp
        xi1[3, 0] += w * (bsq * m - g) * ap * np.conj(bp)
        xi1[3, 3] += w * asq * bsq * m
        xi2[1, 1] += w * asq * bsq * l
        xi2[1, 2] += w * (bsq * l - g) * ap * np.conj(bp)
        xi2[2, 1] += -w * (bsq * m - g) * np.conj(ap) * bp
        xi2[2, 2] += w * asq * bsq * m
    xi1 *= ap ** l * np.conj(dp) ** m
    xi2 *= np.conj(ap) ** l * dp ** m
    return PathSum(l, m, chi_inv_matrix(xi1 + xi2, tol=1e-8))


def xi_closed(coin: Coin, l: int, m: int) -> PathSum:
    """Dispatch to the closed form matching the coin's structure."""
    tag = classify(coin)
    if tag == "case3":
        return xi_closed_case3(coin, l, m)
    if tag == "case4":
        return xi_closed_case4(coin, l, m)
    if coin.is_complex():
        return xi_closed_complex(coin, l, m)
    raise DomainError(f"no closed-form path sum for a {tag!r} quaternionic coin")


# ---------------------------------------------------------------------
# closed-form probabilities
# ---------------------------------------------------------------------

def _check_init(alpha: Quaternion, beta: Quaternion, tol: float = 1e-10) -> None:
    defect = abs(alpha.norm_sq() + beta.norm_sq() - 1.0)
    if defect > tol:
        raise NotNormalizedError(
            f"|alpha|^2 + |beta|^2 = 1 violated by {defect:.3e}")


def _interference(coin: Coin, alpha: Quaternion, beta: Quaternion) -> float:
    """Re(conj(alpha) conj(a) b beta), the init-coin cross term."""
    return (alpha.conj() * coin.a.conj() * coin.b * beta).re


def boundary_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                  n: int, side: int) -> float:
    """P(X_n = +n) for side > 0, P(X_n = -n) for side < 0; any coin."""
    _check_init(alpha, beta)
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return 1.0
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    asq_n = alpha.norm_sq()
    bsq_n = beta.norm_sq()
    cross = _interference(coin, alpha, beta)
    pref = asq ** (n - 1)
    if side > 0:
        return pref * (bsq * asq_n + asq * bsq_n - 2.0 * cross)
    return pref * (asq * asq_n + bsq * bsq_n + 2.0 * cross)


@lru_cache(maxsize=None)
def _s_sums(ratio: Fraction, n: int, t: int) -> tuple[float, float]:
    """Alternating sums S1 = sum f(g) and S0 = sum f(g)/g with

    f(g) = (-ratio)^g C(t-1, g-1) C(n-t-1, g-1).

    The terms grow to ~1e13 at n = 50 while the sums cancel down by many
    orders, so the summation runs in exact rational arithmetic and is
    rounded to float once at the end.
    """
    s0 = Fraction(0)
    s1 = Fraction(0)
    for g in range(1, t + 1):
        f = (-ratio) ** g * comb(t - 1, g - 1) * comb(n - t - 1, g - 1)
        s1 += f
        s0 += Fraction(f, g)
    return float(s0), float(s1)


def _interior_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                   n: int, x: int) -> float:
    """Double-sum closed form at x = +-(n - 2t), 1 <= t <= n // 2."""
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    t = (n - abs(x)) // 2
    sign = 1.0 if x > 0 else (-1.0 if x < 0 else 1.0)
    delta = beta.norm_sq() - alpha.norm_sq()
    cross = _interference(coin, alpha, beta)

    ratio = Fraction(bsq) / Fraction(asq)
    s0, s1 = _s_sums(ratio, n, t)

    c0 = (n * n - 2 * t * n + 2 * t * t) / 2.0 \
        + sign * (n - 2 * t) * (n * (asq - bsq) * delta / 2.0 - 2.0 * n * cross)
    c1 = -n / 2.0 + sign * (n - 2 * t) * (delta / 2.0 + cross / bsq)
    c2 = 1.0 / bsq
    bracket = c0 * s0 * s0 + 2.0 * c1 * s0 * s1 + c2 * s1 * s1
    return asq ** (n - 1) * bracket


def _closed_form_scope(coin: Coin) -> str:
    tag = classify(coin)
    if tag in ("case1", "case2", "case3", "case4"):
        return tag
    if coin.is_complex():
        return "complex"
    raise DomainError(f"no closed-form distribution for a {tag!r} quaternionic coin")


def closed_form_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                     n: int, x: int) -> float:
    """Exact P(X_n = x) without running the walk.

    Valid for diagonal and antidiagonal coins, for complex coins, and for
    the two quaternionic families whose distribution coincides with the
    complex walk (real diagonal; split simplex/perplex structure).
    """
    _check_init(alpha, beta)
    if n < 0:
        raise DomainError("n must be non-negative")
    scope = _closed_form_scope(coin)
    if n == 0:
        return 1.0 if x == 0 else 0.0
    if scope == "case1":
        if x == -n:
            return alpha.norm_sq()
        if x == n:
            return beta.norm_sq()
        return 0.0
    if scope == "case2":
        if n % 2 == 0:
            return 1.0 if x == 0 else 0.0
        if x == 1:
            return alpha.norm_sq()
        if x == -1:
            return beta.norm_sq()
        return 0.0
    _require_nonzero_entries(coin)
    if abs(x) > n or (x + n) % 2:
        return 0.0
    if abs(x) == n:
        return boundary_prob(coin, alpha, beta, n, 1 if x > 0 else -1)
    return _interior_prob(coin, alpha, beta, n, x)


def closed_form_distribution(coin: Coin, alpha: Quaternion, beta: Quaternion,
                             n: int) -> Distribution:
    """Closed-form P(X_n = x) over the whole parity support."""
    probs = np.array([closed_form_prob(coin, alpha, beta, n, int(x))
                      for x in range(-n, n + 1, 2)])
    return Distribution(n, probs)
