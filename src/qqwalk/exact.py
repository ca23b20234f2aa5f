"""Closed-form distributions and path-sum matrices.

The path sum over all time-ordered products of l left moves and m right
moves has closed forms for three families of coins: fully complex coins,
coins with real diagonal entries, and coins whose diagonal is complex while
the off-diagonal lives in the j-k plane (two commuting complex subwalks).
For any coin, `xi_bruteforce` reads the path sum off the walk's
momentum-space propagator: Xi(l, m) is the z^m coefficient of
(chi(P) + z chi(Q))^(l+m).  On top of the path sums sits the closed-form
position distribution with its interference term, plus the exact edge
probabilities P(X_n = +-n) valid for every coin.

Path sums and distribution share one pair of Konno-type alternating sums,
`_s_sums`.  Their terms cancel heavily from n around 50, and beyond n of a
few hundred the bare sums leave the float range, so they are summed in
exact rational arithmetic, multiplied exactly by |a|^(2h) with
h = (n - 1) // 2, and rounded once.  What the callers multiply on top is
bounded: unit phases and |a| or |a|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .coin import Coin, MoveOperators, classify, split_pq
from .errors import DomainError
from .quaternion import Quaternion, chi_inv_matrix, chi_matrix
from .walk import Distribution, _check_norm, _propagate, check_spinor

__all__ = [
    "PathSum",
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


@dataclass
class PathSum:
    """2x2 quaternion matrix mapping the initial spinor to position m - l."""

    l: int
    m: int
    matrix: np.ndarray  # (2, 2, 4)
    n_paths: int | None = None

    @property
    def position(self) -> int:
        return self.m - self.l


def _check_lm(l: int, m: int) -> None:
    if l < 0 or m < 0:
        raise DomainError("l and m must be non-negative")


def xi_bruteforce(ops: MoveOperators, l: int, m: int) -> PathSum:
    """Sum of all interleavings of l copies of P and m copies of Q, any coin.

    Products are taken in time order (the factor for the latest step
    multiplies from the left).  The sum is the z^m coefficient of
    (chi(P) + z chi(Q))^(l+m), which `walk._propagate` evaluates from the
    identity block in O(n log n); nothing is enumerated.
    """
    _check_lm(l, m)
    n = l + m
    cols = _propagate(chi_matrix(ops.p), chi_matrix(ops.q),
                      np.eye(4, dtype=np.complex128), n)
    # every column is a walk from a unit vector, so it keeps norm 1
    _check_norm(np.sum(np.abs(cols) ** 2, axis=(0, 1)), n)
    return PathSum(l, m, chi_inv_matrix(cols[m], tol=1e-8), n_paths=comb(n, l))


def _require_nonzero_entries(coin: Coin) -> None:
    if any(q.is_zero() for q in coin.entries()):
        raise DomainError("closed form requires a, b, c, d all nonzero")


def _require_interior(l: int, m: int) -> None:
    if min(l, m) < 1:
        raise DomainError("closed form requires l >= 1 and m >= 1; "
                          "use the edge formulas for pure P^n or Q^n")


@lru_cache(maxsize=16)
def _scale_powers(asq: float, h: int) -> tuple[int, int]:
    """Integer numerator and denominator of (|a|^2)^h, exactly."""
    num, den = asq.as_integer_ratio()
    return num ** h, den ** h


@lru_cache(maxsize=None)
def _s_sums(asq: float, bsq: float, n: int, t: int) -> tuple[float, float]:
    """(|a|^2)^h S0 and (|a|^2)^h S1, h = (n - 1) // 2, where

    S0 = sum f(g) / g,  S1 = sum f(g),  g = 1 .. min(t, n - t),
    f(g) = (-|b|^2/|a|^2)^g C(t-1, g-1) C(n-t-1, g-1).

    The sums are exact rationals; the scaling multiplies numerator and
    denominator as integers, and one integer true division rounds each
    result to the nearest float.
    """
    ratio = Fraction(bsq) / Fraction(asq)
    s0 = Fraction(0)
    s1 = Fraction(0)
    for g in range(1, min(t, n - t) + 1):
        f = (-ratio) ** g * comb(t - 1, g - 1) * comb(n - t - 1, g - 1)
        s1 += f
        s0 += Fraction(f, g)
    num, den = _scale_powers(asq, (n - 1) // 2)
    return (s0.numerator * num / (s0.denominator * den),
            s1.numerator * num / (s1.denominator * den))


def _path_sums(asq: float, bsq: float, l: int, m: int) -> tuple[float, float]:
    """|a|^(l+m) S0 and |a|^(l+m) S1 for the path sum Xi(l, m)."""
    n = l + m
    s0, s1 = _s_sums(asq, bsq, n, l)
    rest = math.sqrt(asq) ** (n - 2 * ((n - 1) // 2))
    return rest * s0, rest * s1


def _xi_complex(u: np.ndarray, l: int, m: int) -> np.ndarray:
    """Closed-form path sum Xi(l, m) of a complex coin u = [[a, b], [c, d]]."""
    (a, b), (c, d) = u
    s0, s1 = _path_sums(abs(a) ** 2, abs(b) ** 2, l, m)
    det = a * d - b * c
    top = np.array([[l * s0, (b * c * l * s0 + det * s1) / (a * c)],
                    [(b * c * m * s0 + det * s1) / (b * d), m * s0]])
    return (a / abs(a)) ** l * (d / abs(d)) ** m * top


def xi_closed_complex(coin: Coin, l: int, m: int) -> PathSum:
    """Closed form of the path sum for a coin with complex entries."""
    _check_lm(l, m)
    _require_nonzero_entries(coin)
    if not coin.is_complex():
        raise DomainError("coin entries must be complex (no j or k components)")
    _require_interior(l, m)
    u = np.array([[coin.a.simplex, coin.b.simplex],
                  [coin.c.simplex, coin.d.simplex]])
    top = _xi_complex(u, l, m)
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
    s0, s1 = _path_sums(a0 * a0, bsq, l, m)
    scale = sign ** m * math.copysign(1.0, a0) ** (l + m)
    mat = np.zeros((2, 2, 4))
    mat[0, 0, 0] = scale * l * s0
    mat[1, 1, 0] = scale * m * s0
    mat[0, 1] = scale * (bsq * l * s0 - s1) / (a0 * bsq) * b.to_array()
    mat[1, 0] = scale * (s1 - bsq * m * s0) / (a0 * bsq) * b.conj().to_array()
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
    """The two complex 2x2 coins driving the subwalks of a case4 coin.

    The first acts on components (0, 3) of the 4-component complex
    amplitudes, the second on components (1, 2).
    """
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
    u1, u2 = case4_subcoins(coin)
    _require_nonzero_entries(coin)
    _require_interior(l, m)
    xi4 = np.zeros((4, 4), dtype=np.complex128)
    xi4[np.ix_((0, 3), (0, 3))] = _xi_complex(u1, l, m)
    xi4[np.ix_((1, 2), (1, 2))] = _xi_complex(u2, l, m)
    return PathSum(l, m, chi_inv_matrix(xi4, tol=1e-8))


def _closed_family(coin: Coin, what: str) -> str:
    """The closed-form family of a coin: its tag for case1-case4, else
    'complex' for a complex coin; DomainError for the other coins."""
    tag = classify(coin)
    if tag in ("case1", "case2", "case3", "case4"):
        return tag
    if coin.is_complex():
        return "complex"
    raise DomainError(f"no closed-form {what} for a {tag!r} quaternionic coin")


def xi_closed(coin: Coin, l: int, m: int) -> PathSum:
    """Dispatch to the closed form matching the coin's structure."""
    family = _closed_family(coin, "path sum")
    if family == "case3":
        return xi_closed_case3(coin, l, m)
    if family == "case4":
        return xi_closed_case4(coin, l, m)
    return xi_closed_complex(coin, l, m)


# ---------------------------------------------------------------------
# closed-form probabilities
# ---------------------------------------------------------------------

def _interference(coin: Coin, alpha: Quaternion, beta: Quaternion) -> float:
    """Re(conj(alpha) conj(a) b beta), the init-coin cross term."""
    return (alpha.conj() * coin.a.conj() * coin.b * beta).re


def boundary_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                  n: int, side: int) -> float:
    """P(X_n = +n) for side > 0, P(X_n = -n) for side < 0; any coin."""
    check_spinor(alpha, beta)
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return 1.0
    return _edge_prob(coin, alpha, beta, n, side)


def _edge_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
               n: int, side: int) -> float:
    """`boundary_prob` for n >= 1 on checked inputs."""
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    asq_n = alpha.norm_sq()
    bsq_n = beta.norm_sq()
    cross = _interference(coin, alpha, beta)
    pref = asq ** (n - 1)
    if side > 0:
        return pref * (bsq * asq_n + asq * bsq_n - 2.0 * cross)
    return pref * (asq * asq_n + bsq * bsq_n + 2.0 * cross)


def _interior_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                   n: int, x: int) -> float:
    """Double-sum closed form at x = +-(n - 2t), 1 <= t <= n // 2."""
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    t = (n - abs(x)) // 2
    sign = 1.0 if x > 0 else (-1.0 if x < 0 else 1.0)
    delta = beta.norm_sq() - alpha.norm_sq()
    cross = _interference(coin, alpha, beta)

    s0, s1 = _s_sums(asq, bsq, n, t)

    c0 = (n * n - 2 * t * n + 2 * t * t) / 2.0 \
        + sign * (n - 2 * t) * (n * (asq - bsq) * delta / 2.0 - 2.0 * n * cross)
    c1 = -n / 2.0 + sign * (n - 2 * t) * (delta / 2.0 + cross / bsq)
    c2 = 1.0 / bsq
    bracket = c0 * s0 * s0 + 2.0 * c1 * s0 * s1 + c2 * s1 * s1
    # the sums carry (|a|^2)^h each, so asq^(n-1) leaves this bounded factor
    return asq ** ((n - 1) % 2) * bracket


def _checked_family(coin: Coin, alpha: Quaternion, beta: Quaternion,
                    n: int) -> str:
    """Validate the inputs of a closed-form probability; return the family."""
    check_spinor(alpha, beta)
    if n < 0:
        raise DomainError("n must be non-negative")
    family = _closed_family(coin, "distribution")
    if n > 0 and family not in ("case1", "case2"):
        _require_nonzero_entries(coin)
    return family


def _site_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
               n: int, x: int, family: str) -> float:
    """P(X_n = x) on inputs that `_checked_family` accepted as `family`."""
    if n == 0:
        return 1.0 if x == 0 else 0.0
    if family == "case1":
        return {-n: alpha.norm_sq(), n: beta.norm_sq()}.get(x, 0.0)
    if family == "case2":
        law = {1: alpha.norm_sq(), -1: beta.norm_sq()} if n % 2 else {0: 1.0}
        return law.get(x, 0.0)
    if abs(x) > n or (x + n) % 2:
        return 0.0
    if abs(x) == n:
        return _edge_prob(coin, alpha, beta, n, 1 if x > 0 else -1)
    return _interior_prob(coin, alpha, beta, n, x)


def closed_form_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                     n: int, x: int) -> float:
    """Exact P(X_n = x) without running the walk.

    Valid for diagonal and antidiagonal coins, for complex coins, and for
    the two quaternionic families whose distribution coincides with the
    complex walk (real diagonal; split simplex/perplex structure).
    """
    family = _checked_family(coin, alpha, beta, n)
    return _site_prob(coin, alpha, beta, n, x, family)


def closed_form_distribution(coin: Coin, alpha: Quaternion, beta: Quaternion,
                             n: int) -> Distribution:
    """Closed-form P(X_n = x) over the whole parity support."""
    family = _checked_family(coin, alpha, beta, n)
    probs = np.array([_site_prob(coin, alpha, beta, n, x, family)
                      for x in range(-n, n + 1, 2)])
    return Distribution(n, probs)
