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
`_s_sums`.  Summed term by term they cancel heavily from n around 50, and
beyond n of a few hundred the bare sums leave the float range.  Both sums
are Jacobi polynomials in x = (|a|^2 - |b|^2) / (|a|^2 + |b|^2), so they
are evaluated in floats by the three-term recurrence of DLMF 18.9.1 in
O(t) steps.  The recurrence carries a mantissa and a binary exponent, the
scaling by |a|^(2h) with h = (n - 1) // 2 is applied in the same form, and
the result is rounded once.  What the callers multiply on top is bounded:
unit phases and |a| or |a|^2.

The closed forms compute on Python floats and complex numbers and never
load numpy: a `PathSum.matrix` is a nested 2 x 2 x 4 list from every
route, and a closed-form `Distribution` holds its probabilities as a list.
Only `xi_bruteforce`, which runs the propagator, and the array boundary
of `case4_subcoins` use numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import _numpy as np
from .coin import Coin, MoveOperators, _require_nonzero_entries, classify
from .errors import DomainError
from .quaternion import Quaternion, chi_inv_matrix, chi_matrix
from .walk import Distribution, _check_norm, _propagate, check_spinor

__all__ = [
    "PathSum",
    "xi_bruteforce",
    "xi_closed",
    "case4_subcoins",
    "boundary_prob",
    "closed_form_prob",
    "closed_form_distribution",
]


class PathSum(NamedTuple):
    """2x2 quaternion matrix mapping the initial spinor to position m - l."""

    l: int
    m: int
    matrix: list[list[list[float]]]  # 2 x 2 quaternions, 4 components each

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
    return PathSum(l, m, chi_inv_matrix(cols[m]).tolist())


def _require_interior(l: int, m: int) -> None:
    if min(l, m) < 1:
        raise DomainError("closed form requires l >= 1 and m >= 1; "
                          "use the edge formulas for pure P^n or Q^n")


def _split_pow(base: float, k: int) -> tuple[float, int]:
    """(mantissa, exponent) with base**k = mantissa * 2**exponent, k >= 0.

    Square-and-multiply on frexp pairs, so no intermediate leaves the float
    range however large k is.
    """
    mant, exp = 1.0, 0
    bm, be = math.frexp(base)
    while k:
        if k & 1:
            mant, e = math.frexp(mant * bm)
            exp += e + be
        bm, e = math.frexp(bm * bm)
        be = 2 * be + e
        k >>= 1
    return mant, exp


_RESCALE_EXP = 512
_RESCALE = 2.0 ** _RESCALE_EXP

# A closed-form distribution asks for each t twice, once for each of
# x = -(n - 2t) and x = n - 2t, with at most n/2 other entries in between,
# so every repeat hits up to n = 8192; acceptance criterion 07 reuses about
# 640 entries per coin across its spinors.  The bound keeps a long-lived
# process from holding every (|a|^2, |b|^2, n, t) it has seen.
_S_SUMS_CACHE = 4096


@lru_cache(maxsize=_S_SUMS_CACHE)
def _s_sums(asq: float, bsq: float, n: int, t: int) -> tuple[float, float]:
    """(|a|^2)^h S0 and (|a|^2)^h S1, h = (n - 1) // 2, where

    S0 = sum f(g) / g,  S1 = sum f(g),  g = 1 .. min(t, n - t),
    f(g) = (-|b|^2/|a|^2)^g C(t-1, g-1) C(n-t-1, g-1).

    The sums are symmetric in t <-> n - t; with t' = min(t, n - t),
    r = |b|^2/|a|^2 and x = (1 - r)/(1 + r) they are Jacobi polynomials,

    S1 = -r (1+r)^(t'-1) P_{t'-1}^{(0, n-2t')}(x),
    S0 = -(r/t') (1+r)^(t'-1) P_{t'-1}^{(1, n-2t')}(x),

    evaluated by the forward recurrence.  P leaves the float range at
    large n where the scaled sums do not, so P and the factor
    (|a|^2)^(h-t'+1) (|a|^2+|b|^2)^(t'-1) = (|a|^2)^h (1+r)^(t'-1) carry
    a separate binary exponent and are rounded once at the end.
    """
    t = min(t, n - t)
    if t < 1:
        return 0.0, 0.0
    beta = n - 2 * t
    b2 = beta * beta
    # (1 + x)/2, rounded once: near x = -1 (small |a|^2) the polynomials
    # are steep, and x itself would carry an error of eps / (1 + x) there
    u = asq / (asq + bsq)
    # P_m for alpha = 0 (p0) and alpha = 1 (p1), with a shared exponent
    p0_prev, p1_prev = 1.0, 1.0
    p0 = (beta + 2) * u - (beta + 1) if t > 1 else 1.0
    p1 = (beta + 3) * u - (beta + 1) if t > 1 else 1.0
    exp = 0
    for m in range(1, t - 1):
        # DLMF 18.9.1 with s = 2m + alpha + beta and x = 2u - 1
        s = 2 * m + beta
        q0 = ((s + 1) * (2 * (s + 2) * s * u - ((s + 2) * s + b2)) * p0
              - 2 * m * (m + beta) * (s + 2) * p0_prev) \
            / (2 * (m + 1) * (m + beta + 1) * s)
        s += 1
        q1 = ((s + 1) * (2 * (s + 2) * s * u - ((s + 2) * s + b2 - 1)) * p1
              - 2 * (m + 1) * (m + beta) * (s + 2) * p1_prev) \
            / (2 * (m + 1) * (m + beta + 2) * s)
        p0_prev, p0, p1_prev, p1 = p0, q0, p1, q1
        if abs(p0) > _RESCALE or abs(p1) > _RESCALE:
            p0_prev /= _RESCALE
            p0 /= _RESCALE
            p1_prev /= _RESCALE
            p1 /= _RESCALE
            exp += _RESCALE_EXP
    ma, ea = _split_pow(asq, (n - 1) // 2 - t + 1)
    ms, es = _split_pow(asq + bsq, t - 1)
    scale = -(bsq / asq) * ma * ms
    exp += ea + es
    return math.ldexp(scale * p1 / t, exp), math.ldexp(scale * p0, exp)


def _path_sums(asq: float, bsq: float, l: int, m: int) -> tuple[float, float]:
    """|a|^(l+m) S0 and |a|^(l+m) S1 for the path sum Xi(l, m)."""
    n = l + m
    s0, s1 = _s_sums(asq, bsq, n, l)
    rest = math.sqrt(asq) ** (n - 2 * ((n - 1) // 2))
    return rest * s0, rest * s1


def _xi_complex(u: list[list[complex]], l: int, m: int) -> list[list[complex]]:
    """Closed-form path sum Xi(l, m) of a complex coin u = [[a, b], [c, d]]."""
    (a, b), (c, d) = u
    s0, s1 = _path_sums(abs(a) ** 2, abs(b) ** 2, l, m)
    det = a * d - b * c
    phase = (a / abs(a)) ** l * (d / abs(d)) ** m
    return [[phase * (l * s0), phase * ((b * c * l * s0 + det * s1) / (a * c))],
            [phase * ((b * c * m * s0 + det * s1) / (b * d)), phase * (m * s0)]]


def _xi_complex_entries(coin: Coin, l: int, m: int) -> list[list[list[float]]]:
    """Closed form for a coin with complex entries."""
    top = _xi_complex([[coin.a.simplex, coin.b.simplex],
                       [coin.c.simplex, coin.d.simplex]], l, m)
    return [[[z.real, z.imag, 0.0, 0.0] for z in row] for row in top]


def _xi_case3(coin: Coin, l: int, m: int) -> list[list[list[float]]]:
    """Closed form for coins with real diagonal: d = s*a, c = -s*conj(b)."""
    a0 = coin.a.re
    b = coin.b
    sign = 1.0 if abs(coin.d.re - a0) < abs(coin.d.re + a0) else -1.0
    bsq = b.norm_sq()
    s0, s1 = _path_sums(a0 * a0, bsq, l, m)
    scale = sign ** m * math.copysign(1.0, a0) ** (l + m)
    upper = scale * (bsq * l * s0 - s1) / (a0 * bsq)
    lower = scale * (s1 - bsq * m * s0) / (a0 * bsq)
    return [[[scale * l * s0, 0.0, 0.0, 0.0], [upper * x for x in b.to_list()]],
            [[lower * x for x in b.conj().to_list()], [scale * m * s0, 0.0, 0.0, 0.0]]]


def case4_subcoins(coin: Coin) -> tuple[np.ndarray, np.ndarray]:
    """The two complex 2x2 coins driving the subwalks of a case4 coin.

    The first acts on components (0, 3) of the 4-component complex
    amplitudes, the second on components (1, 2).
    """
    if classify(coin) != "case4":
        raise DomainError("coin must classify as case4")
    return tuple(np.array(u, dtype=np.complex128) for u in _case4_subcoins(coin))


def _case4_subcoins(coin: Coin) -> tuple[list[list[complex]], list[list[complex]]]:
    """`case4_subcoins` as nested lists, for a coin already classified as
    case4."""
    ap, bp = coin.a.simplex, coin.b.perplex
    cp, dp = coin.c.perplex, coin.d.simplex
    u1 = [[ap, -bp], [cp.conjugate(), dp.conjugate()]]
    u2 = [[ap.conjugate(), bp.conjugate()], [-cp, dp]]
    return u1, u2


def _from_image_row(left: complex, right: complex) -> list[float]:
    """The quaternion sp + pp j whose 2x2 complex image has the top row
    [sp, -pp] = [left, right]."""
    pp = -right
    return [left.real, left.imag, pp.real, pp.imag]


def _xi_case4(coin: Coin, l: int, m: int) -> list[list[list[float]]]:
    """Closed form for case4 coins, assembled from the two subwalk sums.

    In the 4x4 complex image the first subwalk fills rows and columns
    (0, 3), the second (1, 2); the top row of each 2x2 block fixes its
    quaternion, so each entry reads one subwalk sum and a zero.
    """
    u1, u2 = _case4_subcoins(coin)
    (x00, x01), _ = _xi_complex(u1, l, m)
    _, (x10, x11) = _xi_complex(u2, l, m)
    return [[_from_image_row(x00, 0j), _from_image_row(0j, x01)],
            [_from_image_row(0j, x10), _from_image_row(x11, 0j)]]


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
    """Closed form of the path sum Xi(l, m) for the coin's family: real
    diagonal (case3), split structure (case4) or complex entries.

    Raises DomainError for a coin outside these families, for a zero
    entry (which rules out case1 and case2), and unless l, m >= 1.
    """
    family = _closed_family(coin, "path sum")
    _check_lm(l, m)
    # case1 and case2 coins, the only ones here whose entries need not be
    # complex, always fail this check
    _require_nonzero_entries(coin, "closed form")
    _require_interior(l, m)
    build = {"case3": _xi_case3, "case4": _xi_case4}.get(family, _xi_complex_entries)
    return PathSum(l, m, build(coin, l, m))


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


def _interior_prob(asq: float, bsq: float, delta: float, cross: float,
                   n: int, x: int) -> float:
    """Double-sum closed form at x = +-(n - 2t), 1 <= t <= n // 2, from
    |a|^2, |b|^2, delta = |beta|^2 - |alpha|^2 and the cross term."""
    t = (n - abs(x)) // 2
    sign = 1.0 if x > 0 else (-1.0 if x < 0 else 1.0)

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
        _require_nonzero_entries(coin, "closed form")
    return family


def _site_probs(coin: Coin, alpha: Quaternion, beta: Quaternion,
                n: int, xs, family: str) -> list[float]:
    """P(X_n = x) for each x in xs, on inputs that `_checked_family`
    accepted as `family`."""
    if n == 0:
        return [1.0 if x == 0 else 0.0 for x in xs]
    if family == "case1":
        law = {-n: alpha.norm_sq(), n: beta.norm_sq()}
        return [law.get(x, 0.0) for x in xs]
    if family == "case2":
        law = {1: alpha.norm_sq(), -1: beta.norm_sq()} if n % 2 else {0: 1.0}
        return [law.get(x, 0.0) for x in xs]
    # what every interior site shares, computed once
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    delta = beta.norm_sq() - alpha.norm_sq()
    cross = _interference(coin, alpha, beta)
    probs = []
    for x in xs:
        if abs(x) > n or (x + n) % 2:
            probs.append(0.0)
        elif abs(x) == n:
            probs.append(_edge_prob(coin, alpha, beta, n, 1 if x > 0 else -1))
        else:
            probs.append(_interior_prob(asq, bsq, delta, cross, n, x))
    return probs


def closed_form_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                     n: int, x: int) -> float:
    """Exact P(X_n = x) without running the walk.

    Valid for diagonal and antidiagonal coins, for complex coins, and for
    the two quaternionic families whose distribution coincides with the
    complex walk (real diagonal; split simplex/perplex structure).
    """
    family = _checked_family(coin, alpha, beta, n)
    return _site_probs(coin, alpha, beta, n, (x,), family)[0]


def closed_form_distribution(coin: Coin, alpha: Quaternion, beta: Quaternion,
                             n: int) -> Distribution:
    """Closed-form P(X_n = x) over the whole parity support."""
    family = _checked_family(coin, alpha, beta, n)
    return Distribution(n, _site_probs(coin, alpha, beta, n, range(-n, n + 1, 2), family))
