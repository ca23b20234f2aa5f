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

Path sums and distribution share one pair of Konno-type alternating sums.
Summed term by term they cancel heavily from n around 50, and beyond n of
a few hundred the bare sums leave the float range.  At fixed n both sums
are Jacobi polynomials of degree t - 1 with fixed parameters, so they obey
one three-term recurrence in t (DLMF 18.9.1), which `_sums_by_t` runs in
floats from t = 1.  The recurrence carries a mantissa and a binary
exponent, the scaling by |a|^(2h) with h = (n - 1) // 2 is applied in the
same form, and each result is rounded once.  What the callers multiply on
top is bounded: unit phases and |a| or |a|^2.  One site, `_s_sums`, is a
prefix of the pass in O(t) steps; a distribution takes all n/2 sites from
one pass in O(n).

Trace-free coins (case5) have a closed-form distribution of their own.
There U(theta)^2 = V obeys V^2 - 2 xi V + I = 0 with
xi = Re(bc) - |a|^2 cos 2 theta, so n = 2m + eps steps are
psi_n = U_{m-1}(X) psi_{eps+2} - U_{m-2}(X) psi_eps, with Chebyshev
polynomials U_j of the second kind in X = Re(bc) - (|a|^2/2)(S^2 + S^-2),
S the one-site shift.  The seeds are at most three steps of the walk, and
the Laurent coefficients of U_j(X) satisfy a five-term recurrence that
`_chebyshev_coeffs` runs down from its top coefficient, so a distribution
costs O(n).  The path sums of case5 coins have no closed form here.

The closed forms compute on Python floats and complex numbers and never
load numpy: a `PathSum.matrix` is a nested 2 x 2 x 4 list from every
route, and a closed-form `Distribution` holds its probabilities as a list.
Only `xi_bruteforce`, which runs the propagator, and the array boundary
of `case4_subcoins` use numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import mul
from typing import NamedTuple

from . import _numpy as np
from .coin import (Coin, MoveOperators, _require_nonzero_entries, _u_rows, check_spinor,
                   classify)
from .errors import DomainError
from .quaternion import Quaternion, chi_inv_matrix, chi_matrix
from .walk import Distribution, _check_norm, _propagate

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


_RESCALE = 2.0 ** 512

# `xi_closed` and `closed_form_prob` look the sums up one t at a time, and
# a path sum Xi(l, m) shares its entry with Xi(m, l).  The bound keeps a
# long-lived process from holding every (|a|^2, |b|^2, n, t) it has seen.
_S_SUMS_CACHE = 4096


@lru_cache(maxsize=_S_SUMS_CACHE)
def _s_sums(asq: float, bsq: float, n: int, t: int) -> tuple[float, float]:
    """(|a|^2)^h S0 and (|a|^2)^h S1, h = (n - 1) // 2, where

    S0 = sum f(g) / g,  S1 = sum f(g),  g = 1 .. min(t, n - t),
    f(g) = (-|b|^2/|a|^2)^g C(t-1, g-1) C(n-t-1, g-1).

    The sums are symmetric in t <-> n - t, and zero when min(t, n - t) < 1.
    Summed term by term they cancel heavily and leave the float range, so
    they are the pair of `_sums_by_t` at t' = min(t, n - t), read off its
    first t' steps.
    """
    t = min(t, n - t)
    if t < 1:
        return 0.0, 0.0
    return next(islice(_sums_by_t(asq, bsq, n), t - 1, None))


# The pass of `_sums_by_t` runs away from the edge t = 1, the stable
# direction: run back from the middle, the recurrence loses every digit
# within 75 steps at |a|^2 = 0.5.  Forward, its error grows slowly with the
# steps taken: against a 60-digit oracle at every t, for |a|^2 from 1e-4 to
# 0.9999, the largest error relative to the largest sum is 1.3e-13 at
# n = 2000 and 1.2e-12 at n = 30000 (|a|^2 = 0.1, t = 10265).


def _sums_by_t(asq: float, bsq: float, n: int) -> Iterator[tuple[float, float]]:
    """Yield `_s_sums(asq, bsq, n, t)` for t = 1 .. n // 2, by one pass over t.

    With N = n - 2, A = t - 1 and w = -|b|^2/|a|^2 the sums are

    S1 = w 2F1(-A, A-N; 1; w) = w P_A^{(0, -N-1)}(1 - 2w),
    S0 = w 2F1(-A, A-N; 2; w) = w P_A^{(1, -N-2)}(1 - 2w) / (A + 1),

    Jacobi polynomials of degree A with parameters fixed along the pass
    (DLMF 15.9.1): Gauss' contiguous relations at a + b = -N are the
    three-term recurrence in the degree, DLMF 18.9.1.  One step of each
    per site gives both sums.  The polynomials leave the float range at
    large n where the scaled sums do not, so they carry a binary exponent
    apart from the factor (|a|^2)^h, and each pair is rounded once.
    """
    big = n - 2
    w = -bsq / asq
    km, ke = _split_pow(asq, (n - 1) // 2)
    scale = km * w
    # P^{(0, -N-1)} (f) and P^{(1, -N-2)} (g) at degrees a - 1 and a
    f_prev, f, g_prev, g, exp = 0.0, 1.0, 0.0, 1.0, 0
    beta_f, beta_g = (big + 1) ** 2, (big + 2) ** 2 - 1  # beta^2 - alpha^2
    for a in range(n // 2):
        if a == 1:
            f_prev, f = f, 1.0 + (big - 1) * w
            g_prev, g = g, 2.0 + (big - 1) * w
        elif a:
            # DLMF 18.9.1 from degree m = a - 1, alpha + beta = -N - 1
            m = a - 1
            s = 2 * m - big - 1
            den = 2 * (m + 1) * (m - big) * s
            # (s+2) s x at x = 1 - 2w, with the integer part kept exact:
            # rounding x would cost w its low digits when |w| is small
            ss = (s + 2) * s
            sw = 2.0 * ss * w
            f_prev, f = f, ((s + 1) * (ss - beta_f - sw) * f
                            - 2 * m * (m - big - 1) * (s + 2) * f_prev) / den
            g_prev, g = g, ((s + 1) * (ss - beta_g - sw) * g
                            - 2 * (m + 1) * (m - big - 2) * (s + 2) * g_prev) / den
            top = max(abs(f), abs(g))
            if not 1.0 / _RESCALE < top < _RESCALE:
                _, e = math.frexp(top)
                f, f_prev = math.ldexp(f, -e), math.ldexp(f_prev, -e)
                g, g_prev = math.ldexp(g, -e), math.ldexp(g_prev, -e)
                exp += e
        yield (math.ldexp(scale * g / (a + 1), exp + ke),
               math.ldexp(scale * f, exp + ke))


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
    'complex' for a complex coin, else 'case5' for a trace-free coin when
    `what` is 'distribution' (its path sums have no closed form);
    DomainError for the other coins."""
    tag = classify(coin)
    if tag in ("case1", "case2", "case3", "case4"):
        return tag
    if coin.is_complex():
        return "complex"
    if tag == "case5" and what == "distribution":
        return tag
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
                   n: int, x: int, s0: float, s1: float) -> float:
    """Double-sum closed form at x = +-(n - 2t), 1 <= t <= n // 2, from
    |a|^2, |b|^2, delta = |beta|^2 - |alpha|^2, the cross term and the
    sums (s0, s1) of `_s_sums` at t."""
    t = (n - abs(x)) // 2
    sign = 1.0 if x > 0 else (-1.0 if x < 0 else 1.0)
    c0 = (n * n - 2 * t * n + 2 * t * t) / 2.0 \
        + sign * (n - 2 * t) * (n * (asq - bsq) * delta / 2.0 - 2.0 * n * cross)
    c1 = -n / 2.0 + sign * (n - 2 * t) * (delta / 2.0 + cross / bsq)
    c2 = 1.0 / bsq
    bracket = c0 * s0 * s0 + 2.0 * c1 * s0 * s1 + c2 * s1 * s1
    # the sums carry (|a|^2)^h each, so asq^(n-1) leaves this bounded factor
    return asq ** ((n - 1) % 2) * bracket


# ---------------------------------------------------------------------
# trace-free coins
# ---------------------------------------------------------------------

# Working width of the integer recurrence of `_chebyshev_coeffs`: the live
# values keep 96 to 160 bits, so a step rounds at 2^-96 relative.
_WIDE = 96


def _wide_pow(base: float, k: int) -> tuple[int, int]:
    """(mantissa, exponent) with base**k = mantissa * 2**exponent, k >= 0,
    the mantissa of _WIDE bits and its relative error below k 2^-94:
    square-and-multiply on integers cut back to _WIDE bits, so neither the
    range nor the precision of a float limits it."""
    num, den = base.as_integer_ratio()  # den is a power of two
    bm, be = num, 1 - den.bit_length()
    mant, exp = 1, 0
    while k:
        if k & 1:
            mant, exp = mant * bm, exp + be
            cut = max(0, mant.bit_length() - _WIDE)
            mant, exp = mant >> cut, exp + cut
        bm, be = bm * bm, 2 * be
        cut = max(0, bm.bit_length() - _WIDE)
        bm, be = bm >> cut, be + cut
        k >>= 1
    cut = _WIDE - mant.bit_length()
    return mant << cut, exp - cut


def _chebyshev_coeffs(s: float, u: float, j: int) -> list[float]:
    """e_k = [w^k] U_j(s - (u/2)(w + 1/w)) for k = 0 .. j, where e_-k = e_k;
    empty for j = -1, where U_-1 = 0.

    With A = 4s^2 + 2u^2 - 4, K = k + 1 and J = j + 1,

        u^2 (K+2)(K^2 - J^2) e_k - 2su K (K+2)(2K+1) e_{k+1}
        + (K+1)(A K (K+2) + 2u^2 J^2) e_{k+2} - 2su K (K+2)(2K+3) e_{k+3}
        + u^2 K ((K+2)^2 - J^2) e_{k+4} = 0,

    which runs down from e_j = (-u)^j, with e_k = 0 for k > j; the
    coefficient of e_k vanishes only at k = j.  The tests check the
    recurrence against the Chebyshev recurrence in j in exact rationals.

    In floats the recurrence loses digits where its terms cancel: at
    j = 1e4 up to 1e-10 of the largest coefficient when the bands touch
    (Re(bc) +- |a|^2 = +-1).  So it runs in integers.  2su, A and u^2 are
    exact dyadic rationals of the float s and u, scaled here to integers;
    the four live values are integers of _WIDE to _WIDE + 64 bits with a
    shared binary exponent, so a step rounds only in its floor division,
    at 2^-96 relative, and each coefficient is rounded once to a float.
    A step costs about three times a step in floats.
    """
    if j < 0:
        return []
    fs, fu = Fraction(s), Fraction(u)
    terms = (2 * fs * fu, 4 * fs * fs + 2 * fu * fu - 4, fu * fu)
    den = max(t.denominator for t in terms)  # powers of two
    b, a, c = (int(t * den) for t in terms)
    mant, exp = _wide_pow(u, j)
    e1, e2, e3, e4 = -mant if j % 2 else mant, 0, 0, 0  # e_{k+1} .. e_{k+4}
    out = [0.0] * (j + 1)
    out[j] = math.ldexp(float(e1), exp)
    jj = (j + 1) ** 2
    cjj = 2 * c * jj
    for k in range(j - 1, -1, -1):
        kk = k + 1
        k2 = kk * (kk + 2)
        num = (b * k2 * ((2 * kk + 1) * e1 + (2 * kk + 3) * e3)
               - (kk + 1) * (a * k2 + cjj) * e2
               - c * kk * ((kk + 2) ** 2 - jj) * e4)
        e1, e2, e3, e4 = num // (c * (kk + 2) * (kk * kk - jj)), e1, e2, e3
        bits = (abs(e1) | abs(e2) | abs(e3) | abs(e4)).bit_length()
        if bits > _WIDE + 64:
            cut = bits - _WIDE
            e1, e2, e3, e4 = e1 >> cut, e2 >> cut, e3 >> cut, e4 >> cut
            exp += cut
        elif bits < _WIDE:
            cut = _WIDE - bits
            e1, e2, e3, e4 = e1 << cut, e2 << cut, e3 << cut, e4 << cut
            exp -= cut
        out[k] = math.ldexp(float(e1), exp)
    return out


def _walk_steps(coin: Coin, alpha: Quaternion, beta: Quaternion,
                steps: int) -> list[list[list[complex]]]:
    """The walk after 0 .. steps steps, stepped on Python complexes (for a
    few steps only): each state lists its rows by the number of right
    moves, each row the four complex amplitudes of `walk.WalkState`."""
    # rows 0-1 of U(0) are the image of the left move, rows 2-3 of the right
    p0, p1, q0, q1 = _u_rows(coin, 0.0)
    state = [[alpha.simplex, alpha.perplex.conjugate(),
              beta.simplex, beta.perplex.conjugate()]]
    states = [state]
    zero = [0j] * 4
    for _ in range(steps):
        rows = [zero, *state, zero]
        # row r takes the left move from row r and the right move from r - 1
        state = [[sum(map(mul, p0, here)), sum(map(mul, p1, here)),
                  sum(map(mul, q0, below)), sum(map(mul, q1, below))]
                 for below, here in zip(rows, rows[1:])]
        states.append(state)
    return states


def _case5_probs(coin: Coin, alpha: Quaternion, beta: Quaternion,
                 n: int) -> list[float]:
    """P(X_n = x) over the parity support for a trace-free (case5) coin.

    With n = 2m + eps, row r of psi_n (counted in right moves) is
    sum_i e^(m-1)_{r-i-(m-1)} psi_{eps+2}[i] - sum_i e^(m-2)_{r-i-m} psi_eps[i],
    e^(j) the coefficients of `_chebyshev_coeffs`.  The e are real, so each
    probability is a quadratic form in six of them (four shifts of e^(m-1),
    two of e^(m-2); the seeds of an even n are padded with zero rows) whose
    matrix is the real Gram matrix of the seed rows.  It is written out term
    by term, five times faster than a loop over the terms.
    """
    m, eps = divmod(n, 2)
    states = _walk_steps(coin, alpha, beta, eps + 2)
    if m == 0:
        return [sum(z.real * z.real + z.imag * z.imag for z in row) for row in states[n]]
    pad = [[0j] * 4] * (1 - eps)
    vecs = [*states[eps + 2], *pad, *([-z for z in row] for row in states[eps]), *pad]
    gram = [[sum((x.conjugate() * y).real for x, y in zip(v, w)) for w in vecs]
            for v in vecs]
    (g00, g01, g02, g03, g04, g05, g11, g12, g13, g14, g15, g22, g23, g24, g25,
     g33, g34, g35, g44, g45, g55) = [gram[i][k] * (1.0 if i == k else 2.0)
                                      for i in range(6) for k in range(i, 6)]
    u = coin.a.norm_sq()
    s = (coin.b * coin.c).re
    # e_{-j} .. e_j with three zeros before and 2 + eps after: windows of
    # n + 1 entries from offsets 3, 2, 1, 0 of the first and 1, 0 of the
    # second give the six coefficients of rows 0 .. n
    first, second = ([0.0] * 3 + e[:0:-1] + e + [0.0] * (2 + eps)
                     for e in (_chebyshev_coeffs(s, u, m - 1),
                               _chebyshev_coeffs(s, u, m - 2)))
    cols = zip(*(islice(first, lo, lo + n + 1) for lo in (3, 2, 1, 0)),
               *(islice(second, lo, lo + n + 1) for lo in (1, 0)))
    # clamped at zero, as the walk's distribution is: rounding can take a
    # vanishing probability just below it
    return [max(0.0, c0 * (g00 * c0 + g01 * c1 + g02 * c2 + g03 * c3 + g04 * c4 + g05 * c5)
                + c1 * (g11 * c1 + g12 * c2 + g13 * c3 + g14 * c4 + g15 * c5)
                + c2 * (g22 * c2 + g23 * c3 + g24 * c4 + g25 * c5)
                + c3 * (g33 * c3 + g34 * c4 + g35 * c5)
                + c4 * (g44 * c4 + g45 * c5) + c5 * g55 * c5)
            for c0, c1, c2, c3, c4, c5 in cols]


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
                n: int, xs, family: str, every_t: bool) -> list[float]:
    """P(X_n = x) for each x in xs, on inputs that `_checked_family`
    accepted as `family`.  With `every_t`, xs is the whole support, and the
    interior sites take their sums from one pass of `_sums_by_t`, which
    serves the pair x = +-(n - 2t) at once; otherwise from `_s_sums`."""
    if n == 0:
        return [1.0 if x == 0 else 0.0 for x in xs]
    if family == "case1":
        law = {-n: alpha.norm_sq(), n: beta.norm_sq()}
        return [law.get(x, 0.0) for x in xs]
    if family == "case2":
        law = {1: alpha.norm_sq(), -1: beta.norm_sq()} if n % 2 else {0: 1.0}
        return [law.get(x, 0.0) for x in xs]
    if family == "case5":  # one pass over the whole support, even for one site
        probs = _case5_probs(coin, alpha, beta, n)
        return probs if every_t else [Distribution(n, probs).prob(x) for x in xs]
    # what every interior site shares, computed once
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    delta = beta.norm_sq() - alpha.norm_sq()
    cross = _interference(coin, alpha, beta)
    if every_t:
        probs = [_edge_prob(coin, alpha, beta, n, -1), *[0.0] * (n - 1),
                 _edge_prob(coin, alpha, beta, n, 1)]
        for t, (s0, s1) in enumerate(_sums_by_t(asq, bsq, n), 1):
            # rows t and n - t hold x = -(n - 2t) and x = n - 2t
            probs[t] = _interior_prob(asq, bsq, delta, cross, n, 2 * t - n, s0, s1)
            probs[n - t] = _interior_prob(asq, bsq, delta, cross, n, n - 2 * t, s0, s1)
        return probs
    probs = []
    for x in xs:
        if abs(x) > n or (x + n) % 2:
            probs.append(0.0)
        elif abs(x) == n:
            probs.append(_edge_prob(coin, alpha, beta, n, 1 if x > 0 else -1))
        else:
            s0, s1 = _s_sums(asq, bsq, n, (n - abs(x)) // 2)
            probs.append(_interior_prob(asq, bsq, delta, cross, n, x, s0, s1))
    return probs


def closed_form_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                     n: int, x: int) -> float:
    """Exact P(X_n = x) without running the walk.

    Valid for diagonal and antidiagonal coins, for complex coins, for
    the two quaternionic families whose distribution coincides with the
    complex walk (real diagonal; split simplex/perplex structure), and for
    trace-free coins.
    """
    family = _checked_family(coin, alpha, beta, n)
    return _site_probs(coin, alpha, beta, n, (x,), family, False)[0]


def closed_form_distribution(coin: Coin, alpha: Quaternion, beta: Quaternion,
                             n: int) -> Distribution:
    """Closed-form P(X_n = x) over the whole parity support."""
    family = _checked_family(coin, alpha, beta, n)
    return Distribution(n, _site_probs(coin, alpha, beta, n, range(-n, n + 1, 2),
                                       family, True))
