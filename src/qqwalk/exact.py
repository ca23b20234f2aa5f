"""Closed-form distributions and path-sum matrices.

For any coin, `xi_bruteforce` gives the path sum over all time-ordered
products of l left moves and m right moves.  An edge l = 0 or m = 0 is
one word, P^l or Q^m, read off a power of one entry; every other sum
comes off the walk's momentum-space propagator: Xi(l, m) is the z^m
coefficient of (chi(P) + z chi(Q))^(l+m), whose columns 0 and 2 are row
m of the walks from (1, 0) and (0, 1).  The exact edge probabilities
P(X_n = +-n) hold for every coin too.

Every other closed form here comes from one identity and one kernel.  It
covers four families: complex coins, coins with real diagonal (case3),
coins whose diagonal is complex while the off-diagonal lives in the j-k
plane (case4), and trace-free coins (case5).  For a trace-free coin
V = U(theta)^2 obeys V^2 - 2 xi V + I = 0 with
xi = Re(bc) - |a|^2 cos 2 theta.  The other three split the four complex
amplitude components into two blocks, (0, 2) and (1, 3), or (0, 3) and
(1, 2) for case4, on each of which U(theta) is a complex 2 x 2 unitary.
Let a_c and d_c be its diagonal at theta = 0, t_c = a_c / d_c and
D_c = d_c / conj(a_c) its determinant, for component c.  Then V / D_c
obeys the same quadratic with xi = -(1 - |a|^2) + |a|^2 cos(2 theta + arg t_c).
Hence, with Chebyshev polynomials U_j of the second kind in
X_c = s - (u/2)(conj(t_c) S^2 + t_c S^-2), S the one-site shift,
n = 2m + eps steps are, component by component,

    psi_n = (-D)^(m-1) [U_{m-1}(X) psi_{eps+2} + D U_{m-2}(X) psi_eps].

Trace-free coins take (s, u) = (Re(bc), |a|^2), t_c = 1 and D_c = -1; the
other three take (s, u) = (1 - |a|^2, |a|^2).  With e_k the Laurent
coefficients at t_c = 1, U_j(X_c) = sum_k e_k t_c^-k S^2k, so seed row i
is twisted by t_c^i and row r of psi_n carries the unit phase
(-D_c)^(m-1) t_c^(m-1-r), which the distribution drops.  So the QW-like
coins, whose distribution is the complex walk's, sit on the line
s + u = 1 where the bands of U(theta) touch, and the trace-free coins
leave it.  The seeds are at most three steps of the walk.

The kernel `_chebyshev_coeffs` runs a five-term recurrence for the Laurent
coefficients of U_j(X) in integers, down from its top coefficient.  It
takes u as a float and s as an exact rational, the integer pair
(numerator, denominator).  On the closed family s is the rational
1 - |a|^2 of the float |a|^2, not the float |b|^2: a kernel with s + u
off 1 by a rounding is the walk of a coin off unitary by as much, and its
error grows with n.  At |a|^2 = 1e-4 the float |b|^2 put the distribution
4.1e-12 from the walk at n = 2000 and 3.2e-11 at n = 30000; the exact s,
4.6e-14 and 1.0e-13.  A distribution lists both coefficient sets whole
and writes each probability as a quadratic form in six of them, so it
costs O(n).  A path sum needs a window of four coefficients of each set,
which `_s_sums` reads off the descent after O(min(l, m)) steps.

The closed forms compute on Python floats, complex numbers and integers
and load neither numpy nor `fractions`; only `xi_bruteforce`, through
`walk._propagate`, runs numpy, and only for l and m >= 1.  Rows are read
in the layout of `quaternion._phi` and `_pair`, `_path_sum` builds each
`PathSum.matrix` (a nested 2 x 2 x 4 list), and the edge probabilities
take their cross term from `coin._cross`.  The one-word edges, the unit
phases and the kernel's start value are powers by `quaternion._power`,
the loop the propagator runs too, and not by complex `**`.  Which coins
have a closed form is decided in `coin`, before this module loads, so
the CLI's `simulate` and `xi` take the closed forms where they exist and
`walk.evolve` or `xi_bruteforce` elsewhere: both work for every valid
coin.  The case1 and case2 coins have two-point and localized laws and
no closed-form path sum; the kernel's families have four nonzero entries.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import mul
from typing import NamedTuple

from .coin import (Coin, _cross, _require_closed_family, _require_kernel_family,
                   _u_rows, check_norm, check_spinor)
from .errors import DomainError
from .quaternion import Quaternion, _pair, _phi, _power
from .walk import Distribution, _propagate

__all__ = [
    "PathSum",
    "xi_bruteforce",
    "xi_closed",
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


def xi_bruteforce(coin: Coin, l: int, m: int) -> PathSum:
    """Sum of all interleavings of l copies of P and m copies of Q, any coin.

    Products are taken in time order (the factor for the latest step
    multiplies from the left).  An edge is one word, read off a power of
    one entry by `_power` in O(log n) without numpy:
    Xi(l, 0) = P^l = [[a^l, a^(l-1) b], [0, 0]],
    Xi(0, m) = Q^m = [[0, 0], [d^(m-1) c, d^m]] and Xi(0, 0) = I.  For
    l, m >= 1 the sum is the z^m coefficient of (chi(P) + z chi(Q))^(l+m):
    row m of the walks from (1, 0) and (0, 1), which `walk._propagate`
    evaluates in O(n log n); nothing is enumerated.
    """
    _check_lm(l, m)
    if l == 0 or m == 0:
        one, zero = Quaternion.one(), Quaternion.zero()
        if l == m:  # Xi(0, 0) = I
            rows = [[one, zero], [zero, one]]
        elif m == 0:
            w = _power(coin.a, l - 1, mul, one)
            rows = [[coin.a * w, w * coin.b], [zero, zero]]
        else:
            w = _power(coin.d, m - 1, mul, one)
            rows = [[zero, zero], [w * coin.c, coin.d * w]]
        return _path_sum(l, m, rows)
    # columns 0 and 2 of the identity: the spinors (1, 0) and (0, 1)
    cols = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    walks = _propagate(coin, cols, l + m)[m].T.tolist()
    return _path_sum(l, m, zip(*map(_pair, walks)))


# ---------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------

# Working width of the integer recurrence of `_chebyshev_coeffs`: the live
# values keep 96 to 160 bits, so a step rounds at 2^-96 relative.
_WIDE = 96


def _chebyshev_coeffs(s: tuple[int, int], u: float, j: int) -> Iterator[float]:
    """Yield e_j, e_{j-1}, .., e_0, where e_k = [w^k] U_j(s - (u/2)(w + 1/w))
    and e_-k = e_k; nothing for j = -1, where U_-1 = 0.

    With A = 4s^2 + 2u^2 - 4, K = k + 1 and J = j + 1,

        u^2 (K+2)(K^2 - J^2) e_k - 2su K (K+2)(2K+1) e_{k+1}
        + (K+1)(A K (K+2) + 2u^2 J^2) e_{k+2} - 2su K (K+2)(2K+3) e_{k+3}
        + u^2 K ((K+2)^2 - J^2) e_{k+4} = 0,

    which runs down from e_j = (-u)^j, with e_k = 0 for k > j; the
    coefficient of e_k vanishes only at k = j.  The tests check the
    recurrence against the Chebyshev recurrence in j in exact rationals.

    In floats the recurrence loses digits where its terms cancel: at
    j = 1e4 up to 1e-10 of the largest coefficient when the bands touch
    (s +- u = +-1).  So it runs in integers.  2su, A and u^2 are exact
    rationals of s = sn / sd, the pair (sn, sd), and the float u, scaled to
    integers; the four live values are integers of _WIDE to _WIDE + 64
    bits with a shared binary exponent, so a step rounds only in its floor
    division, at 2^-96 relative, and each coefficient is rounded once to a
    float.  A step costs about three times a step in floats.
    """
    if j < 0:
        return
    (sn, sd), (un, ud) = s, u.as_integer_ratio()
    den = math.lcm(sd, ud)
    sw, uw = sn * (den // sd), un * (den // ud)  # s and u times den
    # 2su, A and u^2 times den^2
    b, a, c = 2 * sw * uw, 4 * sw * sw + 2 * uw * uw - 4 * den * den, uw * uw

    def wide_mul(x, y):  # of (mantissa, exponent) pairs, cut back to _WIDE bits
        mant = x[0] * y[0]
        cut = max(0, mant.bit_length() - _WIDE)
        return mant >> cut, x[1] + y[1] + cut

    # e_j = (-u)^j, u = un 2^(1 - ud.bit_length()) as ud is a power of two,
    # in a range and precision no float limits: the mantissa has _WIDE bits
    # and a relative error below j 2^-94
    mant, exp = _power((un, 1 - ud.bit_length()), j, wide_mul, (1, 0))
    cut = _WIDE - mant.bit_length()
    mant, exp = mant << cut, exp - cut
    e1, e2, e3, e4 = -mant if j % 2 else mant, 0, 0, 0  # e_{k+1} .. e_{k+4}
    yield math.ldexp(float(e1), exp)
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
        yield math.ldexp(float(e1), exp)


# A path sum Xi(l, m) looks up two windows of coefficients.  The bound
# keeps a long-lived process from holding every window it has seen.
_S_SUMS_CACHE = 4096


@lru_cache(maxsize=_S_SUMS_CACHE)
def _s_sums(s: tuple[int, int], u: float, j: int, lo: int, hi: int) -> tuple[float, ...]:
    """e_k of `_chebyshev_coeffs(s, u, j)` for k = lo .. hi, with e_-k = e_k
    and e_k = 0 for |k| > j: the window that one row of the walk reads,
    after j - min |k| steps of the descent."""
    near = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    far = max(abs(lo), abs(hi))
    # e_near sits at the end, e_(near + i) i places before it
    tail = deque(islice(_chebyshev_coeffs(s, u, j), max(0, j - near + 1)),
                 maxlen=far - near + 1)
    return tuple(tail[near - abs(k) - 1] if abs(k) <= j else 0.0
                 for k in range(lo, hi + 1))


def _walk_steps(u0: list[list[complex]], alpha: Quaternion, beta: Quaternion,
                steps: int) -> list[list[list[complex]]]:
    """The walk after 0 .. steps steps, stepped on Python complexes (for a
    few steps only) by the rows u0 of U(0): each state lists its rows by the
    number of right moves, each row the four complex amplitudes of
    `quaternion._phi`."""
    # rows 0-1 of U(0) are the image of the left move, rows 2-3 of the right
    p0, p1, q0, q1 = u0
    state = [_phi(alpha, beta)]
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


def _kernel_inputs(coin: Coin, u0: list[list[complex]],
                   family: str) -> tuple[tuple[int, int], float, list]:
    """(s, u, twists) of the closed form of a case3, case4, complex or case5
    coin with rows u0 of U(0): the kernel's parameters, s as its integer
    pair, and, per amplitude component, the pair (t_c, D_c)."""
    u = coin.a.norm_sq()
    if family == "case5":
        return (coin.b * coin.c).re.as_integer_ratio(), u, [(1.0, -1.0)] * 4
    twists = [None] * 4
    for i, p in ((0, 3), (1, 2)) if family == "case4" else ((0, 2), (1, 3)):
        a, d = u0[i][i], u0[p][p]
        twists[i] = twists[p] = (a / d, d / a.conjugate())
    # exact: s + u = 1 holds for the unitary walk, not for the float |b|^2
    num, den = u.as_integer_ratio()
    return (den - num, den), u, twists


def _unit_pow(z: complex, k: int) -> complex:
    """z^k for a unit phase z and any integer k, by `_power`.  For |k| <= 100
    these are the products and the quotient of Python's complex `**`, which
    goes polar beyond: `complex(-1.0, 0.0) ** -501` is -1 - 5.8e-14j."""
    p = _power(z, abs(k), mul, 1 + 0j)
    return p if k >= 0 else 1 / p


def _seed_rows(states: list, eps: int, twists: list) -> list[list[complex]]:
    """The six rows whose combinations give every row of psi_n: rows 0 .. 3
    of psi_{eps+2} and rows 0, 1 of psi_eps times D_c t_c, row i of each
    twisted by t_c^i; the seeds of an even n are padded with zero rows."""
    pad = [[0j] * 4] * (1 - eps)
    top = [[_unit_pow(t, i) * z for (t, _), z in zip(twists, row)]
           for i, row in enumerate(states[eps + 2])]
    low = [[d * _unit_pow(t, i + 1) * z for (t, d), z in zip(twists, row)]
           for i, row in enumerate(states[eps])]
    return [*top, *pad, *low, *pad]


def _path_sum(l: int, m: int, rows) -> PathSum:
    """Xi(l, m) from its two rows of two quaternions; row m of the walks
    from (1, 0) and (0, 1) holds its columns, read by `_pair`."""
    return PathSum(l, m, [[q.to_list() for q in row] for row in rows])


def xi_closed(coin: Coin, l: int, m: int) -> PathSum:
    """Closed form of the path sum Xi(l, m) for a case3, case4, complex or
    trace-free (case5) coin.

    Xi(l, m) is row m of the walks from (1, 0) and (0, 1) after l + m
    steps: columns 0 and 2 of its 4x4 complex image, edges l = 0 and
    m = 0 included.  Raises DomainError for a coin outside these families.
    """
    family = _require_kernel_family(coin, "path sum")
    _check_lm(l, m)
    half, eps = divmod(l + m, 2)
    u0 = _u_rows(coin, 0.0)
    one, zero = Quaternion.one(), Quaternion.zero()
    seeds = [_walk_steps(u0, alpha, beta, eps + 2)
             for alpha, beta in ((one, zero), (zero, one))]
    if half == 0:  # l + m <= 1: the identity, P or Q, a row of the seed walk
        return _path_sum(l, m, zip(*(_pair(states[eps][m]) for states in seeds)))
    s, u, twists = _kernel_inputs(coin, u0, family)
    # row m weighs seed row i by e^(half-1)_k at k = r + 1 - i and by
    # e^(half-2)_k at k = r - i, r = m - half
    r = m - half
    coeffs = (*_s_sums(s, u, half - 1, r - 2, r + 1)[::-1],
              *_s_sums(s, u, half - 2, r - 1, r)[::-1])
    phases = [_unit_pow(-d, half - 1) * _unit_pow(t, half - 1 - m) for t, d in twists]
    cols = []
    for states in seeds:
        rows = _seed_rows(states, eps, twists)
        cols.append([p * sum(map(mul, coeffs, comp))
                     for p, comp in zip(phases, zip(*rows))])
    return _path_sum(l, m, zip(*map(_pair, cols)))


# ---------------------------------------------------------------------
# closed-form probabilities
# ---------------------------------------------------------------------

def boundary_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                  n: int, side: int) -> float:
    """P(X_n = +n) for side > 0, P(X_n = -n) for side < 0; any coin."""
    check_spinor(alpha, beta)
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return 1.0
    asq = coin.a.norm_sq()
    bsq = coin.b.norm_sq()
    asq_n = alpha.norm_sq()
    bsq_n = beta.norm_sq()
    cross = _cross(coin, alpha, beta)
    pref = asq ** (n - 1)
    if side > 0:
        return pref * (bsq * asq_n + asq * bsq_n - 2.0 * cross)
    return pref * (asq * asq_n + bsq * bsq_n + 2.0 * cross)


def _r_factor(vecs: list[list[complex]]) -> list[list[float]]:
    """The 6 x 6 upper-triangular R of a QR factorization of the real 8 x 6
    matrix M whose column k holds the real and imaginary parts of vecs[k],
    so |R c| = |M c| = |sum_k c_k vecs[k]| for real c.

    Householder reflections keep Q orthogonal to rounding however close to
    dependent the columns are; a zero column leaves a zero column of R.
    """
    cols = [[p for z in v for p in (z.real, z.imag)] for v in vecs]
    for i in range(6):
        x = cols[i][i:]
        norm = math.hypot(*x)
        if norm == 0.0:
            continue
        x[0] += math.copysign(norm, x[0])  # the reflection's vector v; v.v / 2 = norm |v_0|
        scale = norm * abs(x[0])
        for col in cols[i:]:
            f = sum(map(mul, x, col[i:])) / scale
            col[i:] = [y - f * p for p, y in zip(x, col[i:])]
    return [[col[i] for col in cols] for i in range(6)]


def _kernel_probs(coin: Coin, alpha: Quaternion, beta: Quaternion,
                  n: int, family: str) -> list[float]:
    """P(X_n = x) over the parity support for a case3, case4, complex or
    case5 coin.

    With n = 2m + eps, row r of psi_n (counted in right moves) is, up to a
    unit phase per component,
    sum_i e^(m-1)_{r-i-(m-1)} v_i + sum_i e^(m-2)_{r-i-m} v_{4+i},
    v the six rows of `_seed_rows` and e^(j) the coefficients of
    `_chebyshev_coeffs`.  The e are real, so each probability is the
    quadratic form c^T G c in six of them, G the real Gram matrix of the v.
    Its terms cancel: at |a|^2 = 1e-4 the coefficients reach 60 where a
    probability is 0.02, and c^T G c summed term by term missed the walk by
    1.6e-12 at n = 2001.  So it is read as |R c|^2 with G = R^T R from
    `_r_factor`: squares of sums that cancel no more than the amplitudes
    do (4e-14 there), at the same cost, written out term by term.
    """
    m, eps = divmod(n, 2)
    u0 = _u_rows(coin, 0.0)
    states = _walk_steps(u0, alpha, beta, eps + 2)
    if m == 0:
        return [sum(z.real * z.real + z.imag * z.imag for z in row) for row in states[n]]
    s, u, twists = _kernel_inputs(coin, u0, family)
    ((r00, r01, r02, r03, r04, r05), (_, r11, r12, r13, r14, r15),
     (_, _, r22, r23, r24, r25), (_, _, _, r33, r34, r35),
     (_, _, _, _, r44, r45), (_, _, _, _, _, r55)) = _r_factor(_seed_rows(states, eps, twists))
    cols = []
    for j, offsets in ((m - 1, (3, 2, 1, 0)), (m - 2, (1, 0))):
        # e_{-j} .. e_j, from the descent e_j .. e_0 (8 bytes each in an
        # array), with three zeros before and zeros after: windows of n + 1
        # entries from these offsets give the coefficients of rows 0 .. n
        e = array("d", _chebyshev_coeffs(s, u, j))
        cols += [islice(chain(repeat(0.0, 3), islice(e, max(j, 0)), reversed(e), repeat(0.0)),
                        lo, lo + n + 1)
                 for lo in offsets]
    return [(r00 * c0 + r01 * c1 + r02 * c2 + r03 * c3 + r04 * c4 + r05 * c5) ** 2
            + (r11 * c1 + r12 * c2 + r13 * c3 + r14 * c4 + r15 * c5) ** 2
            + (r22 * c2 + r23 * c3 + r24 * c4 + r25 * c5) ** 2
            + (r33 * c3 + r34 * c4 + r35 * c5) ** 2
            + (r44 * c4 + r45 * c5) ** 2 + (r55 * c5) ** 2
            for c0, c1, c2, c3, c4, c5 in zip(*cols)]


def _probs(coin: Coin, alpha: Quaternion, beta: Quaternion, n: int) -> list[float]:
    """Validate the inputs of a closed-form probability; P(X_n = x) over
    the parity support."""
    check_spinor(alpha, beta)
    if n < 0:
        raise DomainError("n must be non-negative")
    family = _require_closed_family(coin, "distribution")
    if n == 0:
        return [1.0]
    if family == "case1":
        law = {-n: alpha.norm_sq(), n: beta.norm_sq()}
    elif family == "case2":
        law = {1: alpha.norm_sq(), -1: beta.norm_sq()} if n % 2 else {0: 1.0}
    else:
        return _kernel_probs(coin, alpha, beta, n, family)
    return [law.get(x, 0.0) for x in range(-n, n + 1, 2)]


def closed_form_prob(coin: Coin, alpha: Quaternion, beta: Quaternion,
                     n: int, x: int) -> float:
    """Exact P(X_n = x) without running the walk, read off the closed-form
    distribution.

    Valid for diagonal and antidiagonal coins, for complex coins, for
    the two quaternionic families whose distribution coincides with the
    complex walk (real diagonal; split simplex/perplex structure), and for
    trace-free coins.
    """
    return closed_form_distribution(coin, alpha, beta, n).prob(x)


def closed_form_distribution(coin: Coin, alpha: Quaternion, beta: Quaternion,
                             n: int) -> Distribution:
    """Closed-form P(X_n = x) over the whole parity support.

    Raises NormDriftError when its total misses 1 by more than NORM_TOL,
    as `walk._propagate` does for a walk."""
    dist = Distribution(n, _probs(coin, alpha, beta, n))
    check_norm((dist.total(),), n)
    return dist
