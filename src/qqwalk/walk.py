"""Time evolution of the walk from an origin-localized spinor.

Amplitudes live on the parity sublattice: after n steps the walker is
supported on x in {-n, -n+2, ..., n}.  `WalkState` is the one amplitude
state.  It stores, for each of the n+1 sites, the 4-component complex
amplitude phi of the quaternion pair (left, right) in the layout that
`quaternion._phi` writes and `_pair` reads; its `psi` property is the
same state as an (n+1, 2, 4) float array indexed by site, chirality
(0 = left, 1 = right) and quaternion component.

`evolve` computes the state in momentum space.  One step multiplies the
generating function sum_i phi_i z^i by the symbol cp + z cq, where the
move images cp and cq are rows 0-1 and 2-3 of `coin.u_theta` at theta = 0,
so after n steps it is the degree-n polynomial (cp + z cq)^n phi_0.
Its n+1 coefficients are the amplitudes on the n+1 sites of the support,
and a polynomial of degree n is fixed by its values at the n+1 roots of
unity: the length-(n+1) inverse DFT recovers them exactly, without
aliasing.  The matrix power, by `quaternion._power` on `np.matmul`,
costs about log2(n) batched 4x4 products, so an evolution is
O(n log n) instead of the O(n^2) of stepping.  It is the
only evolution route in the package, and the tests' reference for the
closed forms of `exact`.  The CLI's `simulate` runs it only on the general
coins that `coin.closed_family` leaves out; on the others it writes
`exact.closed_form_distribution`, the same law in O(n) without numpy.  The
site-by-site steppers `evolve` is tested against are oracles in
`tests/helpers.py`: `step` in quaternion arithmetic, its twin on the
complex images of the move operators, and `step_walk`, which also records
the norm after every step.

Total probability is asserted, never renormalized: `_propagate` raises
NormDriftError from `coin.check_norm`, the one normalization check of a
result, when a walk it returns misses 1 by more than `coin.NORM_TOL`, for
`evolve` and the interior path sums of `exact.xi_bruteforce` alike,
whose one-word edges take no propagator; `exact` applies it to every
closed-form distribution.  `coin.check_spinor` holds the start state to
the same tolerance.  Both checks fail on NaN.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import _numpy as np
from .coin import Coin, check_norm, check_spinor, u_theta
from .quaternion import Quaternion, _pair, _phi, _power, _psi_of

__all__ = [
    "WalkState",
    "Distribution",
    "init_state",
    "evolve",
    "distribution",
    "moment",
]


class _Sublattice:
    """Data on the parity support {-n, -n+2, ..., n}, one row per site: the
    base of two records with fields n and one per-site field of their own."""

    __slots__ = ("n",)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in ("n",) + self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def positions(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1, 2)

    def _row(self, x: int) -> int | None:
        """Row of position x, or None off the support."""
        if (x + self.n) % 2 or abs(x) > self.n:
            return None
        return (x + self.n) // 2


class WalkState(_Sublattice):
    """Amplitudes after n steps, as 4-component complex vectors."""

    __slots__ = ("phi",)

    def __init__(self, n: int, phi: np.ndarray):
        self.n = n
        self.phi = phi  # (n+1, 4) complex128

    @property
    def psi(self) -> np.ndarray:
        """The quaternion amplitude pairs, (n+1, 2, 4)."""
        return _psi_of(self.phi)

    def amplitude(self, x: int) -> tuple[Quaternion, Quaternion]:
        """(left, right) amplitude pair at position x (zero off support)."""
        i = self._row(x)
        if i is None:
            return Quaternion.zero(), Quaternion.zero()
        return _pair(self.phi[i].tolist())

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.phi) ** 2))


class Distribution(_Sublattice):
    """Position probabilities on the parity sublattice after n steps."""

    __slots__ = ("probs",)

    def __init__(self, n: int, probs: Sequence[float]):
        self.n = n
        self.probs = probs  # n+1 entries: an array from a walk, a list from a closed form

    def prob(self, x: int) -> float:
        i = self._row(x)
        return 0.0 if i is None else float(self.probs[i])

    def total(self) -> float:
        """fsum of the probabilities not below 2^-200: the mass left out is
        below (n + 1) 2^-200.  fsum slows with the exponent range it meets,
        and on hadamard at n = 10^6, where 289,320 probabilities lie below
        1e-300, the filter takes the sum from 0.58 to 0.12 s (Python 3.11).
        A NaN entry passes the filter, so the total is NaN.  No numpy."""
        return math.fsum(p for p in self.probs if not p < 2**-200)


def init_state(alpha: Quaternion, beta: Quaternion) -> WalkState:
    """State at n = 0: the spinor (alpha, beta) at the origin."""
    check_spinor(alpha, beta)
    return WalkState(0, np.array([_phi(alpha, beta)]))


def _propagate(coin: Coin, cols: np.ndarray, n: int) -> np.ndarray:
    """Coefficients (n + 1, 4, k) of (cp + z cq)^n cols, cp and cq rows 0-1
    and 2-3 of U(0): the walk from each column of the (4, k) block cols
    (an array or nested lists), indexed by the number of right moves.
    Raises NormDriftError when a column's total probability misses 1 by
    more than NORM_TOL."""
    cp = u_theta(coin, 0.0)
    cq = cp.copy()
    cp[2:] = cq[:2] = 0.0
    z = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    # no name here holds the symbols: the squarings keep two of them alive
    vec = _power(cp + z[:, None, None] * cq, n, np.matmul,
                 np.repeat([cols], n + 1, axis=0))
    phi = np.fft.ifft(vec, axis=0)
    # The DFT leaves round-off on sites the walk cannot reach.  A unitary
    # coin has zero entries only when b = c = 0 (a^n alpha at -n, d^n beta
    # at +n) or a = d = 0 (the walker stays at 0 or +-1); there stepping
    # gives exact zeros, so zero the unreachable (site, chirality) pairs.
    # Columns 0-1 of the move images carry a and c, columns 2-3 b and d.
    reach = np.zeros((n + 1, 2), dtype=bool)
    if not (cp[:, 2:].any() or cq[:, :2].any()):
        reach[0, 0] = reach[n, 1] = True
    elif not (cp[:, :2].any() or cq[:, 2:].any()):
        reach[n // 2, 0] = reach[(n + 1) // 2, 1] = True
    if reach.any():
        phi[~np.repeat(reach, 2, axis=1)] = 0.0
    check_norm(np.sum(np.abs(phi) ** 2, axis=(0, 1)), n)
    return phi


def evolve(coin: Coin, alpha: Quaternion, beta: Quaternion,
           steps: int) -> WalkState:
    """Run `steps` updates from the origin state (alpha, beta) by the
    momentum-space propagator.

    Raises NormDriftError when the total probability of the returned state
    misses 1 by more than NORM_TOL.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    phi = init_state(alpha, beta).phi
    return WalkState(steps, _propagate(coin, phi.T, steps)[:, :, 0])


def distribution(state: WalkState) -> Distribution:
    """Pointwise squared amplitude norms."""
    psi = state.psi
    return Distribution(state.n, np.sum(psi * psi, axis=(1, 2)))


def moment(dist: Distribution, r: int) -> float:
    """Sum of x^r * P(x) over the support: one `math.fsum` of Python floats,
    no numpy.  Where some |x|^r exceeds the largest float (n = 1000,
    r = 103), x^r raises OverflowError; a numpy sum gave inf."""
    if r < 0:
        raise ValueError("moment order must be non-negative")
    return math.fsum(float(x) ** r * p
                     for x, p in zip(range(-dist.n, dist.n + 1, 2), dist.probs))
