"""Time evolution of the walk from an origin-localized spinor.

Amplitudes live on the parity sublattice: after n steps the walker is
supported on x in {-n, -n+2, ..., n}.  `WalkState` is the one amplitude
state.  It stores, for each of the n+1 sites, the 4-component complex
amplitude phi: the first column of the 2x2 complex image of the
quaternion pair (left, right).  Its `psi` property is the same state as an
(n+1, 2, 4) float array indexed by site, chirality (0 = left, 1 = right)
and quaternion component.

`evolve` computes the state in momentum space.  One step multiplies the
generating function sum_i phi_i z^i by the symbol chi_p + z chi_q, so
after n steps it is the degree-n polynomial (chi_p + z chi_q)^n phi_0.
Its n+1 coefficients are the amplitudes on the n+1 sites of the support,
and a polynomial of degree n is fixed by its values at the n+1 roots of
unity: the length-(n+1) inverse DFT recovers them exactly, without
aliasing.  The matrix power costs about log2(n) batched 4x4 products, so
an evolution is O(n log n) instead of the O(n^2) of stepping.  It is the
only evolution route in the package.  The site-by-site steppers it is
tested against are oracles in `tests/helpers.py`: `step` in quaternion
arithmetic, its twin on the complex images of the move operators, and
`step_walk`, which also records the norm after every step.

Total probability is asserted, never renormalized: an evolution whose
final state misses 1 by more than NORM_TOL raises NormDriftError, and
`exact.xi_bruteforce` holds each propagated column to the same check.
`check_spinor` is the one normalization check of an initial spinor; the
closed forms in `exact` and the CLI use it too.  Both checks fail on NaN.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import _numpy as np
from .coin import Coin, chi_p, chi_q
from .errors import NormDriftError, NotNormalizedError
from .quaternion import Quaternion, _phi_of, _psi_of

__all__ = [
    "WalkState",
    "Distribution",
    "check_spinor",
    "init_state",
    "evolve",
    "distribution",
    "moment",
]

NORM_TOL = 1e-10


@dataclass
class _Sublattice:
    """Data on the parity support {-n, -n+2, ..., n}, one row per site."""

    n: int

    def positions(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1, 2)

    def _row(self, x: int) -> int | None:
        """Row of position x, or None off the support."""
        if (x + self.n) % 2 or abs(x) > self.n:
            return None
        return (x + self.n) // 2


@dataclass
class WalkState(_Sublattice):
    """Amplitudes after n steps, as 4-component complex vectors."""

    phi: np.ndarray  # (n+1, 4) complex128

    @property
    def psi(self) -> np.ndarray:
        """The quaternion amplitude pairs, (n+1, 2, 4)."""
        return _psi_of(self.phi)

    def amplitude(self, x: int) -> tuple[Quaternion, Quaternion]:
        """(left, right) amplitude pair at position x (zero off support)."""
        i = self._row(x)
        if i is None:
            return Quaternion.zero(), Quaternion.zero()
        left, right = _psi_of(self.phi[i])
        return Quaternion.from_array(left), Quaternion.from_array(right)

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.phi) ** 2))


@dataclass
class Distribution(_Sublattice):
    """Position probabilities on the parity sublattice after n steps."""

    probs: Sequence[float]  # n+1 entries: an array from a walk, a list from a closed form

    def prob(self, x: int) -> float:
        i = self._row(x)
        return 0.0 if i is None else float(self.probs[i])

    def total(self) -> float:
        return float(np.sum(self.probs))


def check_spinor(alpha: Quaternion, beta: Quaternion) -> None:
    """Raise NotNormalizedError unless |alpha|^2 + |beta|^2 = 1 within
    NORM_TOL.  The comparison is written so that a NaN or Inf component
    fails it.
    """
    defect = abs(alpha.norm_sq() + beta.norm_sq() - 1.0)
    if not defect <= NORM_TOL:
        raise NotNormalizedError(
            f"|alpha|^2 + |beta|^2 = 1 violated by {defect:.3e}")


def init_state(alpha: Quaternion, beta: Quaternion) -> WalkState:
    """State at n = 0: the spinor (alpha, beta) at the origin."""
    check_spinor(alpha, beta)
    return WalkState(0, _phi_of(np.array([[alpha.to_array(), beta.to_array()]])))


def _propagate(cp: np.ndarray, cq: np.ndarray, cols: np.ndarray,
               n: int) -> np.ndarray:
    """Coefficients (n + 1, 4, k) of (cp + z cq)^n cols: the walk from each
    column of the (4, k) block cols, indexed by the number of right moves."""
    z = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    power = cp + z[:, None, None] * cq  # symbol at each root
    vec = np.repeat(cols[None], n + 1, axis=0)
    e = n
    while e:
        if e & 1:
            vec = power @ vec
        e >>= 1
        if e:
            power = power @ power
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
    else:
        return phi
    phi[~np.repeat(reach, 2, axis=1)] = 0.0
    return phi


def _check_norm(totals, steps: int) -> None:
    """Raise NormDriftError when a total probability (or any of an array of
    them) misses 1 by more than NORM_TOL; NaN fails too."""
    drift = float(np.max(np.abs(np.asarray(totals) - 1.0)))
    if not drift <= NORM_TOL:
        raise NormDriftError(drift, steps)


def evolve(coin: Coin, alpha: Quaternion, beta: Quaternion,
           steps: int) -> WalkState:
    """Run `steps` updates from the origin state (alpha, beta) by the
    momentum-space propagator.

    Raises NormDriftError when the total probability of the returned state
    misses 1 by more than NORM_TOL.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    state = init_state(alpha, beta)
    state = WalkState(steps, _propagate(chi_p(coin), chi_q(coin),
                                        state.phi.T, steps)[:, :, 0])
    _check_norm(state.total_probability(), steps)
    return state


def distribution(state: WalkState) -> Distribution:
    """Pointwise squared amplitude norms."""
    psi = state.psi
    probs = np.sum(psi * psi, axis=(1, 2))
    return Distribution(state.n, np.maximum(probs, 0.0))


def moment(dist: Distribution, r: int) -> float:
    """Sum of x^r * P(x) over the support."""
    if r < 0:
        raise ValueError("moment order must be non-negative")
    x = dist.positions().astype(float)
    return float(np.sum(x ** r * dist.probs))
