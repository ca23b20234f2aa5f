"""Quaternionic 2x2 coin operators.

Validation of the unitarity relations, the split into left/right move
operators, structural classification of the coin, the 4x4 complex momentum
symbol of the walk, and random generators for each structural class.

Classification tags:

* ``case1`` -- diagonal coin, b = c = 0
* ``case2`` -- antidiagonal coin, a = d = 0
* ``case4`` -- a, d carry only 1 and i components, b, c only j and k
* ``case3`` -- a and d are real
* ``case5`` -- the real parts of a and d vanish
* ``general`` -- anything else

Tags are checked in the order listed; the first match wins, so coins in the
overlap of several patterns get the more structured tag.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from . import _numpy as np
from .errors import DomainError, NotUnitaryError
from .quaternion import (
    Quaternion,
    _Frozen,
    chi_matrix,
    qmat_from_quaternions,
    random_unit_quaternion,
)

__all__ = [
    "Coin",
    "MoveOperators",
    "validate_coin",
    "unitarity_residuals",
    "split_pq",
    "classify",
    "u_theta",
    "chi_p",
    "chi_q",
    "hadamard_coin",
    "coin_to_json",
    "coin_from_json",
    "load_coin",
    "random_coin",
    "COIN_CLASSES",
]

COIN_CLASSES = ("case1", "case2", "case3", "case4", "case5", "general")

UNITARITY_TOL = 1e-10  # largest residual `validate_coin` accepts
ZERO_TOL = 1e-12  # components (and entries) this small count as zero


class Coin(_Frozen):
    """A validated unitary coin [[a, b], [c, d]] over the quaternions."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def matrix(self) -> np.ndarray:
        """(2, 2, 4) component array."""
        return qmat_from_quaternions([[self.a, self.b], [self.c, self.d]])

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return self.a, self.b, self.c, self.d

    def is_complex(self) -> bool:
        """True when every entry has vanishing j and k components."""
        return all(abs(q.x2) <= ZERO_TOL and abs(q.x3) <= ZERO_TOL
                   for q in self.entries())


class MoveOperators(NamedTuple):
    """Left-move and right-move halves of a coin, as (2, 2, 4) arrays."""

    p: np.ndarray
    q: np.ndarray


def unitarity_residuals(a: Quaternion, b: Quaternion, c: Quaternion,
                        d: Quaternion) -> dict[str, float]:
    """Residuals of the five unitarity relations of a 2x2 coin."""
    return {
        "row1-norm": abs(a.norm_sq() + b.norm_sq() - 1.0),
        "row2-norm": abs(c.norm_sq() + d.norm_sq() - 1.0),
        "row-orthogonality": (a * c.conj() + b * d.conj()).norm(),
        "column-orthogonality": (a.conj() * b + c.conj() * d).norm(),
        "modulus-pairing": max(abs(a.norm_sq() - d.norm_sq()),
                               abs(b.norm_sq() - c.norm_sq())),
    }


def validate_coin(a: Quaternion, b: Quaternion, c: Quaternion, d: Quaternion) -> Coin:
    """Check the unitarity relations and return the coin.

    Raises NotUnitaryError naming the first violated relation; a NaN or
    Inf entry violates every relation it enters.
    """
    residuals = unitarity_residuals(a, b, c, d)
    for relation, res in residuals.items():
        if not res <= UNITARITY_TOL:
            raise NotUnitaryError(relation, res)
    return Coin(a, b, c, d)


def split_pq(coin: Coin) -> MoveOperators:
    """P keeps the top row of the coin, Q keeps the bottom row."""
    zero = Quaternion.zero()
    p = qmat_from_quaternions([[coin.a, coin.b], [zero, zero]])
    q = qmat_from_quaternions([[zero, zero], [coin.c, coin.d]])
    return MoveOperators(p, q)


def _require_nonzero_entries(coin: Coin, what: str) -> None:
    if any(q.is_zero() for q in coin.entries()):
        raise DomainError(f"{what} requires a, b, c, d all nonzero")


def classify(coin: Coin) -> str:
    """Structural class of the coin; first matching tag wins."""
    a, b, c, d = coin.entries()

    def zero(q: Quaternion) -> bool:
        return q.norm() <= ZERO_TOL

    def simplex_only(q: Quaternion) -> bool:
        return abs(q.x2) <= ZERO_TOL and abs(q.x3) <= ZERO_TOL

    def perplex_only(q: Quaternion) -> bool:
        return abs(q.x0) <= ZERO_TOL and abs(q.x1) <= ZERO_TOL

    def real_only(q: Quaternion) -> bool:
        return q.imag_part().norm() <= ZERO_TOL

    if zero(b) and zero(c):
        return "case1"
    if zero(a) and zero(d):
        return "case2"
    if (simplex_only(a) and simplex_only(d)
            and perplex_only(b) and perplex_only(c)):
        return "case4"
    if real_only(a) and real_only(d):
        return "case3"
    if abs(a.x0) <= ZERO_TOL and abs(d.x0) <= ZERO_TOL:
        return "case5"
    return "general"


def chi_p(coin: Coin) -> np.ndarray:
    """4x4 complex image of the left-move operator."""
    return chi_matrix(split_pq(coin).p)


def chi_q(coin: Coin) -> np.ndarray:
    """4x4 complex image of the right-move operator."""
    return chi_matrix(split_pq(coin).q)


def _u_rows(coin: Coin, theta: float) -> list[list[complex]]:
    """U(theta) as four rows of Python complexes: the complex image of each
    coin row, times e^{it} for the top row and e^{-it} for the bottom one."""
    phase = complex(math.cos(theta), math.sin(theta))
    rows = []
    for e, x, y in ((phase, coin.a, coin.b), (phase.conjugate(), coin.c, coin.d)):
        rows += [[e * z for z in (x.simplex, -x.perplex, y.simplex, -y.perplex)],
                 [e * z.conjugate() for z in (x.perplex, x.simplex, y.perplex, y.simplex)]]
    return rows


def u_theta(coin: Coin, theta: float) -> np.ndarray:
    """Momentum symbol: diag(e^{i t}, e^{i t}, e^{-i t}, e^{-i t}) @ chi(coin)."""
    return np.array(_u_rows(coin, theta))


# ---------------------------------------------------------------------
# JSON encoding: {"a": [4 floats], "b": [...], "c": [...], "d": [...]}
# ---------------------------------------------------------------------

def coin_to_json(coin: Coin) -> str:
    payload = {k: getattr(coin, k).to_list() for k in ("a", "b", "c", "d")}
    return json.dumps(payload)


def coin_from_json(text: str) -> Coin:
    """Parse and validate a coin.

    Raises ValueError (json.JSONDecodeError for malformed JSON) when the
    text does not hold four entries of four numbers each, and
    NotUnitaryError when the entries fail `validate_coin`.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("coin JSON must be an object with entries a, b, c, d")
    entries = []
    for key in ("a", "b", "c", "d"):
        if key not in payload:
            raise ValueError(f"coin JSON is missing entry {key!r}")
        try:
            entries.append(Quaternion.from_json(payload[key]))
        except ValueError as exc:
            raise ValueError(f"coin entry {key!r}: {exc}") from None
    return validate_coin(*entries)


def load_coin(path) -> Coin:
    """Read a coin file once and parse it with `coin_from_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return coin_from_json(fh.read())


def hadamard_coin() -> Coin:
    """The real Hadamard coin, embedded with zero imaginary components."""
    s = math.sqrt(0.5)
    return Coin(Quaternion(s), Quaternion(s), Quaternion(s), Quaternion(-s))


# ---------------------------------------------------------------------
# random coins
#
# Any unitary coin factors as
#   [[cos(phi) p r, sin(phi) p s], [-sin(phi) q r, cos(phi) q s]]
# with p, q, r, s unit quaternions.  Equivalently: given a with |a| =
# cos(phi) and b with |b| = sin(phi), every completion is c = -sin(phi) g,
# d = cos(phi) g conj(a^) b^ for a free unit quaternion g, where a^, b^ are
# the unit directions of a and b.  The per-class generators below pick a, b
# and g with the required component patterns.
# ---------------------------------------------------------------------

def _random_phi(rng: np.random.Generator) -> float:
    # keep both cos and sin comfortably away from 0 so abcd != 0
    return float(rng.uniform(0.15 * math.pi, 0.35 * math.pi))


def _random_unit_perplex(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=2)
    v /= np.linalg.norm(v)
    return Quaternion(0.0, 0.0, float(v[0]), float(v[1]))


def _random_unit_imaginary(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Quaternion(0.0, float(v[0]), float(v[1]), float(v[2]))


def _complete(a_hat: Quaternion, b_hat: Quaternion, g: Quaternion,
              phi: float) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    a = cos_phi * a_hat
    b = sin_phi * b_hat
    c = -sin_phi * g
    d = cos_phi * (g * a_hat.conj() * b_hat)
    return a, b, c, d


def random_coin(rng: np.random.Generator, kind: str = "general") -> Coin:
    """Draw a random valid coin of the requested structural class."""
    if kind not in COIN_CLASSES and kind != "complex":
        raise ValueError(f"unknown coin kind {kind!r}")

    for _ in range(256):
        phi = _random_phi(rng)
        if kind == "case1":
            a = random_unit_quaternion(rng)
            d = random_unit_quaternion(rng)
            entries = (a, Quaternion.zero(), Quaternion.zero(), d)
        elif kind == "case2":
            b = random_unit_quaternion(rng)
            c = random_unit_quaternion(rng)
            entries = (Quaternion.zero(), b, c, Quaternion.zero())
        elif kind == "case3":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            a = Quaternion(math.cos(phi))
            b = math.sin(phi) * random_unit_quaternion(rng)
            entries = (a, b, -sign * b.conj(), sign * a)
        elif kind == "case4":
            psi = rng.uniform(0.0, 2.0 * math.pi)
            a_hat = Quaternion(math.cos(psi), math.sin(psi), 0.0, 0.0)
            b_hat = _random_unit_perplex(rng)
            g = _random_unit_perplex(rng)
            entries = _complete(a_hat, b_hat, g, phi)
        elif kind == "case5":
            a_hat = _random_unit_imaginary(rng)
            b_hat = random_unit_quaternion(rng)
            # g must be Euclidean-orthogonal to conj(w), w = conj(a^) b^,
            # so that d = g*w has vanishing real part.
            w = a_hat.conj() * b_hat
            normal = w.conj().to_array()
            g_vec = rng.normal(size=4)
            g_vec -= normal * float(np.dot(g_vec, normal))
            n = np.linalg.norm(g_vec)
            if n < 1e-6:
                continue
            g = Quaternion.from_array(g_vec / n)
            entries = _complete(a_hat, b_hat, g, phi)
        elif kind == "complex":
            angles = rng.uniform(0.0, 2.0 * math.pi, size=3)
            a = complex(math.cos(phi)) * complex(np.exp(1j * angles[0]))
            b = complex(math.sin(phi)) * complex(np.exp(1j * angles[1]))
            det = complex(np.exp(1j * angles[2]))
            c = -det * b.conjugate()
            d = det * a.conjugate()
            entries = tuple(Quaternion.from_complex(z) for z in (a, b, c, d))
        else:  # general
            a_hat = random_unit_quaternion(rng)
            b_hat = random_unit_quaternion(rng)
            g = random_unit_quaternion(rng)
            entries = _complete(a_hat, b_hat, g, phi)

        coin = validate_coin(*entries)
        wanted = "general" if kind == "complex" else kind
        if kind == "complex":
            if coin.is_complex():
                return coin
            continue
        if classify(coin) == wanted:
            return coin
    raise RuntimeError(f"failed to draw a {kind!r} coin after 256 attempts")
