"""Quaternion arithmetic over float64.

Hamilton product, conjugation, the simplex/perplex decomposition, the 2x2
complex embedding of a quaternion and its blockwise extension to small
quaternion matrices, a closed-form solver for the one-sided linear
equation a*x - x*b = c, and `_power`, the one binary powering of `walk`
and `exact`, over any product.

Scalars are immutable `Quaternion` values; the complex image `chi_arr` also
takes float64 arrays whose trailing axis holds the four components
(x0, x1, x2, x3) of x0 + x1*i + x2*j + x3*k.

Every layer stores a spinor (alpha, beta), x = x' + x'' j, as the first
column of its complex image, [alpha', conj(alpha''), beta', conj(beta'')].
`_phi` writes that layout and `_pair` reads it, for `walk`, `exact` and
`spectral` alike; `_psi_of` is `_pair` over an array, for `WalkState.psi`.
"""

from __future__ import annotations

import math

from . import _numpy as np

__all__ = [
    "Quaternion",
    "chi",
    "chi_arr",
    "chi_matrix",
    "chi_inv_matrix",
    "qmat_from_quaternions",
    "solve_sylvester",
    "sylvester_residual",
    "random_unit_quaternion",
]


class _Frozen:
    """An immutable record whose fields are the subclass's __slots__.

    Records are equal and hash alike when their classes and fields are
    equal, copy and pickle through their constructor, and print as
    Name(field=value, ...).  Assigning or deleting a field raises
    AttributeError; a constructor sets them with object.__setattr__.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Quaternion(_Frozen):
    """x0 + x1*i + x2*j + x3*k with real float64 components."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0: float = 0.0, x1: float = 0.0, x2: float = 0.0,
                 x3: float = 0.0):
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "x3", x3)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Quaternion":
        return Quaternion(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def i() -> "Quaternion":
        return Quaternion(0.0, 1.0, 0.0, 0.0)

    @staticmethod
    def j() -> "Quaternion":
        return Quaternion(0.0, 0.0, 1.0, 0.0)

    @staticmethod
    def k() -> "Quaternion":
        return Quaternion(0.0, 0.0, 0.0, 1.0)

    @staticmethod
    def from_complex(z: complex) -> "Quaternion":
        return Quaternion(z.real, z.imag, 0.0, 0.0)

    @staticmethod
    def from_array(arr) -> "Quaternion":
        a = np.asarray(arr, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {a.shape}")
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @staticmethod
    def from_json(value) -> "Quaternion":
        """The quaternion of a decoded JSON array of four numbers.

        Raises ValueError when value is not a list of four ints or floats
        (booleans are not numbers here) or holds an integer beyond the
        float range.
        """
        if (not isinstance(value, list) or len(value) != 4
                or not all(type(v) in (int, float) for v in value)):
            raise ValueError("expected a JSON array of four numbers")
        try:
            return Quaternion(*(float(v) for v in value))
        except OverflowError:
            raise ValueError("number outside the float range") from None

    # -- structure ----------------------------------------------------

    @property
    def simplex(self) -> complex:
        return complex(self.x0, self.x1)

    @property
    def perplex(self) -> complex:
        return complex(self.x2, self.x3)

    @property
    def re(self) -> float:
        return self.x0

    def imag_part(self) -> "Quaternion":
        return Quaternion(0.0, self.x1, self.x2, self.x3)

    def conj(self) -> "Quaternion":
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.x0 / n2, -self.x1 / n2, -self.x2 / n2, -self.x3 / n2)

    def is_zero(self, tol: float = 1e-12) -> bool:
        return self.norm() <= tol

    def to_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    def to_list(self) -> list[float]:
        return [self.x0, self.x1, self.x2, self.x3]

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            p0, p1, p2, p3 = self.x0, self.x1, self.x2, self.x3
            q0, q1, q2, q3 = other.x0, other.x1, other.x2, other.x3
            return Quaternion(
                p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
                p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
                p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
                p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.x0 * s, self.x1 * s, self.x2 * s, self.x3 * s)
        if isinstance(other, complex):
            return self * Quaternion.from_complex(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * float(other)
        if isinstance(other, complex):
            return Quaternion.from_complex(other) * self
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion(self.x0 / s, self.x1 / s, self.x2 / s, self.x3 / s)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def approx_eq(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        return f"Quaternion({self.x0!r}, {self.x1!r}, {self.x2!r}, {self.x3!r})"


def _power(x, k: int, mul, acc):
    """x^k acc by binary powering, k >= 0, for any associative product
    mul: one product mul(x, acc) per set bit of k, low bit first, and one
    squaring mul(x, x) between bits.  k = 0 returns acc unchanged."""
    while k:
        if k & 1:
            acc = mul(x, acc)
        k >>= 1
        if k:
            x = mul(x, x)
    return acc


def chi_arr(x: np.ndarray) -> np.ndarray:
    """Complex 2x2 image [[x', -x''], [conj(x''), conj(x')]], batched.

    Input (..., 4) float -> output (..., 2, 2) complex128.
    """
    x = np.asarray(x, dtype=float)
    sp = x[..., 0] + 1j * x[..., 1]
    pp = x[..., 2] + 1j * x[..., 3]
    out = np.empty(x.shape[:-1] + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = sp
    out[..., 0, 1] = -pp
    out[..., 1, 0] = np.conj(pp)
    out[..., 1, 1] = np.conj(sp)
    return out


def chi(x: Quaternion) -> np.ndarray:
    """Complex 2x2 image of a single quaternion."""
    return chi_arr(x.to_array())


def _phi(alpha: Quaternion, beta: Quaternion) -> list[complex]:
    """The four complexes [alpha', conj(alpha''), beta', conj(beta'')] of
    the spinor (alpha, beta): the first column of its complex image."""
    return [alpha.simplex, alpha.perplex.conjugate(),
            beta.simplex, beta.perplex.conjugate()]


def _pair(row) -> tuple[Quaternion, Quaternion]:
    """Inverse of `_phi`: four complexes -> the spinor (alpha, beta)."""
    s0, p0, s1, p1 = row
    return (Quaternion(s0.real, s0.imag, p0.real, -p0.imag),
            Quaternion(s1.real, s1.imag, p1.real, -p1.imag))


def _psi_of(phi: np.ndarray) -> np.ndarray:
    """`_pair` over an array: (..., 4) complex -> (..., 2, 4) floats."""
    psi = np.empty(phi.shape[:-1] + (2, 4))
    psi[..., 0] = phi[..., 0::2].real
    psi[..., 1] = phi[..., 0::2].imag
    psi[..., 2] = phi[..., 1::2].real
    psi[..., 3] = -phi[..., 1::2].imag
    return psi


# ---------------------------------------------------------------------
# small quaternion matrices, stored as (rows, cols, 4) float arrays
# ---------------------------------------------------------------------

def qmat_from_quaternions(rows) -> np.ndarray:
    """Build an (r, c, 4) array from nested sequences of Quaternion."""
    return np.array([[q.to_array() for q in row] for row in rows])


def chi_matrix(m: np.ndarray) -> np.ndarray:
    """Blockwise complex image of an (n, n, 4) quaternion matrix -> (2n, 2n)."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[None, None, :]
    n, n2, _ = m.shape
    if n != n2 or n > 4:
        raise ValueError("expected a square quaternion matrix of size <= 4")
    blocks = chi_arr(m)  # (n, n, 2, 2)
    return blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


IMAGE_TOL = 1e-8  # largest block defect `chi_inv_matrix` accepts


def chi_inv_matrix(m: np.ndarray) -> np.ndarray:
    """Read a (2n, 2n) complex matrix back as an (n, n, 4) quaternion matrix.

    Raises ValueError if the matrix does not have the 2x2-block structure of
    a quaternion image within IMAGE_TOL.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValueError("expected a square matrix of even size")
    n = m.shape[0] // 2
    out = np.empty((n, n, 4))
    for r in range(n):
        for c in range(n):
            blk = m[2 * r:2 * r + 2, 2 * c:2 * c + 2]
            sp = blk[0, 0]
            pp = -blk[0, 1]
            defect = max(abs(blk[1, 0] - np.conj(pp)), abs(blk[1, 1] - np.conj(sp)))
            if defect > IMAGE_TOL:
                raise ValueError(f"block ({r},{c}) is not a quaternion image "
                                 f"(defect {defect:.3e})")
            out[r, c] = [sp.real, sp.imag, pp.real, pp.imag]
    return out


# ---------------------------------------------------------------------
# the linear equation a*x - x*b = c
# ---------------------------------------------------------------------

def _real(v: float) -> Quaternion:
    return Quaternion(v, 0.0, 0.0, 0.0)


def solve_sylvester(a: Quaternion, b: Quaternion, c: Quaternion,
                    p: Quaternion = Quaternion()) -> Quaternion:
    """Closed-form solution of a*x - x*b = c over the quaternions.

    Three regimes, selected with tolerance 1e-12 * max(1, |a|, |b|):

    * ``Re(a) != Re(b)`` or ``|Im(a)| != |Im(b)|``: the unique solution
      x = (a^2 - 2*Re(b)*a + |b|^2)^(-1) (a*c - c*conj(b)).
    * otherwise, c = 0: x = p - Im(a)*p*Im(b) / (|Im(a)||Im(b)|); any p
      parametrizes the solution set.  When a and b are equal reals the
      equation is identically zero and x = p is returned.
    * otherwise: the particular solution
      (c*Im(b) - Im(a)*c) / (4 |Im(a)||Im(b)|) minus the same p-term as
      above.  The p-term does not stay inside the kernel here, so callers
      wanting a guaranteed residual should pass p = 0; check with
      `sylvester_residual` when in doubt.  The solution exists only when
      Im(a)*c + c*Im(b) = 0; for other c the returned x is a best-effort
      value and the residual will expose the failure.
    """
    tol = 1e-12 * max(1.0, a.norm(), b.norm())
    im_a = a.imag_part()
    im_b = b.imag_part()
    na, nb = im_a.norm(), im_b.norm()
    if abs(a.re - b.re) > tol or abs(na - nb) > tol:
        u = a * a - (2.0 * b.re) * a + _real(b.norm_sq())
        return u.inverse() * (a * c - c * b.conj())
    if c.is_zero(tol):
        if na <= tol or nb <= tol:
            # a and b are (nearly) the same real; every x solves a*x = x*b.
            return p
        return p - (im_a * p * im_b) / (na * nb)
    denom = na * nb
    if denom == 0.0:
        raise ZeroDivisionError("a*x - x*b = c has no solution for equal reals and c != 0")
    particular = (c * im_b - im_a * c) / (4.0 * denom)
    return particular - (im_a * p * im_b) / denom


def sylvester_residual(a: Quaternion, b: Quaternion, c: Quaternion,
                       x: Quaternion) -> float:
    """|a*x - x*b - c|."""
    return (a * x - x * b - c).norm()


# ---------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------

def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    while True:
        v = rng.normal(size=4)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return Quaternion.from_array(v / n)
