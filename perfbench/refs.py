"""Reference values the benchmark computes itself to check CLI outputs.

Each reference takes a different route from the library: the walk is
stepped on complex pairs (z, w) with q = z + w j, path sums come from the
recursion Xi(l, m) = P Xi(l-1, m) + Q Xi(l, m-1), eigenvalues from
``numpy.linalg.eigvals`` of U(theta), and the limit law from the closed
formulas of the trace-free case.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import norm_sq, pair, qmul


def _lmul(q, z, w):
    """q * (z + w j) for a constant quaternion q and arrays z, w."""
    qz, qw = pair(q)
    return qz * z - qw * np.conj(w), qz * w + qw * np.conj(z)


def walk_probs(entries, alpha, beta, n: int) -> np.ndarray:
    """P(X_n = x) for x = -n, -n+2, ..., n.

    L'(x) = a L(x+1) + b R(x+1) and R'(x) = c L(x-1) + d R(x-1), with the
    coin entries multiplying from the left.
    """
    a, b, c, d = entries
    lz, lw = (np.array([v]) for v in pair(alpha))
    rz, rw = (np.array([v]) for v in pair(beta))
    for _ in range(n):
        az, aw = _lmul(a, lz, lw)
        bz, bw = _lmul(b, rz, rw)
        cz, cw = _lmul(c, lz, lw)
        dz, dw = _lmul(d, rz, rw)
        zero = np.zeros(1, dtype=complex)
        lz = np.concatenate((az + bz, zero))
        lw = np.concatenate((aw + bw, zero))
        rz = np.concatenate((zero, cz + dz))
        rw = np.concatenate((zero, cw + dw))
    return (np.abs(lz) ** 2 + np.abs(lw) ** 2 + np.abs(rz) ** 2 + np.abs(rw) ** 2)


def xi_matrix(entries, l: int, m: int) -> np.ndarray:
    """Path sum Xi(l, m) as a (2, 2, 4) component array.

    P = [[a, b], [0, 0]] and Q = [[0, 0], [c, d]], so row 0 of Xi(l, m) is
    a Xi(l-1, m)[0] + b Xi(l-1, m)[1] and row 1 is c Xi(l, m-1)[0] +
    d Xi(l, m-1)[1].  Runs along anti-diagonals k = l + m, vectorized
    over l.
    """
    a, b, c, d = entries
    ls = np.arange(l + 1)
    z = np.zeros((l + 1, 2, 2), dtype=complex)  # index [l, row, col]
    w = np.zeros_like(z)
    z[0] = np.eye(2)
    for k in range(1, l + m + 1):
        nz, nw = np.zeros_like(z), np.zeros_like(w)
        az, aw = _lmul(a, z[:-1, 0], w[:-1, 0])
        bz, bw = _lmul(b, z[:-1, 1], w[:-1, 1])
        nz[1:, 0], nw[1:, 0] = az + bz, aw + bw
        cz, cw = _lmul(c, z[:, 0], w[:, 0])
        dz, dw = _lmul(d, z[:, 1], w[:, 1])
        nz[:, 1], nw[:, 1] = cz + dz, cw + dw
        outside = (k - ls < 0) | (k - ls > m)
        nz[outside] = 0.0
        nw[outside] = 0.0
        z, w = nz, nw
    return np.stack([z[l].real, z[l].imag, w[l].real, w[l].imag], axis=-1)


def _chi(q) -> np.ndarray:
    z, w = pair(q)
    return np.array([[z, -w], [w.conjugate(), z.conjugate()]])


def u_theta(entries, theta: float) -> np.ndarray:
    """diag(e^{it}, e^{it}, e^{-it}, e^{-it}) times the complex image of the coin."""
    a, b, c, d = entries
    coin = np.block([[_chi(a), _chi(b)], [_chi(c), _chi(d)]])
    phase = np.exp(1j * theta * np.array([1.0, 1.0, -1.0, -1.0]))
    return phase[:, None] * coin


def eigenvalues(entries, theta: float) -> np.ndarray:
    """Eigenvalues of U(theta), sorted by angle in [-pi, pi)."""
    vals = np.linalg.eigvals(u_theta(entries, theta))
    ang = np.angle(vals)
    ang[ang >= math.pi] -= 2.0 * math.pi
    return vals[np.argsort(ang)]


def limit_law(entries, alpha, beta) -> dict:
    """Parameters of the trace-free limit law.

    G = 1 + |a|^4 - Re(bc)^2, r^2 and R^2 = (G -+ sqrt(G^2 - 4|a|^4)) / 2,
    and the skew C = |alpha|^2 - |beta|^2 - 2 Re(a alpha conj(b beta)) / |a|^2,
    where Re(x conj(y)) is the dot product of the components.
    """
    a, b, c, _ = entries
    u = norm_sq(a)
    s = qmul(b, c)[0]
    g = 1.0 + u * u - s * s
    disc = math.sqrt(max(0.0, g * g - 4.0 * u * u))
    cross = sum(x * y for x, y in zip(qmul(a, alpha), qmul(b, beta)))
    return {
        "r": math.sqrt(max(0.0, (g - disc) / 2.0)),
        "R2": (g + disc) / 2.0,
        "G": g,
        "u": u,
        "disc": disc,
        "C": norm_sq(alpha) - norm_sq(beta) - 2.0 * cross / u,
    }


def limit_density(law: dict, ys: np.ndarray) -> np.ndarray:
    """(1 - C y) f(y), with the trace-free density

    f(y) = sqrt(2) sqrt((G-2) y^2 + G - 2|a|^4 + (1-y^2) sqrt(G^2-4|a|^4))
           / (2 pi (1-y^2) sqrt((R^2-y^2)(r^2-y^2)))

    on |y| < r and 0 outside.
    """
    g, u, r = law["G"], law["u"], law["r"]
    out = np.zeros_like(ys)
    inside = np.abs(ys) < r
    y2 = ys[inside] ** 2
    num = np.maximum((g - 2.0) * y2 + (g - 2.0 * u * u) + (1.0 - y2) * law["disc"], 0.0)
    f = math.sqrt(2.0) * np.sqrt(num) / (
        2.0 * math.pi * (1.0 - y2) * np.sqrt((law["R2"] - y2) * (r * r - y2)))
    out[inside] = f * (1.0 - law["C"] * ys[inside])
    return out
