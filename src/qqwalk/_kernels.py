"""Numpy loops behind the reference steppers and the path enumeration.

`evolve_c4_numpy` steps the 4-component complex amplitudes site by site
and records the norm after every step; `walk.evolve(..., with_norms=True)`
runs on it, and the tests use it as the stepping reference for the
momentum-space propagator in `walk`.  `xi_brute_numpy` enumerates every
time-ordered product of l left and m right moves, the independent oracle
for the closed-form path sums in `exact`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def step_c4_numpy(cur: np.ndarray, chi_p: np.ndarray, chi_q: np.ndarray) -> np.ndarray:
    """One update of the 4-component complex amplitudes: (N, 4) -> (N + 1, 4)."""
    n = cur.shape[0]
    nxt = np.zeros((n + 1, 4), dtype=np.complex128)
    nxt[:n] = cur @ chi_p.T
    nxt[1:] += cur @ chi_q.T
    return nxt


def evolve_c4_numpy(phi0: np.ndarray, chi_p: np.ndarray, chi_q: np.ndarray,
                    steps: int) -> tuple[np.ndarray, np.ndarray]:
    norms = np.zeros(steps + 1)
    cur = phi0.copy()
    norms[0] = float(np.sum(np.abs(cur) ** 2))
    for s in range(steps):
        cur = step_c4_numpy(cur, chi_p, chi_q)
        norms[s + 1] = float(np.sum(np.abs(cur) ** 2))
    return cur, norms


def xi_brute_numpy(p4: np.ndarray, q4: np.ndarray, l: int, m: int) -> tuple[np.ndarray, int]:
    """Sum of all time-ordered products of l copies of P and m copies of Q.

    Operates on the 4x4 complex images of P and Q; the caller converts the
    result back to quaternion form.  Returns (matrix, number of summands).
    """
    n = l + m
    total = np.zeros((4, 4), dtype=np.complex128)
    count = 0
    for left_slots in combinations(range(n), l):
        left = set(left_slots)
        prod = np.eye(4, dtype=np.complex128)
        for t in range(n):
            mat = p4 if t in left else q4
            prod = mat @ prod
        total += prod
        count += 1
    return total, count
