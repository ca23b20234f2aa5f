import math

import numpy as np
import pytest

from qqwalk import Quaternion, chi, chi_matrix, solve_sylvester, sylvester_residual
from qqwalk.quaternion import chi_arr, chi_inv_matrix, random_unit_quaternion

from helpers import (is_unitary, qconj_arr, qmat_mul, qmul_arr, qnorm_arr,
                     random_quaternion)

I = Quaternion.i()
J = Quaternion.j()
K = Quaternion.k()
ONE = Quaternion.one()


def test_multiplication_table():
    assert (I * J).approx_eq(K)
    assert (J * I).approx_eq(-K)
    assert (J * K).approx_eq(I)
    assert (K * J).approx_eq(-I)
    assert (K * I).approx_eq(J)
    assert (I * K).approx_eq(-J)
    for unit in (I, J, K):
        assert (unit * unit).approx_eq(-ONE)


def test_identity_and_scalars():
    x = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert (x * ONE).approx_eq(x)
    assert (ONE * x).approx_eq(x)
    assert (2.0 * x).approx_eq(x + x)
    assert (x / 2.0).approx_eq(Quaternion(0.15, -0.6, 0.25, 1.0))


def test_expansion_identity():
    # (1+i+j+k)(1-i-j-k): the second factor is the conjugate, so the
    # product is |1+i+j+k|^2 = 4.
    x = Quaternion(1, 1, 1, 1)
    y = Quaternion(1, -1, -1, -1)
    assert (x * y).approx_eq(Quaternion(4.0))
    assert x.conj().approx_eq(y)


def test_conjugation():
    assert I.conj().approx_eq(-I)
    assert Quaternion(2).conj().approx_eq(Quaternion(2))
    assert Quaternion(1, 2, 3, 4).conj().approx_eq(Quaternion(1, -2, -3, -4))
    x = Quaternion(1, 2, 3, 4)
    assert x.conj().conj().approx_eq(x)


def test_simplex_perplex_split_exact():
    x = Quaternion(0.1, -0.7, 2.5, -3.25)
    assert x.simplex == complex(0.1, -0.7)
    assert x.perplex == complex(2.5, -3.25)
    rebuilt = Quaternion(x.simplex.real, x.simplex.imag, x.perplex.real, x.perplex.imag)
    assert rebuilt == x
    # x = x' + x'' * j as an algebraic identity
    assert (Quaternion.from_complex(x.simplex)
            + Quaternion.from_complex(x.perplex) * J) == x


def test_modulus_multiplicative_and_inverse():
    rng = np.random.default_rng(7)
    for _ in range(500):
        x = random_quaternion(rng)
        y = random_quaternion(rng)
        lhs = (x * y).norm()
        rhs = x.norm() * y.norm()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
        if x.norm() > 1e-6:
            assert (x * x.inverse()).approx_eq(ONE, 1e-12)
            prod = x * x.conj()
            assert abs(prod.x0 - x.norm_sq()) <= 1e-12 * max(1.0, x.norm_sq())
            assert prod.imag_part().norm() <= 1e-12 * max(1.0, x.norm_sq())


def test_conj_antihomomorphism():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = random_quaternion(rng)
        y = random_quaternion(rng)
        assert (x * y).conj().approx_eq(y.conj() * x.conj(), 1e-12)


def test_real_part_conjugation_invariant():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = random_quaternion(rng)
        y = random_quaternion(rng)
        if y.norm() < 1e-6:
            continue
        assert abs(x.re - (y * x * y.inverse()).re) <= 1e-12 * max(1.0, x.norm())


def test_chi_basics():
    assert np.allclose(chi(ONE), np.eye(2))
    assert np.allclose(chi(J), np.array([[0, -1], [1, 0]]))
    assert np.allclose(chi(I) @ chi(J), chi(K))


def test_chi_homomorphism_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = random_quaternion(rng)
        y = random_quaternion(rng)
        r = float(rng.normal())
        assert np.max(np.abs(chi(x * y) - chi(x) @ chi(y))) <= 1e-12 * max(
            1.0, x.norm() * y.norm())
        assert np.max(np.abs(chi(x + y) - (chi(x) + chi(y)))) <= 1e-14
        assert np.max(np.abs(chi(r * x) - r * chi(x))) <= 1e-13 * max(1.0, abs(r))


def test_chi_matrix_blocks():
    ident = np.zeros((2, 2, 4))
    ident[0, 0, 0] = 1.0
    ident[1, 1, 0] = 1.0
    assert np.allclose(chi_matrix(ident), np.eye(4))

    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 2, 4))
    big = chi_matrix(m)
    for r in range(2):
        for c in range(2):
            assert np.allclose(big[2 * r:2 * r + 2, 2 * c:2 * c + 2],
                               chi(Quaternion.from_array(m[r, c])))
    back = chi_inv_matrix(big)
    assert np.allclose(back, m)


def test_chi_matrix_multiplicative():
    from qqwalk.coin import random_coin

    rng = np.random.default_rng(12)
    for _ in range(20):
        u1 = random_coin(rng).matrix()
        u2 = random_coin(rng).matrix()
        lhs = chi_matrix(qmat_mul(u1, u2))
        rhs = chi_matrix(u1) @ chi_matrix(u2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert is_unitary(chi_matrix(u1), 1e-10)


def test_array_helpers_match_scalar():
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(64, 4))
    ys = rng.normal(size=(64, 4))
    prods = qmul_arr(xs, ys)
    for idx in range(0, 64, 7):
        x = Quaternion.from_array(xs[idx])
        y = Quaternion.from_array(ys[idx])
        assert np.allclose(prods[idx], (x * y).to_array())
    assert np.allclose(qconj_arr(xs)[:, 0], xs[:, 0])
    assert np.allclose(qconj_arr(xs)[:, 1:], -xs[:, 1:])
    assert np.allclose(qnorm_arr(xs), np.linalg.norm(xs, axis=1))
    imgs = chi_arr(xs)
    assert np.allclose(imgs[3], chi(Quaternion.from_array(xs[3])))


def test_json_roundtrip_encoding():
    x = Quaternion(0.5, -1.5, 2.25, -3.125)
    assert Quaternion.from_array(x.to_list()) == x


# ---------------------------------------------------------------------
# the equation a*x - x*b = c
# ---------------------------------------------------------------------

def test_sylvester_real_scalar():
    x = solve_sylvester(Quaternion(2), Quaternion(1), Quaternion(1))
    assert x.approx_eq(ONE)


def test_sylvester_homogeneous_branch():
    # Re(i) = Re(j) = 0 and |Im| match, c = 0: x = p - i p j for any p.
    p = Quaternion(0.3, -0.2, 0.5, 0.7)
    x = solve_sylvester(I, J, Quaternion.zero(), p)
    assert x.approx_eq(p - I * p * J)
    assert sylvester_residual(I, J, Quaternion.zero(), x) <= 1e-12
    # x = 0 is also a valid solution (p = 0)
    assert solve_sylvester(I, J, Quaternion.zero()).approx_eq(Quaternion.zero())


def test_sylvester_equal_reals_degenerate():
    # a = b real: the equation is identically zero, any x works.
    p = Quaternion(1, 2, 3, 4)
    x = solve_sylvester(Quaternion(2), Quaternion(2), Quaternion.zero(), p)
    assert sylvester_residual(Quaternion(2), Quaternion(2), Quaternion.zero(), x) == 0.0


def _scaled_tol(a, b, c, x):
    return 1e-12 * (a.norm() + b.norm()) * max(1.0, x.norm()) + 1e-12 * c.norm()


def test_sylvester_unique_branch_random():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        a = random_quaternion(rng)
        b = random_quaternion(rng)
        c = random_quaternion(rng)
        x = solve_sylvester(a, b, c)
        assert sylvester_residual(a, b, c, x) <= _scaled_tol(a, b, c, x)


def test_sylvester_similar_pair_branches_random():
    # b = g a g^{-1} shares the real part and imaginary magnitude of a.
    rng = np.random.default_rng(15)
    for _ in range(1000):
        a = random_quaternion(rng)
        g = random_unit_quaternion(rng)
        b = g * a * g.inverse()
        p = random_quaternion(rng)
        x = solve_sylvester(a, b, Quaternion.zero(), p)
        assert sylvester_residual(a, b, Quaternion.zero(), x) <= _scaled_tol(
            a, b, Quaternion.zero(), x)
        # inhomogeneous: c must lie in the range of x -> a x - x b
        xt = random_quaternion(rng)
        c = a * xt - xt * b
        if c.is_zero(1e-9):
            continue
        x = solve_sylvester(a, b, c)
        assert sylvester_residual(a, b, c, x) <= _scaled_tol(a, b, c, x)


def test_sylvester_inhomogeneous_nonzero_real_part():
    # the particular solution must not degrade when Re(a) = Re(b) != 0
    rng = np.random.default_rng(16)
    a = Quaternion(0.5, 1.0, 0.0, 0.0)
    g = random_unit_quaternion(rng)
    b = g * a * g.inverse()
    xt = random_quaternion(rng)
    c = a * xt - xt * b
    x = solve_sylvester(a, b, c)
    assert sylvester_residual(a, b, c, x) <= _scaled_tol(a, b, c, x)


def test_sylvester_branch_selection_tolerance():
    # a tiny perturbation of the real part must not flip into the
    # ill-conditioned unique-solution branch
    a = Quaternion(0.5, 1.0, 0.0, 0.0)
    b = Quaternion(0.5 + 1e-14, 0.0, 1.0, 0.0)
    x = solve_sylvester(a, b, Quaternion.zero(), Quaternion(1))
    assert sylvester_residual(a, b, Quaternion.zero(), x) <= 1e-12
