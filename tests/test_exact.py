import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qqwalk.exact as exact_module
from qqwalk import DomainError, NormDriftError, Quaternion
from qqwalk.coin import (
    COIN_CLASSES,
    MoveOperators,
    classify,
    hadamard_coin,
    random_coin,
    split_pq,
    validate_coin,
)
from qqwalk.exact import (
    boundary_prob,
    case4_subcoins,
    closed_form_distribution,
    closed_form_prob,
    xi_bruteforce,
    xi_closed,
    _s_sums,
)
from qqwalk.walk import distribution, evolve

from helpers import (
    case4_split,
    enumerate_xi,
    exact_s_sums,
    is_unitary,
    max_abs,
    qmat_mul,
    random_spinor,
    ratio4_coin,
)

S = math.sqrt(0.5)
I = Quaternion.i()
J = Quaternion.j()
K = Quaternion.k()


def ij_coin():
    return validate_coin(S * I, S * J, S * J, S * I)


def test_bruteforce_literal_example():
    # l = 1, m = 3: P Q^3 + Q P Q^2 + Q^2 P Q + Q^3 P... with the factor for
    # the latest step on the left, the four interleavings are exactly
    # PQ^3, QPQ^2, Q^2PQ, Q^3... Q^2P.
    coin = hadamard_coin()
    ops = split_pq(coin)
    p, q = ops.p, ops.q
    expected = (qmat_mul(p, qmat_mul(q, qmat_mul(q, q)))
                + qmat_mul(q, qmat_mul(p, qmat_mul(q, q)))
                + qmat_mul(q, qmat_mul(q, qmat_mul(p, q)))
                + qmat_mul(q, qmat_mul(q, qmat_mul(q, p))))
    ps = xi_bruteforce(ops, 1, 3)
    assert np.allclose(ps.matrix, expected, atol=1e-14)
    assert ps.position == 2


def test_bruteforce_pure_powers():
    rng = np.random.default_rng(50)
    coin = random_coin(rng)
    ops = split_pq(coin)
    n = 6
    # Q^n = d^{n-1} Q and P^n = a^{n-1} P (scalars act from the left)
    d_pow = Quaternion.one()
    a_pow = Quaternion.one()
    for _ in range(n - 1):
        d_pow = coin.d * d_pow
        a_pow = coin.a * a_pow
    right = xi_bruteforce(ops, 0, n)
    expected_q = np.zeros((2, 2, 4))
    expected_q[1, 0] = (d_pow * coin.c).to_array()
    expected_q[1, 1] = (d_pow * coin.d).to_array()
    assert np.allclose(right.matrix, expected_q, atol=1e-12)
    left = xi_bruteforce(ops, n, 0)
    expected_p = np.zeros((2, 2, 4))
    expected_p[0, 0] = (a_pow * coin.a).to_array()
    expected_p[0, 1] = (a_pow * coin.b).to_array()
    assert np.allclose(left.matrix, expected_p, atol=1e-12)


def test_bruteforce_identity():
    ops = split_pq(hadamard_coin())
    ident = xi_bruteforce(ops, 0, 0)
    assert ident.matrix[0][0][0] == 1.0 and ident.matrix[1][1][0] == 1.0


def test_bruteforce_asserts_total_probability():
    # a Hadamard split with a scaled by 1 + 1e-6 is no longer unitary, so
    # the propagated identity columns leave norm 1 after the first step
    ops = split_pq(hadamard_coin())
    p = ops.p.copy()
    p[0, 0] *= 1.0 + 1e-6
    xi_bruteforce(ops, 1, 1)
    with pytest.raises(NormDriftError):
        xi_bruteforce(MoveOperators(p, ops.q), 1, 1)


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bruteforce_matches_enumeration(kind, seed):
    # the propagator against the sum over every path, edges l = 0 and m = 0
    # included.  The zeros of enumeration come out exact where the reach
    # rule sets them (case1, case2); elsewhere they are round-off.
    ops = split_pq(random_coin(np.random.default_rng(seed), kind))
    table = enumerate_xi(ops, 9)
    for n in range(10):
        for m in range(n + 1):
            want = table[n - m, m]
            got = np.array(xi_bruteforce(ops, n - m, m).matrix)
            assert max_abs(got - want) <= 1e-13, (n - m, m)
            if kind in ("case1", "case2"):
                assert np.all(got[want == 0.0] == 0.0), (n - m, m)


def test_bruteforce_reconstructs_amplitudes():
    # Psi_n(x) = Xi_n(l, m) (alpha, beta) with l + m = n, m - l = x
    rng = np.random.default_rng(52)
    coin = random_coin(rng)
    alpha, beta = random_spinor(rng)
    n = 7
    st = evolve(coin, alpha, beta, n)
    ops = split_pq(coin)
    for x in range(-n, n + 1, 2):
        l = (n - x) // 2
        m = (n + x) // 2
        xi = np.array(xi_bruteforce(ops, l, m).matrix)
        left = (Quaternion.from_array(xi[0, 0]) * alpha
                + Quaternion.from_array(xi[0, 1]) * beta)
        right = (Quaternion.from_array(xi[1, 0]) * alpha
                 + Quaternion.from_array(xi[1, 1]) * beta)
        got_l, got_r = st.amplitude(x)
        assert got_l.approx_eq(left, 1e-12)
        assert got_r.approx_eq(right, 1e-12)


def test_closed_complex_hadamard_small():
    # the Hadamard coin itself is real and takes the case3 form; with i on
    # the diagonal it is a complex coin
    for coin in (hadamard_coin(), validate_coin(S * I, Quaternion(S), Quaternion(S), S * I)):
        ops = split_pq(coin)
        assert np.allclose(xi_closed(coin, 1, 1).matrix,
                           enumerate_xi(ops, 2)[1, 1], atol=1e-12)
        assert np.allclose(xi_closed(coin, 1, 3).matrix,
                           enumerate_xi(ops, 4)[1, 3], atol=1e-12)


def test_closed_complex_random():
    rng = np.random.default_rng(53)
    for _ in range(5):
        coin = random_coin(rng, "complex")
        table = enumerate_xi(split_pq(coin), 8)
        for l in range(1, 5):
            for m in range(1, 5):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                assert max_abs(closed - brute) <= 1e-10


def test_closed_complex_domain():
    coin = hadamard_coin()
    with pytest.raises(DomainError):
        xi_closed(coin, 0, 4)
    rng = np.random.default_rng(54)
    with pytest.raises(DomainError):
        xi_closed(random_coin(rng, "case5"), 1, 1)
    with pytest.raises(DomainError):
        xi_closed(random_coin(rng, "case1"), 1, 1)


def test_closed_case3_both_signs():
    rng = np.random.default_rng(55)
    seen = set()
    for _ in range(20):
        coin = random_coin(rng, "case3")
        seen.add(1 if abs(coin.d.re - coin.a.re) < 1e-9 else -1)
        table = enumerate_xi(split_pq(coin), 6)
        for l in range(1, 4):
            for m in range(1, 4):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                assert max_abs(closed - brute) <= 1e-10
    assert seen == {1, -1}


def test_closed_case4_split_structure():
    coin = ij_coin()
    p1, p2, q1, q2 = case4_split(coin)
    from qqwalk.coin import chi_p, chi_q

    assert np.allclose(p1 + p2, chi_p(coin))
    assert np.allclose(q1 + q2, chi_q(coin))
    # cross products between the two families vanish identically
    for x in (p1, q1):
        for y in (p2, q2):
            assert max_abs(x @ y) == 0.0
            assert max_abs(y @ x) == 0.0
    u1, u2 = case4_subcoins(coin)
    assert is_unitary(u1, 1e-12)
    assert is_unitary(u2, 1e-12)


def test_closed_case4_literal_example():
    # chi(Xi_3(1,2)) must equal the six-term sum over the two subwalks
    coin = ij_coin()
    p1, p2, q1, q2 = case4_split(coin)
    expected = (p1 @ q1 @ q1 + q1 @ p1 @ q1 + q1 @ q1 @ p1
                + p2 @ q2 @ q2 + q2 @ p2 @ q2 + q2 @ q2 @ p2)
    from qqwalk.quaternion import chi_matrix

    got = chi_matrix(xi_closed(coin, 1, 2).matrix)
    assert max_abs(got - expected) <= 1e-12


def test_closed_case4_random():
    rng = np.random.default_rng(56)
    for _ in range(5):
        coin = random_coin(rng, "case4")
        table = enumerate_xi(split_pq(coin), 6)
        for l in range(1, 4):
            for m in range(1, 4):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                assert max_abs(closed - brute) <= 1e-10


def test_closed_matches_propagator_columns():
    # Xi(l, m) maps (alpha, beta) to the amplitude pair at x = m - l after
    # l + m steps: its columns are the walk from (1, 0) and from (0, 1),
    # and xi_bruteforce reads the same sum off the propagator at once.
    rng = np.random.default_rng(64)
    cases = [(hadamard_coin(), l, l) for l in (40, 60, 100)]
    cases += [(random_coin(rng, kind), 40, 40) for kind in ("complex", "case3", "case4")]
    cases.append((ratio4_coin(), 530, 530))
    one, zero = Quaternion.one(), Quaternion.zero()
    for coin, l, m in cases:
        xi = np.array(xi_closed(coin, l, m).matrix)
        gap = max_abs(xi - xi_bruteforce(split_pq(coin), l, m).matrix)
        assert gap <= 1e-12, (l, m, gap)
        for col, (alpha, beta) in enumerate(((one, zero), (zero, one))):
            left, right = evolve(coin, alpha, beta, l + m).amplitude(m - l)
            gap = max(max_abs(xi[0, col] - left.to_array()),
                      max_abs(xi[1, col] - right.to_array()))
            assert gap <= 1e-12, (l, m, col, gap)


@pytest.mark.parametrize("kind", ("case3", "case4", "complex"))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       l=st.integers(min_value=1, max_value=20),
       m=st.integers(min_value=1, max_value=20))
def test_xi_closed_matches_propagator(kind, seed, l, m):
    # every family xi_closed dispatches to, case3 coins with both signs
    coin = random_coin(np.random.default_rng(seed), kind)
    closed = np.array(xi_closed(coin, l, m).matrix)
    assert max_abs(closed - xi_bruteforce(split_pq(coin), l, m).matrix) <= 1e-12


@pytest.mark.parametrize("kind", ("case3", "case4", "complex"))
def test_xi_closed_classifies_once(kind, monkeypatch):
    coin = random_coin(np.random.default_rng(57), kind)
    calls = []

    def counting_classify(c):
        calls.append(c)
        return classify(c)

    monkeypatch.setattr(exact_module, "classify", counting_classify)
    xi_closed(coin, 5, 7)
    assert len(calls) == 1


def _nested_types(value):
    return [_nested_types(v) for v in value] if type(value) is list else type(value)


def test_closed_dispatch():
    # both routes give the same plain type: 2 x 2 lists of 4 floats
    rng = np.random.default_rng(57)
    for kind in ("case3", "case4", "complex"):
        coin = random_coin(rng, kind)
        for ps in (xi_closed(coin, 2, 2), xi_bruteforce(split_pq(coin), 2, 2)):
            assert _nested_types(ps.matrix) == [[[float] * 4] * 2] * 2, kind
    with pytest.raises(DomainError):
        xi_closed(random_coin(rng, "case5"), 2, 2)


# ---------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------

def test_prob_hadamard_small_values():
    # hand-checked values for the left-biased start (alpha, beta) = (1, 0)
    coin = hadamard_coin()
    one, zero = Quaternion(1), Quaternion.zero()
    assert closed_form_prob(coin, one, zero, 4, 0) == pytest.approx(1.0 / 8, abs=1e-14)
    assert closed_form_prob(coin, one, zero, 4, 2) == pytest.approx(1.0 / 8, abs=1e-14)
    assert closed_form_prob(coin, one, zero, 4, -2) == pytest.approx(5.0 / 8, abs=1e-14)
    assert closed_form_prob(coin, one, zero, 4, 4) == pytest.approx(1.0 / 16, abs=1e-14)
    assert closed_form_prob(coin, one, zero, 4, -4) == pytest.approx(1.0 / 16, abs=1e-14)
    assert closed_form_prob(coin, one, zero, 4, 1) == 0.0
    assert closed_form_prob(coin, one, zero, 4, 6) == 0.0


def test_prob_matches_simulation_hadamard():
    coin = hadamard_coin()
    rng = np.random.default_rng(58)
    alpha, beta = random_spinor(rng)
    for n in (1, 2, 3, 8, 15):
        sim = distribution(evolve(coin, alpha, beta, n))
        for x in range(-n, n + 1, 2):
            assert closed_form_prob(coin, alpha, beta, n, x) == pytest.approx(
                sim.prob(x), abs=1e-12)


def test_prob_delegates_diagonal_and_antidiagonal():
    rng = np.random.default_rng(59)
    alpha, beta = random_spinor(rng)
    coin1 = random_coin(rng, "case1")
    assert closed_form_prob(coin1, alpha, beta, 9, -9) == pytest.approx(
        alpha.norm_sq(), abs=1e-14)
    assert closed_form_prob(coin1, alpha, beta, 9, 9) == pytest.approx(
        beta.norm_sq(), abs=1e-14)
    assert closed_form_prob(coin1, alpha, beta, 9, 3) == 0.0
    coin2 = random_coin(rng, "case2")
    assert closed_form_prob(coin2, alpha, beta, 8, 0) == 1.0
    assert closed_form_prob(coin2, alpha, beta, 7, 1) == pytest.approx(
        alpha.norm_sq(), abs=1e-14)
    assert closed_form_prob(coin2, alpha, beta, 7, -1) == pytest.approx(
        beta.norm_sq(), abs=1e-14)


def test_prob_scope():
    rng = np.random.default_rng(60)
    alpha, beta = random_spinor(rng)
    with pytest.raises(DomainError):
        closed_form_prob(random_coin(rng, "case5"), alpha, beta, 4, 0)
    with pytest.raises(DomainError):
        closed_form_prob(random_coin(rng, "general"), alpha, beta, 4, 0)


def test_prob_matches_simulation_case3_case4():
    rng = np.random.default_rng(61)
    cases = []
    for kind in ("case3", "case4", "complex"):
        for _ in range(3):
            coin = random_coin(rng, kind)
            alpha, beta = random_spinor(rng)
            cases += [(kind, coin, alpha, beta, n) for n in (6, 11)]
    # at n = 460 the unscaled sums overflow and (|a|^2)^(n-1) underflows;
    # at n = 2000 the Jacobi polynomials themselves leave the float range
    cases.append(("ratio4", ratio4_coin(), *random_spinor(rng), 460))
    cases.append(("ratio4", ratio4_coin(), *random_spinor(rng), 2000))
    cases.append(("case3", random_coin(rng, "case3"), *random_spinor(rng), 2000))
    for kind, coin, alpha, beta, n in cases:
        sim = distribution(evolve(coin, alpha, beta, n))
        exact = closed_form_distribution(coin, alpha, beta, n)
        diff = np.max(np.abs(sim.probs - exact.probs))
        assert diff <= 1e-12, (kind, n, diff)
        assert abs(exact.total() - 1.0) <= 1e-12, (kind, n)


@pytest.mark.parametrize("kind", ("case1", "case2", "case3", "case4", "complex"))
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=60))
def test_closed_form_distribution_matches_walk(kind, seed, n):
    rng = np.random.default_rng(seed)
    coin = random_coin(rng, kind)
    alpha, beta = random_spinor(rng)
    sim = distribution(evolve(coin, alpha, beta, n))
    exact = closed_form_distribution(coin, alpha, beta, n)
    assert np.max(np.abs(sim.probs - exact.probs)) <= 1e-12


@pytest.mark.parametrize("n", (50, 301))
def test_closed_form_distribution_small_a(n):
    # at |a|^2 = 1e-4 the interior form c0 s0^2 + 2 c1 s0 s1 + c2 s1^2
    # cancels about three digits of s0 and s1: 3e-13 (n = 50) and 7e-13
    # (n = 301) from the walk here; this pins that accuracy
    asq = 1e-4
    a = math.sqrt(asq) * cmath.exp(0.7j)
    b = math.sqrt(1.0 - asq) * cmath.exp(2.1j)
    det = cmath.exp(1.3j)
    coin = validate_coin(*(Quaternion.from_complex(z) for z in
                           (a, b, -det * b.conjugate(), det * a.conjugate())))
    alpha, beta = random_spinor(np.random.default_rng(0))
    sim = distribution(evolve(coin, alpha, beta, n))
    exact = closed_form_distribution(coin, alpha, beta, n)
    assert np.max(np.abs(sim.probs - exact.probs)) <= 1e-11


@settings(max_examples=200, deadline=None, derandomize=True)
@given(asq=st.floats(0.02, 0.98), n=st.integers(2, 500),
       eps=st.floats(-1e-10, 1e-10), data=st.data())
def test_s_sums_match_exact_rationals(asq, n, eps, data):
    # every t, also t > n/2; |a|^2 + |b|^2 may differ from 1 by as much
    # as coin validation allows
    t = data.draw(st.integers(1, n - 1), label="t")
    bsq = (1.0 - asq) * (1.0 + eps)
    for got, want in zip(_s_sums(asq, bsq, n, t), exact_s_sums(asq, bsq, n, t)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_distribution_sums_to_one():
    rng = np.random.default_rng(62)
    for kind in ("case3", "case4", "complex"):
        coin = random_coin(rng, kind)
        alpha, beta = random_spinor(rng)
        for n in (13, 30):
            exact = closed_form_distribution(coin, alpha, beta, n)
            assert _nested_types(exact.probs) == [float] * (n + 1)
            assert exact.total() == pytest.approx(1.0, abs=1e-9)


def test_boundary_prob_formulas():
    rng = np.random.default_rng(63)
    coin = random_coin(rng)
    alpha, beta = random_spinor(rng)
    n = 10
    asq, bsq = coin.a.norm_sq(), coin.b.norm_sq()
    cross = (alpha.conj() * coin.a.conj() * coin.b * beta).re
    pref = asq ** (n - 1)
    assert boundary_prob(coin, alpha, beta, n, -1) == pytest.approx(
        pref * (asq * alpha.norm_sq() + bsq * beta.norm_sq() + 2 * cross), abs=1e-15)
    assert boundary_prob(coin, alpha, beta, n, +1) == pytest.approx(
        pref * (bsq * alpha.norm_sq() + asq * beta.norm_sq() - 2 * cross), abs=1e-15)
