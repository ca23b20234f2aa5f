import cmath
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qqwalk.coin as coin_module
from qqwalk import DomainError, NormDriftError, Quaternion
from qqwalk.coin import (
    COIN_CLASSES,
    Coin,
    classify,
    hadamard_coin,
    load_coin,
    random_coin,
    split_pq,
    validate_coin,
)
from qqwalk.exact import (
    boundary_prob,
    closed_form_distribution,
    closed_form_prob,
    xi_bruteforce,
    xi_closed,
    _chebyshev_coeffs,
    _s_sums,
)
from qqwalk.walk import distribution, evolve

from helpers import (
    case4_split,
    chebyshev_laurent,
    chebyshev_touching,
    enumerate_xi,
    is_unitary,
    max_abs,
    move_images,
    qmat_mul,
    random_quaternion,
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
    ps = xi_bruteforce(coin, 1, 3)
    assert np.allclose(ps.matrix, expected, atol=1e-14)
    assert ps.position == 2


def test_bruteforce_pure_powers():
    rng = np.random.default_rng(50)
    coin = random_coin(rng)
    n = 6
    # Q^n = d^{n-1} Q and P^n = a^{n-1} P (scalars act from the left)
    d_pow = Quaternion.one()
    a_pow = Quaternion.one()
    for _ in range(n - 1):
        d_pow = coin.d * d_pow
        a_pow = coin.a * a_pow
    right = xi_bruteforce(coin, 0, n)
    expected_q = np.zeros((2, 2, 4))
    expected_q[1, 0] = (d_pow * coin.c).to_array()
    expected_q[1, 1] = (d_pow * coin.d).to_array()
    assert np.allclose(right.matrix, expected_q, atol=1e-12)
    left = xi_bruteforce(coin, n, 0)
    expected_p = np.zeros((2, 2, 4))
    expected_p[0, 0] = (a_pow * coin.a).to_array()
    expected_p[0, 1] = (a_pow * coin.b).to_array()
    assert np.allclose(left.matrix, expected_p, atol=1e-12)


def test_bruteforce_identity():
    ident = xi_bruteforce(hadamard_coin(), 0, 0)
    assert ident.matrix[0][0][0] == 1.0 and ident.matrix[1][1][0] == 1.0


@pytest.mark.parametrize("caller", ("evolve", "xi_bruteforce"))
def test_propagator_asserts_total_probability(caller):
    # an unvalidated Hadamard coin with a scaled by 1 + 1e-6 is no longer
    # unitary, so the propagated walks leave norm 1 after the first step:
    # `walk._propagate` asserts it for both of its callers
    h = hadamard_coin()
    coin = Coin((1.0 + 1e-6) * h.a, h.b, h.c, h.d)
    one, zero = Quaternion.one(), Quaternion.zero()
    run = {"evolve": lambda c: evolve(c, one, zero, 2),
           "xi_bruteforce": lambda c: xi_bruteforce(c, 1, 1)}[caller]
    run(h)
    with pytest.raises(NormDriftError):
        run(coin)


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bruteforce_matches_enumeration(kind, seed):
    # the propagator against the sum over every path, edges l = 0 and m = 0
    # included.  The zeros of enumeration come out exact where the reach
    # rule sets them (case1, case2); elsewhere they are round-off.
    coin = random_coin(np.random.default_rng(seed), kind)
    table = enumerate_xi(split_pq(coin), 9)
    for n in range(10):
        for m in range(n + 1):
            want = table[n - m, m]
            got = np.array(xi_bruteforce(coin, n - m, m).matrix)
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
    for x in range(-n, n + 1, 2):
        l = (n - x) // 2
        m = (n + x) // 2
        xi = np.array(xi_bruteforce(coin, l, m).matrix)
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
        for l in range(5):
            for m in range(5):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                assert max_abs(closed - brute) <= 1e-10


def test_closed_complex_domain():
    rng = np.random.default_rng(54)
    with pytest.raises(DomainError):
        xi_closed(random_coin(rng, "general"), 1, 1)
    with pytest.raises(DomainError):
        xi_closed(random_coin(rng, "case1"), 1, 1)


def test_closed_case3_both_signs():
    rng = np.random.default_rng(55)
    seen = set()
    for _ in range(20):
        coin = random_coin(rng, "case3")
        seen.add(1 if abs(coin.d.re - coin.a.re) < 1e-9 else -1)
        table = enumerate_xi(split_pq(coin), 6)
        for l in range(4):
            for m in range(4):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                assert max_abs(closed - brute) <= 1e-10
    assert seen == {1, -1}


def test_closed_case4_split_structure():
    coin = ij_coin()
    p1, p2, q1, q2 = case4_split(coin)
    cp, cq = move_images(coin)
    assert np.allclose(p1 + p2, cp)
    assert np.allclose(q1 + q2, cq)
    # cross products between the two families vanish identically
    for x in (p1, q1):
        for y in (p2, q2):
            assert max_abs(x @ y) == 0.0
            assert max_abs(y @ x) == 0.0
    # the two complex 2x2 coins of the subwalks act on components (0, 3)
    # and (1, 2) of the amplitudes, and each is unitary
    for p, q, block in ((p1, q1, (0, 3)), (p2, q2, (1, 2))):
        rest = [i for i in range(4) if i not in block]
        assert max_abs((p + q)[np.ix_(block, rest)]) == 0.0
        assert is_unitary((p + q)[np.ix_(block, block)], 1e-12)


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
        for l in range(4):
            for m in range(4):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                assert max_abs(closed - brute) <= 1e-10


COIN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
TRACEFREE_FILES = [os.path.join(COIN_DIR, f"tracefree_{name}.json")
                   for name in ("ij", "jk", "mixed")]


@pytest.mark.parametrize("index", range(6))
def test_closed_trace_free_matches_enumeration(index):
    # the trace-free coin files (tracefree_ij classifies as case4, the
    # others as case5) and random case5 coins, every l, m >= 0 with
    # l + m <= 9
    coins = [load_coin(path) for path in TRACEFREE_FILES]
    coins += [random_coin(np.random.default_rng(seed), "case5") for seed in (65, 66, 67)]
    coin = coins[index]
    table = enumerate_xi(split_pq(coin), 9)
    for l in range(10):
        for m in range(10 - l):
            assert max_abs(xi_closed(coin, l, m).matrix - table[l, m]) <= 1e-10, (l, m)


def _qmat_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x^k of a 2 x 2 quaternion matrix by square-and-multiply."""
    out = np.zeros((2, 2, 4))
    out[0, 0, 0] = out[1, 1, 0] = 1.0
    while k:
        if k & 1:
            out = qmat_mul(x, out)
        x = qmat_mul(x, x)
        k >>= 1
    return out


def test_closed_edges_match_powers():
    # the one-word sums Xi(l, 0) = P^l and Xi(0, m) = Q^m shrink like
    # |a|^n (5.5e-76 on hadamard at n = 500), so they are held to their own
    # size: a round-off of 1e-16 in absolute terms would swamp them
    rng = np.random.default_rng(58)
    coins = [hadamard_coin()]
    coins += [random_coin(rng, kind) for kind in ("case3", "case4", "complex", "case5")]
    for coin in coins:
        ops = split_pq(coin)
        for l, m, word in ((500, 0, ops.p), (0, 500, ops.q)):
            want = _qmat_pow(word, l + m)
            size = max_abs(want)
            assert size > 1e-200, (l, m)
            gap = max_abs(np.array(xi_closed(coin, l, m).matrix) - want)
            assert gap <= 1e-12 * size, (l, m, gap / size)


def test_closed_matches_propagator_columns():
    # Xi(l, m) maps (alpha, beta) to the amplitude pair at x = m - l after
    # l + m steps: its columns are the walk from (1, 0) and from (0, 1),
    # and xi_bruteforce reads the same sum off the propagator at once.
    rng = np.random.default_rng(64)
    cases = [(hadamard_coin(), l, l) for l in (40, 60, 100)]
    cases += [(random_coin(rng, kind), 40, 40)
              for kind in ("complex", "case3", "case4", "case5")]
    cases += [(load_coin(path), 40, 40) for path in TRACEFREE_FILES]
    cases.append((ratio4_coin(), 530, 530))
    one, zero = Quaternion.one(), Quaternion.zero()
    for coin, l, m in cases:
        xi = np.array(xi_closed(coin, l, m).matrix)
        gap = max_abs(xi - xi_bruteforce(coin, l, m).matrix)
        assert gap <= 1e-12, (l, m, gap)
        for col, (alpha, beta) in enumerate(((one, zero), (zero, one))):
            left, right = evolve(coin, alpha, beta, l + m).amplitude(m - l)
            gap = max(max_abs(xi[0, col] - left.to_array()),
                      max_abs(xi[1, col] - right.to_array()))
            assert gap <= 1e-12, (l, m, col, gap)


@pytest.mark.parametrize("kind", ("case3", "case4", "complex", "case5"))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       l=st.integers(min_value=1, max_value=20),
       m=st.integers(min_value=1, max_value=20))
def test_xi_closed_matches_propagator(kind, seed, l, m):
    # every family xi_closed reads, case3 coins with both signs
    coin = random_coin(np.random.default_rng(seed), kind)
    closed = np.array(xi_closed(coin, l, m).matrix)
    assert max_abs(closed - xi_bruteforce(coin, l, m).matrix) <= 1e-12


@pytest.mark.parametrize("kind", ("case3", "case4", "complex", "case5"))
def test_xi_closed_classifies_once(kind, monkeypatch):
    coin = random_coin(np.random.default_rng(57), kind)
    calls = []

    def counting_classify(c):
        calls.append(c)
        return classify(c)

    # the family test of `coin` is the one caller
    monkeypatch.setattr(coin_module, "classify", counting_classify)
    xi_closed(coin, 5, 7)
    assert len(calls) == 1


def _nested_types(value):
    return [_nested_types(v) for v in value] if type(value) is list else type(value)


def test_closed_dispatch():
    # both routes give the same plain type: 2 x 2 lists of 4 floats
    rng = np.random.default_rng(57)
    for kind in ("case3", "case4", "complex", "case5"):
        coin = random_coin(rng, kind)
        for ps in (xi_closed(coin, 2, 2), xi_bruteforce(coin, 2, 2)):
            assert _nested_types(ps.matrix) == [[[float] * 4] * 2] * 2, kind
    with pytest.raises(DomainError):
        xi_closed(random_coin(rng, "general"), 2, 2)


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
        closed_form_prob(random_coin(rng, "general"), alpha, beta, 4, 0)


def test_prob_matches_simulation_case3_case4():
    rng = np.random.default_rng(61)
    cases = []
    for kind in ("case3", "case4", "complex"):
        for _ in range(3):
            coin = random_coin(rng, kind)
            alpha, beta = random_spinor(rng)
            cases += [(kind, coin, alpha, beta, n) for n in (6, 11)]
    # at n = 460 (|a|^2)^(n-1) underflows, and at n = 2000 the top
    # Chebyshev coefficients (-|a|^2)^j do
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


# ---------------------------------------------------------------------
# trace-free coins
# ---------------------------------------------------------------------

# (s, u) pairs of trace-free coins, (Re(bc), |a|^2): generic, Re(bc) = 0,
# and band-touching ones with Re(bc) +- |a|^2 = +-1, down to |a|^2 = 2^-10
# and up to 1 - 2^-10; then pairs (1 - |a|^2, |a|^2) of the closed family,
# which all lie on the band-touching line s + u = 1
CLOSED_FAMILY_U = [Fraction(1, 2 ** 13), Fraction(1, 2 ** 10), Fraction(3, 16),
                   1 - Fraction(1, 2 ** 10), 1 - Fraction(1, 2 ** 13)]
CHEBYSHEV_PAIRS = [(Fraction(1, 8), Fraction(1, 2)), (Fraction(-5, 16), Fraction(3, 8)),
                   (Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)),
                   (Fraction(-1, 2), Fraction(1, 2)),
                   (Fraction(-1023, 1024), Fraction(1, 1024)),
                   (Fraction(-1, 1024), Fraction(1023, 1024))]
CHEBYSHEV_PAIRS += [(1 - u, u) for u in CLOSED_FAMILY_U]


def _coeffs(s, u, j):
    """e_0 .. e_j of the kernel, which yields them from e_j down."""
    return list(_chebyshev_coeffs(s.as_integer_ratio(), float(u), j))[::-1]


@pytest.mark.parametrize("s,u", CHEBYSHEV_PAIRS)
def test_chebyshev_coeffs_match_exact_rationals(s, u):
    # the integer recurrence rounds each coefficient once: it equals the
    # exact value rounded to a float, up to a last-bit tie and the double
    # rounding of subnormal values.  s goes in as the exact integer pair of
    # the Fraction, as the closed family passes it
    exact = chebyshev_laurent(200, s, u)
    for j in (0, 1, 2, 3, 4, 5, 17, 64, 112, 199, 200):
        got = _coeffs(s, u, j)
        assert len(got) == j + 1
        for g, e in zip(got, exact[j]):
            assert abs(g - e) <= 2.3e-16 * abs(e) + 1e-320, (j, g, e)
        if s + u == 1:  # the oracle of the touching line, against this one
            assert [chebyshev_touching(j, u, k) for k in range(j + 1)] == exact[j]
    assert _coeffs(s, u, -1) == []


def test_chebyshev_coeffs_match_exact_rationals_at_j_2000():
    # `chebyshev_laurent` would build every j up to 2000 (20 s); on the
    # touching line one coefficient is a single exact sum
    u = Fraction(3, 16)
    got = _coeffs(1 - u, u, 2000)
    for k in (0, 1, 2, 3, 250, 500, 999, 1000, 1500, 1998, 1999, 2000):
        e = chebyshev_touching(2000, u, k)
        assert abs(got[k] - e) <= 2.3e-16 * abs(e) + 1e-320, (k, got[k], e)


def _band_touching_coin(rng, asq):
    """A case5 coin with |a|^2 = asq and c = -|b| conj(b^), so that bc is
    real and Re(bc) - |a|^2 = -1: the two bands of the spectrum touch."""
    a_hat = random_quaternion(rng).imag_part()
    a_hat = a_hat / a_hat.norm()
    b_hat = random_quaternion(rng)
    b_hat = b_hat / b_hat.norm()
    cos_phi, sin_phi = math.sqrt(asq), math.sqrt(1.0 - asq)
    coin = validate_coin(cos_phi * a_hat, sin_phi * b_hat, -sin_phi * b_hat.conj(),
                         cos_phi * (b_hat.conj() * a_hat.conj() * b_hat))
    assert classify(coin) == "case5"
    return coin


def _case5_coins():
    coins = [random_coin(np.random.default_rng(seed), "case5") for seed in (70, 71, 72)]
    rng = np.random.default_rng(73)
    coins += [_band_touching_coin(rng, asq) for asq in (2.0 ** -10, 1 - 2.0 ** -10)]
    return coins


@pytest.mark.parametrize("index", range(5))
def test_case5_distribution_matches_walk(index):
    coin = _case5_coins()[index]
    alpha, beta = random_spinor(np.random.default_rng(74 + index))
    for n in (0, 1, 2, 3, 4, 5, 2000, 2001):
        sim = distribution(evolve(coin, alpha, beta, n))
        got = closed_form_distribution(coin, alpha, beta, n)
        assert isinstance(got.probs, list) and len(got.probs) == n + 1
        assert min(got.probs) >= 0.0
        assert np.max(np.abs(sim.probs - np.array(got.probs))) <= 1e-12, n


def test_case5_prob_reads_the_distribution():
    coin = _case5_coins()[0]
    alpha, beta = random_spinor(np.random.default_rng(79))
    whole = closed_form_distribution(coin, alpha, beta, 9)
    for x in range(-11, 12):
        assert closed_form_prob(coin, alpha, beta, 9, x) == whole.prob(x)


@pytest.mark.parametrize("n", (50, 301, 2000, 2001))
def test_closed_form_distribution_small_a(n):
    # |a|^2 = 1e-4 is not dyadic, and the coefficients reach 60 where a
    # probability is 0.02.  The closed form is 1.1e-14, 1.9e-14, 4.6e-14
    # and 4.3e-14 from the walk here.  With s the float |b|^2, s + u misses
    # 1 by a rounding and n = 2000 reads 4.1e-12; with the Gram form summed
    # term by term in place of |R c|^2, n = 2001 reads 1.6e-12
    asq = 1e-4
    a = math.sqrt(asq) * cmath.exp(0.7j)
    b = math.sqrt(1.0 - asq) * cmath.exp(2.1j)
    det = cmath.exp(1.3j)
    coin = validate_coin(*(Quaternion.from_complex(z) for z in
                           (a, b, -det * b.conjugate(), det * a.conjugate())))
    alpha, beta = random_spinor(np.random.default_rng(0))
    sim = distribution(evolve(coin, alpha, beta, n))
    exact = closed_form_distribution(coin, alpha, beta, n)
    bound = 1e-12 if n >= 2000 else 1e-11
    assert np.max(np.abs(sim.probs - exact.probs)) <= bound


def test_closed_form_distribution_total_at_large_n():
    # hadamard.json's floats give |a|^2 + |b|^2 = 1 + 2^-52; the closed
    # form keeps s + u = 1 exact, so its total does not drift with n
    coin = load_coin(os.path.join(COIN_DIR, "hadamard.json"))
    dist = closed_form_distribution(coin, Quaternion.one(), Quaternion.zero(), 200000)
    assert abs(math.fsum(dist.probs) - 1.0) <= 2e-11


@settings(max_examples=40, deadline=None, derandomize=True)
@given(num=st.integers(1, 2 ** 10 - 1), j=st.integers(0, 400),
       lo=st.integers(-403, 403), width=st.integers(1, 4))
def test_s_sums_match_exact_rationals(num, j, lo, width):
    # the window a path sum reads, on the closed family's line s + u = 1,
    # against the exact single sum of `chebyshev_touching`; e_k = 0 for
    # |k| > j
    u = Fraction(num, 2 ** 10)
    hi = lo + width - 1
    got = _s_sums((1 - u).as_integer_ratio(), float(u), j, lo, hi)
    want = [chebyshev_touching(j, u, k) if abs(k) <= j else 0.0 for k in range(lo, hi + 1)]
    assert len(got) == width
    for g, e in zip(got, want):
        assert abs(g - e) <= 2.3e-16 * abs(e) + 1e-320, (g, e)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=st.sampled_from(CHEBYSHEV_PAIRS), j=st.integers(-1, 120),
       lo=st.integers(-123, 123), width=st.integers(1, 4))
def test_s_sums_read_the_pass(pair, j, lo, width):
    # one kernel: a window is the descent's entries bit for bit, mirrored
    # to e_-k = e_k across k = 0 and zero beyond |k| = j
    s, u = pair
    full = _coeffs(s, u, j)
    want = tuple(full[abs(k)] if abs(k) <= j else 0.0 for k in range(lo, lo + width))
    assert _s_sums(s.as_integer_ratio(), float(u), j, lo, lo + width - 1) == want


@pytest.mark.parametrize("n", (301, 2000))
@pytest.mark.parametrize("asq", (2.0 ** -13, 2.0 ** -10, 1 - 2.0 ** -10, 1 - 2.0 ** -13))
def test_sums_match_exact_rationals_at_extreme_a(asq, n):
    # the two coefficient sets a closed-family distribution of n steps
    # lists, j = n // 2 - 1 and n // 2 - 2, at |a|^2 near 0 and near 1
    u = Fraction(asq)
    for j in (n // 2 - 1, n // 2 - 2):
        got = _coeffs(1 - u, u, j)
        for k in (0, 1, 2, j // 7, j // 3, j // 2, j - 3, j):
            e = chebyshev_touching(j, u, k)
            assert abs(got[k] - e) <= 2.3e-16 * abs(e) + 1e-320, (j, k, got[k], e)


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
