import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqwalk import Coin, NormDriftError, NotNormalizedError, Quaternion
from qqwalk.coin import COIN_CLASSES, hadamard_coin, load_coin, random_coin, split_pq
from qqwalk.exact import boundary_prob
from qqwalk.walk import Distribution, distribution, evolve, init_state, moment

from helpers import (
    dict_distribution,
    dict_evolve,
    random_spinor,
    step,
    step_fourier,
    step_walk,
)

COINS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
S = math.sqrt(0.5)
I = Quaternion.i()
J = Quaternion.j()
K = Quaternion.k()


def test_init_state_basics():
    st = init_state(Quaternion(1), Quaternion.zero())
    assert st.n == 0
    assert st.total_probability() == pytest.approx(1.0)
    left, right = st.amplitude(0)
    assert left.approx_eq(Quaternion(1)) and right.approx_eq(Quaternion.zero())

    st = init_state(Quaternion(S), S * J)
    assert st.total_probability() == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(NotNormalizedError):
        init_state(Quaternion(1), Quaternion(1))


def test_spinor_check_rejects_nan():
    # one check serves the walk and the closed forms; NaN must not pass it
    nan = Quaternion(math.nan)
    coin = hadamard_coin()
    with pytest.raises(NotNormalizedError):
        init_state(nan, Quaternion.zero())
    with pytest.raises(NotNormalizedError):
        evolve(coin, Quaternion(1), Quaternion(0.0, 0.0, math.nan, 0.0), 3)
    with pytest.raises(NotNormalizedError):
        boundary_prob(coin, nan, Quaternion.zero(), 3, 1)


def test_hadamard_one_step():
    coin = hadamard_coin()
    st = evolve(coin, Quaternion(1), Quaternion.zero(), 1)
    left, right = st.amplitude(-1)
    assert left.approx_eq(Quaternion(S), 1e-15)
    assert right.approx_eq(Quaternion.zero())
    left, right = st.amplitude(1)
    assert left.approx_eq(Quaternion.zero())
    assert right.approx_eq(Quaternion(S), 1e-15)


def test_hadamard_two_steps():
    coin = hadamard_coin()
    st = evolve(coin, Quaternion(1), Quaternion.zero(), 2)
    assert st.amplitude(-2)[0].approx_eq(Quaternion(0.5), 1e-15)
    assert st.amplitude(0)[0].approx_eq(Quaternion(0.5), 1e-15)
    assert st.amplitude(0)[1].approx_eq(Quaternion(0.5), 1e-15)
    assert st.amplitude(2)[1].approx_eq(Quaternion(-0.5), 1e-15)
    dist = distribution(st)
    assert dist.prob(-2) == pytest.approx(0.25, abs=1e-14)
    assert dist.prob(0) == pytest.approx(0.5, abs=1e-14)
    assert dist.prob(2) == pytest.approx(0.25, abs=1e-14)


def test_diagonal_coin_closed_amplitudes():
    # b = c = 0: amplitude a^n alpha at -n and d^n beta at +n, nothing else
    rng = np.random.default_rng(31)
    coin = random_coin(rng, "case1")
    alpha, beta = random_spinor(rng)
    n = 17
    st = evolve(coin, alpha, beta, n)
    a_pow = Quaternion.one()
    d_pow = Quaternion.one()
    for _ in range(n):
        a_pow = coin.a * a_pow
        d_pow = coin.d * d_pow
    assert st.amplitude(-n)[0].approx_eq(a_pow * alpha, 1e-12)
    assert st.amplitude(n)[1].approx_eq(d_pow * beta, 1e-12)
    dist = distribution(st)
    assert dist.prob(-n) == pytest.approx(alpha.norm_sq(), abs=1e-12)
    assert dist.prob(n) == pytest.approx(beta.norm_sq(), abs=1e-12)
    interior = dist.probs[1:-1]
    assert np.max(np.abs(interior)) == 0.0


def test_antidiagonal_coin_localizes():
    rng = np.random.default_rng(32)
    coin = random_coin(rng, "case2")
    alpha, beta = random_spinor(rng)
    even = distribution(evolve(coin, alpha, beta, 12))
    assert even.prob(0) == pytest.approx(1.0, abs=1e-12)
    odd = distribution(evolve(coin, alpha, beta, 13))
    assert odd.prob(1) == pytest.approx(alpha.norm_sq(), abs=1e-12)
    assert odd.prob(-1) == pytest.approx(beta.norm_sq(), abs=1e-12)
    # only two (site, chirality) pairs are reachable; the rest is exactly 0
    for n in (12, 13):
        st = evolve(coin, alpha, beta, n)
        assert np.count_nonzero(st.psi.any(axis=2)) == 2


def test_engine_matches_dict_oracle():
    rng = np.random.default_rng(33)
    for kind in COIN_CLASSES + ("complex",):
        coin = random_coin(rng, kind)
        alpha, beta = random_spinor(rng)
        for n in (0, 1, 2, 3, 9, 16):
            st = evolve(coin, alpha, beta, n)
            ref = dict_evolve(coin, alpha, beta, n)
            for x in range(-n, n + 1, 2):
                left, right = st.amplitude(x)
                rl, rr = ref.get(x, (Quaternion.zero(), Quaternion.zero()))
                assert left.approx_eq(rl, 1e-13)
                assert right.approx_eq(rr, 1e-13)
            ref_dist = dict_distribution(ref)
            dist = distribution(st)
            for x, p in ref_dist.items():
                assert dist.prob(x) == pytest.approx(p, abs=1e-13)


def test_propagator_matches_stepper_long():
    # the propagator against stepping the complex amplitudes
    n = 2000
    for name in ("superposition", "tracefree_mixed"):
        coin = load_coin(os.path.join(COINS_DIR, name + ".json"))
        for alpha, beta in ((Quaternion(1), Quaternion.zero()), (Quaternion(S), S * J)):
            fast = distribution(evolve(coin, alpha, beta, n))
            stepped, _ = step_walk(coin, alpha, beta, n)
            assert np.max(np.abs(fast.probs - distribution(stepped).probs)) <= 1e-12


def test_step_equals_evolve():
    rng = np.random.default_rng(34)
    coin = random_coin(rng)
    alpha, beta = random_spinor(rng)
    ops = split_pq(coin)
    st = init_state(alpha, beta)
    for _ in range(6):
        st = step(st, ops)
    direct = evolve(coin, alpha, beta, 6)
    assert np.allclose(st.psi, direct.psi, atol=1e-14)


def test_probability_conservation_and_parity():
    rng = np.random.default_rng(35)
    for _ in range(5):
        coin = random_coin(rng)
        alpha, beta = random_spinor(rng)
        stepped, norms = step_walk(coin, alpha, beta, 120)
        assert norms.shape == (121,)
        assert norms[-1] == pytest.approx(stepped.total_probability(), abs=1e-15)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        st = evolve(coin, alpha, beta, 120)
        assert abs(st.total_probability() - 1.0) <= 1e-12
    # the propagator stays normalized on long walks
    st = evolve(coin, alpha, beta, 20000)
    assert abs(st.total_probability() - 1.0) <= 1e-10
    # zero-support positions stay zero: evolve a one-sided state
    coin = random_coin(rng, "case1")
    st = evolve(coin, Quaternion(1), Quaternion.zero(), 5)
    assert distribution(st).prob(5) == 0.0


def test_fourier_rep_components():
    alpha = Quaternion(0.1, 0.2, 0.3, 0.4)
    beta = Quaternion(0.5, 0.6, 0.7, 0.8)
    scale = 1.0 / math.sqrt(alpha.norm_sq() + beta.norm_sq())
    alpha, beta = scale * alpha, scale * beta
    phi = init_state(alpha, beta).phi[0]
    assert phi[0] == pytest.approx(alpha.simplex)
    assert phi[1] == pytest.approx(np.conj(alpha.perplex))
    assert phi[2] == pytest.approx(beta.simplex)
    assert phi[3] == pytest.approx(np.conj(beta.perplex))


def test_fourier_rep_real_state_is_real():
    phi = init_state(Quaternion(S), Quaternion(S)).phi
    assert np.max(np.abs(phi.imag)) == 0.0
    assert phi[0, 0] == pytest.approx(S)


def test_fourier_norm_matches():
    rng = np.random.default_rng(36)
    coin = random_coin(rng)
    alpha, beta = random_spinor(rng)
    st = evolve(coin, alpha, beta, 40)
    psi_norms = np.sum(st.psi * st.psi, axis=(1, 2))
    phi_norms = np.sum(np.abs(st.phi) ** 2, axis=1)
    assert np.max(np.abs(psi_norms - phi_norms)) <= 1e-13


def test_convert_then_evolve_commutes():
    # stepping in quaternion arithmetic and converting once gives the
    # complex amplitudes that the propagator computes from the converted
    # initial state with the complex images of P and Q
    rng = np.random.default_rng(37)
    for kind in ("general", "case5"):
        coin = random_coin(rng, kind)
        alpha, beta = random_spinor(rng)
        ops = split_pq(coin)
        n = 25
        stepped = init_state(alpha, beta)
        for _ in range(n):
            stepped = step(stepped, ops)
        evolved = evolve(coin, alpha, beta, n)
        assert np.max(np.abs(stepped.phi - evolved.phi)) <= 1e-12


def test_fourier_step_matches_evolve():
    rng = np.random.default_rng(38)
    coin = random_coin(rng)
    alpha, beta = random_spinor(rng)
    st = init_state(alpha, beta)
    for _ in range(5):
        st = step_fourier(st, coin)
    direct = evolve(coin, alpha, beta, 5)
    assert np.max(np.abs(st.phi - direct.phi)) <= 1e-14


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=300))
def test_total_probability_is_one(kind, seed, n):
    rng = np.random.default_rng(seed)
    state = evolve(random_coin(rng, kind), *random_spinor(rng), n)
    assert abs(state.total_probability() - 1.0) <= 1e-12
    assert abs(distribution(state).total() - 1.0) <= 1e-12


def test_distribution_total_drops_only_tiny_entries():
    # a NaN entry makes the total NaN, from a list or an array, so the norm
    # check fails on it
    assert math.isnan(Distribution(2, [0.5, math.nan, 0.5]).total())
    assert math.isnan(Distribution(1, np.array([math.nan, 1.0])).total())
    # entries below 2^-200 are left out, (n + 1) 2^-200 at most
    assert Distribution(3, [0.25, 2.0**-201, 0.75, 1e-300]).total() == 1.0
    assert Distribution(1, [2.0**-201, 2.0**-201]).total() == 0.0
    assert Distribution(1, [2.0**-200, 2.0**-200]).total() == 2.0**-199


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=24))
def test_steppers_propagator_and_oracle_agree(kind, seed, n):
    # amplitude by amplitude: quaternion stepping, complex stepping, the
    # propagator and the dict-based oracle, read through phi, psi and
    # amplitude(x)
    rng = np.random.default_rng(seed)
    coin = random_coin(rng, kind)
    alpha, beta = random_spinor(rng)
    ops = split_pq(coin)
    quat = comp = init_state(alpha, beta)
    for _ in range(n):
        quat = step(quat, ops)
        comp = step_fourier(comp, coin)
    prop = evolve(coin, alpha, beta, n)
    for other in (comp, prop):
        assert other.n == quat.n == n
        assert np.max(np.abs(other.phi - quat.phi)) <= 1e-13
        assert np.max(np.abs(other.psi - quat.psi)) <= 1e-13
    ref = dict_evolve(coin, alpha, beta, n)
    zero = Quaternion.zero()
    for x in range(-n - 1, n + 2):
        want = ref.get(x, (zero, zero))
        for state in (quat, comp, prop):
            left, right = state.amplitude(x)
            assert left.approx_eq(want[0], 1e-13)
            assert right.approx_eq(want[1], 1e-13)


def test_moments():
    coin = hadamard_coin()
    dist = distribution(evolve(coin, Quaternion(1), Quaternion.zero(), 20))
    assert moment(dist, 0) == pytest.approx(1.0, abs=1e-12)

    # symmetric initial state: first moment vanishes at every step
    alpha, beta = Quaternion(S), S * I
    for n in (5, 20, 41):
        dist = distribution(evolve(coin, alpha, beta, n))
        assert moment(dist, 1) == pytest.approx(0.0, abs=1e-10)

    # two-point distribution at +-n has second moment n^2
    rng = np.random.default_rng(39)
    coin1 = random_coin(rng, "case1")
    alpha, beta = random_spinor(rng)
    dist = distribution(evolve(coin1, alpha, beta, 13))
    assert moment(dist, 2) == pytest.approx(13.0 ** 2, abs=1e-9)


def test_moment_overflow_raises():
    # x^r is a Python float power: 1000^102 is finite, 1000^103 is not
    dist = Distribution(1000, [0.0] * 1000 + [1.0])
    assert moment(dist, 102) == 1000.0 ** 102
    with pytest.raises(OverflowError):
        moment(dist, 103)


def test_edge_probabilities_match_closed_form():
    rng = np.random.default_rng(40)
    for _ in range(10):
        coin = random_coin(rng)
        alpha, beta = random_spinor(rng)
        n = 14
        dist = distribution(evolve(coin, alpha, beta, n))
        assert dist.prob(n) == pytest.approx(
            boundary_prob(coin, alpha, beta, n, +1), abs=1e-10)
        assert dist.prob(-n) == pytest.approx(
            boundary_prob(coin, alpha, beta, n, -1), abs=1e-10)


def test_norm_drift_raises():
    # an unvalidated, non-unitary coin: total probability is asserted
    h = hadamard_coin()
    coin = Coin((1.0 + 1e-6) * h.a, h.b, h.c, h.d)
    one, zero = Quaternion(1), Quaternion.zero()
    with pytest.raises(NormDriftError):
        evolve(coin, one, zero, 1000)
