import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqwalk import NormDriftError, Quaternion, NotUnitaryError
from qqwalk.coin import (
    COIN_CLASSES,
    ZERO_TOL,
    Coin,
    check_norm,
    classify,
    closed_family,
    coin_from_json,
    coin_to_json,
    hadamard_coin,
    random_coin,
    split_pq,
    u_theta,
    unitarity_residuals,
    validate_coin,
)
from qqwalk.quaternion import chi_matrix

from helpers import is_unitary, max_abs, near_zero_coin, qmat_mul, zero_entry_coin

S = math.sqrt(0.5)
I = Quaternion.i()
J = Quaternion.j()
K = Quaternion.k()


def ij_coin() -> Coin:
    # (1/sqrt2) [[i, j], [j, i]]
    return validate_coin(S * I, S * J, S * J, S * I)


def jk_coin() -> Coin:
    # (1/sqrt2) [[j, j], [k, -k]]
    return validate_coin(S * J, S * J, S * K, -S * K)


def test_hadamard_valid():
    coin = hadamard_coin()
    assert max(unitarity_residuals(*coin.entries()).values()) <= 1e-15


def test_quaternionic_coin_valid():
    coin = ij_coin()
    assert max(unitarity_residuals(*coin.entries()).values()) <= 1e-15


def test_invalid_coin_names_relation():
    with pytest.raises(NotUnitaryError) as err:
        validate_coin(Quaternion(1), Quaternion(1), Quaternion.zero(), Quaternion.zero())
    assert err.value.relation == "row1-norm"
    assert err.value.residual == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_invalid_coin_rejects_nan_and_inf(bad):
    a, b, c, d = hadamard_coin().entries()
    with pytest.raises(NotUnitaryError):
        validate_coin(Quaternion(bad), b, c, d)
    with pytest.raises(NotUnitaryError):
        validate_coin(a, b, c, Quaternion(0.0, bad, 0.0, 0.0))


def test_coin_from_json_rejects_malformed_entries():
    good = json.loads(coin_to_json(hadamard_coin()))
    for key, value in (("a", [1, 0, 0]), ("b", "0.5"), ("c", [1, "0", 0, 0]),
                       ("d", [True, 0, 0, 0])):
        with pytest.raises(ValueError):
            coin_from_json(json.dumps({**good, key: value}))
    with pytest.raises(ValueError):
        coin_from_json(json.dumps({k: good[k] for k in "abc"}))
    with pytest.raises(ValueError):
        coin_from_json("[1, 2, 3, 4]")


def test_split_sums_to_coin():
    rng = np.random.default_rng(21)
    coin = random_coin(rng)
    ops = split_pq(coin)
    assert np.allclose(ops.p + ops.q, coin.matrix())
    assert np.allclose(ops.p[1], 0.0)
    assert np.allclose(ops.q[0], 0.0)


def test_diagonal_coin_pq_annihilate():
    coin = validate_coin(I, Quaternion.zero(), Quaternion.zero(), J)
    ops = split_pq(coin)
    assert max_abs(qmat_mul(ops.p, ops.q)) == 0.0
    assert max_abs(qmat_mul(ops.q, ops.p)) == 0.0


def test_antidiagonal_coin_squares_vanish():
    coin = validate_coin(Quaternion.zero(), J, K, Quaternion.zero())
    ops = split_pq(coin)
    assert max_abs(qmat_mul(ops.p, ops.p)) == 0.0
    assert max_abs(qmat_mul(ops.q, ops.q)) == 0.0


def test_classify_tags():
    assert classify(validate_coin(I, Quaternion.zero(), Quaternion.zero(), J)) == "case1"
    assert classify(validate_coin(Quaternion.zero(), J, K, Quaternion.zero())) == "case2"
    # one zero entry is enough, whatever its partner, which unitarity keeps
    # within about 1e-10 of zero
    one, zero = Quaternion(1.0), Quaternion.zero()
    assert classify(validate_coin(one, zero, 1e-11 * J, one)) == "case1"
    assert classify(validate_coin(zero, one, one, Quaternion(1e-11))) == "case2"
    # real diagonal with a b that has both simplex and perplex parts
    b = Quaternion(0.0, 0.5, 0.5, 0.0)
    coin3 = validate_coin(Quaternion(S), b, -b.conj(), Quaternion(S))
    assert classify(coin3) == "case3"
    # simplex diagonal + perplex offdiagonal; also trace-free, but the
    # split-structure tag takes precedence
    assert classify(ij_coin()) == "case4"
    assert classify(jk_coin()) == "case5"
    assert classify(hadamard_coin()) == "case3"  # real entries
    rng = np.random.default_rng(22)
    assert classify(random_coin(rng, "general")) == "general"


def test_classify_overlap_precedence():
    # real diagonal with perplex offdiagonal satisfies both the real-diagonal
    # and the split-structure patterns; the split tag wins
    b = 0.5 * (J + K)
    coin = validate_coin(Quaternion(S), b, -b.conj(), Quaternion(S))
    assert classify(coin) == "case4"


def test_closed_family_by_class():
    # the tag for case1-case5, 'complex' for a complex coin, None for the rest
    rng = np.random.default_rng(28)
    for kind in COIN_CLASSES:
        assert closed_family(random_coin(rng, kind)) == (None if kind == "general" else kind)
    assert closed_family(random_coin(rng, "complex")) == "complex"
    # complex and trace-free: the complex walk's law comes first
    coin = validate_coin(S * I, Quaternion(S), Quaternion(S), S * I)
    assert classify(coin) == "case5"
    assert closed_family(coin) == "complex"


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       change=st.sampled_from(("none", "near-zero", "a", "b", "c", "d")),
       size=st.floats(min_value=0.0, max_value=1e-11))
def test_kernel_families_have_four_nonzero_entries(kind, seed, change, size):
    # case3, case4, complex and case5 coins, the families of exact's kernel,
    # have four entries of norm above ZERO_TOL; a coin with a smaller one is
    # case1 or case2
    rng = np.random.default_rng(seed)
    coin = random_coin(rng, kind)
    if change == "near-zero":
        coin = near_zero_coin(rng, coin)
    elif change != "none" and not (kind == "case1" and change in "ad"
                                   or kind == "case2" and change in "bc"):
        coin = zero_entry_coin(rng, coin, change, size)
    smallest = min(q.norm() for q in coin.entries())
    if closed_family(coin) in ("case3", "case4", "complex", "case5"):
        assert smallest > ZERO_TOL
    if smallest <= ZERO_TOL:
        assert classify(coin) in ("case1", "case2")


def test_check_norm_reports_the_largest_drift():
    check_norm((1.0, 1.0 + 1e-11), 5)
    check_norm(np.ones(4), 5)
    with pytest.raises(NormDriftError) as err:
        check_norm((1.0 + 2e-10, 1.0 - 3e-10), 7)
    assert err.value.drift == pytest.approx(3e-10, rel=1e-6) and err.value.steps == 7
    # a NaN total fails, wherever it sits, and is the drift reported
    for totals in ((math.nan,), (1.0, math.nan), (math.nan, 1.0 + 1e-3)):
        with pytest.raises(NormDriftError) as err:
            check_norm(totals, 1)
        assert math.isnan(err.value.drift)


def test_u_theta_at_zero_is_chi():
    rng = np.random.default_rng(23)
    coin = random_coin(rng)
    assert np.allclose(u_theta(coin, 0.0), chi_matrix(coin.matrix()))


def test_u_theta_hadamard_quarter_turn():
    coin = hadamard_coin()
    u0 = u_theta(coin, 0.0)
    u = u_theta(coin, math.pi / 2.0)
    assert np.allclose(u[:2], 1j * u0[:2])
    assert np.allclose(u[2:], -1j * u0[2:])


def test_u_theta_unitary_and_det():
    rng = np.random.default_rng(24)
    for _ in range(20):
        coin = random_coin(rng)
        for theta in rng.uniform(-math.pi, math.pi, size=5):
            u = u_theta(coin, float(theta))
            assert is_unitary(u, 1e-10)
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_random_coins_per_class():
    rng = np.random.default_rng(25)
    for kind in ("case1", "case2", "case3", "case4", "case5", "general"):
        for _ in range(10):
            coin = random_coin(rng, kind)
            assert classify(coin) == kind
            assert max(unitarity_residuals(*coin.entries()).values()) <= 1e-12
    for _ in range(10):
        coin = random_coin(rng, "complex")
        assert coin.is_complex()
        assert max(unitarity_residuals(*coin.entries()).values()) <= 1e-12


def test_case3_structure_relations():
    # real diagonal forces d = +-a and c = -+conj(b)
    rng = np.random.default_rng(26)
    for _ in range(20):
        coin = random_coin(rng, "case3")
        a, b, c, d = coin.entries()
        if abs(d.re - a.re) < abs(d.re + a.re):
            assert (d - a).norm() <= 1e-10
            assert (c + b.conj()).norm() <= 1e-10
        else:
            assert (d + a).norm() <= 1e-10
            assert (c - b.conj()).norm() <= 1e-10


def test_single_zero_entry_impossible():
    # |a| = |d| and |b| = |c| force zeros to appear in pairs, so any
    # coin with exactly one vanishing entry fails validation.
    rng = np.random.default_rng(27)
    for _ in range(50):
        coin = random_coin(rng)
        a, b, c, d = coin.entries()
        with pytest.raises(NotUnitaryError):
            validate_coin(Quaternion.zero(), b, c, d)
        with pytest.raises(NotUnitaryError):
            validate_coin(a, Quaternion.zero(), c, d)
    # and in any valid coin the modulus pairing holds
    for _ in range(50):
        coin = random_coin(rng)
        a, b, c, d = coin.entries()
        assert abs(a.norm() - d.norm()) <= 1e-10
        assert abs(b.norm() - c.norm()) <= 1e-10


def test_json_roundtrip():
    rng = np.random.default_rng(28)
    for kind in ("general", "case4", "case5"):
        coin = random_coin(rng, kind)
        text = coin_to_json(coin)
        back = coin_from_json(text)
        assert back == coin
        payload = json.loads(text)
        assert sorted(payload.keys()) == ["a", "b", "c", "d"]


def test_rebuilt_from_split_classifies_identically():
    rng = np.random.default_rng(29)
    for kind in ("case1", "case3", "case4", "case5", "general"):
        coin = random_coin(rng, kind)
        ops = split_pq(coin)
        total = ops.p + ops.q
        rebuilt = validate_coin(*(Quaternion.from_array(total[r, c])
                                  for r in range(2) for c in range(2)))
        assert classify(rebuilt) == classify(coin)
