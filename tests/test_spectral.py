import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqwalk import Quaternion, DomainError, spectral
from qqwalk.coin import (COIN_CLASSES, classify, hadamard_coin, load_coin, random_coin,
                         u_theta, validate_coin)
from qqwalk.errors import DegenerateABError, DegenerateError
from qqwalk.exact import closed_form_distribution
from qqwalk.quaternion import random_unit_quaternion
from qqwalk.spectral import (
    LimitDensity,
    appendix_ab,
    case5_angle,
    case5_group_velocity,
    char_poly_coeffs,
    eigen_system,
    eigenvector_closed,
    group_velocities,
    integrate_weighted_density,
    kolmogorov_distance,
    limit_cdf,
    limit_compare,
    qqw_limit_density,
    qqw_limit_params,
    support_radius,
    weight_constant,
)
from qqwalk.walk import distribution, evolve, moment

from helpers import (arcsine_density, central_difference_velocities, eigen_angles,
                     numeric_char_poly, numpy_eigen_system, paper_direction,
                     paper_qqw_density, paper_support_radius_surd, quadrature_moment,
                     random_spinor, scan_support_radius, unblocked_limit_cdf)

S = math.sqrt(0.5)
I = Quaternion.i()
J = Quaternion.j()
K = Quaternion.k()


def file_coin(name):
    return load_coin(os.path.join(os.path.dirname(__file__), os.pardir, "coins",
                                  name + ".json"))


def ij_coin():
    return validate_coin(S * I, S * J, S * J, S * I)


def jk_coin():
    return validate_coin(S * J, S * J, S * K, -S * K)


def mixed_case5_coin():
    # trace-free, all entries of modulus 1/sqrt2, and b*c is not real:
    # Re(bc) = -1/(2 sqrt 2), strictly between 0 and -|b|^2.
    a = S * I
    b = 0.5 * (I + J)
    c = Quaternion(-0.5, 0.5, 0.5, 0.5) * (1.0 / math.sqrt(2.0))
    d = -0.5 * (J + K)
    return validate_coin(a, b, c, d)


# ---------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------

def test_char_poly_matches_determinant_oracle():
    rng = np.random.default_rng(70)
    for _ in range(40):
        coin = random_coin(rng, rng.choice(["general", "case3", "case4", "case5"]))
        theta = float(rng.uniform(-math.pi, math.pi))
        got = char_poly_coeffs(coin, theta)
        want = numeric_char_poly(coin, theta)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_char_poly_structure():
    rng = np.random.default_rng(71)
    coin = random_coin(rng, "case5")
    coeffs = char_poly_coeffs(coin, 0.83)
    assert abs(coeffs[1]) <= 1e-14    # cubic term vanishes for trace-free coins
    assert abs(coeffs[3]) <= 1e-14
    assert coeffs[4] == pytest.approx(1.0)

    coin = hadamard_coin()
    got = char_poly_coeffs(coin, 0.0)
    want = numeric_char_poly(coin, 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert got[4] == pytest.approx(1.0)


# ---------------------------------------------------------------------
# eigensystem
# ---------------------------------------------------------------------

def test_eigen_system_residuals_and_modulus():
    rng = np.random.default_rng(72)
    nodes = []
    for _ in range(15):
        coin = random_coin(rng, rng.choice(["general", "case4", "case5", "complex"]))
        nodes.append((coin, float(rng.uniform(-math.pi, math.pi)), False))
    # next to the band touching of the ij coin at theta = 0, where the
    # nodes must solve; at 3.5e-8 the eigenvalue gap is 4.9e-8, above the
    # degeneracy tolerance
    nodes += [(ij_coin(), 1.0233520470972575e-07, True), (ij_coin(), 3.5e-8, True)]
    for coin, theta, must_solve in nodes:
        try:
            pairs = eigen_system(coin, theta)
        except DegenerateError:
            assert not must_solve
            continue
        prod = 1.0 + 0.0j
        for pr in pairs:
            assert abs(abs(pr.value) - 1.0) <= 1e-12
            assert pr.residual <= 1e-9
            prod *= pr.value
        assert abs(abs(prod) - 1.0) <= 1e-10


@pytest.mark.parametrize("name", ["tracefree_ij", "tracefree_jk"])
def test_eigenvector_phase_at_tied_components(name):
    # at theta = pi/2 two components of every eigenvector tie in modulus up
    # to the last bits; the lowest tied index is the real positive one
    coin = file_coin(name)
    theta = math.pi / 2
    for pr in eigen_system(coin, theta):
        for vec in (pr.vector, eigenvector_closed(coin, theta, pr.lam)):
            mod = np.abs(vec)
            tied = np.flatnonzero(mod >= mod.max() - 1e-9)
            assert len(tied) == 2
            k = tied[0]
            assert vec[k].real > 0.0 and abs(vec[k].imag) <= 1e-15


def test_case5_spectrum_closed_form():
    # {e^{i lam}, -e^{i lam}, e^{-i lam}, -e^{-i lam}} with
    # cos 2 lam = Re(bc) - |a|^2 cos 2 theta
    rng = np.random.default_rng(73)
    coins = [ij_coin(), jk_coin(), mixed_case5_coin(),
             random_coin(rng, "case5"), random_coin(rng, "case5")]
    for coin in coins:
        for theta in np.linspace(-2.9, 2.9, 13):
            lam = case5_angle(coin, float(theta))
            got = np.sort(eigen_angles(coin, float(theta)))
            want = np.sort([lam, -lam, math.pi - lam, lam - math.pi])
            assert np.max(np.abs(got - want)) <= 1e-9


def test_degenerate_node_detected():
    # at theta = 0 the ij coin has doubly degenerate eigenvalues +-i
    with pytest.raises(DegenerateError):
        eigen_system(ij_coin(), 0.0)


@pytest.mark.parametrize("theta", (math.nan, math.inf, -math.inf))
def test_eigen_system_rejects_nonfinite_theta(theta, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a sweep ran on a non-finite theta")

    monkeypatch.setattr(spectral, "_jacobi", no_sweep)
    with pytest.raises(ValueError, match="theta must be finite"):
        eigen_system(ij_coin(), theta)


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       theta=st.floats(min_value=-math.pi, max_value=math.pi))
def test_eigen_system_matches_numpy_oracle(kind, seed, theta):
    # the Jacobi solve against numpy's eig of the whole symbol: the same
    # degenerate nodes, eigenvalues, and vectors up to a phase wherever
    # the eigenvalue gap leaves them well defined
    coin = random_coin(np.random.default_rng(seed), kind)
    try:
        want = numpy_eigen_system(coin, theta)
    except DegenerateError:
        with pytest.raises(DegenerateError):
            eigen_system(coin, theta)
        return
    got = eigen_system(coin, theta)
    values = np.array([pr.value for pr in want])
    for m, (g, w) in enumerate(zip(got, want)):
        assert abs(g.value - w.value) <= 1e-12
        assert g.residual <= 1e-12
        if np.min(np.abs(np.delete(values, m) - w.value)) >= 1e-6:
            overlap = np.vdot(g.vector, w.vector)
            assert np.linalg.norm(np.asarray(g.vector) * (overlap / abs(overlap))
                                  - w.vector) <= 1e-10


def test_close_branches_at_plus_minus_i():
    # the ij coin turned by q x conj(q) on every entry keeps its double
    # eigenvalues +-i at theta = 0; next to it two branches sit close to
    # +-i, where H2 = sin(lam) separates them only to second order, so the
    # cluster step must keep the H(MU) vectors that already solve U
    rng = np.random.default_rng(81)
    checked = 0
    for _ in range(6):
        q = random_unit_quaternion(rng)
        coin = validate_coin(*(q * e * q.conj() for e in ij_coin().entries()))
        for theta in (1e-2, -1e-3, 3e-4, -1e-4, 3e-6, -1e-7):
            want = numpy_eigen_system(coin, theta)
            got = eigen_system(coin, theta)
            assert max(pr.residual for pr in got) <= 1e-12
            assert max(abs(g.value - w.value) for g, w in zip(got, want)) <= 1e-12
            checked += 1
    assert checked == 36


def _h_collision_theta(coin):
    """(theta, exact): the theta in [0, pi/2] where the branches -lam and
    pi - lam of a trace-free coin come closest to one eigenvalue of H(MU),
    which they share where cos(lam) = MU sin(lam).  Bisection on the closed
    eigen-angle finds it when the angle reaches that value (exact = True);
    otherwise the nearer end of the range is the closest approach."""
    target = math.atan(1.0 / spectral.MU)
    lo, hi = 0.0, math.pi / 2
    f_lo = case5_angle(coin, lo) - target
    f_hi = case5_angle(coin, hi) - target
    if f_lo * f_hi > 0.0:
        return (lo if abs(f_lo) < abs(f_hi) else hi), False
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = case5_angle(coin, mid) - target
        if f_mid * f_lo > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def test_h_collision_is_resolved():
    # a fixed MU makes two distinct eigenvalues of U share one of H(MU) at
    # some theta on the trace-free coins whose angle passes through
    # pi/2 - atan(MU); tracefree_jk stops 1e-4 short of it at theta = 0,
    # where the two still fall into one cluster.  The cluster step
    # separates them in both cases.
    rng = np.random.default_rng(80)
    coins = [file_coin(n) for n in ("tracefree_ij", "tracefree_jk", "tracefree_mixed")]
    while len(coins) < 5:
        coin = random_coin(rng, "case5")
        if _h_collision_theta(coin)[1]:
            coins.append(coin)
    exact = 0
    for coin in coins:
        theta, hit = _h_collision_theta(coin)
        u = u_theta(coin, theta)
        uh = u.conj().T
        h_gap = np.min(np.diff(np.linalg.eigvalsh((u + uh) / 2
                                                  + spectral.MU * (u - uh) / 2j)))
        assert h_gap <= (1e-9 if hit else 1e-3)
        exact += hit
        pairs = eigen_system(coin, theta)
        assert max(pr.residual for pr in pairs) <= 1e-12
        want = np.sort(np.angle(np.linalg.eigvals(u)))
        assert np.max(np.abs(np.sort([pr.lam for pr in pairs]) - want)) <= 1e-12
    assert exact == 4


# ---------------------------------------------------------------------
# closed eigenvector construction
# ---------------------------------------------------------------------

def _branch_sweep(coin, thetas):
    for theta in thetas:
        try:
            pairs = eigen_system(coin, float(theta))
        except DegenerateError:
            continue
        for pr in pairs:
            av, bv = appendix_ab(coin, float(theta), pr.lam)
            if av.norm() * bv.norm() <= 1e-10:
                continue
            yield float(theta), pr


def test_closed_eigenvector_matches_numeric():
    rng = np.random.default_rng(74)
    coins = [ij_coin(), jk_coin(), mixed_case5_coin(), hadamard_coin(),
             random_coin(rng), random_coin(rng, "case3"),
             random_coin(rng, "case4"), random_coin(rng, "complex")]
    thetas = np.linspace(-3.0, 3.0, 9)
    checked = 0
    for coin in coins:
        for theta, pr in _branch_sweep(coin, thetas):
            vec = eigenvector_closed(coin, theta, pr.lam)
            overlap = np.vdot(pr.vector, vec)
            assert abs(overlap) > 1e-8
            phase = overlap / abs(overlap)
            assert np.linalg.norm(vec - phase * np.asarray(pr.vector)) <= 1e-8
            u = u_theta(coin, theta)
            assert np.linalg.norm(u @ vec - pr.value * vec) <= 1e-9
            checked += 1
    assert checked > 150


def test_direction_parameter_invariants():
    # C is a unit pure-imaginary quaternion at true eigen-angles
    rng = np.random.default_rng(75)
    coins = [mixed_case5_coin(), random_coin(rng), random_coin(rng, "case4")]
    for coin in coins:
        for theta, pr in _branch_sweep(coin, np.linspace(-2.5, 2.5, 7)):
            av, bv = appendix_ab(coin, theta, pr.lam)
            cq = bv.inverse() * av
            assert abs(cq.norm() - 1.0) <= 1e-9
            assert abs(cq.re) <= 1e-9


def test_direction_parameter_printed_formulas():
    # the general-momentum and trace-free printings of C and |B|^2 agree
    # with the defining quotient wherever they are defined
    rng = np.random.default_rng(76)
    coins = [("any", random_coin(rng)), ("any", random_coin(rng, "case3")),
             ("tracefree", jk_coin()), ("tracefree", mixed_case5_coin())]
    for scope, coin in coins:
        for theta, pr in _branch_sweep(coin, np.linspace(-2.8, 2.8, 7)):
            av, bv = appendix_ab(coin, theta, pr.lam)
            if bv.norm_sq() < 1e-6:  # display quotients degrade near B = 0
                continue
            base = bv.inverse() * av
            formulas = ("general", "case5") if scope == "tracefree" else ("general",)
            for formula in formulas:
                cq, bsq = paper_direction(coin, theta, pr.lam, formula)
                assert (cq - base).norm() <= 1e-9
                assert abs(bsq - bv.norm_sq()) <= 1e-12


def test_construction_needs_offdiagonal():
    rng = np.random.default_rng(77)
    coin = random_coin(rng, "case1")
    with pytest.raises(DegenerateABError):
        eigenvector_closed(coin, 0.4, 0.2)


def test_construction_needs_nondegenerate_ab():
    # the Hadamard coin is real: every eigen-angle of its symbol is double,
    # A and B both vanish there up to round-off, and C = B^{-1} A is undefined
    coin = file_coin("hadamard")
    for lam in eigen_angles(coin, 0.3):
        av, bv = appendix_ab(coin, 0.3, float(lam))
        assert av.norm() * bv.norm() <= 4e-32
        with pytest.raises(DegenerateABError, match=r"^\|A\|\|B\| ~ 0 at theta=0\.3,"):
            eigenvector_closed(coin, 0.3, float(lam))


# ---------------------------------------------------------------------
# group velocities
# ---------------------------------------------------------------------

def test_group_velocity_zero_at_symmetric_momentum():
    assert case5_group_velocity(jk_coin(), 0.0) == pytest.approx(0.0, abs=1e-14)


def test_group_velocity_numeric_matches_analytic():
    rng = np.random.default_rng(78)
    coins = [jk_coin(), mixed_case5_coin(), random_coin(rng, "case5")]
    for coin in coins:
        for theta in (0.31, 0.9, -1.2, 2.2):
            try:
                numeric = group_velocities(coin, theta)
            except DegenerateError:
                continue
            analytic = abs(case5_group_velocity(coin, theta))
            # branches come in +-pairs; compare magnitudes
            assert np.max(np.abs(np.abs(numeric) - analytic)) <= 1e-12


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       theta=st.floats(min_value=-math.pi, max_value=math.pi))
def test_eigen_system_property(kind, seed, theta):
    # every node is either excluded as degenerate (always for the paired
    # spectrum of case3) or solved to the residual bound; where the
    # branches are well separated, v^H SIGMA v is the slope of the angles
    coin = random_coin(np.random.default_rng(seed), kind)
    try:
        pairs = eigen_system(coin, theta)
    except DegenerateError:
        return
    assert kind != "case3"
    for pr in pairs:
        assert abs(abs(pr.value) - 1.0) <= 1e-12
        assert pr.residual <= 1e-9
    angles = np.array([pr.lam for pr in pairs])
    gaps = np.abs(np.angle(np.exp(1j * (angles[:, None] - angles[None, :]))))
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) >= 1e-3:
        want = central_difference_velocities(coin, theta, h=1e-5)
        assert np.max(np.abs(group_velocities(coin, theta) - want)) <= 1e-8


def test_support_radius_formulas_agree():
    rng = np.random.default_rng(79)
    coins = [ij_coin(), jk_coin(), mixed_case5_coin()] + [
        random_coin(rng, "case5") for _ in range(5)]
    for coin in coins:
        r1 = support_radius(coin)
        r2 = paper_support_radius_surd(coin)
        r3 = scan_support_radius(coin)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert r1 == pytest.approx(r3, abs=1e-9)
        assert 0.0 < r1 < 1.0


def test_support_radius_examples():
    assert support_radius(ij_coin()) == pytest.approx(S, abs=1e-12)
    assert paper_support_radius_surd(ij_coin()) == pytest.approx(S, abs=1e-12)
    assert scan_support_radius(ij_coin()) == pytest.approx(S, abs=1e-9)
    assert support_radius(jk_coin()) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------
# limit densities
# ---------------------------------------------------------------------

def test_qw_density_values():
    # at y = 0: sqrt(1 - r^2) / (pi * r) with r = 1/sqrt2 gives 1/pi
    params = LimitDensity(r=S, g=1.0)
    assert qqw_limit_density(params, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-14)
    assert qqw_limit_density(params, 0.9) == 0.0
    assert qqw_limit_density(params, -0.9) == 0.0
    assert math.isinf(qqw_limit_density(params, S))
    with pytest.raises(DomainError):
        qqw_limit_density(LimitDensity(r=1.5, g=1.0), 0.0)


@pytest.mark.parametrize("r", (1.5, 0.0))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_limit_law_rejects_radius_out_of_range(r):
    # every public route to f_r checks 0 < r < 1 the same way, before any
    # arithmetic on r can warn
    params = LimitDensity(r=r, g=1.0)
    routes = (lambda: qqw_limit_density(params, 0.0),
              lambda: limit_cdf(params, 0.0, [0.0]),
              lambda: integrate_weighted_density(params))
    for route in routes:
        with pytest.raises(DomainError, match="0 < r < 1"):
            route()


def test_qw_density_normalizes():
    # through the quadrature of limit_cdf: the closed-form moments are 1 at
    # order 0 by construction
    rng = np.random.default_rng(80)
    for r in rng.uniform(0.2, 0.95, size=50):
        params = LimitDensity(r=float(r), g=0.0)
        total = limit_cdf(params, 0.0, [params.r])[0]
        assert total == pytest.approx(1.0, abs=1e-6)


def test_qqw_density_reduces_when_bc_imaginary():
    # Re(bc) = 0: the density equals the complex-walk law at radius |a|^2,
    # which is smaller than |a|
    coin = jk_coin()
    assert (coin.b * coin.c).re == pytest.approx(0.0, abs=1e-15)
    params = qqw_limit_params(coin)
    assert params.r == pytest.approx(0.5, abs=1e-12)
    ys = np.linspace(-params.r, params.r, 1003)[1:-1]
    got = np.asarray(qqw_limit_density(params, ys))
    want = arcsine_density(0.5, ys)
    assert np.max(np.abs(got - want)) <= 1e-10


def _tracefree_file_coins():
    return [file_coin(name) for name in ("tracefree_ij", "tracefree_jk",
                                         "tracefree_mixed")]


def test_qqw_density_matches_paper_form():
    # the arcsine-type law at the trace-free radius against the paper's
    # printed G-form; tracefree_ij has real bc, so r = R = |a| there
    rng = np.random.default_rng(87)
    coins = _tracefree_file_coins() + [random_coin(rng, "case5") for _ in range(24)]
    bc = coins[0].b * coins[0].c
    assert bc.norm() == pytest.approx(abs(bc.re), abs=1e-15)
    for coin in coins:
        params = qqw_limit_params(coin)
        ys = np.linspace(-0.9 * params.r, 0.9 * params.r, 401)
        want = paper_qqw_density(coin, ys)
        rel = np.abs(qqw_limit_density(params, ys) - want) / want
        assert np.max(rel) <= 1e-12


@pytest.mark.parametrize("weight_c", (0.0, 1.0, -0.6, 0.7071067811865476))
def test_limit_cdf_matches_closed_form(weight_c):
    # F(y) = 1/2 + atan2(y sqrt(1 - r^2), sqrt(r^2 - y^2)) / pi
    #        + (C / pi) atan2(sqrt(r^2 - y^2), sqrt(1 - r^2)),
    # 0 below the support and 1 above it: the quadrature of limit_cdf and
    # the closed form of kolmogorov_distance against it
    for coin in [*_tracefree_file_coins(), hadamard_coin()]:
        params = qqw_limit_params(coin)
        r = params.r
        ys = np.concatenate([np.linspace(-r, r, 401), np.linspace(-1.0, 1.0, 401)])
        inner = np.sqrt(np.maximum(r * r - ys * ys, 0.0))
        outer = math.sqrt(1.0 - r * r)
        want = (0.5 + np.arctan2(ys * outer, inner) / math.pi
                + weight_c / math.pi * np.arctan2(inner, outer))
        got = limit_cdf(params, weight_c, ys)
        assert np.max(np.abs(got - want)) <= 1e-12
        closed = list(spectral._closed_cdf(params, weight_c, ys.tolist()))
        assert np.max(np.abs(np.array(closed) - want)) <= 1e-12


@pytest.mark.parametrize("name", ("tracefree_mixed", "hadamard"))
def test_walk_against_law(name):
    # the walk's distribution (an array) through the same statistic as
    # limit_compare's closed form (a list)
    coin = file_coin(name)
    alpha, beta = Quaternion(1), Quaternion.zero()
    params = qqw_limit_params(coin)
    c = weight_constant(coin, alpha, beta)
    walked = kolmogorov_distance(distribution(evolve(coin, alpha, beta, 2000)), params, c)
    assert abs(walked - limit_compare(coin, alpha, beta, 2000).kolmogorov) <= 1e-12
    assert walked <= 0.02


def test_qqw_density_outside_support():
    params = qqw_limit_params(mixed_case5_coin())
    assert qqw_limit_density(params, params.r + 0.01) == 0.0
    assert qqw_limit_density(params, -0.999) == 0.0
    assert math.isinf(qqw_limit_density(params, params.r))


def test_qqw_density_normalizes():
    rng = np.random.default_rng(81)
    coins = [ij_coin(), jk_coin(), mixed_case5_coin()] + [
        random_coin(rng, "case5") for _ in range(8)]
    for coin in coins:
        params = qqw_limit_params(coin)
        assert limit_cdf(params, 0.0, [params.r])[0] == pytest.approx(1.0, abs=1e-6)
        alpha, beta = random_spinor(rng)
        c = weight_constant(coin, alpha, beta)
        assert limit_cdf(params, c, [params.r])[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("order", range(9))
def test_weighted_moments_match_quadrature(order):
    # the closed-form moments against 2000-node Gauss-Legendre quadrature,
    # on the trace-free coin files, hadamard and radii up to 0.999
    rng = np.random.default_rng(88)
    laws = [qqw_limit_params(coin) for coin in [*_tracefree_file_coins(), hadamard_coin()]]
    laws += [LimitDensity(r=r, g=0.0) for r in (0.01, 0.3, 0.9, 0.99, 0.999)]
    for params in laws:
        for c in (0.0, 1.0, float(rng.uniform(-1.0, 1.0))):
            got = integrate_weighted_density(params, c, order)
            assert abs(got - quadrature_moment(params, c, order)) <= 1e-11


@pytest.mark.parametrize("order", (-1, -2))
def test_weighted_moment_rejects_negative_order(order):
    # y^-1 and y^-2 are not integrable at 0 against f_r
    params = qqw_limit_params(file_coin("tracefree_mixed"))
    with pytest.raises(ValueError, match="moment order must be non-negative"):
        integrate_weighted_density(params, 0.3, order)


def test_qqw_params_domain():
    # the Hadamard coin (case3) walks like a complex walk: r = |a|
    rng = np.random.default_rng(82)
    assert qqw_limit_params(hadamard_coin()).r == pytest.approx(S, abs=1e-15)
    with pytest.raises(DomainError):
        qqw_limit_params(random_coin(rng, "case1"))  # b = c = 0
    with pytest.raises(DomainError):
        qqw_limit_params(random_coin(rng, "case2"))  # a = d = 0
    with pytest.raises(DomainError, match="no closed-form limit law"):
        qqw_limit_params(random_coin(rng, "general"))


def test_weight_constant_values():
    rng = np.random.default_rng(83)
    coin = random_coin(rng, "case5")
    one, zero = Quaternion(1), Quaternion.zero()
    assert weight_constant(coin, one, zero) == pytest.approx(1.0)
    assert weight_constant(coin, zero, one) == pytest.approx(-1.0)


def test_weight_constant_symmetrizing_init():
    # beta = -conj(b) i a / (sqrt2 |a||b|) makes the cross term pure
    # imaginary, so C = 0 and the limit density is even
    rng = np.random.default_rng(84)
    for kind in ("case5", "general"):
        coin = random_coin(rng, kind)
        a, b = coin.a, coin.b
        alpha = Quaternion(S)
        beta = -1.0 / (math.sqrt(2.0) * a.norm() * b.norm()) * (b.conj() * I * a)
        assert abs(alpha.norm_sq() + beta.norm_sq() - 1.0) <= 1e-12
        assert weight_constant(coin, alpha, beta) == pytest.approx(0.0, abs=1e-12)


def test_limit_cdf_monotone_and_total():
    coin = mixed_case5_coin()
    params = qqw_limit_params(coin)
    c = weight_constant(coin, Quaternion(1), Quaternion.zero())
    ys = np.linspace(-params.r, params.r, 101)
    vals = limit_cdf(params, c, ys)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("ny", (1, 63, 64, 65, 2001))
def test_limit_cdf_blocks_match_one_grid(ny):
    # ny around the block size of 64 rows, and the 2001 points of compare
    # at n = 2000: the blocked sum equals the one-grid sum bit for bit
    rng = np.random.default_rng(ny)
    for coin in _tracefree_file_coins():
        params = qqw_limit_params(coin)
        c = weight_constant(coin, *random_spinor(rng))
        ys = np.sort(rng.uniform(-1.0, 1.0, ny))
        got = limit_cdf(params, c, ys)
        assert got.shape == (ny,)
        assert np.array_equal(got, unblocked_limit_cdf(params, c, ys))


def test_limit_cdf_memory_stays_in_blocks():
    # the one (2001, 400) grid route peaks at about 31 MB
    params = qqw_limit_params(mixed_case5_coin())
    ys = np.linspace(-1.0, 1.0, 2001)
    limit_cdf(params, 0.3, ys)  # Gauss-Legendre nodes cached outside the trace
    tracemalloc.start()
    try:
        limit_cdf(params, 0.3, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_limit_compare_contract():
    with pytest.raises(DomainError):
        limit_compare(ij_coin(), Quaternion(1), Quaternion.zero(), 99)
    rng = np.random.default_rng(85)
    with pytest.raises(DomainError):
        limit_compare(random_coin(rng, "case1"), Quaternion(1), Quaternion.zero(), 200)
    res = limit_compare(ij_coin(), Quaternion(1), Quaternion.zero(), 200)
    assert res.r == pytest.approx(S, abs=1e-12)
    assert 0.0 < res.kolmogorov < 0.2
    assert res.weight_c == pytest.approx(1.0)


def test_second_moment_route():
    # E[(X_n / n)^2] from the exact distribution approaches the closed-form
    # moment of the weighted limit density
    coin = mixed_case5_coin()
    alpha, beta = Quaternion(1), Quaternion.zero()
    n = 2000
    dist = distribution(evolve(coin, alpha, beta, n))
    emp = moment(dist, 2) / n ** 2
    lim = integrate_weighted_density(qqw_limit_params(coin),
                                     weight_constant(coin, alpha, beta), 2)
    assert abs(emp - lim) <= 5e-3


def test_compare_from_mixed_spinor():
    # from alpha = beta the cross term of C is nonzero; the walk follows
    # C = +0.7071 here (Kolmogorov 0.016), and -0.7071 gives 0.26
    res = limit_compare(file_coin("tracefree_mixed"), Quaternion(S), Quaternion(S), 2000)
    assert res.kolmogorov <= 0.02
    assert res.weight_c == pytest.approx(S, abs=1e-12)


def test_first_moment_from_quaternionic_spinor():
    # E[X_n / n] is odd in C; over six random case5 coins and spinors it
    # matched the limit moment to <= 1.2e-4 at n = 2000 (the flipped cross
    # term was off by 4e-3 to 0.17)
    rng = np.random.default_rng(86)
    coin = random_coin(rng, "case5")
    alpha, beta = random_spinor(rng)
    n = 2000
    emp = moment(distribution(evolve(coin, alpha, beta, n)), 1) / n
    lim = integrate_weighted_density(qqw_limit_params(coin),
                                     weight_constant(coin, alpha, beta), 1)
    assert abs(emp - lim) <= 1e-3


def test_moments_converge_at_rate_one_over_n():
    # E[(X_n / n)^k] - m_k shrinks like 1/n for odd k and like 1/n^2 for
    # even k: from n = 1000 to 10000 the error falls 9.6-10.2 and 95-102
    # fold here (9.7-10.8 and 99-101 from 10^4 to 10^5).  The odd moments
    # test C and its cross term, from random quaternionic spinors.  The
    # band needs a 1/n coefficient away from zero: where it is ten times
    # smaller than these, the n^-2 terms still show at n = 1000
    t0 = time.perf_counter()
    rng = np.random.default_rng(94)
    coins = [file_coin(name) for name in ("hadamard", "tracefree_ij", "tracefree_jk",
                                          "tracefree_mixed")]
    coins += [random_coin(rng, kind) for kind in ("case3", "case4", "complex", "case5")]
    for coin in coins:
        alpha, beta = random_spinor(rng)
        params = qqw_limit_params(coin)
        c = weight_constant(coin, alpha, beta)
        errs = []
        for n in (1000, 10000):
            dist = closed_form_distribution(coin, alpha, beta, n)
            errs.append([abs(moment(dist, k) / n ** k - integrate_weighted_density(params, c, k))
                         for k in (1, 2, 3, 4)])
        ratios = [e0 / e1 for e0, e1 in zip(*errs)]
        assert all(8.0 <= q <= 12.5 for q in ratios[0::2]), ratios
        assert all(80.0 <= q <= 125.0 for q in ratios[1::2]), ratios
    assert time.perf_counter() - t0 < 2.0


def test_supports_differ_between_walk_families():
    # same moduli as the Hadamard coin, but the trace-free walks spread
    # strictly slower whenever bc has an imaginary part or Re(bc) = 0
    qw_r = qqw_limit_params(hadamard_coin()).r
    assert qw_r == pytest.approx(S, abs=1e-15)
    assert support_radius(jk_coin()) == pytest.approx(0.5, abs=1e-12)
    assert support_radius(jk_coin()) < qw_r
    assert support_radius(mixed_case5_coin()) < qw_r


def test_trace_free_radius_is_abs_a_on_the_overlap():
    # trace-free case4 coins (like tracefree_ij) and trace-free complex
    # coins lie in both branches of `qqw_limit_params`; the two radii agree
    # there, so the order of the branches cannot change r beyond rounding
    rng = np.random.default_rng(92)
    for _ in range(20):
        phi = float(rng.uniform(0.15 * math.pi, 0.35 * math.pi))
        sign = float(rng.choice((-1.0, 1.0)))
        cos_phi, sin_phi = math.cos(phi), math.sin(phi)
        a, d = cos_phi * I, (-sign * cos_phi) * I
        v = rng.normal(size=2)
        perplex = Quaternion(0.0, 0.0, *map(float, v / np.linalg.norm(v)))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        unit = Quaternion(math.cos(angle), math.sin(angle), 0.0, 0.0)
        case4 = validate_coin(a, sin_phi * perplex, (-sign * sin_phi) * perplex, d)
        cplx = validate_coin(a, sin_phi * unit, (-sign * sin_phi) * unit.conj(), d)
        assert classify(case4) == "case4" and cplx.is_complex()
        for coin in (case4, cplx):
            assert support_radius(coin) == pytest.approx(coin.a.norm(), abs=1e-12)


def test_qw_law_separates_the_closed_family_from_the_others():
    # Kolmogorov distance d to f_|a| at n = 2000 and 8000: the Hadamard,
    # case3, case4 and complex walks converge to it like n^(-1/3) or
    # faster, the case5 and general walks stay far from it
    t0 = time.perf_counter()
    rng = np.random.default_rng(93)
    follow = [(hadamard_coin(), Quaternion(1), Quaternion.zero())]
    follow += [(random_coin(rng, kind), *random_spinor(rng))
               for kind in ("case3", "case3", "case4", "case4", "complex", "complex")]
    depart = [(random_coin(rng, kind), *random_spinor(rng))
              for kind in ("case5", "case5", "general", "general")]
    sizes = (2000, 8000)
    for coin, alpha, beta in follow:
        assert qqw_limit_params(coin).r == pytest.approx(coin.a.norm(), abs=1e-15)
        d = [limit_compare(coin, alpha, beta, n).kolmogorov for n in sizes]
        assert all(dn * n ** (1.0 / 3.0) <= 0.4 for dn, n in zip(d, sizes)), d
        assert d[1] < d[0]
    for coin, alpha, beta in depart:
        u, s = coin.a.norm_sq(), (coin.b * coin.c).re
        params = LimitDensity(r=coin.a.norm(), g=1.0 + u * u - s * s)
        c = weight_constant(coin, alpha, beta)
        for n in sizes:
            dist = distribution(evolve(coin, alpha, beta, n))
            assert kolmogorov_distance(dist, params, c) >= 0.2
    assert time.perf_counter() - t0 < 4.0
