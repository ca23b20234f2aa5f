"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from qqwalk import Quaternion
from qqwalk.coin import (
    classify,
    hadamard_coin,
    load_coin,
    random_coin,
    split_pq,
    validate_coin,
)
from qqwalk.errors import DegenerateABError, DegenerateError
from qqwalk.exact import closed_form_distribution, xi_closed
from qqwalk.quaternion import (
    chi_arr,
    qconj_arr,
    qmul_arr,
    qnorm_arr,
    solve_sylvester,
    sylvester_residual,
)
from qqwalk.spectral import (
    appendix_ab,
    char_poly_coeffs,
    eigen_system,
    eigenvector_closed,
    integrate_weighted_density,
    limit_compare,
    qqw_limit_params,
    qw_limit_density,
    qw_limit_params,
    support_radius,
    weight_constant,
)
from qqwalk.walk import distribution, evolve, init_state

from helpers import (enumerate_xi, numeric_char_poly, paper_qqw_density,
                     paper_support_radius_surd, random_spinor, scan_support_radius,
                     step, step_walk)

COINS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
S = math.sqrt(0.5)


def _coin(name):
    return load_coin(os.path.join(COINS_DIR, name + ".json"))


def _report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


# ---------------------------------------------------------------------
# 1. quaternion algebra bulk identities, < 1 s
# ---------------------------------------------------------------------

def test_criterion_01_quaternion_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    x = rng.normal(size=(10000, 4))
    y = rng.normal(size=(10000, 4))
    prod = qmul_arr(x, y)

    # modulus multiplicativity
    lhs = qnorm_arr(prod)
    rhs = qnorm_arr(x) * qnorm_arr(y)
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)) <= 1e-12

    # conjugation anti-homomorphism
    anti = qmul_arr(qconj_arr(y), qconj_arr(x))
    scale = np.maximum(1.0, rhs)[:, None]
    assert np.max(np.abs(qconj_arr(prod) - anti) / scale) <= 1e-12

    # complex-image homomorphism: chi(xy) = chi(x) chi(y),
    # chi(x + y) = chi(x) + chi(y), chi(r x) = r chi(x)
    cx = chi_arr(x)
    cy = chi_arr(y)
    hom = np.einsum("nij,njk->nik", cx, cy)
    assert np.max(np.abs(chi_arr(prod) - hom) / scale[..., None]) <= 1e-12
    assert np.max(np.abs(chi_arr(x + y) - (cx + cy))) <= 1e-12
    r = rng.normal(size=(10000, 1))
    assert np.max(np.abs(chi_arr(r * x) - r[..., None] * cx)
                  / np.maximum(1.0, np.abs(r))[..., None]) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"1e4 random pairs, identities within 1e-12, {elapsed:.2f}s")


# ---------------------------------------------------------------------
# 2. a x - x b = c solver across all regimes
# ---------------------------------------------------------------------

def test_criterion_02_sylvester_residuals():
    rng = np.random.default_rng(1002)
    zero = Quaternion.zero()

    def rq():
        return Quaternion.from_array(rng.normal(size=4))

    def runit():
        v = rng.normal(size=4)
        return Quaternion.from_array(v / np.linalg.norm(v))

    worst = 0.0
    for trial in range(10000):
        branch = trial % 3
        if branch == 0:
            a, b, c, p = rq(), rq(), rq(), zero
        else:
            a = rq()
            g = runit()
            b = g * a * g.inverse()
            if branch == 1:
                c, p = zero, rq()
            else:
                xt = rq()
                c, p = a * xt - xt * b, zero
        x = solve_sylvester(a, b, c, p)
        res = sylvester_residual(a, b, c, x)
        bound = 1e-12 * max(1.0, (a.norm() + b.norm()) * x.norm() + c.norm())
        worst = max(worst, res / bound)
        assert res <= bound
    _report(2, f"1e4 solves over all three regimes, worst scaled residual {worst:.3f}")


# ---------------------------------------------------------------------
# 3. probability conservation and parity support
# ---------------------------------------------------------------------

def test_criterion_03_conservation():
    rng = np.random.default_rng(1003)
    kinds = ["general", "complex", "case1", "case2", "case3", "case4", "case5"]
    worst = 0.0
    for k in range(100):
        coin = random_coin(rng, kinds[k % len(kinds)])
        for _ in range(10):
            alpha, beta = random_spinor(rng)
            n = int(rng.integers(50, 201))
            _, norms = step_walk(coin, alpha, beta, n)
            total = evolve(coin, alpha, beta, n).total_probability()
            worst = max(worst, float(np.max(np.abs(norms - 1.0))),
                        abs(total - 1.0))
    assert worst <= 1e-10

    # parity: amplitudes exist only on x = -n, -n+2, ..., n, and off-parity
    # probabilities are exactly zero
    coin = random_coin(rng)
    alpha, beta = random_spinor(rng)
    st = evolve(coin, alpha, beta, 31)
    dist = distribution(st)
    assert list(st.positions()) == list(range(-31, 32, 2))
    for x in range(-32, 33, 2):  # opposite parity
        assert dist.prob(x) == 0.0
    _report(3, f"100 coins x 10 inits, n <= 200; worst |sum P - 1| = {worst:.2e}")


# ---------------------------------------------------------------------
# 4. quaternion evolution vs 4-component complex evolution
# ---------------------------------------------------------------------

def test_criterion_04_dual_representation():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for kind in ("general", "case4", "case5", "complex", "case2"):
        coin = random_coin(rng, kind)
        ops = split_pq(coin)
        alpha, beta = random_spinor(rng)
        st = init_state(alpha, beta)
        for n in range(1, 101):
            st = step(st, ops)
            dq = distribution(st).probs
            dc = distribution(evolve(coin, alpha, beta, n)).probs
            worst = max(worst, float(np.max(np.abs(dq - dc))))
    assert worst <= 1e-12
    _report(4, f"5 coins, every n <= 100; worst distribution gap {worst:.2e}")


# ---------------------------------------------------------------------
# 5. diagonal and antidiagonal coins: exact two-point / localized laws
# ---------------------------------------------------------------------

def test_criterion_05_degenerate_coin_families():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(5):
        coin = random_coin(rng, "case1")
        alpha, beta = random_spinor(rng)
        for n in range(1, 101):
            dist = distribution(evolve(coin, alpha, beta, n))
            worst = max(worst, abs(dist.prob(-n) - alpha.norm_sq()))
            worst = max(worst, abs(dist.prob(n) - beta.norm_sq()))
            worst = max(worst, dist.total() - dist.prob(-n) - dist.prob(n))
    for _ in range(5):
        coin = random_coin(rng, "case2")
        alpha, beta = random_spinor(rng)
        for n in range(1, 101):
            dist = distribution(evolve(coin, alpha, beta, n))
            if n % 2 == 0:
                worst = max(worst, abs(dist.prob(0) - 1.0))
            else:
                worst = max(worst, abs(dist.prob(1) - alpha.norm_sq()))
                worst = max(worst, abs(dist.prob(-1) - beta.norm_sq()))
    assert worst <= 1e-12
    _report(5, f"two-point and localized laws, n <= 100; worst gap {worst:.2e}")


# ---------------------------------------------------------------------
# 6. closed path sums vs enumeration of every path, < 30 s
# ---------------------------------------------------------------------

def test_criterion_06_path_sum_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    families = ([("complex", None)] * 20 + [("case3", None)] * 10
                + [("case4", None)] * 10)
    worst = 0.0
    for kind, _ in families:
        coin = random_coin(rng, kind)
        table = enumerate_xi(split_pq(coin), 12)
        for l in range(1, 12):
            for m in range(1, 12 - l + 1):
                closed = xi_closed(coin, l, m).matrix
                brute = table[l, m]
                worst = max(worst, float(np.max(np.abs(closed - brute))))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"40 coins, all l+m <= 12; worst entry gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 7. closed-form distribution vs simulation for the quaternionic families
# ---------------------------------------------------------------------

def test_criterion_07_distribution_oracle():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for kind in ("case3", "case4"):
        for _ in range(10):
            coin = random_coin(rng, kind)
            for _ in range(20):
                alpha, beta = random_spinor(rng)
                st = init_state(alpha, beta)
                ops = split_pq(coin)
                for n in range(1, 51):
                    st = step(st, ops)
                    sim = distribution(st).probs
                    exact = closed_form_distribution(coin, alpha, beta, n).probs
                    worst = max(worst, float(np.max(np.abs(sim - exact))))
    assert worst <= 1e-10
    _report(7, f"20 coins x 20 inits, all x, n <= 50; worst gap {worst:.2e}")


# ---------------------------------------------------------------------
# 8. characteristic polynomial closed form vs determinant sampling
# ---------------------------------------------------------------------

def test_criterion_08_char_poly():
    rng = np.random.default_rng(1008)
    kinds = ["general", "complex", "case3", "case4", "case5"]
    worst = 0.0
    for k in range(200):
        coin = random_coin(rng, kinds[k % len(kinds)])
        theta = float(rng.uniform(-math.pi, math.pi))
        gap = np.max(np.abs(char_poly_coeffs(coin, theta)
                            - numeric_char_poly(coin, theta)))
        worst = max(worst, float(gap))
    assert worst <= 1e-10
    _report(8, f"200 random (coin, theta); worst coefficient gap {worst:.2e}")


# ---------------------------------------------------------------------
# 9. eigen residuals on 512-point momentum grids + closed eigenvectors
# ---------------------------------------------------------------------

def test_criterion_09_eigen_suite():
    rng = np.random.default_rng(1009)
    # real-diagonal coins have a two-fold degenerate symbol at every
    # momentum (the spectrum pairs up), so every node of theirs is an
    # excluded degenerate node; the grid uses the other families
    case3 = random_coin(rng, "case3")
    for theta in (0.3, 1.1, 2.7):
        with pytest.raises(DegenerateError):
            eigen_system(case3, theta)

    coins = [_coin("tracefree_ij"), _coin("tracefree_jk"), _coin("tracefree_mixed"),
             random_coin(rng, "general"), random_coin(rng, "case4"),
             random_coin(rng, "complex")]
    thetas = -math.pi + 2.0 * math.pi * (np.arange(512) + 0.5) / 512
    worst_res = 0.0
    worst_cross = 0.0
    checked_nodes = 0
    checked_vecs = 0
    for coin in coins:
        for theta in thetas:
            try:
                pairs = eigen_system(coin, float(theta))
            except DegenerateError:
                continue
            checked_nodes += 1
            for pr in pairs:
                worst_res = max(worst_res, pr.residual)
                av, bv = appendix_ab(coin, float(theta), pr.lam)
                if av.norm() * bv.norm() <= 1e-10:
                    continue
                vec = eigenvector_closed(coin, float(theta), pr.lam)
                overlap = np.vdot(pr.vector, vec)
                if abs(overlap) < 1e-12:
                    worst_cross = math.inf
                    continue
                cross = np.linalg.norm(vec - (overlap / abs(overlap)) * pr.vector)
                worst_cross = max(worst_cross, float(cross))
                checked_vecs += 1
    assert checked_nodes > 3000
    assert checked_vecs > 10000
    assert worst_res <= 1e-9
    assert worst_cross <= 1e-8
    _report(9, f"{checked_nodes} nodes: residual {worst_res:.2e}, "
               f"closed-vs-numeric eigenvector {worst_cross:.2e}")


# ---------------------------------------------------------------------
# 10. support radius of the two reference trace-free coins
# ---------------------------------------------------------------------

def test_criterion_10_support_radius():
    ij = _coin("tracefree_ij")
    target = math.sqrt(0.5)
    assert abs(support_radius(ij) - target) <= 1e-9
    assert abs(paper_support_radius_surd(ij) - target) <= 1e-9
    assert abs(scan_support_radius(ij) - target) <= 1e-9

    jk = _coin("tracefree_jk")
    assert abs(support_radius(jk) - 0.5) <= 1e-9
    assert abs(paper_support_radius_surd(jk) - 0.5) <= 1e-9
    assert abs(scan_support_radius(jk) - 0.5) <= 1e-9

    # the paper's printed G-form against the arcsine-type law at r = 1/2
    ys = np.linspace(-0.5, 0.5, 1003)[1:-1]
    gap = np.max(np.abs(paper_qqw_density(jk, ys) - qw_limit_density(ys, 0.5)))
    assert gap <= 1e-10
    _report(10, f"r(ij) = sqrt(1/2) and r(jk) = 1/2 by all three routes; "
                f"density reduction gap {gap:.2e}")


# ---------------------------------------------------------------------
# 11. weighted density normalization over random trace-free coins, < 10 s
# ---------------------------------------------------------------------

def test_criterion_11_density_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(50):
        coin = random_coin(rng, "case5")
        params = qqw_limit_params(coin)
        alpha, beta = random_spinor(rng)
        c = weight_constant(coin, alpha, beta)
        worst = max(worst, abs(integrate_weighted_density(params) - 1.0))
        worst = max(worst, abs(integrate_weighted_density(params, weight_c=c) - 1.0))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(11, f"50 random trace-free coins; worst |integral - 1| = {worst:.2e}, "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------
# 12. weak-limit convergence of the rescaled walk, < 60 s
# ---------------------------------------------------------------------

def test_criterion_12_weak_limit_convergence():
    t0 = time.perf_counter()
    coin = _coin("tracefree_ij")
    one, zero = Quaternion(1), Quaternion.zero()
    d500 = limit_compare(coin, one, zero, 500).kolmogorov
    res = limit_compare(coin, one, zero, 2000)
    elapsed = time.perf_counter() - t0
    assert res.kolmogorov <= 0.02
    assert res.kolmogorov < d500 / 1.2
    assert elapsed < 60.0
    _report(12, f"Kolmogorov distance {res.kolmogorov:.4f} at n=2000 "
                f"(n=500: {d500:.4f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 13. trace-free walks spread strictly slower than the complex walk with
#     the same entry moduli
# ---------------------------------------------------------------------

def test_criterion_13_support_strictly_smaller():
    qw_r = qw_limit_params(hadamard_coin()).r
    assert qw_r == pytest.approx(S, abs=1e-15)

    mixed = _coin("tracefree_mixed")
    for q in mixed.entries():
        assert q.norm() == pytest.approx(S, abs=1e-12)  # Hadamard moduli
    rebc = (mixed.b * mixed.c).re
    assert abs(rebc) > 1e-6                      # interference term active
    assert abs(rebc) < mixed.b.norm_sq() - 1e-6  # and b*c is not real
    r_mixed = support_radius(mixed)
    assert r_mixed < qw_r - 1e-6

    jk = _coin("tracefree_jk")
    assert (jk.b * jk.c).re == pytest.approx(0.0, abs=1e-15)
    r_jk = support_radius(jk)
    assert r_jk == pytest.approx(jk.a.norm_sq(), abs=1e-12)
    assert r_jk < qw_r - 1e-6
    _report(13, f"r = {r_mixed:.6f} (Re(bc) != 0) and r = {r_jk:.6f} "
                f"(Re(bc) = 0), both < |a| = {qw_r:.6f}")


# ---------------------------------------------------------------------
# 14. a general quaternionic coin shows a multi-peaked (superposition)
#     rescaled distribution; no closed form claimed
# ---------------------------------------------------------------------

def _binned_density(dist, bins):
    ys = dist.positions() / dist.n
    edges = np.linspace(-1.0, 1.0, bins + 1)
    idx = np.clip(np.digitize(ys, edges) - 1, 0, bins - 1)
    mass = np.bincount(idx, weights=dist.probs, minlength=bins)
    return mass * bins / 2.0


def _smoothed(density, width):
    kernel = np.ones(width) / width
    return np.convolve(density, kernel, mode="same")


def _prominent_interior_peaks(density, floor_frac=0.01, prom_frac=0.08):
    """Local maxima strictly inside the occupied range whose prominence

    exceeds prom_frac of the global maximum (suppresses the O(1/sqrt(n))
    interference ripple of finite-time distributions).
    """
    top = float(density.max())
    occupied = np.nonzero(density > floor_frac * top)[0]
    seg = density[occupied[0]:occupied[-1] + 1]
    count = 0
    for m in range(1, len(seg) - 1):
        if not (seg[m] > seg[m - 1] and seg[m] >= seg[m + 1]):
            continue
        lbase = seg[m]
        for v in seg[:m][::-1]:
            if v > seg[m]:
                break
            lbase = min(lbase, v)
        rbase = seg[m]
        for v in seg[m + 1:]:
            if v > seg[m]:
                break
            rbase = min(rbase, v)
        if seg[m] - max(lbase, rbase) >= prom_frac * top:
            count += 1
    return count


def test_criterion_14_superposition_shape():
    coin = _coin("superposition")
    assert classify(coin) == "general"
    one, zero = Quaternion(1), Quaternion.zero()
    dist = distribution(evolve(coin, one, zero, 1000))
    peaks = _prominent_interior_peaks(_smoothed(_binned_density(dist, 80), 5))
    assert peaks >= 3

    # control: a complex coin's density has only the two band-edge peaks
    control = distribution(evolve(hadamard_coin(), one, zero, 1000))
    control_peaks = _prominent_interior_peaks(
        _smoothed(_binned_density(control, 80), 5))
    assert control_peaks < 3
    _report(14, f"committed general coin: {peaks} macroscopic peaks at n=1000 "
                f"(complex-coin control: {control_peaks})")
