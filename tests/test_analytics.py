"""Theta series, flatness factors, and the discrete Gaussian lemma suite."""

import math

import numpy as np
import pytest

from lgc.analytics import (
    entropy_check,
    entropy_deviation,
    flatness,
    flatness_direct,
    gaussian_density,
    gsnr,
    moment_check,
    partition_sandwich_check,
    theta,
)
from lgc.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    NonpositiveSigma,
)
from lgc.lattice import standard_lattice

Z1 = standard_lattice("Zn", 1)
Z2 = standard_lattice("Zn", 2)
Z8 = standard_lattice("Zn", 8)
A2 = standard_lattice("A2")

# independently computed with a 40-digit direct series evaluation
THETA_Z_1 = 1.086434811213308
EPS_Z_1 = 5.350575982148486e-09
DENSITY_2D = 0.0309874985774132415  # (1/(8 pi)) e^{-1/4}


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_z_frozen_value():
    tv = theta(Z1, 1.0)
    assert abs(tv.value - THETA_Z_1) < 1e-13
    assert tv.truncation_bound < 1e-12 * tv.value


def test_theta_product_rule():
    t1 = theta(Z1, 0.7).value
    t2 = theta(Z2, 0.7).value
    t8 = theta(Z8, 0.7).value
    assert abs(t2 - t1 ** 2) < 1e-12 * t1 ** 2
    assert abs(t8 - t1 ** 8) < 1e-10 * t1 ** 8


@pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_theta_poisson_duality(tau):
    lhs = theta(Z1, tau).value
    rhs = tau ** -0.5 * theta(Z1, 1.0 / tau).value
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_theta_large_tau_is_one():
    assert theta(Z8, 50.0).value == 1.0


def test_theta_small_tau_dual_side():
    # tiny tau makes the primal sum enormous; the dual transform handles it
    tv = theta(Z1, 1e-4)
    assert abs(tv.value - 1e2) < 1e-6  # tau^{-1/2} dominates
    with pytest.raises(NonpositiveSigma):
        theta(Z1, 0.0)


def test_theta_budget():
    # near tau = 1 the primal and dual sums are equally expensive, so a
    # tiny point budget cannot be satisfied from either side
    with pytest.raises(BudgetExceeded):
        theta(Z8, 1.0, point_cap=100, primal_pref=10)


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------


def test_flatness_z_frozen_values():
    rep = flatness(Z1, 1.0)
    # 2 e^{-2 pi^2} + 2 e^{-8 pi^2} to machine precision
    assert abs(rep.epsilon - EPS_Z_1) < 1e-22
    assert abs(rep.gsnr - 1.0 / (2 * math.pi)) < 1e-15
    rep2 = flatness(Z1, 0.2)
    assert abs(rep2.epsilon - 0.9947262692023107) < 1e-13


def test_flatness_monotone_strictly_decreasing():
    eps = [flatness(Z1, s).epsilon for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(eps[i] > eps[i + 1] for i in range(3))


@pytest.mark.parametrize("lat", [Z1, Z2, A2], ids=["Z1", "Z2", "A2"])
@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0])
def test_flatness_vs_direct(lat, sigma):
    fast = flatness(lat, sigma).epsilon
    direct = flatness_direct(lat, sigma, 8)
    assert abs(fast - direct) < 1e-5


def test_flatness_direct_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        flatness_direct(Z8, 1.0, 4)


# (gsnr, theta value, theta truncation bound, theta radius, epsilon), bit
# for bit as computed before the sums were memoized and enumerated d2-only
FLATNESS_PINNED = {
    ("Z4", 0.45): ("0x1.9268151d00758p-1", "0x1.dec3326ee6534p+0",
                   "0x1.271b94f7a879fp-58", "0x1.2000000000000p+2",
                   "0x1.3debe03601143p-3"),
    ("D4", 0.48): ("0x1.f42cfcb845fb6p-1", "0x1.512c210082ae1p+0",
                   "0x1.9840465ca4bc7p-60", "0x1.3333333333333p+2",
                   "0x1.071d64c2da1cfp-2"),
    # gsnr < 1 with theta on the dual side: both sums share the dual balls
    ("E8", 0.42): ("0x1.cdf2420879ff2p-1", "0x1.dab8baa90e036p+0",
                   "0x1.4216f7655bb5bp-74", "0x1.2f26fb55900f6p+2",
                   "0x1.d49b1141abb94p-3"),
    ("A2", 0.5): ("0x1.1a47c7ee5a514p-1", "0x1.d43340c2a5e88p+0",
                  "0x1.33dbfbce5e44bp-65", "0x1.4000000000000p+2",
                  "0x1.10ef4d493a8d6p-7"),
    ("lift", 1.0): ("0x1.9ab236b9cf789p-2", "0x1.3ccc74adf2c62p+5",
                    "0x1.42610eb17db90p-62", "0x1.fd4bbab8b494cp+0",
                    "0x1.93e26c0864837p-6"),
}


@pytest.mark.parametrize("name,sigma", list(FLATNESS_PINNED))
def test_flatness_cached_matches_cold_and_pinned(fresh_lattice, name, sigma):
    lat = fresh_lattice(name)
    dual = lat.dual()
    other = flatness(lat, 1.5 * sigma)
    rep = flatness(lat, sigma)
    assert flatness(lat, sigma) is rep
    assert flatness(lat, 1.5 * sigma) is other
    assert lat.dual() is dual
    cold = flatness(fresh_lattice(name), sigma)
    assert cold is not rep
    assert cold.as_dict() == rep.as_dict()
    got = (rep.gsnr, rep.theta.value, rep.theta.truncation_bound,
           rep.theta.radius, rep.epsilon)
    assert got == tuple(float.fromhex(v) for v in FLATNESS_PINNED[name, sigma])


def test_flatness_budget_error_not_cached(fresh_lattice):
    lat = fresh_lattice("E8")
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            flatness(lat, 0.42, point_cap=1000)
    eps = float.fromhex(FLATNESS_PINNED["E8", 0.42][4])
    assert flatness(lat, 0.42).epsilon == eps


_SIGMA_CALLS = {
    "gsnr": gsnr,
    "theta": theta,
    "flatness": flatness,
    "partition": lambda lat, s: partition_sandwich_check(lat, s, np.zeros(8)),
    "moment": lambda lat, s: moment_check(lat, s, np.zeros(8)),
    "entropy": lambda lat, s: entropy_check(lat, s, np.zeros(8)),
    "entropy_deviation": lambda lat, s: entropy_deviation(lat, s, np.zeros(8)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("call", list(_SIGMA_CALLS))
def test_nonfinite_sigma_rejected(fresh_lattice, call, bad):
    lat = fresh_lattice("E8")
    with pytest.raises(NonpositiveSigma, match="must be finite and positive"):
        _SIGMA_CALLS[call](lat, bad)
    assert lat._flatness == {}


def test_gsnr():
    assert abs(gsnr(Z1, 1.0) - 1.0 / (2 * math.pi)) < 1e-15
    assert abs(gsnr(standard_lattice("Dn", 4).scale(2.0), 0.5)
               - (2.0 ** 4 * 2.0) ** 0.5 / (2 * math.pi * 0.25)) < 1e-12
    with pytest.raises(NonpositiveSigma):
        gsnr(Z1, -1.0)


# ---------------------------------------------------------------------------
# partition sandwich (per-shift Riemann sum bracket)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,n,sigma", [("Zn", 4, 0.45), ("Dn", 4, 0.48),
                                          ("E8", None, 0.42)])
def test_partition_sandwich_random_shifts(name, n, sigma):
    lat = standard_lattice(name, n)
    rng = np.random.default_rng(314)
    for _ in range(100):
        c = rng.uniform(-1.0, 1.0, size=lat.n)
        chk = partition_sandwich_check(lat, sigma, c)
        assert chk.passed
        assert chk.lo <= chk.value <= chk.hi or chk.passed


# ---------------------------------------------------------------------------
# moment and entropy lemmas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("sigma0", [1.5, 2.0, 3.0])
def test_moment_check_grid(n, sigma0):
    lat = standard_lattice("Zn", n)
    c = np.full(n, 0.3)
    chk = moment_check(lat, sigma0, c)
    assert chk.passed
    assert abs(chk.second_moment - n * sigma0 ** 2) <= chk.bound + 1e-9


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("sigma0", [1.5, 2.0, 3.0])
def test_entropy_check_grid(n, sigma0):
    lat = standard_lattice("Zn", n)
    c = np.full(n, 0.3)
    rep = entropy_check(lat, sigma0, c)
    # the per-dimension entropy sits within eps' of the Gaussian reference
    assert abs(rep.entropy_rate - rep.reference) <= rep.epsilon_prime + 1e-15
    # and at full working precision the deviation honors the bound too
    assert entropy_deviation(lat, sigma0, c) <= rep.epsilon_prime + 1e-30


def test_moment_check_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        moment_check(standard_lattice("Zn", 9), 2.0, np.zeros(9))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def test_gaussian_density_frozen_value():
    v = gaussian_density(2.0, np.zeros(2), np.array([1.0, 1.0]))
    assert abs(v - DENSITY_2D) < 1e-16
    with pytest.raises(NonpositiveSigma):
        gaussian_density(0.0, np.zeros(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        gaussian_density(1.0, np.zeros(2), np.ones(3))
