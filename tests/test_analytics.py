"""Theta series, flatness factors, and the discrete Gaussian lemma suite."""

import math
import tracemalloc

import numpy as np
import pytest

import lgc.analytics as analytics_mod
import lgc.lattice as lattice_mod
from lgc.analytics import (
    X_START,
    _ball_d2,
    _grow_radius,
    _tail_bound,
    entropy_check,
    entropy_deviation,
    eps_prime_formula,
    flatness,
    flatness_direct,
    gsnr,
    moment_check,
    partition_sandwich_check,
    theta,
)
from lgc.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    FlatnessTooLarge,
    NonpositiveSigma,
)
from lgc.lattice import enumerate_ball, make_lattice, standard_lattice

Z1 = standard_lattice("Zn", 1)
Z2 = standard_lattice("Zn", 2)
Z4 = standard_lattice("Zn", 4)
Z8 = standard_lattice("Zn", 8)
A2 = standard_lattice("A2")

# independently computed with a 40-digit direct series evaluation
THETA_Z_1 = 1.086434811213308
EPS_Z_1 = 5.350575982148486e-09


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


def test_theta_dual_factor_overflow_is_inf():
    # on E8 at sigma 1e100, tau^{-n/2} = (2 pi 1e200)^4 passes the float
    # range: the series is inf, and flatness keeps its dual-sum epsilon
    e8 = standard_lattice("E8")
    tv = theta(e8, 1.0 / (2.0 * math.pi * 1e200))
    assert tv.value == math.inf and tv.truncation_bound == math.inf
    assert math.isfinite(tv.radius)
    rep = flatness(e8, 1e100)
    assert rep.theta.value == math.inf
    assert rep.epsilon == 0.0


def test_theta_budget(monkeypatch):
    # near tau = 1 the primal and dual sums are equally expensive, so a
    # tiny point budget cannot be satisfied from either side
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 100)
    monkeypatch.setattr(analytics_mod, "PRIMAL_PREF", 10)
    with pytest.raises(BudgetExceeded):
        theta(Z8, 1.0)


@pytest.mark.parametrize("grow,rel", [(1.25, 1e-12), (1.15, 1e-12),
                                      (1.25, 1e-6)])
def test_grow_radius_keeps_first_certified_radius(grow, rel):
    lat = standard_lattice("Dn", 4)
    tau, anchor = 0.7, 3.5
    seen = []

    def weigh(radius):
        seen.append(radius)
        return len(seen), anchor

    result, tail, radius = _grow_radius(lat, tau, 0.5, grow, rel, weigh,
                                        "probe")
    assert len(seen) > 1 and result == len(seen) and radius == seen[-1]
    # each radius is the previous one times grow, from the start
    expect = 0.5
    for r in seen:
        assert r == expect
        expect *= grow

    def bound(r):
        return _tail_bound(lat.n, lat.lambda1_lb(), tau, r)

    assert tail == bound(radius) < rel * anchor
    assert not bound(seen[-2]) < rel * anchor


def test_grow_radius_budget_names_caller():
    with pytest.raises(BudgetExceeded, match="probe sum did not certify"):
        _grow_radius(Z2, 1.0, 1.0, 1.25, 1e-12, lambda r: (None, 0.0),
                     "probe sum")


@pytest.mark.parametrize("sigma", [1e3, 1e5])
def test_tail_bound_closes_series_past_its_shells(sigma):
    # at large sigma 2000 unit shells past the start radius leave most of
    # the series unsummed; the bound must still cover all of it
    tau = 1.0 / (2.0 * math.pi * sigma * sigma)
    lam1 = Z1.lambda1_lb()
    radius = math.sqrt(X_START / (math.pi * tau))
    r = radius + np.arange(2_000_000, dtype=float)
    series = math.fsum(np.exp(np.log(2.0 * (r + 1.0) / lam1 + 1.0)
                              - math.pi * tau * r * r))
    assert series <= _tail_bound(1, lam1, tau, radius) <= 1.01 * series


def test_tail_bound_raises_while_terms_grow():
    # at tau = 1e-12 the 8-dim shell counts still outgrow the weights
    # 2000 shells past radius 1, so no geometric remainder closes them
    with pytest.raises(BudgetExceeded):
        _tail_bound(8, 1.0, 1e-12, 1.0)


@pytest.mark.parametrize("lam1", [1e-40, 1e-300], ids=["1e-40", "1e-300"])
def test_tail_bound_past_float_range_is_uncertified(lam1):
    # the packing count (2 (r + 1) / lam1 + 1)^8 of the first shell passes
    # float range: the tail is not certified, and the bound is inf
    assert _tail_bound(8, lam1, 1.0 / (2.0 * math.pi * 1000.0), 1.0) \
        == math.inf


def _sorted_ball(lat, center, radius):
    return np.sort(enumerate_ball(lat, center, radius, coeffs=False)[1])[::-1]


def _half_points(monkeypatch):
    """Record the number of points of each lattice._ball_search call."""
    seen = []
    search = lattice_mod._ball_search

    def counting(*args, **kwargs):
        res = search(*args, **kwargs)
        seen.append(res[2].size)
        return res

    monkeypatch.setattr(lattice_mod, "_ball_search", counting)
    return seen


def _check_half_ball(lat, radius, monkeypatch):
    want = _sorted_ball(lat, np.zeros(lat.n), radius)
    for center in (np.zeros(lat.n), np.full(lat.n, -0.0)):
        with monkeypatch.context() as patch:
            seen = _half_points(patch)
            got = _ball_d2(lat, center, radius)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # one point of each +-v pair plus the origin
        assert seen == [(want.size + 1) // 2]
    return want


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_ball_d2_half_ball_is_full_ball(fresh_lattice, name, dual,
                                        monkeypatch):
    lat = fresh_lattice(name)
    lat = lat.dual if dual else lat
    unit = lat.volume ** (1.0 / lat.n)
    rng = np.random.default_rng(sum(map(ord, name)) + dual)
    for radius in (lat.lambda1_lb() * (1.0 + 1e-9),
                   *rng.uniform(0.3, 2.2, 4) * unit, 2.2 * unit):
        want = _check_half_ball(lat, radius, monkeypatch)
    assert want.size > 15
    # the smallest cap the full ball passes is the half ball's too
    center = np.zeros(lat.n)
    lo, hi = 0, want.size * 1000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr(lattice_mod, "POINT_CAP", mid)
        try:
            enumerate_ball(lat, center, radius, coeffs=False)
            hi = mid
        except BudgetExceeded:
            lo = mid
    monkeypatch.setattr(lattice_mod, "POINT_CAP", lo)
    with pytest.raises(BudgetExceeded):
        _ball_d2(lat, center, radius)
    monkeypatch.setattr(lattice_mod, "POINT_CAP", hi)
    assert _ball_d2(lat, center, radius).tobytes() == want.tobytes()


@pytest.mark.parametrize("name,radius", [
    ("Z2", 1.0), ("Z2", 2.0), ("D4", math.sqrt(2.0) * (1.0 + 1e-9))])
def test_ball_d2_points_on_the_sphere(name, radius, monkeypatch):
    lat = standard_lattice(name[0] + "n", int(name[1]))
    want = _check_half_ball(lat, radius, monkeypatch)
    # every point at norm exactly radius is in, the origin is last
    assert want.size == {1.0: 5, 2.0: 13}.get(radius, 25)
    assert want[-1] == 0.0


@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_ball_d2_off_center_is_the_full_ball(fresh_lattice, name,
                                             monkeypatch):
    lat = fresh_lattice(name)
    rng = np.random.default_rng(41)
    tiny = np.zeros(lat.n)
    tiny[-1] = 1e-300
    for center in (rng.uniform(-1.0, 1.0, lat.n) @ lat.basis.T, tiny):
        for radius in (-1.0, 0.0, 1e-3, 1.7, 2.6):
            want = _sorted_ball(lat, center, radius)
            seen = _half_points(monkeypatch)
            assert _ball_d2(lat, center, radius).tobytes() == want.tobytes()
            assert seen == ([want.size] if radius >= 0.0 else [])
            monkeypatch.undo()


def test_ball_d2_memory():
    """An off-center E8 ball of radius 4.2 (398,138 points, 3.0 MiB of
    d2) peaks below 14.5 MiB under tracemalloc: 11.5 MiB with the blocked
    ball search, 16.5 MiB with its level-sized temporaries."""
    tracemalloc.start()
    try:
        d2 = _ball_d2(standard_lattice("E8"), np.full(8, 0.3), 4.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d2.size == 398_138
    assert peak < 14.5 * 2**20


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


def test_flatness_of_skewed_unimodular_basis():
    # I + 3S (S the shift matrix) generates Z8, but its dual basis has
    # columns up to 3^7 long: the dual is built directly, not refused as
    # singular, and the flatness is Z8's
    skew = make_lattice(np.eye(8) + 3.0 * np.eye(8, k=1))
    assert abs(skew.dual.volume - 1.0) < 1e-9
    assert flatness(skew, 1.5).epsilon == pytest.approx(
        8.2357602951942425e-19, rel=1e-9)
    assert flatness(Z8, 1.5).epsilon == pytest.approx(
        8.2357602951942425e-19, rel=1e-15)


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
    dual = lat.dual
    other = flatness(lat, 1.5 * sigma)
    rep = flatness(lat, sigma)
    assert flatness(lat, sigma) is rep
    assert flatness(lat, 1.5 * sigma) is other
    assert lat.dual is dual
    cold = flatness(fresh_lattice(name), sigma)
    assert cold is not rep
    assert cold == rep
    got = (rep.gsnr, rep.theta.value, rep.theta.truncation_bound,
           rep.theta.radius, rep.epsilon)
    assert got == tuple(float.fromhex(v) for v in FLATNESS_PINNED[name, sigma])


def test_flatness_memory(fresh_lattice):
    """A fresh flatness(E8, 0.42) peaks below 25 MiB under tracemalloc:
    21.2 MiB with each ball's sort, doubling and weights in one array
    apiece (the ball search alone peaks at 19.6 MiB), 35.5 MiB with their
    copies."""
    lat = fresh_lattice("E8")
    tracemalloc.start()
    try:
        rep = flatness(lat, 0.42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.epsilon == float.fromhex(FLATNESS_PINNED["E8", 0.42][4])
    assert peak < 25 * 2**20


def test_flatness_ball_estimate_past_float_range():
    # the primal ball estimate of Z^120 at sigma 100 (radius 1000) passes
    # 1e308; the dual side holds one point, the origin
    rep = flatness(standard_lattice("Zn", 120), 100.0)
    assert rep.epsilon == 0.0
    assert rep.theta.value == pytest.approx((2.0 * math.pi * 1e4) ** 60,
                                            rel=1e-12)


def test_flatness_budget_counts_prefix_matrix():
    # Z^200 at sigma 0.5 keeps under a million prefixes per level, each
    # with up to 199 coordinates still to expand; their matrix, not the
    # prefix count, passes the budget
    with pytest.raises(BudgetExceeded):
        flatness(standard_lattice("Zn", 200), 0.5)


def test_flatness_within_the_work_budget():
    # the largest of the eight dual balls writes 1.33e8 prefix coordinates
    # over its levels, under 25 * POINT_CAP = 5e8
    rep = flatness(standard_lattice("Zn", 200), 3.0)
    assert rep.epsilon == 2.8079854430552256e-75


@pytest.mark.parametrize("check", ["partition", "entropy"])
def test_underflowing_weights_are_budget_errors(monkeypatch, check):
    """Each point of these balls weighs 0.0 in float64, and every point
    outside a ball weighs less than every one inside: no radius certifies,
    so the sum refuses the first ball with a point instead of growing it
    to the point budget (lowered here, so that a sum which grows fails
    fast with the budget's message).  partition sums in _gauss_sum, and
    entropy on A2 in _support_stats."""
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 10_000)
    with pytest.raises(BudgetExceeded, match="weights underflow"):
        if check == "partition":
            partition_sandwich_check(Z1, 1e-3, [0.5])
        else:
            entropy_deviation(A2, 1e-3, [0.3, 0.2])


def test_flatness_budget_error_not_cached(fresh_lattice, monkeypatch):
    lat = fresh_lattice("E8")
    with monkeypatch.context() as patch:
        patch.setattr(lattice_mod, "POINT_CAP", 1000)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                flatness(lat, 0.42)
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
    # one eps' formula: the one lgc rate reports
    eps = flatness(lat, sigma0 / 2.0).epsilon
    assert rep.epsilon_prime == eps_prime_formula(n, eps)
    # the per-dimension entropy sits within eps' of the Gaussian reference
    assert abs(rep.entropy_rate - rep.reference) <= rep.epsilon_prime + 1e-15
    # and at full working precision the deviation honors the bound too
    assert entropy_deviation(lat, sigma0, c) <= rep.epsilon_prime + 1e-30


@pytest.mark.parametrize("sigma0", [1.5, 2.5])
@pytest.mark.parametrize("shift", [0.0, 1.0], ids=["zero", "shifted"])
def test_enumerated_support_stats_match_axis_sums(sigma0, shift):
    # Z4 on a skewed unimodular basis is left untagged, so _support_stats
    # enumerates its support in float64; tagged Z4 sums the same support
    # axis by axis in 40 digits
    basis = np.eye(4)
    basis[0, 1], basis[1, 3], basis[2, 3] = 1.0, 1.0, -2.0
    skew = make_lattice(basis, label="skewZ4")
    assert skew.structure is None
    c = shift * np.array([0.3, -0.45, 0.2, 0.05])
    mom, ent = analytics_mod._support_stats(skew, sigma0, c)
    ref_mom, ref_ent = analytics_mod._support_stats(Z4, sigma0, c)
    assert mom == pytest.approx(float(ref_mom), rel=1e-12)
    assert ent == pytest.approx(float(ref_ent), rel=1e-12)
    assert moment_check(skew, sigma0, c).passed
    rep = entropy_check(skew, sigma0, c)
    assert entropy_deviation(skew, sigma0, c) <= rep.epsilon_prime


@pytest.mark.parametrize("fn", [moment_check, entropy_check])
def test_lemmas_need_small_flatness(fn):
    # Z4 at sigma0 0.2: the flatness factor at sigma0/2 is 252
    with pytest.raises(FlatnessTooLarge, match="252 >= 1"):
        fn(Z4, 0.2, np.zeros(4))


def test_moment_check_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        moment_check(standard_lattice("Zn", 9), 2.0, np.zeros(9))


@pytest.mark.parametrize("fn", [entropy_check, entropy_deviation])
def test_entropy_input_guards(fn):
    with pytest.raises(DimensionMismatch, match="shift has shape"):
        fn(standard_lattice("Zn", 4), 2.0, np.zeros(3))
    with pytest.raises(DimensionTooLarge, match="n <= 8"):
        fn(standard_lattice("Zn", 9), 2.0, np.zeros(9))
