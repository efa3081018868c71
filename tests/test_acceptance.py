"""Acceptance gate: the headline guarantees at desk scale, one line each.

Every test prints a single pass/fail line (to the real stdout, so the
verdicts stay visible under pytest capture) and then asserts, so a failing
criterion is both reported and fatal.  Fixed seeds keep every number here
bit-reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from lgc.analytics import (
    entropy_check,
    entropy_deviation,
    flatness,
    flatness_direct,
    moment_check,
    partition_sandwich_check,
    theta,
)
from lgc.lattice import standard_lattice
from lgc.rng import RngSeed, stream
from lgc.sampler import build_spec, sample, sphere_tail_bound, tail_event_rate
from lgc.scheme import (
    decode_agreement,
    design_volume,
    feasible_volume_interval,
    make_params,
    poltyrev_exponent,
    rate_lower_formula,
    sandwich_check,
    simulate_poltyrev,
)

Z1 = standard_lattice("Zn", 1)
Z2 = standard_lattice("Zn", 2)
Z4 = standard_lattice("Zn", 4)
Z8 = standard_lattice("Zn", 8)
D4 = standard_lattice("Dn", 4)
E8 = standard_lattice("E8")
A2 = standard_lattice("A2")


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d}: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_flatness_cross_validation(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for lat in (Z1, Z2, A2):
        for sigma in (0.3, 0.5, 1.0):
            fast = flatness(lat, sigma).epsilon
            direct = flatness_direct(lat, sigma, 8)
            worst = max(worst, abs(fast - direct))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    _report(capsys, 1, ok, f"flatness vs grid oracle, max |diff| = {worst:.3e} "
                   f"on Z1/Z2/A2 x {{0.3,0.5,1.0}} in {elapsed:.2f}s")


def test_criterion_02_poisson_duality(capsys):
    worst_dual = 0.0
    worst_prod = 0.0
    for tau in (0.25, 0.5, 1.0, 2.0, 4.0):
        t = theta(Z1, tau).value
        dual = tau ** -0.5 * theta(Z1, 1.0 / tau).value
        worst_dual = max(worst_dual, abs(t - dual) / t)
        t8 = theta(Z8, tau).value
        worst_prod = max(worst_prod, abs(t8 - t ** 8) / t8)
    ok = worst_dual < 1e-10 and worst_prod < 1e-10
    _report(capsys, 2, ok, f"theta duality rel err {worst_dual:.3e}, "
                   f"Z8 product rule rel err {worst_prod:.3e}")


def test_criterion_03_map_equals_mmse(capsys):
    t0 = time.perf_counter()
    p = make_params(3.0, 1.0)
    rep_z = decode_agreement(Z8, np.zeros(8), p, 10000, RngSeed(303, 0))
    rep_e = decode_agreement(E8, np.full(8, 0.5), p, 10000, RngSeed(303, 1))
    elapsed = time.perf_counter() - t0
    ok = (rep_z.mismatches == 0 and rep_e.mismatches == 0
          and rep_z.agreements + rep_z.ties == 10000
          and rep_e.agreements + rep_e.ties == 10000
          and elapsed < 300.0)
    _report(capsys, 3, ok, f"10^4 paired decodes each on Z8/E8 at sigma0=3 sigma=1: "
                   f"mismatches {rep_z.mismatches}/{rep_e.mismatches}, "
                   f"ties {rep_z.ties}/{rep_e.ties}, {elapsed:.1f}s")


def test_criterion_04_error_probability_sandwich(capsys):
    t0 = time.perf_counter()
    params = make_params(math.sqrt(10.0), 1.0)
    vol = design_volume(params.sigma_tilde, 1.0, 8)
    lat = E8.scale(vol ** 0.125)
    res = sandwich_check(lat, np.full(8, 0.25), params, 10 ** 6,
                         RngSeed(2024, 0))
    elapsed = time.perf_counter() - t0
    in_band = 1e-3 <= res.poltyrev.p_hat <= 1e-2
    # the paired interval, narrower than the Wilson ratio, must meet it too
    paired = res.paired_lo <= res.hi and res.paired_hi >= res.lo
    ok = res.passed and paired and in_band and elapsed < 1800.0
    _report(capsys, 4, ok,
            f"scheme/poltyrev ratio {res.ratio:.4f}, "
            f"CI [{res.ratio_lo:.4f}, {res.ratio_hi:.4f}], paired CI "
            f"[{res.paired_lo:.4f}, {res.paired_hi:.4f}] ({res.scheme.errors}, "
            f"{res.poltyrev.errors}, {res.both_errors} errors) vs bracket "
            f"[{res.lo:.6f}, {res.hi:.6f}], poltyrev p = "
            f"{res.poltyrev.p_hat:.2e}, 10^6 paired trials in {elapsed:.1f}s")


def test_criterion_05_lemma_suites(capsys):
    rng = stream(RngSeed(505, 0))
    shift_fails = 0
    for lat, sigma in ((Z4, 0.45), (D4, 0.48), (E8, 0.42)):
        shifts = rng.random((100, lat.n))
        spans = shifts @ lat.basis.T
        for c in spans:
            if not partition_sandwich_check(lat, sigma, c).passed:
                shift_fails += 1
    lemma_fails = 0
    points = 0
    for n in (1, 4, 8):
        lat = standard_lattice("Zn", n)
        c = np.full(n, 0.3)
        for sigma0 in (1.5, 2.0, 3.0):
            if flatness(lat, sigma0 / 2.0).epsilon >= 1.0:
                continue
            points += 1
            if not moment_check(lat, sigma0, c).passed:
                lemma_fails += 1
            rep = entropy_check(lat, sigma0, c)
            if entropy_deviation(lat, sigma0, c) > rep.epsilon_prime + 1e-30:
                lemma_fails += 1
    ok = shift_fails == 0 and lemma_fails == 0 and points == 9
    _report(capsys, 5, ok, f"partition sandwich 300 shifted checks, {shift_fails} "
                   f"failures; moment+entropy lemmas on {points} grid "
                   f"points, {lemma_fails} failures")


def test_criterion_06_tail_bound(capsys):
    val = sphere_tail_bound(8, 0.1)
    arith_ok = abs(val - 0.0047743) < 1e-7
    margins = []
    for sigma0 in (1.5, 2.0, 3.0):
        spec = build_spec(Z8, sigma0, np.zeros(8))
        bound, mass = tail_event_rate(spec)
        margins.append((sigma0, mass, bound, mass < bound))
    ok = arith_ok and all(m[3] for m in margins)
    worst = max(m[1] / m[2] for m in margins)
    _report(capsys, 6, ok, f"bound(n=8, eps=0.1) = {val:.7f}; exact Z8 tail mass "
                   f"under bound at sigma0 in {{1.5,2,3}} "
                   f"(worst mass/bound = {worst:.3f})")


def test_criterion_07_poltyrev_exponent(capsys):
    gap2 = abs(0.5 * ((2.0 - 1.0) - math.log(2.0))
               - 0.5 * math.log(math.e * 2.0 / 4.0))
    gap4 = abs(0.5 * math.log(math.e * 4.0 / 4.0) - 4.0 / 8.0)
    e2 = poltyrev_exponent(2.0).exponent
    e8 = poltyrev_exponent(8.0).exponent
    ok = (gap2 < 1e-12 and gap4 < 1e-12
          and abs(e2 - 0.1534264) < 1e-6 and e8 == 1.0)
    _report(capsys, 7, ok, f"branch gaps {gap2:.1e}/{gap4:.1e} at mu=2/4, "
                   f"E(2) = {e2:.7f}, E(8) = {e8}")


def test_criterion_08_rate_budget(capsys):
    ideal = rate_lower_formula(8, 10.0, 0.0, 0.0)
    slack = rate_lower_formula(8, 10.0, 0.5, 0.1)
    scan_ok = True
    for ratio in np.linspace(1.0, 10.0, 37):
        lo, hi = feasible_volume_interval(make_params(math.sqrt(ratio), 1.0))
        if (lo < hi) != (ratio > math.e):
            scan_ok = False
    ok = (abs(ideal - 1.1989476) < 1e-6 and abs(slack - 0.27691) < 1e-4
          and scan_ok)
    _report(capsys, 8, ok, f"ideal rate {ideal:.7f} nats, worked slack example "
                   f"{slack:.5f} nats, volume window opens exactly at "
                   f"sigma0^2 = e sigma^2: {scan_ok}")


def test_criterion_09_sampler_fidelity(capsys):
    spec = build_spec(Z1, 1.0, np.zeros(1))
    draws = sample(spec, RngSeed(909, 0), 100000)
    vals = draws[:, 0]
    pmf = {int(k): float(v)
           for k, v in zip(spec.table_coeffs[:, 0], spec.table_probs)}
    keys = sorted(pmf)
    expected = np.array([pmf[k] * vals.size for k in keys])
    observed = np.array([np.sum(vals == k) for k in keys])
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    gof = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    p0 = float(np.mean(vals == 0))
    again = sample(spec, RngSeed(909, 0), 100000)
    identical = np.array_equal(vals, again[:, 0])
    ok = gof.pvalue > 0.001 and abs(p0 - 0.3989) < 0.005 and identical
    _report(capsys, 9, ok, f"chi-square p = {gof.pvalue:.3f} on 10^5 draws, "
                   f"P(0) = {p0:.4f}, byte-identical resample: {identical}")


def test_criterion_10_one_dim_decoding_oracle(capsys):
    res = simulate_poltyrev(Z1, 0.25, 10 ** 6, RngSeed(10, 0))
    truth = math.erfc(math.sqrt(2.0))  # 2 Q(2)
    ok = res.ci_low <= truth <= res.ci_high
    _report(capsys, 10, ok, f"Z1 escape rate {res.p_hat:.6f} with CI "
                    f"[{res.ci_low:.6f}, {res.ci_high:.6f}] covers "
                    f"2Q(2) = {truth:.6f}")
