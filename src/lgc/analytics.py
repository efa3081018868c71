"""Theta series, flatness factor, and diagnostics of lattice Gaussians.

Every truncated sum here carries a certified bound on the omitted tail,
derived from a packing argument: lattice points at norm <= rho number at
most (2 rho / lambda_1 + 1)^n, so shells can be bounded term by term.

The flatness factor epsilon(sigma) admits two equivalent expressions,
    epsilon = gsnr^(n/2) * Theta(1/(2 pi sigma^2)) - 1
            = sum over nonzero dual points of exp(-2 pi^2 sigma^2 |v|^2),
linked by the Poisson summation formula.  The first form loses all digits
to cancellation once epsilon drops below ~1e-13, so we switch to the dual
sum (positive terms only) whenever gsnr < 1, which is exactly the regime
where epsilon is small.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    FlatnessTooLarge,
    NonpositiveSigma,
)
from .lattice import DEFAULT_POINT_CAP, Diag, Lattice, enumerate_ball

X_START = 50.0        # initial exponent cut: first radius puts e^{-X} at the rim
GROW = 1.25           # radius growth factor while the tail is not certified
TAIL_REL = 1e-12      # accept truncation once tail_bound < TAIL_REL * partial
PRIMAL_PREF = 50_000  # stay on the primal side below this point estimate


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaValue:
    value: float
    truncation_bound: float
    radius: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FlatnessReport:
    sigma: float
    gsnr: float
    theta: ThetaValue
    epsilon: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EntropyReport:
    entropy_rate: float
    reference: float
    epsilon_prime: float

    def as_dict(self) -> dict:
        return asdict(self)


class PartitionCheck(NamedTuple):
    value: float
    lo: float
    hi: float
    passed: bool


class MomentCheck(NamedTuple):
    second_moment: float
    bound: float
    passed: bool


# ---------------------------------------------------------------------------
# truncation machinery
# ---------------------------------------------------------------------------


def _ball_volume(n: int, radius: float) -> float:
    return math.pi ** (n / 2.0) * radius**n / math.gamma(n / 2.0 + 1.0)


def _tail_bound(n: int, lam1: float, tau: float, radius: float) -> float:
    """Certified bound on sum of exp(-pi tau |v|^2) over |v| > radius.

    Shell k (norms in (radius+k, radius+k+1]) holds at most
    (2(radius+k+1)/lam1 + 1)^n points, each weighing at most
    exp(-pi tau (radius+k)^2); evaluated in log space to dodge overflow.
    """
    acc = 0.0
    for k in range(2000):
        r = radius + k
        ln_term = n * math.log(2.0 * (r + 1.0) / lam1 + 1.0) - math.pi * tau * r * r
        term = math.exp(ln_term) if ln_term > -745.0 else 0.0
        acc += term
        if term <= acc * 1e-17 or term == 0.0:
            break
    return acc


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise NonpositiveSigma(f"{name} must be finite and positive, got {value}")


def _grow_ball(lat: Lattice, center: np.ndarray, tau: float, radius: float,
               point_cap: int, weigh, what: str, balls: dict | None = None) -> tuple:
    """Grow a ball around center until its packing tail bound certifies.

    weigh(d2) turns the squared distances inside the current radius into
    (result, anchor); the radius grows by GROW until the bound on the
    omitted exp(-pi tau |v|^2) mass drops under TAIL_REL * anchor.  balls,
    when given, memoizes each enumeration by (lattice, radius), so sums
    over one lattice around one center enumerate each radius once.
    Returns (result, tail_bound, radius).
    """
    lam1 = lat.lambda1_lb()
    for _ in range(200):
        d2 = None if balls is None else balls.get((lat, radius))
        if d2 is None:
            _, d2 = enumerate_ball(lat, center, radius, point_cap, coeffs=False)
            if balls is not None:
                balls[(lat, radius)] = d2
        result, anchor = weigh(d2)
        tail = _tail_bound(lat.n, lam1, tau, radius)
        if tail < TAIL_REL * anchor:
            return result, tail, radius
        radius *= GROW
    raise BudgetExceeded(f"{what} did not certify its tail")


def _gauss_sum(lat: Lattice, center: np.ndarray, tau: float, point_cap: int,
               skip_zero: bool = False, min_radius: float = 0.0,
               balls: dict | None = None) -> tuple:
    """Truncated sum of exp(-pi tau |v - center|^2) over lattice points v.

    Grows the enumeration radius until the packing tail bound drops under
    TAIL_REL of the partial sum (measured against the full sum including
    the zero term even when skip_zero drops it from the returned value, so
    tiny sums still terminate).  balls is passed to _grow_ball.  Returns
    (value, tail_bound, radius).
    """
    zero_cut = (0.5 * lat.lambda1_lb()) ** 2

    def weigh(d2):
        if skip_zero:
            d2 = d2[d2 > zero_cut]
        # ascending weights for a stable, order-fixed summation
        value = float(np.sum(np.exp(-math.pi * tau * np.sort(d2)[::-1])))
        return value, value + 1.0 if skip_zero else value

    radius = max(math.sqrt(X_START / (math.pi * tau)), min_radius)
    return _grow_ball(lat, center, tau, radius, point_cap, weigh,
                      "gaussian sum", balls)


# ---------------------------------------------------------------------------
# theta series and flatness factor
# ---------------------------------------------------------------------------


def theta(lat: Lattice, tau: float, point_cap: int = DEFAULT_POINT_CAP,
          primal_pref: int = PRIMAL_PREF, *, balls: dict | None = None) -> ThetaValue:
    """Theta series sum of exp(-pi tau |v|^2) with certified truncation.

    Evaluates on whichever side of the Poisson identity
        Theta_L(tau) = tau^{-n/2} / V * Theta_dual(1/tau)
    needs fewer points, preferring the primal side while it stays under
    primal_pref points.  Raises BudgetExceeded when both sides blow the
    point cap.  balls is passed to _grow_ball.
    """
    _check_positive("tau", tau)
    n = lat.n
    vol = lat.volume
    est_primal = _ball_volume(n, math.sqrt(X_START / (math.pi * tau))) / vol
    est_dual = _ball_volume(n, math.sqrt(X_START * tau / math.pi)) * vol
    prefer_primal = est_primal <= primal_pref or est_primal <= est_dual
    if prefer_primal and est_primal <= point_cap:
        side_primal = True
    elif est_dual <= point_cap:
        side_primal = False
    elif est_primal <= point_cap:
        side_primal = True
    else:
        raise BudgetExceeded(
            f"theta needs ~{est_primal:.2e} primal / ~{est_dual:.2e} dual "
            f"points, cap {point_cap:.0e}")
    zero = np.zeros(n)
    if side_primal:
        value, tail, radius = _gauss_sum(lat, zero, tau, point_cap, balls=balls)
        return ThetaValue(value, tail, radius)
    dual = lat.dual()
    value, tail, radius = _gauss_sum(dual, zero, 1.0 / tau, point_cap,
                                     balls=balls)
    factor = tau ** (-n / 2.0) / vol
    return ThetaValue(factor * value, factor * tail, radius)


def gsnr(lat: Lattice, sigma: float) -> float:
    """Generalized SNR: V^{2/n} / (2 pi sigma^2)."""
    _check_positive("sigma", sigma)
    return lat.volume ** (2.0 / lat.n) / (2.0 * math.pi * sigma * sigma)


def flatness(lat: Lattice, sigma: float,
             point_cap: int = DEFAULT_POINT_CAP) -> FlatnessReport:
    """Flatness factor report at deviation sigma.

    epsilon comes from the dual-side series when gsnr < 1 (small-epsilon
    regime, cancellation-free) and from the primal product formula
    otherwise; the two agree through Poisson summation.  The attached
    theta value is always taken at tau = 1/(2 pi sigma^2).

    Reports are cached on the lattice by (sigma, point_cap); a raised
    error is not.  The dual-side theta sum and the epsilon sum share one
    enumeration per radius.
    """
    _check_positive("sigma", sigma)
    key = (float(sigma), point_cap)
    if key in lat._flatness:
        return lat._flatness[key]
    g = gsnr(lat, sigma)
    n = lat.n
    tau = 1.0 / (2.0 * math.pi * sigma * sigma)
    balls: dict = {}
    tv = theta(lat, tau, point_cap, balls=balls)
    if g < 1.0:
        dual = lat.dual()
        lam1d = dual.lambda1_lb()
        eps, _, _ = _gauss_sum(dual, np.zeros(n), 1.0 / tau, point_cap,
                               skip_zero=True,
                               min_radius=lam1d * (1.0 + 1e-9) + 0.25,
                               balls=balls)
    else:
        eps = g ** (n / 2.0) * tv.value - 1.0
    rep = lat._flatness[key] = FlatnessReport(sigma=sigma, gsnr=g, theta=tv,
                                              epsilon=eps)
    return rep


def flatness_direct(lat: Lattice, sigma: float, grid_points_per_dim: int,
                    point_cap: int = DEFAULT_POINT_CAP) -> float:
    """Grid-search oracle for the flatness factor (n <= 4 only).

    Evaluates V * f_{sigma,L}(x) - 1 on a regular grid over the basis
    parallelepiped, with the periodic sum truncated at a radius whose
    certified tail is below 1e-12, and returns the max absolute value.
    """
    n = lat.n
    if n > 4:
        raise DimensionTooLarge(f"grid search limited to n <= 4, got {n}")
    _check_positive("sigma", sigma)
    m = int(grid_points_per_dim)
    if m < 1:
        raise DimensionMismatch("need at least one grid point per dimension")
    tau = 1.0 / (2.0 * math.pi * sigma * sigma)
    lam1 = lat.lambda1_lb()
    scale = lat.volume * (2.0 * math.pi * sigma * sigma) ** (-n / 2.0)
    radius = math.sqrt(X_START / (math.pi * tau))
    while scale * _tail_bound(n, lam1, tau, radius) >= 1e-12:
        radius *= GROW
    # one super-ball covers every grid point's radius-R neighborhood
    half = lat.basis @ np.full(n, 0.5)
    reach = 0.5 * float(np.sum(np.linalg.norm(lat.basis, axis=0)))
    coeffs, _ = enumerate_ball(lat, half, radius + reach, point_cap)
    pts = coeffs @ lat.basis.T
    grid = np.stack(np.meshgrid(*([np.arange(m) / m] * n), indexing="ij"),
                    axis=-1).reshape(-1, n)
    xs = grid @ lat.basis.T
    pn = np.einsum("ij,ij->i", pts, pts)
    worst = 0.0
    for lo in range(0, xs.shape[0], 4096):
        xc = xs[lo:lo + 4096]
        d2 = (np.einsum("ij,ij->i", xc, xc)[:, None] + pn[None, :]
              - 2.0 * (xc @ pts.T))
        vf = scale * np.sum(np.exp(-math.pi * tau * np.maximum(d2, 0.0)), axis=1)
        worst = max(worst, float(np.max(np.abs(vf - 1.0))))
    return worst


def partition_sandwich_check(lat: Lattice, sigma: float, c,
                             point_cap: int = DEFAULT_POINT_CAP) -> PartitionCheck:
    """Check f_{sigma,c}(L) against the [1-eps, 1+eps]/V sandwich.

    The partition value is summed directly on the primal side (so the
    check is independent of the dual-series shortcut inside flatness).
    Tolerance 1e-9 on V*value at the bracket edges.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (lat.n,):
        raise DimensionMismatch(f"shift has shape {c.shape}, lattice dim {lat.n}")
    _check_positive("sigma", sigma)
    n = lat.n
    tau = 1.0 / (2.0 * math.pi * sigma * sigma)
    raw, _, _ = _gauss_sum(lat, c, tau, point_cap)
    value = raw * (2.0 * math.pi * sigma * sigma) ** (-n / 2.0)
    eps = flatness(lat, sigma, point_cap).epsilon
    vol = lat.volume
    lo = (1.0 - eps) / vol
    hi = (1.0 + eps) / vol
    scaled = value * vol
    passed = (1.0 - eps - 1e-9) <= scaled <= (1.0 + eps + 1e-9)
    return PartitionCheck(value=value, lo=lo, hi=hi, passed=passed)


# ---------------------------------------------------------------------------
# discrete Gaussian moment and entropy diagnostics
# ---------------------------------------------------------------------------
# For diagonal bases the distribution factorizes per axis and the sums run
# in mpmath: the lemma bounds at large sigma0 (e.g. ~1e-17 on Z^8 at
# sigma0=3) sit far below float64 resolution, so 40-digit arithmetic is the
# only way to check them honestly.

_MP_DPS = 40


@functools.lru_cache(maxsize=1024)
def _axis_sums(d: float, ci: float, sigma0: float) -> tuple:
    """Per-axis partition, second moment, and entropy for points d*k - ci."""
    with mp.workdps(_MP_DPS):
        dd = mp.mpf(float(d))
        cc = mp.mpf(float(ci))
        ss = mp.mpf(float(sigma0))
        two_s2 = 2 * ss * ss
        center = cc / dd
        span = int(mp.ceil(14 * ss / dd)) + 2
        k0 = int(mp.floor(center))
        z = mp.mpf(0)
        m2 = mp.mpf(0)
        for k in range(k0 - span, k0 + span + 1):
            x = dd * k - cc
            w = mp.e ** (-(x * x) / two_s2)
            z += w
            m2 += w * x * x
        mean_sq = m2 / z
        entropy = mp.log(z) + mean_sq / two_s2
        return z, mean_sq, entropy


def _diag_axes(lat: Lattice) -> np.ndarray | None:
    if isinstance(lat.structure, Diag):
        return lat.structure.steps
    return None


def _support_stats(lat: Lattice, sigma0: float, c: np.ndarray,
                   point_cap: int) -> tuple:
    """(E|x-c|^2, entropy) for the discrete Gaussian on L - c.

    Diagonal bases factorize axis by axis in 40-digit arithmetic; other
    bases enumerate the truncated support directly in float64.
    """
    n = lat.n
    axes = _diag_axes(lat)
    if axes is not None:
        mom = mp.mpf(0)
        ent = mp.mpf(0)
        with mp.workdps(_MP_DPS):
            for i in range(n):
                _, mean_sq, h = _axis_sums(axes[i], c[i], sigma0)
                mom += mean_sq
                ent += h
        return mom, ent
    tau = 1.0 / (2.0 * math.pi * sigma0 * sigma0)
    two_s2 = 2.0 * sigma0 * sigma0

    def weigh(d2):
        d2 = np.sort(d2)[::-1]
        w = np.exp(-d2 / two_s2)
        z = float(np.sum(w))
        return (d2, w, z), z

    (d2, w, z), _, _ = _grow_ball(lat, c, tau,
                                  math.sqrt(X_START / (math.pi * tau)),
                                  point_cap, weigh, "support sum")
    mom = float(np.sum(w * d2)) / z
    q = d2 / two_s2
    ent = math.log(z) + float(np.sum(w * q)) / z
    return mom, ent


def _require_small_eps(lat: Lattice, sigma0: float, point_cap: int) -> float:
    eps = flatness(lat, sigma0 / 2.0, point_cap).epsilon
    if eps >= 1.0:
        raise FlatnessTooLarge(
            f"flatness factor at sigma0/2 is {eps:.3g} >= 1")
    return eps


def moment_check(lat: Lattice, sigma0: float, c,
                 point_cap: int = DEFAULT_POINT_CAP) -> MomentCheck:
    """Second moment of D_{L-c,sigma0} against the smoothing-bound lemma.

    Checks |E|x-c|^2 - n sigma0^2| <= 2 pi eps/(1-eps) * sigma0^2 with
    eps evaluated at sigma0/2; the comparison runs at the precision of the
    underlying sums (40 digits for diagonal bases).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (lat.n,):
        raise DimensionMismatch(f"shift has shape {c.shape}, lattice dim {lat.n}")
    _check_positive("sigma0", sigma0)
    if lat.n > 8:
        raise DimensionTooLarge(f"moment check limited to n <= 8, got {lat.n}")
    eps = _require_small_eps(lat, sigma0, point_cap)
    bound = 2.0 * math.pi * eps / (1.0 - eps) * sigma0 * sigma0
    mom, _ = _support_stats(lat, sigma0, c, point_cap)
    with mp.workdps(_MP_DPS):
        deviation = abs(mp.mpf(mom) - lat.n * mp.mpf(float(sigma0)) ** 2)
        passed = bool(deviation <= mp.mpf(bound) + mp.mpf("1e-9"))
    return MomentCheck(second_moment=float(mom), bound=bound, passed=passed)


def entropy_check(lat: Lattice, sigma0: float, c,
                  point_cap: int = DEFAULT_POINT_CAP) -> EntropyReport:
    """Entropy rate of D_{L-c,sigma0} with its continuous-Gaussian reference.

    reference = log(sqrt(2 pi e) sigma0) - log(V)/n nats per dimension;
    the lemma guarantees |entropy_rate - reference| <= epsilon_prime.  The
    report fields are float64; use entropy_deviation for the full-precision
    gap, which at large sigma0 lies below one ulp of the fields.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (lat.n,):
        raise DimensionMismatch(f"shift has shape {c.shape}, lattice dim {lat.n}")
    _check_positive("sigma0", sigma0)
    if lat.n > 8:
        raise DimensionTooLarge(f"entropy check limited to n <= 8, got {lat.n}")
    eps = _require_small_eps(lat, sigma0, point_cap)
    n = lat.n
    eps_prime = -math.log1p(-eps) / n + math.pi * eps / (n * (1.0 - eps))
    _, ent = _support_stats(lat, sigma0, c, point_cap)
    reference = (math.log(math.sqrt(2.0 * math.pi * math.e) * sigma0)
                 - math.log(lat.volume) / n)
    return EntropyReport(entropy_rate=float(ent) / n, reference=reference,
                         epsilon_prime=eps_prime)


def entropy_deviation(lat: Lattice, sigma0: float, c,
                      point_cap: int = DEFAULT_POINT_CAP) -> float:
    """|entropy_rate - reference| computed before any float64 rounding."""
    _check_positive("sigma0", sigma0)
    c = np.asarray(c, dtype=float)
    _, ent = _support_stats(lat, sigma0, c, point_cap)
    n = lat.n
    with mp.workdps(_MP_DPS):
        ref = (mp.log(mp.sqrt(2 * mp.pi * mp.e) * mp.mpf(float(sigma0)))
               - mp.log(mp.mpf(lat.volume)) / n)
        return float(abs(mp.mpf(ent) / n - ref))


def gaussian_density(sigma: float, c, x) -> float:
    """Density of the n-dim Gaussian with deviation sigma centered at c."""
    _check_positive("sigma", sigma)
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    if c.shape != x.shape or c.ndim != 1:
        raise DimensionMismatch(f"shapes {c.shape} vs {x.shape}")
    n = c.size
    d2 = float(np.sum((x - c) ** 2))
    return (2.0 * math.pi * sigma * sigma) ** (-n / 2.0) * math.exp(
        -d2 / (2.0 * sigma * sigma))
