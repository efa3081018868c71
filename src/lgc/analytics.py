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
import sys
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
from . import lattice
from .lattice import Lattice, enumerate_ball

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


@dataclass(frozen=True)
class FlatnessReport:
    sigma: float
    gsnr: float
    theta: ThetaValue
    epsilon: float


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
    try:
        vol = math.pi ** (n / 2.0) * radius**n / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        vol = math.inf
    if vol < math.inf:
        return vol
    # the direct formula overflows in high dimension (Z^400 at sigma 1);
    # its logarithm does not
    ln_vol = (n / 2.0 * math.log(math.pi) + n * math.log(radius)
              - math.lgamma(n / 2.0 + 1.0))
    return math.exp(ln_vol) if ln_vol < 709.0 else math.inf


def _tail_bound(n: int, lam1: float, tau: float, radius: float) -> float:
    """Certified bound on sum of exp(-pi tau |v|^2) over |v| > radius.

    Shell k (norms in (radius+k, radius+k+1]) holds at most
    (2(radius+k+1)/lam1 + 1)^n points, each weighing at most
    exp(-pi tau (radius+k)^2); evaluated in log space to dodge overflow.
    The ratio of consecutive terms falls as k grows, so when 2000 shells
    do not settle the series, the rest is at most term * rho / (1 - rho),
    rho being the ratio of the next term to the last one summed.  A term
    or ratio past float range leaves the tail uncertified: inf.
    """
    def ln_term(r):
        return n * math.log(2.0 * (r + 1.0) / lam1 + 1.0) - math.pi * tau * r * r

    acc = 0.0
    try:
        for k in range(2000):
            ln_t = ln_term(radius + k)
            term = math.exp(ln_t) if ln_t > -745.0 else 0.0
            acc += term
            if term <= acc * 1e-17 or term == 0.0:
                return acc
        rho = math.exp(ln_term(radius + 2000) - ln_t)
    except OverflowError:  # a term past float range: uncertified
        return math.inf
    if rho >= 1.0:
        raise BudgetExceeded("packing tail series does not converge")
    return acc + term * rho / (1.0 - rho)


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise NonpositiveSigma(f"{name} must be finite and positive, got {value}")


def _two_pi_var(name: str, sigma: float) -> float:
    """2 pi sigma^2, the 1 / tau of every Gaussian sum at deviation sigma.

    Raises NonpositiveSigma unless sigma > 0 and 2 pi sigma^2 is a normal
    float, so that it and tau are finite and positive (sigma = 1e-200
    underflows, 1e200 overflows).
    """
    var = 2.0 * math.pi * sigma * sigma
    if not (sigma > 0.0 and sys.float_info.min <= var < math.inf):
        raise NonpositiveSigma(
            f"{name} must be finite and positive, with 2 pi {name}^2 in "
            f"float range, got {sigma}")
    return var


def _grow_radius(lat: Lattice, tau: float, radius: float, grow: float,
                 rel: float, weigh, what: str) -> tuple:
    """Grow radius by `grow` until the packing tail bound certifies it.

    weigh(radius) returns (result, anchor); the first radius whose bound on
    the omitted exp(-pi tau |v|^2) mass is under rel * anchor is kept.
    Returns (result, tail_bound, radius).  The one truncation policy of
    every certified lattice sum; each caller keeps its own start, factor
    and threshold.
    """
    lam1 = lat.lambda1_lb()
    for _ in range(200):
        result, anchor = weigh(radius)
        tail = _tail_bound(lat.n, lam1, tau, radius)
        if tail < rel * anchor:
            return result, tail, radius
        radius *= grow
    raise BudgetExceeded(f"{what} did not certify its tail")


def _weight_sum(w: np.ndarray, what: str) -> float:
    """float(np.sum(w)) over the Gaussian weights of a ball's points.

    Raises BudgetExceeded when a non-empty ball's weights sum to 0.0: every
    point outside the ball weighs less, so no larger ball certifies either.
    An empty ball sums to 0.0 and is left to grow.
    """
    z = float(np.sum(w))
    if z == 0.0 and w.size:
        raise BudgetExceeded(f"{what} weights underflow to 0.0")
    return z


def _ball_d2(lat: Lattice, center: np.ndarray, radius: float) -> np.ndarray:
    """Squared distances of the lattice points within radius of center,
    in descending order.

    Bit for bit np.sort(enumerate_ball(lat, center, radius, coeffs=False)[1])
    reversed, sorted in place.  A zero center (-0.0 too) enumerates only the
    origin and one point of each +-u pair (enumerate_ball's half mode),
    whose d2 have the bits of the other half's: each nonzero value is
    emitted twice and the origin's 0.0 last, interleaved into one array
    that is the only allocation past the half ball.
    """
    half = not np.any(center) and 0.0 <= radius < math.inf
    _, d2 = enumerate_ball(lat, center, radius, coeffs=False, _half=half)
    d2.sort()
    d2 = d2[::-1]
    if not half:
        return d2
    out = np.empty(2 * d2.size - 1)
    out[0::2] = d2
    out[1::2] = d2[:-1]
    return out


def _gauss_sum(lat: Lattice, center: np.ndarray, tau: float,
               skip_zero: bool = False, min_radius: float = 0.0,
               balls: dict | None = None) -> tuple:
    """Truncated sum of exp(-pi tau |v - center|^2) over lattice points v.

    Grows the enumeration radius by GROW (_grow_radius) until the packing
    tail bound drops under TAIL_REL of the partial sum (measured against
    the full sum including the zero term even when skip_zero drops it from
    the returned value, so tiny sums still terminate).  balls, when given,
    memoizes by (lattice, radius) the one descending-sorted d2 array of
    each ball (_ball_d2), so sums over one lattice around one center
    enumerate and sort each radius once.  The weights of a ball fill one
    buffer (scaled, then exponentiated in place); skip_zero keeps the
    leading slice of d2 past the zero cut, since d2 descends.  Returns
    (value, tail_bound, radius).
    """
    zero_cut = (0.5 * lat.lambda1_lb()) ** 2

    def weigh(radius):
        d2 = None if balls is None else balls.get((lat, radius))
        if d2 is None:
            d2 = _ball_d2(lat, center, radius)
            if balls is not None:
                balls[(lat, radius)] = d2
        if skip_zero:  # descending, so the kept points lead
            d2 = d2[:np.count_nonzero(d2 > zero_cut)]
        # ascending weights for a stable, order-fixed summation
        w = np.multiply(d2, -math.pi * tau)
        np.exp(w, out=w)
        value = float(np.sum(w)) if skip_zero else _weight_sum(w, "gaussian sum")
        return value, value + 1.0 if skip_zero else value

    radius = max(math.sqrt(X_START / (math.pi * tau)), min_radius)
    return _grow_radius(lat, tau, radius, GROW, TAIL_REL, weigh,
                        "gaussian sum")


# ---------------------------------------------------------------------------
# theta series and flatness factor
# ---------------------------------------------------------------------------


def _on_lll_basis(lat: Lattice, total):
    """total(lat), a sum over the points of lat; where its ball search
    raises BudgetExceeded, total once more on lat's LLL basis.

    The sum does not depend on the basis, but a skewed one's level ranges
    hold far more candidates than the ball holds points (I + 2S, S the
    upper shift matrix, passes POINT_CAP at sigma 0.4), and its lambda1
    bound is weaker.  Where the LLL basis is the given one, the error
    stands.
    """
    try:
        return total(lat)
    except BudgetExceeded:
        red, t = lat.reduced
        if np.array_equal(t, np.eye(lat.n, dtype=t.dtype)):
            raise
    return total(red)


def theta(lat: Lattice, tau: float, *, balls: dict | None = None) -> ThetaValue:
    """Theta series sum of exp(-pi tau |v|^2) with certified truncation.

    Evaluates on whichever side of the Poisson identity
        Theta_L(tau) = tau^{-n/2} / V * Theta_dual(1/tau)
    needs fewer points, preferring the primal side while it stays under
    PRIMAL_PREF points.  Raises BudgetExceeded when the chosen side's
    estimate passes lattice.POINT_CAP; where the given basis's ball search
    raises it, the sum is taken on the LLL basis (_on_lll_basis).  balls
    is passed to _gauss_sum.  On the dual side, value and tail are inf
    where tau^{-n/2} overflows.
    """
    _check_positive("tau", tau)
    n = lat.n
    vol = lat.volume
    est_primal = _ball_volume(n, math.sqrt(X_START / (math.pi * tau))) / vol
    est_dual = _ball_volume(n, math.sqrt(X_START * tau / math.pi)) * vol
    side_primal = est_primal <= PRIMAL_PREF or est_primal <= est_dual
    if (est_primal if side_primal else est_dual) > lattice.POINT_CAP:
        raise BudgetExceeded(
            f"theta needs ~{est_primal:.2e} primal / ~{est_dual:.2e} dual "
            f"points, cap {lattice.POINT_CAP:.0e}")
    zero = np.zeros(n)
    if side_primal:
        return ThetaValue(*_on_lll_basis(
            lat, lambda b: _gauss_sum(b, zero, tau, balls=balls)))
    value, tail, radius = _on_lll_basis(
        lat, lambda b: _gauss_sum(b.dual, zero, 1.0 / tau, balls=balls))
    try:
        factor = tau ** (-n / 2.0) / vol
    except OverflowError:  # float ** raises where the power overflows
        return ThetaValue(math.inf, math.inf, radius)
    return ThetaValue(factor * value, factor * tail, radius)


def gsnr(lat: Lattice, sigma: float) -> float:
    """Generalized SNR: V^{2/n} / (2 pi sigma^2)."""
    return lat.volume ** (2.0 / lat.n) / _two_pi_var("sigma", sigma)


def flatness(lat: Lattice, sigma: float) -> FlatnessReport:
    """Flatness factor report at deviation sigma.

    epsilon comes from the dual-side series when gsnr < 1 (small-epsilon
    regime, cancellation-free) and from the primal product formula
    otherwise; the two agree through Poisson summation.  epsilon is inf
    where the product formula's gsnr^(n/2) overflows.  The attached theta
    value is always taken at tau = 1/(2 pi sigma^2).

    Reports are cached on the lattice by float(sigma); a raised error is
    not.  The dual-side theta sum and the epsilon sum share one memo that
    holds one sorted d2 array per ball, so each radius is enumerated and
    sorted once; at the origin only half of each ball is enumerated.
    """
    var = _two_pi_var("sigma", sigma)
    key = float(sigma)
    if key in lat._flatness:
        return lat._flatness[key]
    g = gsnr(lat, sigma)
    n = lat.n
    tau = 1.0 / var
    balls: dict = {}
    tv = theta(lat, tau, balls=balls)
    if g < 1.0:
        def eps_sum(b):
            dual = b.dual
            return _gauss_sum(dual, np.zeros(n), 1.0 / tau, skip_zero=True,
                              min_radius=dual.lambda1_lb() * (1.0 + 1e-9)
                              + 0.25, balls=balls)[0]
        eps = _on_lll_basis(lat, eps_sum)
    else:
        try:
            eps = g ** (n / 2.0) * tv.value - 1.0
        except OverflowError:  # float ** raises where the power overflows
            eps = math.inf
    rep = lat._flatness[key] = FlatnessReport(sigma=sigma, gsnr=g, theta=tv,
                                              epsilon=eps)
    return rep


def flatness_direct(lat: Lattice, sigma: float, grid_points_per_dim: int) -> float:
    """Grid-search oracle for the flatness factor (n <= 4 only).

    Evaluates V * f_{sigma,L}(x) - 1 on a regular grid over the basis
    parallelepiped, with the periodic sum truncated at a radius whose
    certified tail is below 1e-12, and returns the max absolute value.
    """
    n = lat.n
    if n > 4:
        raise DimensionTooLarge(f"grid search limited to n <= 4, got {n}")
    var = _two_pi_var("sigma", sigma)
    if not 1 <= grid_points_per_dim < math.inf:
        raise DimensionMismatch("need at least one grid point per dimension")
    m = int(grid_points_per_dim)
    tau = 1.0 / var
    scale = lat.volume * var ** (-n / 2.0)
    _, _, radius = _grow_radius(lat, tau, math.sqrt(X_START / (math.pi * tau)),
                                GROW, 1e-12, lambda _: (None, 1.0 / scale),
                                "flatness grid")
    # one super-ball covers every grid point's radius-R neighborhood
    half = lat.basis @ np.full(n, 0.5)
    reach = 0.5 * float(np.sum(np.linalg.norm(lat.basis, axis=0)))
    coeffs, _ = enumerate_ball(lat, half, radius + reach)
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


def partition_sandwich_check(lat: Lattice, sigma: float, c) -> PartitionCheck:
    """Check f_{sigma,c}(L) against the [1-eps, 1+eps]/V sandwich.

    The partition value is summed directly on the primal side (so the
    check is independent of the dual-series shortcut inside flatness).
    Tolerance 1e-9 on V*value at the bracket edges.
    """
    c = lattice._vector(c, lat.n, "shift")
    var = _two_pi_var("sigma", sigma)
    n = lat.n
    tau = 1.0 / var
    raw, _, _ = _gauss_sum(lat, c, tau)
    value = raw * var ** (-n / 2.0)
    eps = flatness(lat, sigma).epsilon
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


def _support_stats(lat: Lattice, sigma0: float, c: np.ndarray) -> tuple:
    """(E|x-c|^2, entropy) for the discrete Gaussian on L - c.

    Diagonal bases factorize axis by axis in 40-digit arithmetic; other
    bases sum the truncated support's sorted d2 (_ball_d2) in float64.
    """
    n = lat.n
    if lat.structure is not None and not lat.structure.even_sum:  # diagonal
        steps = lat.structure.steps
        mom = mp.mpf(0)
        ent = mp.mpf(0)
        with mp.workdps(_MP_DPS):
            for i in range(n):
                _, mean_sq, h = _axis_sums(steps[i], c[i], sigma0)
                mom += mean_sq
                ent += h
        return mom, ent
    tau = 1.0 / _two_pi_var("sigma0", sigma0)
    two_s2 = 2.0 * sigma0 * sigma0

    def weigh(radius):
        d2 = _ball_d2(lat, c, radius)
        w = np.negative(d2)
        w /= two_s2
        np.exp(w, out=w)
        z = _weight_sum(w, "support")
        return (d2, w, z), z

    (d2, w, z), _, _ = _grow_radius(lat, tau,
                                    math.sqrt(X_START / (math.pi * tau)),
                                    GROW, TAIL_REL, weigh, "support sum")
    mom = float(np.sum(w * d2)) / z
    q = d2 / two_s2
    q *= w
    ent = math.log(z) + float(np.sum(q)) / z
    return mom, ent


def _lemma_args(lat: Lattice, sigma0: float, c, what: str) -> np.ndarray:
    """The shift as an array, after the checks every lemma check makes."""
    c = lattice._vector(c, lat.n, "shift")
    _check_positive("sigma0", sigma0)
    if lat.n > 8:
        raise DimensionTooLarge(f"{what} limited to n <= 8, got {lat.n}")
    return c


def _require_small_eps(lat: Lattice, sigma0: float) -> float:
    eps = flatness(lat, sigma0 / 2.0).epsilon
    if eps >= 1.0:
        raise FlatnessTooLarge(
            f"flatness factor at sigma0/2 is {eps:.3g} >= 1")
    return eps


def moment_check(lat: Lattice, sigma0: float, c) -> MomentCheck:
    """Second moment of D_{L-c,sigma0} against the smoothing-bound lemma.

    Checks |E|x-c|^2 - n sigma0^2| <= 2 pi eps/(1-eps) * sigma0^2 with
    eps evaluated at sigma0/2; the comparison runs at the precision of the
    underlying sums (40 digits for diagonal bases).
    """
    c = _lemma_args(lat, sigma0, c, "moment check")
    eps = _require_small_eps(lat, sigma0)
    bound = 2.0 * math.pi * eps / (1.0 - eps) * sigma0 * sigma0
    mom, _ = _support_stats(lat, sigma0, c)
    with mp.workdps(_MP_DPS):
        deviation = abs(mp.mpf(mom) - lat.n * mp.mpf(float(sigma0)) ** 2)
        passed = bool(deviation <= mp.mpf(bound) + mp.mpf("1e-9"))
    return MomentCheck(second_moment=float(mom), bound=bound, passed=passed)


def entropy_check(lat: Lattice, sigma0: float, c) -> EntropyReport:
    """Entropy rate of D_{L-c,sigma0} with its continuous-Gaussian reference.

    reference = log(sqrt(2 pi e) sigma0) - log(V)/n nats per dimension;
    the lemma guarantees |entropy_rate - reference| <= epsilon_prime.  The
    report fields are float64; use entropy_deviation for the full-precision
    gap, which at large sigma0 lies below one ulp of the fields.
    """
    c = _lemma_args(lat, sigma0, c, "entropy check")
    eps = _require_small_eps(lat, sigma0)
    n = lat.n
    _, ent = _support_stats(lat, sigma0, c)
    reference = (math.log(math.sqrt(2.0 * math.pi * math.e) * sigma0)
                 - math.log(lat.volume) / n)
    return EntropyReport(entropy_rate=float(ent) / n, reference=reference,
                         epsilon_prime=eps_prime_formula(n, eps))


def eps_prime_formula(n: int, eps: float) -> float:
    """Entropy-rate slack from a flatness factor eps at sigma0/2."""
    if not eps < 1.0:
        raise FlatnessTooLarge(f"flatness factor must be below 1, got {eps:.3g}")
    return -math.log1p(-eps) / n + math.pi * eps / (n * (1.0 - eps))


def entropy_deviation(lat: Lattice, sigma0: float, c) -> float:
    """|entropy_rate - reference| computed before any float64 rounding."""
    c = _lemma_args(lat, sigma0, c, "entropy check")
    _, ent = _support_stats(lat, sigma0, c)
    n = lat.n
    with mp.workdps(_MP_DPS):
        ref = (mp.log(mp.sqrt(2 * mp.pi * mp.e) * mp.mpf(float(sigma0)))
               - mp.log(mp.mpf(lat.volume)) / n)
        return float(abs(mp.mpf(ent) / n - ref))
