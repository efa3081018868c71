"""Power-constrained AWGN coding with lattice Gaussian signaling.

The transmitter draws x from a discrete Gaussian over L - c; the channel
adds white noise of deviation sigma per dimension.  Completing the square
in the posterior

    P(x|y) ~ exp(-|y-x|^2/(2 sigma^2) - |x|^2/(2 sigma0^2))

shows the MAP word is the support point nearest to alpha*y with the MMSE
coefficient alpha = sigma0^2/(sigma0^2+sigma^2), i.e. scaled lattice
decoding at effective noise sigma_tilde = sigma0*sigma/sqrt(sigma0^2 +
sigma^2).  The Monte Carlo harness verifies this equivalence trial by
trial and brackets the scheme's error rate between flatness-factor
multiples of the plain Voronoi-escape rate at sigma_tilde.

The two sides of the equivalence are decoded a block of trials at a time:
MMSE by the batch nearest-point decoder, MAP by _map_batch.  On a
structured support the batched MAP keeps the MMSE point wherever it lies
in the support, since the nearest lattice point to c + alpha*y is then the
nearest support point, and asks the per-row reference map_decode
otherwise; it searches no ball.  map_decode itself searches the support's
per-axis box, and a tabulated support is scored point by point with the
posterior, with no completed square.

One block engine runs every Monte Carlo arm.  Trials are sharded into
fixed blocks of 2^14; block b draws its signal from RNG lane 2b and its
noise from lane 2b+1, so results depend only on (seed, trials), never on
thread count, and the sandwich's two arms share each block's noise.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    FlatnessTooLarge,
    InsufficientErrors,
    MuBelowOne,
    NonpositiveSigma,
)
from .analytics import (
    _check_positive,
    _require_small_eps,
    _two_pi_var,
    eps_prime_formula,
    flatness,
    gsnr,
)
from .lattice import (
    TIE_REL,
    Lattice,
    _enum_nearest,  # noqa: F401  bound here for perfbench/tracing.py
    _vector,
    _warm_decoder,
    closest_point,
    closest_points_batch,
)
from .rng import RngSeed, stream
from .sampler import (
    DiscreteGaussianSpec,
    _table_chunks,
    build_spec,
    sample_coeffs,
)

Z95 = 1.959963984540054
BLOCK = 1 << 14
# trials decoded per step of decode_agreement: keeps the decoders'
# per-row temporaries, and so the peak memory, small
_AGREE_CHUNK = 512
CSV_HEADER = ("lattice,label,n,sigma0,sigma,alpha,sigma_tilde,V,mu,"
              "trials,errors,p_hat,ci_low,ci_high,seed")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianParams:
    """Signaling/noise deviations and the derived MMSE quantities."""

    sigma0: float
    sigma: float
    alpha: float
    sigma_tilde: float
    snr: float


def make_params(sigma0: float, sigma: float) -> GaussianParams:
    # a normal 2 pi sigma^2 keeps each square nonzero and their sum finite
    _two_pi_var("sigma0", sigma0)
    _two_pi_var("sigma", sigma)
    s0sq = sigma0 * sigma0
    ssq = sigma * sigma
    snr = s0sq / ssq
    if snr == math.inf:
        raise NonpositiveSigma(
            f"sigma0^2 / sigma^2 overflows, got {sigma0} and {sigma}")
    alpha = s0sq / (s0sq + ssq)
    return GaussianParams(
        sigma0=sigma0, sigma=sigma, alpha=alpha,
        sigma_tilde=sigma0 * sigma / math.sqrt(s0sq + ssq),
        snr=snr)


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def mmse_decode(lat: Lattice, c, params: GaussianParams, y) -> np.ndarray:
    """Scaled lattice decoding: the coefficients u of the nearest point
    B u - c of L - c to alpha*y, which is closest_point(lat, alpha*y + c)."""
    c = _vector(c, lat.n, "shift")
    return closest_point(lat, params.alpha * _vector(y, lat.n, "point") + c)


def map_decode(spec: DiscreteGaussianSpec, params: GaussianParams, y) -> np.ndarray:
    """Coefficients u (int64, shape (n,)) of the exact posterior argmax
    B u - c over the truncated signaling support.

    Table specs score every support point exhaustively.  Structured specs
    minimize the completed-square metric |B u - (c + alpha*y)|^2 over the
    support box of the spec's axis layout by _box_search, which walks the
    axes themselves and uses no nearest-point decoder: this per-row
    reference stays apart from _map_batch, the batched decoder of
    decode_agreement, which keeps the MMSE point where it can.  Ties
    (squared distance within TIE_REL * (1 + best)) break to the
    lexicographically smallest coefficient vector.
    """
    y = _vector(y, spec.lattice.n, "y")
    if spec.backend == "table":
        return _map_table(spec, params, y)
    ties = _box_search(spec, spec.shift + params.alpha * y)
    return ties[np.lexsort(ties.T[::-1])[0]]


def _axis_ranges(spec: DiscreteGaussianSpec) -> list:
    """(coset offset, lowest k, highest k) per coset of an axis-layout spec.

    The coset's support points are B u = steps * k + offset with every k_i
    inside its table's range (and sum(k) even under the layout's filter).
    """
    return [(off, np.array([tab[0][0] for tab in tables]),
             np.array([tab[0][-1] for tab in tables]))
            for off, tables in zip(spec.lattice.structure.offsets,
                                   spec.axis_tables)]


def _in_support(spec: DiscreteGaussianSpec, u: np.ndarray) -> np.ndarray:
    """Which rows of u (coefficients) are support points of an axis-layout spec.

    A lattice point is one when, in its own coset, every axis value lies in
    its table's range; the even-sum filter holds for every point of a
    checkerboard lattice, so it needs no test.
    """
    x = u @ spec.lattice.basis.T
    ok = np.zeros(u.shape[0], dtype=bool)
    for off, k_lo, k_hi in _axis_ranges(spec):
        z = (x - off) / spec.lattice.structure.steps
        k = np.rint(z)
        ok |= np.all((np.abs(z - k) < 0.25) & (k >= k_lo) & (k <= k_hi),
                     axis=1)
    return ok


def _box_search(spec: DiscreteGaussianSpec, target: np.ndarray) -> np.ndarray:
    """Coefficient rows of the support points within the tie band of the best.

    The squared distance from steps * k + offset to target is a sum of
    per-axis terms, so each coset (_axis_ranges) is searched depth first
    over its axes, Schnorr-Euchner style: axis i walks its table's k range
    outward from k0, the target's k rounded and then clamped, and in each
    direction its term only grows.  A branch stops once acc + rest[i + 1]
    passes the bound, rest[i] summing the smallest terms of axes i, i+1,
    ...; the even-sum filter is tested at the leaves.  The bound, the best
    leaf so far plus the tie band TIE_REL * (1 + best), only shrinks, so
    nothing it cuts lies in the final band.
    """
    ax = spec.lattice.structure
    n = spec.lattice.n
    steps, t = ax.steps.tolist(), target.tolist()
    best, leaves = math.inf, []
    for off, k_lo, k_hi in _axis_ranges(spec):
        k0 = np.clip(np.rint((target - off) / ax.steps), k_lo, k_hi)
        low = (ax.steps * k0 + off - target) ** 2
        rest = np.append(np.cumsum(low[::-1])[::-1], 0.0).tolist()
        k0, k_lo, k_hi = (v.astype(np.int64).tolist() for v in (k0, k_lo, k_hi))

        def walk(i, acc, ks):
            nonlocal best
            if i == n:
                if not (ax.even_sum and sum(ks) % 2):
                    best = min(best, acc)
                    leaves.append((acc, ks, off))
                return
            for ki_range in (range(k0[i], k_hi[i] + 1),
                             range(k0[i] - 1, k_lo[i] - 1, -1)):
                for ki in ki_range:
                    d = acc + (steps[i] * ki + off - t[i]) ** 2
                    if d + rest[i + 1] > best + TIE_REL * (1.0 + best):
                        break
                    walk(i + 1, d, ks + (ki,))

        walk(0, 0.0, ())
    band = best + TIE_REL * (1.0 + best)
    x = np.array([ax.steps * np.array(ks) + off
                  for d2, ks, off in leaves if d2 <= band])
    return np.rint(x @ spec.lattice.inv.T).astype(np.int64)


def _map_table(spec, params, y) -> np.ndarray:
    """Coefficients of the posterior argmax over the table.

    One pass scores every row log p(x) - |x - y|^2 / (2 sigma^2); the
    first index at or above best - TIE_REL * (1 + |best|) wins ties.
    """
    two_ssq = 2.0 * params.sigma * params.sigma
    score = np.log(spec.table_probs)
    for lo, emb in _table_chunks(spec):
        diff = emb - y
        score[lo:lo + emb.shape[0]] -= (np.einsum("ij,ij->i", diff, diff)
                                        / two_ssq)
    best = float(score.max())
    first = np.argmax(score >= best - TIE_REL * (1.0 + abs(best)))
    return spec.table_rows[first].astype(np.int64)


def _map_batch(spec: DiscreteGaussianSpec, params: GaussianParams,
               ys: np.ndarray, mmse: np.ndarray) -> np.ndarray:
    """map_decode's coefficients for every row of ys.

    mmse holds the nearest lattice points to the targets c + alpha*y, ties
    broken to the lexicographically smallest coefficients.  Table specs go
    row by row to _map_table.  On a structured spec a row keeps its MMSE
    point wherever it lies in the support (_in_support): by the paper's
    identity no support point is nearer the target, and the point comes
    first among the support's ties.  The other rows go to map_decode; no
    ball is searched.  The two can part only in a three-way tie within
    rounding of the tie band's edge that involves a non-support point,
    which sets the lattice's band below the support's best: the class of
    case in which the QR frame and _box_search's sums can already part.
    """
    if not np.all(np.isfinite(ys)):
        raise DimensionMismatch("y must be finite")
    if spec.backend == "table":
        return np.array([_map_table(spec, params, y) for y in ys],
                        dtype=np.int64).reshape(mmse.shape)
    out = mmse.copy()
    for i in np.nonzero(~_in_support(spec, mmse))[0].tolist():
        out[i] = map_decode(spec, params, ys[i])
    return out


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DimensionMismatch(f"trials must be >= 1, got {trials}")


class AgreementReport(NamedTuple):
    trials: int
    agreements: int
    ties: int
    mismatches: int


def decode_agreement(lat: Lattice, c, params: GaussianParams, trials: int,
                     seed: RngSeed,
                     spec: DiscreteGaussianSpec | None = None) -> AgreementReport:
    """Trial-by-trial comparison of the MAP and MMSE decoders.

    Draws x from the signaling distribution and y through the channel,
    then decodes _AGREE_CHUNK trials at a time both ways: MMSE by
    closest_points_batch toward alpha*y + c, MAP by _map_batch, which
    searches only the truncated support.  Exact posterior ties are counted
    separately and excluded from the agreement tally.  A given spec must
    be the one build_spec makes for (lat, params.sigma0, c).
    """
    _check_trials(trials)
    c = _vector(c, lat.n, "shift")
    if spec is None:
        spec = build_spec(lat, params.sigma0, c)
    elif not (spec.lattice is lat and spec.sigma0 == params.sigma0
              and np.array_equal(spec.shift, c)):
        raise DimensionMismatch(
            "spec was built for another lattice, sigma0 or shift")
    rng_x = stream(seed, 0)
    rng_w = stream(seed, 1)
    tie_gap = 2.0 * params.sigma_tilde ** 2 * TIE_REL
    basis_t = lat.basis.T
    agreements = ties = 0
    for lo in range(0, trials, BLOCK):
        m = min(BLOCK, trials - lo)
        U = sample_coeffs(spec, rng_x, m)
        Ys = U @ basis_t - c + params.sigma * rng_w.standard_normal((m, lat.n))
        for i in range(0, m, _AGREE_CHUNK):
            Y = Ys[i:i + _AGREE_CHUNK]
            ay = params.alpha * Y
            mmse = closest_points_batch(lat, ay + c)
            mapd = _map_batch(spec, params, Y, mmse)
            same = np.all(mapd == mmse, axis=1)
            da = mapd @ basis_t - c - ay
            db = mmse @ basis_t - c - ay
            gap = np.abs(np.einsum("ij,ij->i", da, da)
                         - np.einsum("ij,ij->i", db, db))
            agreements += int(np.sum(same))
            ties += int(np.sum(~same & (gap < tie_gap)))
    return AgreementReport(trials, agreements, ties, trials - agreements - ties)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def wilson_interval(errors: int, trials: int) -> tuple:
    """(p_hat, ci_low, ci_high): 95% Wilson score interval."""
    p = errors / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return p, max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SimResult:
    """One Monte Carlo estimate with its Wilson interval and provenance."""

    lattice_label: str
    run_label: str
    n: int
    sigma0: float
    sigma: float
    alpha: float
    sigma_tilde: float
    volume: float
    mu: float
    trials: int
    errors: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed_tag: str

    def csv_row(self) -> str:
        vals = [self.lattice_label, self.run_label, str(self.n),
                repr(self.sigma0), repr(self.sigma), repr(self.alpha),
                repr(self.sigma_tilde), repr(self.volume), repr(self.mu),
                str(self.trials), str(self.errors), repr(self.p_hat),
                repr(self.ci_low), repr(self.ci_high), self.seed_tag]
        return ",".join(vals)


def _count_errors(lat: Lattice, trials: int, seed: RngSeed, threads: int,
                  spec: DiscreteGaussianSpec | None = None,
                  params: GaussianParams | None = None,
                  noise_sigma: float | None = None) -> tuple:
    """(scheme errors, Poltyrev errors, trials both got wrong) over the blocks.

    Block b draws standard normals N from lane 2b+1 and, when the scheme
    arm runs (spec and params given), signal coefficients U from lane 2b.
    The scheme arm sends x = U B^T - c, receives y = x + sigma N and
    decodes alpha y + c; the Poltyrev arm (noise_sigma given) decodes
    noise_sigma N around the origin.  An arm that does not run counts 0.
    """
    _warm_decoder(lat)
    basis_t = lat.basis.T.copy()

    def run(lo: int) -> np.ndarray:
        b, m = lo // BLOCK, min(BLOCK, trials - lo)
        U = None if spec is None else sample_coeffs(spec, stream(seed, 2 * b), m)
        N = stream(seed, 2 * b + 1).standard_normal((m, lat.n))
        wrong_s = wrong_p = np.zeros(m, dtype=bool)
        if U is not None:
            Y = U @ basis_t - spec.shift + params.sigma * N
            dec = closest_points_batch(lat, params.alpha * Y + spec.shift)
            wrong_s = np.any(dec != U, axis=1)
        if noise_sigma is not None:
            wrong_p = np.any(closest_points_batch(lat, noise_sigma * N) != 0,
                             axis=1)
        return np.array([wrong_s.sum(), wrong_p.sum(),
                         np.sum(wrong_s & wrong_p)])

    blocks = range(0, trials, BLOCK)
    if threads <= 1:
        counts = sum(map(run, blocks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(run, blocks))
    return tuple(int(v) for v in counts)


def _sim_result(lat: Lattice, sigma0: float, sigma: float, alpha: float,
                sigma_tilde: float, trials: int, errors: int, seed: RngSeed,
                label: str) -> SimResult:
    p, lo, hi = wilson_interval(errors, trials)
    return SimResult(lat.label, label, lat.n, sigma0, sigma, alpha,
                     sigma_tilde, lat.volume, vnr(lat, sigma_tilde), trials,
                     errors, p, lo, hi, seed.tag())


def simulate_error(lat: Lattice, c, params: GaussianParams, trials: int,
                   seed: RngSeed, threads: int = 1, label: str = "") -> SimResult:
    """Scheme error rate: x ~ D_{L-c}, y = x + noise, decode by MMSE scaling."""
    _check_trials(trials)
    spec = build_spec(lat, params.sigma0, c)
    errors, _, _ = _count_errors(lat, trials, seed, threads, spec, params)
    return _sim_result(lat, params.sigma0, params.sigma, params.alpha,
                       params.sigma_tilde, trials, errors, seed, label)


def simulate_poltyrev(lat: Lattice, noise_sigma: float, trials: int,
                      seed: RngSeed, threads: int = 1,
                      label: str = "") -> SimResult:
    """Voronoi-escape rate of plain nearest-point decoding around zero."""
    _check_positive("noise deviation", noise_sigma)
    _check_trials(trials)
    _, errors, _ = _count_errors(lat, trials, seed, threads,
                                 noise_sigma=noise_sigma)
    return _sim_result(lat, math.nan, noise_sigma, math.nan, noise_sigma,
                       trials, errors, seed, label)


def paired_ratio_interval(n_s: int, n_p: int, n_both: int) -> tuple:
    """95% delta-method interval of the ratio n_s/n_p of two error counts
    over the same trials, n_both of which both arms got wrong.

    Multinomial counts give the log ratio the variance 1/n_s + 1/n_p -
    2 n_both/(n_s n_p) (the 1/trials terms cancel); the more failures the
    arms share, the narrower the interval (Agresti, Categorical Data
    Analysis, ch. 11).
    """
    var = 1.0 / n_s + 1.0 / n_p - 2.0 * n_both / (n_s * n_p)
    half = Z95 * math.sqrt(max(var, 0.0))
    log_ratio = math.log(n_s / n_p)
    return math.exp(log_ratio - half), math.exp(log_ratio + half)


class SandwichResult(NamedTuple):
    ratio: float
    lo: float
    hi: float
    passed: bool
    ratio_lo: float
    ratio_hi: float
    eps1: float
    eps2: float
    scheme: SimResult
    poltyrev: SimResult
    # trials both arms decoded wrongly, and the paired interval of the ratio
    both_errors: int
    paired_lo: float
    paired_hi: float


def sandwich_check(lat: Lattice, c, params: GaussianParams, trials: int,
                   seed: RngSeed, threads: int = 1) -> SandwichResult:
    """Paired test of the error-probability sandwich at effective noise.

    One pass runs both arms on common random numbers: each block draws its
    signal coefficients U and standard normals N once, the scheme arm
    decodes alpha (U B^T - c + sigma N) + c and the Poltyrev arm sigma_tilde
    N, so either arm's counts equal those of simulate_error and
    simulate_poltyrev.  The bracket comes from the flatness factors at
    sigma0^2/sqrt(sigma0^2 + sigma^2) and at sigma0; the test passes when
    the ratio's Wilson-inflated interval intersects the bracket.  The
    paired interval (paired_ratio_interval) uses the trials both arms got
    wrong and is narrower.
    """
    s0, s = params.sigma0, params.sigma
    spec = build_spec(lat, s0, c)  # its n <= 12 check precedes the sums
    sigma1 = s0 * s0 / math.sqrt(s0 * s0 + s * s)
    eps1 = flatness(lat, sigma1).epsilon
    eps2 = flatness(lat, s0).epsilon
    if eps1 >= 1.0 or eps2 >= 1.0:
        raise FlatnessTooLarge(
            f"flatness factors ({eps1:.3g}, {eps2:.3g}) must be < 1")
    lo = (1.0 - eps1) / (1.0 + eps2)
    hi = (1.0 + eps1) / (1.0 - eps2)
    _check_trials(trials)
    n_s, n_p, n_both = _count_errors(lat, trials, seed, threads, spec, params,
                                     params.sigma_tilde)
    if n_s < 50 or n_p < 50:
        raise InsufficientErrors(
            f"need >= 50 errors per arm, got {n_s} and {n_p}")
    res_s = _sim_result(lat, s0, s, params.alpha, params.sigma_tilde, trials,
                        n_s, seed, "scheme")
    res_p = _sim_result(lat, math.nan, params.sigma_tilde, math.nan,
                        params.sigma_tilde, trials, n_p, seed, "poltyrev")
    ratio = res_s.p_hat / res_p.p_hat
    ratio_lo = res_s.ci_low / res_p.ci_high
    ratio_hi = res_s.ci_high / res_p.ci_low
    passed = ratio_lo <= hi and ratio_hi >= lo
    paired_lo, paired_hi = paired_ratio_interval(n_s, n_p, n_both)
    return SandwichResult(ratio, lo, hi, passed, ratio_lo, ratio_hi,
                          eps1, eps2, res_s, res_p, n_both, paired_lo,
                          paired_hi)


# ---------------------------------------------------------------------------
# exponent, design window, rate
# ---------------------------------------------------------------------------


class PoltyrevPoint(NamedTuple):
    mu: float
    exponent: float
    bound: float


def poltyrev_exponent(mu: float, n: int = 1) -> PoltyrevPoint:
    """Piecewise error exponent of unconstrained lattice decoding."""
    if not mu >= 1.0:
        raise MuBelowOne(f"exponent defined for mu >= 1, got {mu}")
    try:
        float(n)
    except OverflowError:
        raise ConfigError(
            f"n must be below 2^1024, got a {n.bit_length()}-bit n") from None
    if mu <= 2.0:
        e = 0.5 * ((mu - 1.0) - math.log(mu))
    elif mu <= 4.0:
        e = 0.5 * math.log(math.e * mu / 4.0)
    else:
        e = mu / 8.0
    return PoltyrevPoint(mu, e, math.exp(-n * e))


def vnr(lat: Lattice, sigma_tilde: float) -> float:
    """Volume-to-noise ratio gsnr/e; mu > 1 is the achievability region."""
    return gsnr(lat, sigma_tilde) / math.e


def design_volume(sigma_tilde: float, eps_dprime: float, n: int) -> float:
    """Codebook volume putting the VNR at 1 + eps_dprime."""
    _check_positive("sigma_tilde", sigma_tilde)
    if not (0.0 <= eps_dprime < math.inf and n >= 1):
        raise DimensionMismatch(
            f"need eps_dprime >= 0 and n >= 1, got {eps_dprime}, {n}")
    return (2.0 * math.pi * math.e * sigma_tilde ** 2
            * (1.0 + eps_dprime)) ** (n / 2.0)


def feasible_volume_interval(params: GaussianParams) -> tuple:
    """(lo, hi) for V^{2/n}: above the VNR floor, below the smoothing cap.

    Nonempty exactly when sigma0^2 > e sigma^2.
    """
    s0sq = params.sigma0 ** 2
    ssq = params.sigma ** 2
    lo = 2.0 * math.pi * math.e * params.sigma_tilde ** 2
    hi = 2.0 * math.pi * s0sq * s0sq / (s0sq + ssq)
    return lo, hi


@dataclass(frozen=True)
class RateBudget:
    n: int
    eps: float
    eps_prime: float
    eps_dprime: float
    rate_lower: float


def rate_lower_formula(n: int, snr: float, eps: float,
                       eps_dprime: float) -> float:
    """Achievable-rate lower bound in nats per dimension."""
    _check_positive("snr", snr)
    if not eps < 1.0:
        raise FlatnessTooLarge(f"flatness factor must be below 1, got {eps:.3g}")
    if not 0.0 <= eps_dprime < math.inf:
        raise DimensionMismatch(f"need eps_dprime >= 0, got {eps_dprime}")
    slack = math.pi * eps / (n * (1.0 - eps)) if eps else 0.0
    return (0.5 * math.log1p(snr) - slack - 0.5 * eps_dprime
            - eps_prime_formula(n, eps))


def rate_budget(lat: Lattice, params: GaussianParams,
                eps_dprime: float) -> RateBudget:
    """Rate guarantee of the scheme on this lattice at these parameters."""
    eps = _require_small_eps(lat, params.sigma0)
    return RateBudget(
        n=lat.n, eps=eps, eps_prime=eps_prime_formula(lat.n, eps),
        eps_dprime=eps_dprime,
        rate_lower=rate_lower_formula(lat.n, params.snr, eps, eps_dprime))
