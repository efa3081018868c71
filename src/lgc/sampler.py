"""Exact sampling from discrete Gaussians over lattice cosets.

The default backend enumerates the truncated support and samples by
inverse CDF.  When the support is too large to tabulate (large sigma0 in
dimension 8 easily exceeds 1e11 points) two structured backends keep the
distribution exact without materializing it:

  product  diagonal bases; each coordinate is an independent 1-D discrete
           Gaussian with its own table.
  parity   checkerboard-type bases (Dn, and E8 as D8 plus a half-integer
           coset): draw the coset by its exact mass, then draw coordinates
           from the per-axis product and reject odd parities.  Acceptance
           is ~1/2 and the accepted law is exactly the conditioned one.

All truncations carry certified relative tail bounds; each
DiscreteGaussianSpec records the total as its deficit (< 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    FlatnessTooLarge,
    NonpositiveSigma,
    RandomnessExhausted,
)
from .analytics import _ball_volume, _tail_bound, flatness
from .lattice import (
    DEFAULT_POINT_CAP,
    Checkerboard,
    Diag,
    Lattice,
    LatticePoint,
    enumerate_ball,
)
from .rng import RngSeed, stream

TABLE_CAP = 4_000_000
DEFICIT_TARGET = 1e-12
MAX_REJECTION_ROUNDS = 1000


@dataclass(eq=False)
class DiscreteGaussianSpec:
    """Sampling plan for D over (lattice - shift) at deviation sigma0."""

    lattice: Lattice
    sigma0: float
    shift: np.ndarray
    truncation_radius: float
    deficit: float
    backend: str
    # table backend: support rows sorted lexicographically by coeffs
    table_coeffs: np.ndarray | None = None
    table_probs: np.ndarray | None = None
    table_cdf: np.ndarray | None = None
    # product / parity backends: per-coset, per-axis 1-D tables
    # axis_tables[t][i] = (k values, x values, normalized probs, cdf)
    axis_tables: tuple | None = None
    coset_offsets: tuple | None = None    # coordinate offset per coset (0 or a/2)
    coset_probs: np.ndarray | None = None  # exact relative coset masses
    axis_scale: float = 0.0                # coordinate step a

    def support(self) -> list:
        """Ordered (LatticePoint, probability) pairs; table backend only."""
        if self.backend != "table":
            raise BudgetExceeded(
                f"{self.backend} backend keeps the support implicit")
        out = []
        emb = self.table_coeffs @ self.lattice.basis.T - self.shift
        for i in range(self.table_coeffs.shape[0]):
            pt = LatticePoint(self.table_coeffs[i].copy(), emb[i].copy())
            out.append((pt, float(self.table_probs[i])))
        return out

    def as_dict(self) -> dict:
        return {
            "lattice": self.lattice.label,
            "sigma0": self.sigma0,
            "shift": [float(v) for v in self.shift],
            "truncation_radius": self.truncation_radius,
            "deficit": self.deficit,
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _axis_table(step: float, offset: float, ci: float, sigma0: float) -> tuple:
    """1-D table over points x = step*k + offset - ci, k integer.

    Extends the range until both edge weights certify a relative tail
    below 1e-16 via a geometric-series bound.  Returns (ks, xs, probs,
    cdf, rel_tail).
    """
    two_s2 = 2.0 * sigma0 * sigma0
    center = (ci - offset) / step
    span = int(math.ceil(9.5 * sigma0 / step)) + 2
    for _ in range(60):
        ks = np.arange(math.floor(center) - span, math.floor(center) + span + 1)
        xs = step * ks + offset - ci
        logmax = float(np.max(-(xs * xs) / two_s2))
        w = np.exp(-(xs * xs) / two_s2 - logmax)
        z = float(w.sum())
        # geometric bound on the mass past each edge: successive weight
        # ratios only shrink as |x| grows, so the first outside ratio caps
        # the whole series
        tails = 0.0
        for x_next in (xs[0] - step, xs[-1] + step):
            lw = -(x_next * x_next) / two_s2 - logmax
            w_next = math.exp(lw) if lw > -745.0 else 0.0
            q = math.exp(-(abs(x_next) * step) / (sigma0 * sigma0))
            tails += w_next / max(1.0 - q, 1e-12)
        rel_tail = tails / z
        if rel_tail < 1e-16:
            probs = w / z
            cdf = np.cumsum(probs)
            cdf[-1] = 1.0
            return ks, xs, probs, cdf, rel_tail, z * math.exp(logmax)
        span = int(span * 1.5) + 2
    raise BudgetExceeded("axis table did not certify its tail")


def build_spec(lat: Lattice, sigma0: float, c,
               table_cap: int = TABLE_CAP,
               point_cap: int = DEFAULT_POINT_CAP) -> DiscreteGaussianSpec:
    """Build the sampling plan for D_{L-c, sigma0}.

    Chooses the enumerated inverse-CDF table when the support inside the
    certified truncation radius stays under table_cap points, otherwise a
    structured backend for diagonal or checkerboard bases.
    """
    if sigma0 <= 0:
        raise NonpositiveSigma(f"sigma0 must be positive, got {sigma0}")
    c = np.asarray(c, dtype=float)
    n = lat.n
    if c.shape != (n,):
        raise DimensionMismatch(f"shift has shape {c.shape}, lattice dim {n}")
    if n > 12:
        raise DimensionTooLarge(f"support sampling limited to n <= 12, got {n}")
    tau = 1.0 / (2.0 * math.pi * sigma0 * sigma0)
    lam1 = lat.lambda1_lb()
    vol = lat.volume
    radius = math.sqrt(2.0 * math.pi * n) * sigma0
    partial_floor = max(1.0, 0.5 * (2.0 * math.pi * sigma0 * sigma0) ** (n / 2.0) / vol)
    while _tail_bound(n, lam1, tau, radius) >= DEFICIT_TARGET * partial_floor:
        radius *= 1.15
    est = _ball_volume(n, radius) / vol
    if est <= table_cap:
        return _build_table(lat, sigma0, c, radius, point_cap)
    if isinstance(lat.structure, Diag):
        return _build_product(lat, sigma0, c)
    if isinstance(lat.structure, Checkerboard):
        return _build_parity(lat, sigma0, c)
    raise BudgetExceeded(
        f"support ~{est:.2e} points exceeds the table budget ({table_cap}) "
        "and the basis fits no structured sampler")


def _build_table(lat, sigma0, c, radius, point_cap):
    n = lat.n
    tau = 1.0 / (2.0 * math.pi * sigma0 * sigma0)
    lam1 = lat.lambda1_lb()
    for _ in range(60):
        coeffs, d2 = enumerate_ball(lat, c, radius, point_cap)
        w = np.exp(-d2 / (2.0 * sigma0 * sigma0))
        z = float(w.sum())
        tail = _tail_bound(n, lam1, tau, radius)
        if tail < DEFICIT_TARGET * z:
            break
        radius *= 1.15
    else:
        raise BudgetExceeded("support enumeration did not certify its tail")
    order = np.lexsort(coeffs.T[::-1])
    coeffs = np.ascontiguousarray(coeffs[order])
    probs = w[order] / z
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return DiscreteGaussianSpec(
        lattice=lat, sigma0=sigma0, shift=c, truncation_radius=radius,
        deficit=tail / z, backend="table",
        table_coeffs=coeffs, table_probs=probs, table_cdf=cdf)


def _build_product(lat, sigma0, c):
    diag = lat.structure.steps
    n = lat.n
    tables = []
    rel = 0.0
    corner = 0.0
    for i in range(n):
        ks, xs, probs, cdf, rtail, _ = _axis_table(diag[i], 0.0, c[i], sigma0)
        tables.append((ks, xs, probs, cdf))
        rel += rtail
        corner += float(np.max(xs * xs))
    return DiscreteGaussianSpec(
        lattice=lat, sigma0=sigma0, shift=c,
        truncation_radius=math.sqrt(corner), deficit=rel,
        backend="product", axis_tables=(tuple(tables),),
        coset_offsets=(0.0,), coset_probs=np.array([1.0]),
        axis_scale=0.0)


def _alt_sum(ks, probs) -> float:
    """Sum of probs signed by coordinate parity."""
    return float(np.sum(np.where(ks % 2 == 0, probs, -probs)))


def _build_parity(lat, sigma0, c):
    scale, with_half = lat.structure.step, lat.structure.half
    n = lat.n
    coset_offsets = (0.0, 0.5 * scale) if with_half else (0.0,)
    all_tables = []
    masses = []
    even_fracs = []
    rel = 0.0
    corner = 0.0
    for off in coset_offsets:
        tables = []
        z_prod = 1.0
        b_prod = 1.0
        reach = 0.0
        for i in range(n):
            ks, xs, probs, cdf, rtail, z_abs = _axis_table(scale, off, c[i],
                                                           sigma0)
            tables.append((ks, xs, probs, cdf))
            rel += rtail
            z_prod *= z_abs
            b_prod *= _alt_sum(ks, probs)
            reach += float(np.max(xs * xs))
        all_tables.append(tuple(tables))
        even_frac = 0.5 * (1.0 + b_prod)
        even_fracs.append(even_frac)
        masses.append(z_prod * even_frac)
        corner = max(corner, reach)
    masses = np.asarray(masses)
    coset_probs = masses / masses.sum()
    deficit = rel / min(even_fracs)
    return DiscreteGaussianSpec(
        lattice=lat, sigma0=sigma0, shift=c,
        truncation_radius=math.sqrt(corner),
        deficit=deficit,
        backend="parity", axis_tables=tuple(all_tables),
        coset_offsets=coset_offsets, coset_probs=coset_probs,
        axis_scale=scale)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _draw_axes(tables, rng, m: int) -> np.ndarray:
    n = len(tables)
    u = rng.random((m, n))
    ks = np.empty((m, n), dtype=np.int64)
    for i, (kvals, _, _, cdf) in enumerate(tables):
        idx = np.searchsorted(cdf, u[:, i], side="right")
        ks[:, i] = kvals[np.minimum(idx, kvals.size - 1)]
    return ks


def sample_coeffs(spec: DiscreteGaussianSpec, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Basis-coefficient rows of `count` i.i.d. draws from the spec."""
    if spec.backend == "table":
        u = rng.random(count)
        idx = np.searchsorted(spec.table_cdf, u, side="right")
        idx = np.minimum(idx, spec.table_cdf.size - 1)
        return spec.table_coeffs[idx].copy()
    if spec.backend == "product":
        ks = _draw_axes(spec.axis_tables[0], rng, count)
        return ks  # diagonal basis: coefficients are the coordinates
    # parity backend: coset choice, then product draws filtered to even sums
    n = spec.lattice.n
    if len(spec.coset_offsets) > 1:
        coset = (rng.random(count) < spec.coset_probs[1]).astype(np.int64)
    else:
        coset = np.zeros(count, dtype=np.int64)
    ks = np.empty((count, n), dtype=np.int64)
    for t in range(len(spec.coset_offsets)):
        pending = np.nonzero(coset == t)[0]
        for _ in range(MAX_REJECTION_ROUNDS):
            if pending.size == 0:
                break
            cand = _draw_axes(spec.axis_tables[t], rng, pending.size)
            even = cand.sum(axis=1) % 2 == 0
            ks[pending[even]] = cand[even]
            pending = pending[~even]
        if pending.size:
            raise RandomnessExhausted("parity rejection failed to converge")
    coords = spec.axis_scale * ks + np.asarray(spec.coset_offsets)[coset][:, None]
    coeffs = np.rint(coords @ spec.lattice.inv().T).astype(np.int64)
    return coeffs


def sample(spec: DiscreteGaussianSpec, seed: RngSeed, count: int) -> list:
    """`count` i.i.d. LatticePoints of L - c, deterministic per seed."""
    if count < 1:
        raise DimensionMismatch(f"count must be >= 1, got {count}")
    rng = stream(seed)
    coeffs = sample_coeffs(spec, rng, count)
    emb = coeffs @ spec.lattice.basis.T - spec.shift
    return [LatticePoint(coeffs[i].copy(), emb[i].copy()) for i in range(count)]


def dump_samples_csv(points: list, path: str) -> None:
    """Write sampled points as CSV: coeffs0.., then embedding0.. columns."""
    if not points:
        raise DimensionMismatch("no points to write")
    n = points[0].coeffs.size
    header = ",".join([f"coeffs{i}" for i in range(n)]
                      + [f"embedding{i}" for i in range(n)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for pt in points:
            row = [str(int(v)) for v in pt.coeffs] + [repr(float(v))
                                                      for v in pt.embedding]
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# tail statistics
# ---------------------------------------------------------------------------


def sphere_tail_bound(n: int, eps: float) -> float:
    """(1+eps)/(1-eps) * 2^-n, the escape bound for radius sqrt(2 pi n) sigma0."""
    if eps >= 1.0:
        raise FlatnessTooLarge(f"flatness factor {eps:.3g} >= 1")
    return (1.0 + eps) / (1.0 - eps) * 2.0 ** (-n)


def tail_event_rate(spec: DiscreteGaussianSpec,
                    point_cap: int = DEFAULT_POINT_CAP) -> tuple:
    """(analytic bound, exact mass) of |x| > sqrt(2 pi n) sigma0 on L - c.

    The exact mass sums the support table when one exists; centered
    diagonal bases with equal steps instead convolve the per-axis integer
    k^2 distributions, which scales to supports far beyond table size.
    """
    lat = spec.lattice
    n = lat.n
    eps = flatness(lat, spec.sigma0, point_cap).epsilon
    bound = sphere_tail_bound(n, eps)
    r2 = 2.0 * math.pi * n * spec.sigma0 ** 2
    if spec.backend == "table":
        emb = spec.table_coeffs @ lat.basis.T - spec.shift
        norms = np.einsum("ij,ij->i", emb, emb)
        mass = float(np.sum(spec.table_probs[norms > r2]))
        return bound, mass
    if spec.backend == "product":
        diag = lat.structure.steps
        if np.all(spec.shift == 0.0) and np.all(diag == diag[0]):
            step = float(diag[0])
            dist = None
            for ks, _, probs, _ in spec.axis_tables[0]:
                k2 = ks * ks
                axis = np.zeros(int(k2.max()) + 1)
                np.add.at(axis, k2, probs)
                dist = axis if dist is None else np.convolve(dist, axis)
            s = np.arange(dist.size) * step * step
            mass = float(np.sum(dist[s > r2]))
            return bound, mass
    raise BudgetExceeded(
        "exact tail mass needs a support table or centered equal-step axes")


# ---------------------------------------------------------------------------
# support statistics shared with the scheme module
# ---------------------------------------------------------------------------


def support_moment(spec: DiscreteGaussianSpec) -> float:
    """Exact E|x|^2 of the coset point over the truncated support."""
    lat = spec.lattice
    if spec.backend == "table":
        acc = 0.0
        for lo in range(0, spec.table_coeffs.shape[0], 262144):
            emb = spec.table_coeffs[lo:lo + 262144] @ lat.basis.T - spec.shift
            acc += float(np.einsum("ij,ij->i", emb, emb)
                         @ spec.table_probs[lo:lo + 262144])
        return acc
    if spec.backend == "product":
        acc = 0.0
        for _, xs, probs, _ in spec.axis_tables[0]:
            acc += float(np.sum(probs * xs * xs))
        return acc
    # parity: even-projection of the per-axis product moments, conditioned
    # per coset and mixed by the exact coset masses
    out = 0.0
    for t in range(len(spec.coset_offsets)):
        tables = spec.axis_tables[t]
        b = [_alt_sum(k, p) for k, _, p, _ in tables]
        ma = [float(np.sum(p * x * x)) for _, x, p, _ in tables]
        mb = [float(np.sum(np.where(k % 2 == 0, p, -p) * x * x))
              for k, x, p, _ in tables]
        prod_b = math.prod(b)
        mass = 0.5 * (1.0 + prod_b)
        mom = 0.0
        for i in range(len(tables)):
            cross = mb[i] * (prod_b / b[i]) if b[i] else 0.0
            mom += 0.5 * (ma[i] + cross)
        out += float(spec.coset_probs[t]) * mom / mass
    return out


def support_peak(spec: DiscreteGaussianSpec) -> float:
    """Exact max |x|^2 over the truncated support."""
    lat = spec.lattice
    if spec.backend == "table":
        peak = 0.0
        for lo in range(0, spec.table_coeffs.shape[0], 262144):
            emb = spec.table_coeffs[lo:lo + 262144] @ lat.basis.T - spec.shift
            peak = max(peak, float(np.max(np.einsum("ij,ij->i", emb, emb))))
        return peak
    if spec.backend == "product":
        return sum(float(np.max(x * x)) for _, x, _, _ in spec.axis_tables[0])
    best = 0.0
    for t in range(len(spec.coset_offsets)):
        tables = spec.axis_tables[t]
        # DP over axes: best achievable sum of x^2 per running parity
        dp = {0: 0.0}
        for ks, xs, _, _ in tables:
            x2 = xs * xs
            even_best = float(np.max(np.where(ks % 2 == 0, x2, -np.inf)))
            odd_best = float(np.max(np.where(ks % 2 == 1, x2, -np.inf)))
            nxt = {}
            for par, val in dp.items():
                for add_par, add in ((0, even_best), (1, odd_best)):
                    if not math.isfinite(add):
                        continue
                    key = par ^ add_par
                    cand = val + add
                    if cand > nxt.get(key, -math.inf):
                        nxt[key] = cand
            dp = nxt
        if 0 in dp:
            best = max(best, dp[0])
    return best
