"""Exact sampling from discrete Gaussians over lattice cosets.

The default backend enumerates the truncated support and samples by
inverse CDF.  When the support is too large to tabulate (large sigma0 in
dimension 8 easily exceeds 1e11 points), a structured basis keeps the
distribution exact without materializing it.  The lattice's axis layout
(lattice.Axes) puts coordinate i at step_i * k_i plus a per-coset offset,
with or without an even-sum filter on k.  The axis sampler draws the coset
by its exact mass and each coordinate from its own 1-D discrete Gaussian
table, and under the filter rejects odd parities (acceptance ~1/2; the
accepted law is exactly the conditioned one).  The backend is labelled
"product" for diagonal bases (one coset, no filter) and "parity" for
checkerboard-type bases (Dn, and E8 as D8 plus a half-integer coset).

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
    RandomnessExhausted,
)
from .analytics import (
    _ball_volume,
    _grow_radius,
    _two_pi_var,
    _weight_sum,
    flatness,
)
from . import lattice
from .lattice import Lattice, PackedRows, _vector, enumerate_ball
from .rng import RngSeed, stream

TABLE_CAP = 4_000_000
# table rows embedded per step of a pass over the support
_TABLE_CHUNK = 262144
DEFICIT_TARGET = 1e-12
MAX_REJECTION_ROUNDS = 1000


@dataclass(eq=False)
class DiscreteGaussianSpec:
    """Sampling plan for D over (lattice - shift) at deviation sigma0.

    The table backend stores its support as sorted packed keys
    (lattice.PackedRows): table_rows[sel] unpacks just the rows sel, and
    table_coeffs unpacks the whole table on demand.  When the coefficient
    spans pass 63 bits, table_rows holds the int64 rows themselves.
    """

    lattice: Lattice
    sigma0: float
    shift: np.ndarray
    truncation_radius: float
    deficit: float
    backend: str
    # table backend: support rows sorted lexicographically by coeffs
    table_rows: PackedRows | np.ndarray | None = None
    table_probs: np.ndarray | None = None
    table_cdf: np.ndarray | None = None
    # product / parity backends: per-coset, per-axis tables over the layout
    # lattice.structure; axis_tables[t][i] = (k values, x values, probs, cdf)
    axis_tables: tuple | None = None
    coset_probs: np.ndarray | None = None  # exact relative coset masses

    @property
    def table_coeffs(self) -> np.ndarray | None:
        """The (N, n) int64 support rows in table order; None off the table."""
        return None if self.table_rows is None else self.table_rows[:]

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


def _start_span(step: float, sigma0: float) -> int:
    """Half-width in steps of the first range _axis_table tries."""
    return int(math.ceil(9.5 * sigma0 / step)) + 2


def _axis_table(step: float, offset: float, ci: float, sigma0: float,
                held: int) -> tuple:
    """1-D table over points x = step*k + offset - ci, k integer.

    Extends the range until both edge weights certify a relative tail
    below 1e-16 via a geometric-series bound.  Returns (ks, xs, probs,
    cdf, rel_tail, z), z being the unnormalized sum of the weights
    exp(-x^2 / (2 sigma0^2)).  held counts the points of the spec's other
    tables: with this one's range they must stay within lattice.POINT_CAP.
    """
    two_s2 = 2.0 * sigma0 * sigma0
    center = (ci - offset) / step
    span = _start_span(step, sigma0)
    for _ in range(60):
        if held + 2 * span + 1 > lattice.POINT_CAP:
            raise BudgetExceeded(
                f"axis tables at step {step:.3g}, sigma0 {sigma0:.3g} pass "
                f"the point budget ({lattice.POINT_CAP})")
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


def build_spec(lat: Lattice, sigma0: float, c) -> DiscreteGaussianSpec:
    """Build the sampling plan for D_{L-c, sigma0}.

    Chooses the enumerated inverse-CDF table when the support inside the
    certified truncation radius stays under TABLE_CAP points (read at call
    time), otherwise a structured backend for diagonal or checkerboard
    bases.  A shift whose basis coefficients reach 2^52 is refused.
    """
    var = _two_pi_var("sigma0", sigma0)
    n = lat.n
    c = _vector(c, n, "shift")
    if n > 12:
        raise DimensionTooLarge(f"support sampling limited to n <= 12, got {n}")
    if not np.all(np.abs(lat.inv @ c) < 2.0 ** 52):
        raise DimensionMismatch(
            "shift has a basis coefficient of 2^52 or more, where float64 "
            "cannot tell neighbouring lattice coordinates apart")
    tau = 1.0 / var
    vol = lat.volume
    partial_floor = max(1.0, 0.5 * var ** (n / 2.0) / vol)
    _, _, radius = _grow_radius(lat, tau, math.sqrt(2.0 * math.pi * n) * sigma0,
                                1.15, DEFICIT_TARGET,
                                lambda _: (None, partial_floor), "support radius")
    est = _ball_volume(n, radius) / vol
    if est <= TABLE_CAP:
        return _build_table(lat, sigma0, c, tau, radius)
    if lat.structure is not None:
        return _build_axes(lat, sigma0, c)
    raise BudgetExceeded(
        f"support ~{est:.2e} points exceeds the table budget ({TABLE_CAP}) "
        "and the basis fits no structured sampler")


def _build_table(lat, sigma0, c, tau, radius):
    def weigh(radius):
        rows, w = enumerate_ball(lat, c, radius, _packed=True)
        # exp(-d2 / (2 sigma0^2)) in d2's place: the same three operations,
        # so the same bits, and no second ball-sized array
        np.negative(w, out=w)
        w /= 2.0 * sigma0 * sigma0
        np.exp(w, out=w)
        z = _weight_sum(w, "support")
        return (rows, w, z), z

    (rows, w, z), tail, radius = _grow_radius(
        lat, tau, radius, 1.15, DEFICIT_TARGET, weigh, "support enumeration")
    # the points are distinct, so their packed keys are too and one argsort
    # gives np.lexsort's order; a ball holds at most lattice.POINT_CAP < 2^31
    # points, so int32 indexes it
    if isinstance(rows, PackedRows):
        order = np.argsort(rows.key).astype(np.int32)
        rows = PackedRows(rows.key[order], rows.bits, rows.lows)
    else:
        order = np.lexsort(rows.T[::-1]).astype(np.int32)
        rows = np.ascontiguousarray(rows[order])
    probs = w[order]
    del w, order  # before the division and the cdf
    probs /= z
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return DiscreteGaussianSpec(
        lattice=lat, sigma0=sigma0, shift=c, truncation_radius=radius,
        deficit=tail / z, backend="table",
        table_rows=rows, table_probs=probs, table_cdf=cdf)


def _build_axes(lat, sigma0, c):
    ax = lat.structure
    # every table counts from its starting range, so the budget refuses
    # before the first one is built; a table that grows adds its growth
    starts = [2 * _start_span(step, sigma0) + 1 for step in ax.steps]
    held = len(ax.offsets) * sum(starts)
    all_tables = []
    masses = []
    even_fracs = []
    rel = 0.0
    corner = 0.0
    for off in ax.offsets:
        tables = []
        z_prod = 1.0
        b_prod = 1.0
        reach = 0.0
        for i in range(lat.n):
            ks, xs, probs, cdf, rtail, z_abs = _axis_table(
                ax.steps[i], off, c[i], sigma0, held - starts[i])
            held += ks.size - starts[i]
            tables.append((ks, xs, probs, cdf))
            rel += rtail
            z_prod *= z_abs
            b_prod *= float(np.sum(np.where(ks % 2 == 0, probs, -probs)))
            reach += float(np.max(xs * xs))
        all_tables.append(tuple(tables))
        # the even-sum filter keeps mass (1 + prod of alternating sums) / 2
        even_frac = 0.5 * (1.0 + b_prod) if ax.even_sum else 1.0
        even_fracs.append(even_frac)
        masses.append(z_prod * even_frac)
        corner = max(corner, reach)
    masses = np.asarray(masses)
    return DiscreteGaussianSpec(
        lattice=lat, sigma0=sigma0, shift=c,
        truncation_radius=math.sqrt(corner),
        deficit=rel / min(even_fracs),
        backend="parity" if ax.even_sum else "product",
        axis_tables=tuple(all_tables), coset_probs=masses / masses.sum())


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


def _draw_coset(tables, rng, m: int, even_sum: bool) -> np.ndarray:
    """m rows of per-axis k values from one coset's tables.

    Under the even-sum filter, rows with an odd sum are drawn again.
    """
    if not even_sum:
        return _draw_axes(tables, rng, m)
    ks = np.empty((m, len(tables)), dtype=np.int64)
    pending = np.arange(m)
    for _ in range(MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            break
        cand = _draw_axes(tables, rng, pending.size)
        even = cand.sum(axis=1) % 2 == 0
        ks[pending[even]] = cand[even]
        pending = pending[~even]
    if pending.size:
        raise RandomnessExhausted("parity rejection failed to converge")
    return ks


def sample_coeffs(spec: DiscreteGaussianSpec, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """Basis-coefficient rows of `count` i.i.d. draws from the spec."""
    if spec.backend == "table":
        u = rng.random(count)
        # sorted uniforms walk the CDF in order, each search starting where
        # the last one ended; equal uniforms find equal indices, so the
        # scatter back gives every draw the index an unsorted search would
        order = np.argsort(u)
        idx = np.empty(count, dtype=np.intp)
        idx[order] = np.searchsorted(spec.table_cdf, u[order], side="right")
        np.minimum(idx, spec.table_cdf.size - 1, out=idx)
        return spec.table_rows[idx]
    # axis layout: the coset by its exact mass, then the coordinates; one
    # coset needs no per-coset split of the rows (and no copy through it)
    ax = spec.lattice.structure
    if len(spec.axis_tables) == 1:
        coset = np.zeros(count, dtype=np.int64)
        ks = _draw_coset(spec.axis_tables[0], rng, count, ax.even_sum)
    else:
        coset = (rng.random(count) < spec.coset_probs[1]).astype(np.int64)
        ks = np.empty((count, spec.lattice.n), dtype=np.int64)
        for t, tables in enumerate(spec.axis_tables):
            rows = np.nonzero(coset == t)[0]
            ks[rows] = _draw_coset(tables, rng, rows.size, ax.even_sum)
    if not ax.even_sum:
        return ks  # no filter: a diagonal basis, whose coefficients are k
    coords = ax.steps * ks + np.asarray(ax.offsets)[coset][:, None]
    return np.rint(coords @ spec.lattice.inv.T).astype(np.int64)


def sample(spec: DiscreteGaussianSpec, seed: RngSeed, count: int) -> np.ndarray:
    """(count, n) int64 basis coefficients u of `count` i.i.d. draws B u - c
    from the spec, deterministic per seed: sample_coeffs on stream(seed).

    count is capped at TABLE_CAP (read at call time), the most rows the
    library holds for one spec.
    """
    if count < 1:
        raise DimensionMismatch(f"count must be >= 1, got {count}")
    if count > TABLE_CAP:
        raise BudgetExceeded(
            f"{count} draws pass the sample budget ({TABLE_CAP})")
    return sample_coeffs(spec, stream(seed), count)


def sample_csv(spec: DiscreteGaussianSpec, coeffs: np.ndarray) -> tuple:
    """(header, rows) of the sample CSV: the coefficient rows coeffs0..,
    then embedding0.. columns holding their points B u - c of spec's coset."""
    if not len(coeffs):
        raise DimensionMismatch("no points to write")
    n = coeffs.shape[1]
    header = ",".join([f"coeffs{i}" for i in range(n)]
                      + [f"embedding{i}" for i in range(n)])
    emb = coeffs @ spec.lattice.basis.T - spec.shift
    # one row's Python values at a time: whole-array lists would hold
    # 2n Python objects per draw at once
    rows = [",".join([*map(str, u.tolist()), *map(repr, x.tolist())])
            for u, x in zip(coeffs, emb)]
    return header, rows


# ---------------------------------------------------------------------------
# tail statistics
# ---------------------------------------------------------------------------


def sphere_tail_bound(n: int, eps: float) -> float:
    """(1+eps)/(1-eps) * 2^-n, the escape bound for radius sqrt(2 pi n) sigma0."""
    if not eps < 1.0:
        raise FlatnessTooLarge(f"flatness factor must be below 1, got {eps:.3g}")
    return (1.0 + eps) / (1.0 - eps) * 2.0 ** (-n)


def tail_event_rate(spec: DiscreteGaussianSpec) -> tuple:
    """(analytic bound, exact mass) of |x| > sqrt(2 pi n) sigma0 on L - c.

    The exact mass sums the support table when one exists; centered
    diagonal bases with equal steps instead convolve the per-axis integer
    k^2 distributions, which scales to supports far beyond table size.
    """
    lat = spec.lattice
    n = lat.n
    eps = flatness(lat, spec.sigma0).epsilon
    bound = sphere_tail_bound(n, eps)
    r2 = 2.0 * math.pi * n * spec.sigma0 ** 2
    if spec.backend == "table":
        outside = np.empty(spec.table_probs.size, dtype=bool)
        for lo, emb in _table_chunks(spec):
            norms = np.einsum("ij,ij->i", emb, emb)
            outside[lo:lo + norms.size] = norms > r2
        return bound, float(np.sum(spec.table_probs[outside]))
    steps = lat.structure.steps
    if (not lat.structure.even_sum and np.all(spec.shift == 0.0)
            and np.all(steps == steps[0])):
        # no filter: one coset at 0, and the axes are independent
        step = float(steps[0])
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
# table blocks shared with the scheme module
# ---------------------------------------------------------------------------


def _table_chunks(spec: DiscreteGaussianSpec):
    """Yield (lo, emb) over the support table in blocks of _TABLE_CHUNK rows.

    emb holds the coset points B u - c of table rows lo, lo + 1, ...,
    unpacked one block at a time.
    """
    basis_t = spec.lattice.basis.T
    for lo in range(0, len(spec.table_rows), _TABLE_CHUNK):
        yield lo, spec.table_rows[lo:lo + _TABLE_CHUNK] @ basis_t - spec.shift
