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
    # lattice.structure; axis_tables[t][i] = (k values, probs, cdf)
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
    """Half-width in steps of the range _axis_table builds."""
    return int(math.ceil(9.5 * sigma0 / step)) + 2


def _axis_table(step: float, offset: float, ci: float, sigma0: float) -> tuple:
    """1-D table over points x = step*k + offset - ci, k integer.

    One range, k = floor((ci - offset) / step) +- _start_span: its edge
    weights are at most e^-45.1 of the largest, so a geometric-series
    bound certifies a relative tail below 1e-16, or the table is refused.
    Returns (ks, probs, cdf, rel_tail, z, x2_max): z sums the weights
    exp(-x^2 / (2 sigma0^2)), and x2_max is the largest x^2.
    """
    two_s2 = 2.0 * sigma0 * sigma0
    k0, span = math.floor((ci - offset) / step), _start_span(step, sigma0)
    ks = np.arange(k0 - span, k0 + span + 1)
    xs = step * ks + offset - ci
    logmax = float(np.max(-(xs * xs) / two_s2))
    w = np.exp(-(xs * xs) / two_s2 - logmax)
    z = float(w.sum())
    # geometric bound on the mass past each edge: successive weight ratios
    # only shrink as |x| grows, so the first outside ratio caps the series
    tails = 0.0
    for x_next in (xs[0] - step, xs[-1] + step):
        lw = -(x_next * x_next) / two_s2 - logmax
        w_next = math.exp(lw) if lw > -745.0 else 0.0
        q = math.exp(-(abs(x_next) * step) / (sigma0 * sigma0))
        tails += w_next / max(1.0 - q, 1e-12)
    rel_tail = tails / z
    if not rel_tail < 1e-16:
        raise BudgetExceeded("axis table did not certify its tail")
    probs = w / z
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return ks, probs, cdf, rel_tail, z * math.exp(logmax), float(np.max(xs * xs))


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
    try:
        partial_floor = max(1.0, 0.5 * var ** (n / 2.0) / vol)
    except OverflowError:  # float ** raises where the power overflows
        partial_floor = math.inf
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
    rows, probs = _sort_table(rows, w)
    del w  # before the division and the cdf
    probs /= z
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return DiscreteGaussianSpec(
        lattice=lat, sigma0=sigma0, shift=c, truncation_radius=radius,
        deficit=tail / z, backend="table",
        table_rows=rows, table_probs=probs, table_cdf=cdf)


def _sort_table(rows, w):
    """(rows, w) of enumerate_ball's one center in lexicographic row order.

    The points are distinct, so their packed keys are too, and key order
    is np.lexsort's.  The keys are sorted in place, each carrying its row
    index: comp = (key >> bits[-1]) << ib | row, ib the bit length of
    N - 1, drops the last column's field and keeps a copy of it.  This is
    the order of np.argsort(key): _ball_search emits the points sorted by
    (u_{n-1}, ..., u_0), so among rows equal in u_0 .. u_{n-2}, whose
    composites tie in their high parts, row order is u_{n-1} order.  Then
    each block of sorted composites gathers its weights and rebuilds its
    keys from the high part and the saved field.  Where comp would pass 63
    bits the keys are argsorted instead, and unpacked rows (spans past 63
    bits) are lexsorted; a ball holds at most lattice.POINT_CAP < 2^31
    points, so int32 indexes it.  rows' keys are sorted in place.
    """
    if not isinstance(rows, PackedRows):
        order = np.lexsort(rows.T[::-1]).astype(np.int32)
        return np.ascontiguousarray(rows[order]), w[order]
    key, last = rows.key, rows.bits[-1]
    ib = (key.size - 1).bit_length()
    if sum(rows.bits) - last + ib > 63:
        order = np.argsort(key).astype(np.int32)
        return PackedRows(key[order], rows.bits, rows.lows), w[order]
    chunk, field = lattice._LEVEL_CHUNK, (1 << last) - 1
    low = np.empty(key.size, dtype=lattice._int_type(field))
    for s in range(0, key.size, chunk):
        part = key[s:s + chunk]
        low[s:s + chunk] = part & field
        part >>= last
        part <<= ib
        part |= np.arange(s, s + part.size)
    key.sort()
    probs = np.empty(key.size)
    for s in range(0, key.size, chunk):
        part = key[s:s + chunk]
        row = part & ((1 << ib) - 1)
        probs[s:s + chunk] = w[row]
        part >>= ib
        part <<= last
        part |= low[row]
    return rows, probs


def _build_axes(lat, sigma0, c):
    """The product or parity spec: per coset, one _axis_table per axis,
    each stored as (ks, probs, cdf).  No table grows past its one range, so
    lattice.POINT_CAP (read at call time) refuses them all up front."""
    ax = lat.structure
    held = len(ax.offsets) * sum(2 * _start_span(step, sigma0) + 1
                                 for step in ax.steps)
    if held > lattice.POINT_CAP:
        raise BudgetExceeded(
            f"axis tables at step {ax.steps[0]:.3g}, sigma0 {sigma0:.3g} pass "
            f"the point budget ({lattice.POINT_CAP})")
    all_tables = []
    masses = []
    even_fracs = []
    rel = 0.0
    corner = 0.0
    for off in ax.offsets:
        ks, probs, cdfs, tails, zs, x2_max = zip(*(
            _axis_table(step, off, ci, sigma0) for step, ci in zip(ax.steps, c)))
        all_tables.append(tuple(zip(ks, probs, cdfs)))
        rel = sum(tails, rel)
        # the even-sum filter keeps mass (1 + prod of alternating sums) / 2
        b_prod = math.prod(float(np.sum(np.where(k % 2 == 0, p, -p)))
                           for k, p in zip(ks, probs))
        even_frac = 0.5 * (1.0 + b_prod) if ax.even_sum else 1.0
        even_fracs.append(even_frac)
        masses.append(math.prod(zs) * even_frac)
        corner = max(corner, sum(x2_max))
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
    for i, (kvals, _, cdf) in enumerate(tables):
        idx = np.searchsorted(cdf, u[:, i], side="right")
        ks[:, i] = kvals[np.minimum(idx, kvals.size - 1)]
    return ks


def _draw_coset(tables, rng, m: int, even_sum: bool) -> np.ndarray:
    """m rows of per-axis k values from one coset's tables.

    Under the even-sum filter, the first round's odd-sum rows are drawn again.
    """
    ks = _draw_axes(tables, rng, m)
    if not even_sum:
        return ks
    pending = np.nonzero(ks.sum(axis=1) % 2)[0]
    for _ in range(MAX_REJECTION_ROUNDS - 1):
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
        coset = 0
        ks = _draw_coset(spec.axis_tables[0], rng, count, ax.even_sum)
    else:
        coset = (rng.random(count) < spec.coset_probs[1]).astype(np.int64)
        ks = np.empty((count, spec.lattice.n), dtype=np.int64)
        for t, tables in enumerate(spec.axis_tables):
            rows = np.nonzero(coset == t)[0]
            ks[rows] = _draw_coset(tables, rng, rows.size, ax.even_sum)
    if not ax.even_sum:
        return ks  # no filter: a diagonal basis, whose coefficients are k
    # steps * k + offset, then the coefficients, each input dropped once read
    coords = ax.steps * ks
    del ks
    coords += np.asarray(ax.offsets)[coset, None]
    u = coords @ spec.lattice.inv.T
    del coords
    return np.rint(u, out=u).astype(np.int64)


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
        for ks, probs, _ in spec.axis_tables[0]:
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
