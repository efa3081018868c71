"""Lattice construction, exact nearest-point search, and ball enumeration.

A lattice is represented by a square basis matrix B whose COLUMNS are the
generator vectors, and a lattice point by its int64 basis coefficients u:
every decoder returns u, and the point is B u (a point of the coset L - c
is B u - c).  All search routines are exact: the nearest-point solver
is a depth-first sphere search with a node budget.  Zn, Dn, E8 and
diagonal bases carry their axis layout as a structure tag (Axes: points
steps * k plus one offset per coset, with an even-sum filter on k for Dn
and E8), whose decode_batch runs the closest-point algorithms of Conway &
Sloane ("Fast quantizing and decoding algorithms for lattice quantizers
and codes", IEEE Trans. IT 1982) over a whole batch.  The batch decoder
accepts a structured answer only when every decision margin clears a guard
at least 1000 times wider than the search's tie band; every other row is
near a tie and goes to the exact fallback.  Every row of an untagged basis
is decoded on the lattice's cached LLL reduction (Lenstra, Lenstra &
Lovasz 1982): Babai's nearest-plane rounding, whose half-minimum-distance
certificate either proves the answer or sends the row to the exact
fallback, both on the reduced basis, where the certificate is stronger and
the balls are smaller; the unimodular transform maps the coefficients back
to the caller's basis.  The exact fallback of the batch decoder is one
multi-center ball search (Fincke & Pohst 1985; Agrell, Eriksson, Vardy &
Zeger, IEEE Trans. IT 2002) over all of its rows at once, each ball passing
through a known lattice point; the per-row depth-first search behind
closest_point is the slow reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    NotSquare,
    SingularBasis,
    UnknownName,
)

# search budgets, read at call time: a search past either raises BudgetExceeded
NODE_CAP = 10**8
POINT_CAP = 20_000_000
# Lovasz condition parameter of the decoder's basis reduction
_LLL_DELTA = 0.99
# rows per structured decode call and per exact-fallback ball search:
# keeps their temporaries in cache
_DECODE_CHUNK = 4096
# rows per step of the packed-key unpacking: keeps its temporaries in cache
_KEY_CHUNK = 16384
# prefixes per step of a ball-search level's range pass, and about the
# candidates per block of its expansion: no temporary spans a whole level
_LEVEL_CHUNK = 65536

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


# Squared distances within TIE_REL * (1 + best) of the best are ties,
# broken toward the lexicographically smallest coefficients.
TIE_REL = 1e-12

# A structured decision whose squared-distance margin is inside
# _GUARD_REL * (1 + best) * (1 + |y|) is left to the exact search, best
# being the squared distance.  The factor is 1000 times TIE_REL.  In
# either path each residual coordinate is off by some ulps of |y|, so a
# squared distance d2 by some ulps of 2 |y| sqrt(d2) <= |y| (1 + d2): the
# band covers the rounding of both paths for points far from the origin,
# and an accepted row has one nearest point and no lexicographic tie-break.
_GUARD_REL = 1e-9


def _guard(best: np.ndarray, yt: np.ndarray) -> np.ndarray:
    return _GUARD_REL * (1.0 + best) * (1.0 + np.linalg.norm(yt, axis=0))


# The structured decoders work on the transposed batch, one point per
# column, so that reductions over the n coordinates are elementwise
# operations on whole rows.


def _decode_dn(z: np.ndarray) -> tuple:
    """Nearest D_n points to the columns of z (Conway & Sloane's g(x)).

    Round every coordinate; where the coordinate sum is odd, re-round the
    coordinate farthest from its integer the other way.  Returns (points,
    squared distances, margins), the margin being the gap in squared
    distance to the second-nearest D_n point.  Where two coordinates tie
    for farthest, both move and the margin is 0, so the row is refused.
    """
    f = np.rint(z)
    r = z - f
    a = np.abs(r)
    a1 = a[0].copy()
    a2 = np.zeros_like(a1)
    for ak in a[1:]:
        a2 = np.maximum(a2, np.minimum(a1, ak))
        a1 = np.maximum(a1, ak)
    half = 0.5 * f.sum(axis=0)
    odd = np.rint(half) != half
    f += np.copysign((a == a1) & odd, r)  # +-1 on the flipped coordinate
    d2 = np.einsum("ij,ij->j", r, r) + odd * (1.0 - 2.0 * a1)
    margin = np.where(odd, 2.0 * (a1 - a2), 2.0 - 2.0 * (a1 + a2))
    return f, d2, margin


@dataclass(frozen=True, eq=False)
class Axes:
    """Axis layout of a structured lattice: points steps * k + offset.

    One offset per coset, k integer; with even_sum, sum(k) is even.  Without
    the filter the lattice is diag(steps), one coset at 0 (Zn and diagonal
    bases); with it the steps are equal and the lattice is step * D_n, or
    with the offsets (0, step / 2) step * E8 at n = 8.
    """

    steps: np.ndarray
    offsets: tuple = (0.0,)
    even_sum: bool = False

    def decode_batch(self, ys: np.ndarray) -> tuple:
        """(nearest points, ok) for the rows of ys.

        Per coset, in step units: round every k, or under the filter
        decode D_n (_decode_dn); the nearer coset wins, its margin capped
        by the gap between the cosets' squared distances.
        """
        yt = np.ascontiguousarray(ys.T)
        # the filter's steps are equal, and a scalar step is faster
        steps = float(self.steps[0]) if self.even_sum else self.steps[:, None]
        s2 = steps * steps
        z = yt / steps
        pts = None
        for off in self.offsets:
            shift = off / steps  # the offset in step units
            zc = z - shift if off else z
            if self.even_sum:
                k, d2c, margin_c = _decode_dn(zc)
                d2c *= s2
                margin_c *= s2
            else:
                k = np.rint(zc)
                r = zc - k
                d2c = np.einsum("ij,ij->j", s2 * r, r)
                margin_c = np.min(s2 * (1.0 - 2.0 * np.abs(r)), axis=0)
            if off:
                k += shift
            if pts is None:
                pts, d2, margin = k, d2c, margin_c
                continue
            take = d2c < d2
            pts = np.where(take, k, pts)
            margin = np.minimum(np.where(take, margin_c, margin),
                                np.abs(d2c - d2))
            d2 = np.minimum(d2, d2c)
        return (pts * steps).T, margin > _guard(d2, yt)


@dataclass(eq=False)
class Lattice:
    """A lattice on the columns of basis.  Its derived geometry (qr, inv,
    sigma_min, dual, reduced) is built on first access and then kept."""

    basis: np.ndarray
    label: str = ""
    structure: Axes | None = None
    lambda1: float | None = None
    # analytics.flatness reports, keyed by float(sigma)
    _flatness: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def volume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    @cached_property
    def qr(self) -> tuple:
        """(Q, R) with R upper triangular and positive diagonal."""
        q, r = np.linalg.qr(self.basis)
        sgn = np.sign(np.diag(r))
        sgn[sgn == 0] = 1.0
        q = q * sgn
        r = sgn[:, None] * r
        return np.ascontiguousarray(q), np.ascontiguousarray(r)

    @cached_property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.basis)

    @cached_property
    def sigma_min(self) -> float:
        """Smallest singular value of the basis: |B u| >= it * |u|."""
        return float(np.linalg.svd(self.basis, compute_uv=False)[-1])

    @cached_property
    def dual(self) -> "Lattice":
        """Dual lattice, basis inv(B).T; volume is 1/volume.

        Built directly, with no axis layout: the dual basis of a skewed
        one (I + 3S, S the shift matrix) is nonsingular, but its long
        columns fail make_lattice's Hadamard-ratio test.
        """
        return Lattice(self.inv.T, label=self.label + "*")

    @cached_property
    def reduced(self) -> tuple:
        """(reduced lattice, T): the same lattice on the LLL basis B @ T.

        T is an int64 unimodular matrix, so u = T @ u_red maps reduced
        coefficients to this basis.  The reduced lattice's lambda1 is the
        largest of the certified bounds sigma_min(B), sigma_min(B T),
        min_k |r_kk| of B T, and this lattice's own lambda1 when set; this
        lattice's lambda1 is left as it is.
        """
        t = _lll(self.basis)
        red = Lattice(self.basis @ t, label=self.label + "~")
        _, r = red.qr
        bounds = [self.sigma_min, red.sigma_min, float(np.min(np.diag(r)))]
        if self.lambda1 is not None:
            bounds.append(self.lambda1)
        red.lambda1 = max(bounds)
        return red, t

    def scale(self, a: float) -> "Lattice":
        if not 0.0 < a < math.inf:
            raise SingularBasis(f"scale factor must be finite and positive, got {a}")
        ax = self.structure
        structure = None if ax is None else Axes(
            ax.steps * a, tuple(off * a for off in ax.offsets), ax.even_sum)
        lam = None if self.lambda1 is None else self.lambda1 * a
        return Lattice(self.basis * a, label=f"{self.label}*{a:g}",
                       structure=structure, lambda1=lam)

    def lambda1_lb(self) -> float:
        """Certified lower bound on the shortest nonzero vector norm."""
        return self.sigma_min if self.lambda1 is None else self.lambda1

    @cached_property
    def _dfs_tabs(self) -> tuple:
        # plain-python views of R for the depth-first search
        _, r = self.qr
        n = self.n
        diag = tuple(float(r[k, k]) for k in range(n))
        cols = tuple(tuple(float(r[i, k]) for i in range(k)) for k in range(n))
        return diag, cols


def _lll(basis: np.ndarray) -> np.ndarray:
    """Unimodular int64 T such that the columns of basis @ T are LLL-reduced.

    Textbook size reduction and Lovasz swaps over the triangular factor of
    basis @ T, which is QR-factored afresh from the exact integer T after
    every step that changes T, so no rounding accumulates in the basis.  A
    step that leaves T as it was keeps the factor, which a new QR of the
    same matrix would repeat: a reduced basis costs one QR, not n - 1.
    """
    n = basis.shape[1]
    t = np.eye(n, dtype=np.int64)
    k, r = 1, None
    while k < n:
        if r is None:
            r = np.linalg.qr(basis @ t, mode="r")
        keep = True
        for j in range(k - 1, -1, -1):
            q = round(r[j, k] / r[j, j])
            if q:
                t[:, k] -= q * t[:, j]
                r[:j + 1, k] -= q * r[:j + 1, j]
                keep = False
        mu = r[k - 1, k] / r[k - 1, k - 1]
        if r[k, k] ** 2 >= (_LLL_DELTA - mu * mu) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            t[:, [k - 1, k]] = t[:, [k, k - 1]]
            k = max(k - 1, 1)
            keep = False
        if not keep:
            r = None
    return t


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_lattice(basis, label: str = "") -> Lattice:
    """Build a lattice from a square, nonsingular generator matrix (columns)."""
    b = np.array(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise NotSquare(f"basis must be square, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise SingularBasis("basis entries must be finite")
    scale = float(np.prod(np.linalg.norm(b, axis=0)))
    det = abs(float(np.linalg.det(b)))
    if det <= 1e-12 * max(scale, 1e-300):
        raise SingularBasis(f"basis is singular (|det| = {det:g})")
    structure = None
    offdiag = b - np.diag(np.diag(b))
    if np.all(offdiag == 0.0) and np.all(np.diag(b) > 0):
        structure = Axes(np.diag(b).copy())
    return Lattice(b, label=label or "custom", structure=structure)


def standard_lattice(name: str, n: int | None = None) -> Lattice:
    """Named constructions: Zn, Dn, E8, A2."""
    if n is not None and n * n > POINT_CAP:  # before any n-by-n array
        raise ConfigError(f"{name} dimension must satisfy n*n <= {POINT_CAP}, "
                          f"got n = {n}")
    if name == "Zn":
        if n is None or n < 1:
            raise ConfigError("Zn needs a dimension n >= 1")
        lat = Lattice(np.eye(n), label=f"Z{n}",
                      structure=Axes(np.ones(n)), lambda1=1.0)
        return lat
    if name == "Dn":
        if n is None or n < 2:
            raise ConfigError("Dn needs a dimension n >= 2")
        rows = np.zeros((n, n))
        rows[0, 0] = -1.0
        rows[0, 1] = -1.0
        for i in range(1, n):
            rows[i, i - 1] = 1.0
            rows[i, i] = -1.0
        return Lattice(rows.T.copy(), label=f"D{n}", lambda1=math.sqrt(2.0),
                       structure=Axes(np.ones(n), even_sum=True))
    if name == "E8":
        rows = np.zeros((8, 8))
        rows[0, 0] = 2.0
        for i in range(1, 7):
            rows[i, i - 1] = -1.0
            rows[i, i] = 1.0
        rows[7, :] = 0.5
        return Lattice(rows.T.copy(), label="E8", lambda1=math.sqrt(2.0),
                       structure=Axes(np.ones(8), (0.0, 0.5), True))
    if name == "A2":
        b = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
        return Lattice(b, label="A2", lambda1=1.0)
    raise UnknownName(f"no lattice named {name!r}")


# ---------------------------------------------------------------------------
# exact nearest-point search
# ---------------------------------------------------------------------------


def _enum_nearest(diag, cols, t):
    """Depth-first sphere search minimizing ||R u - t||^2.

    Candidates at each level are visited in zig-zag order around the real
    center, so a level can be abandoned as soon as its contribution exceeds
    the current limit.  Returns (ties, best, nodes) where ties is a list of
    (coeff tuple, dist2) within the tie band of the best leaf.
    """
    n = len(t)
    node_cap = NODE_CAP
    best = math.inf
    ties: list = []
    lim = best

    u = [0] * n
    u0 = [0] * n
    d0 = [1] * n
    idx = [0] * n
    slev: list = [None] * n
    dlev = [0.0] * n
    slev[n - 1] = list(t)
    dlev[n - 1] = 0.0
    k = n - 1
    fresh = True
    nodes = 0

    while True:
        if fresh:
            sk = slev[k]
            c = sk[k] / diag[k]
            uk = math.floor(c + 0.5)
            u0[k] = uk
            d0[k] = 1 if c >= uk else -1
            idx[k] = 0
            u[k] = uk
            fresh = False
        else:
            idx[k] += 1
            j = idx[k]
            m = (j + 1) >> 1
            off = m * d0[k] if (j & 1) else -m * d0[k]
            u[k] = u0[k] + off
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"nearest-point search passed {node_cap} nodes")
        e = slev[k][k] - diag[k] * u[k]
        nd = dlev[k] + e * e
        if nd <= lim:
            if k == 0:
                uu = tuple(u)
                if nd < best:
                    best = nd
                    lim = best + TIE_REL * (1.0 + best)
                    ties = [tv for tv in ties if tv[1] <= lim]
                ties.append((uu, nd))
                # keep walking level 0 outward
            else:
                sk = slev[k]
                col = cols[k]
                uk = u[k]
                nxt = [sk[i] - col[i] * uk for i in range(k)]
                slev[k - 1] = nxt
                dlev[k - 1] = nd
                k -= 1
                fresh = True
        else:
            k += 1
            if k == n:
                break
    ties.sort(key=lambda item: item[0])
    return ties, best, nodes


def _vector(x, n: int, what: str) -> np.ndarray:
    """x as a finite float array of shape (n,); else DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, lattice dim {n}")
    if not np.all(np.isfinite(x)):
        raise DimensionMismatch(f"{what} must be finite")
    return x


def closest_point(lat: Lattice, y) -> np.ndarray:
    """Basis coefficients u (int64, shape (n,)) of the exact nearest
    lattice point B u to y.

    Ties (squared distances inside the TIE_REL band of the best) are broken
    toward the lexicographically smallest coefficient vector.
    """
    y = _vector(y, lat.n, "point")
    q, _ = lat.qr
    t = (y @ q).tolist()
    diag, cols = lat._dfs_tabs
    ties, _, _ = _enum_nearest(diag, cols, t)
    return np.array(ties[0][0], dtype=np.int64)


def _warm_decoder(lat: Lattice) -> None:
    """Build the caches closest_points_batch reads before threads read them."""
    lat.qr, lat.inv, lat.sigma_min  # reading a cached_property builds it
    if lat.structure is None:
        lat.reduced


def closest_points_batch(lat: Lattice, ys: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the nearest lattice points for each row of ys.

    A structured lattice decodes every row with its exact Conway-Sloane
    decoder and maps the points to coefficients in its own basis; the rows
    whose decision margin falls inside the tie guard are refused.  An
    untagged basis walks Babai's nearest plane (_walk) on its LLL reduction
    (Lattice.reduced) and keeps the rows it certifies inside half the
    minimum distance; one _ball_nearest pass on the reduced basis searches
    the rest, each inside the ball through its Babai point.  A searched
    row keeps that pass's answer only when no other candidate lies inside
    a band of _GUARD_REL * (1 + |y|) * (1 + best), so that its nearest
    point is unique: in either frame each level's residual is off by some
    ulps of |y|, so d2 by some ulps of 2 |y| sqrt(d2) <= |y| (1 + d2).  The
    rows with more than one candidate are refused, and the unimodular
    transform maps the reduced coefficients back to lat's basis.  Either
    way one _ball_nearest pass in lat's own frame, through each refused
    row's point, breaks its ties lexicographically in lat's coefficients,
    so the output matches closest_point row by row, ties included.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != lat.n:
        raise DimensionMismatch(f"batch has shape {ys.shape}, lattice dim {lat.n}")
    m, n = ys.shape
    if not np.all(np.isfinite(ys)):
        raise DimensionMismatch("point must be finite")
    if lat.structure is None:
        red, t = lat.reduced
        q, r = red.qr
        u, d2 = _walk(r, ys @ q)
        half = 0.5 * red.lambda1_lb()
        hard = np.nonzero(d2 >= (half * half) * (1.0 - 1e-9))[0]
        yh = ys[hard]
        band = _GUARD_REL * (1.0 + np.linalg.norm(yh, axis=1))
        u[hard], count = _ball_nearest(red, yh, u[hard], band)
        u = u @ t.T
        refused = hard[count > 1]
    else:
        u = np.empty((m, n), dtype=np.int64)
        ok = np.empty(m, dtype=bool)
        to_coeffs = lat.inv.T
        for i in range(0, m, _DECODE_CHUNK):
            pts, ok[i:i + _DECODE_CHUNK] = lat.structure.decode_batch(
                ys[i:i + _DECODE_CHUNK])
            u[i:i + _DECODE_CHUNK] = np.rint(pts @ to_coeffs)
        refused = np.nonzero(~ok)[0]
    u[refused], _ = _ball_nearest(lat, ys[refused], u[refused], TIE_REL)
    return u


def _walk(r: np.ndarray, tmat: np.ndarray,
          u: np.ndarray | None = None) -> tuple:
    """(u, d2): a nearest-plane walk from the rows of tmat (QR frame).

    Level k = n-1 down to 0 adds e * e to d2, e = r_kk u_k - tau_k, and
    takes r[:k, k] u_k off tau[:k], tau starting at the row.  Without u,
    u_k rounds tau_k / r_kk, which is Babai's nearest plane; with u, the
    walk measures the squared distances to the given points.  d2 is
    summed in _ball_search's own arithmetic, so a ball of this squared
    radius around each row holds its point to the bit, however large its
    coefficients.
    """
    uf = np.empty(tmat.shape[::-1]) if u is None else u.T.astype(float)
    tau = tmat.T.copy()
    d2 = np.zeros(tmat.shape[0])
    for k in range(r.shape[0] - 1, -1, -1):
        if u is None:
            np.floor(tau[k] / r[k, k] + 0.5, out=uf[k])
        e = r[k, k] * uf[k] - tau[k]
        d2 += e * e
        if k:
            tau[:k] -= r[:k, k, None] * uf[k]
    return uf.T.astype(np.int64) if u is None else u, d2


def _ball_nearest(lat: Lattice, ys: np.ndarray, u: np.ndarray,
                  tie_rel) -> tuple:
    """(coeffs, count): the nearest points of lat to the rows of ys.

    u holds one lattice point per row, coefficients in lat's basis; its
    squared distance `bound` (summed as _ball_search sums it, _walk)
    bounds the row's nearest one.  One _ball_search over the rows, each
    ball of squared radius bound + tie_rel * (1 + bound), holds every point
    inside the tie band of the row's best: without the band term a near-tie
    just outside the incumbent's ball would be missed.  Each row gets the
    lexicographically smallest coefficients among its points with d2 <=
    best + tie_rel * (1 + best), as _enum_nearest breaks ties, and the
    count of those points; a row with none keeps its u.  tie_rel is a
    scalar or one value per row.  Rows go _DECODE_CHUNK at a time, so no
    level's prefix count nears POINT_CAP.
    """
    q, r = lat.qr
    m = ys.shape[0]
    tie_rel = np.broadcast_to(np.asarray(tie_rel, dtype=float), (m,))
    out = u.copy()
    count = np.zeros(m, dtype=np.int64)
    for i in range(0, m, _DECODE_CHUNK):
        tmat = ys[i:i + _DECODE_CHUNK] @ q
        _, bound = _walk(r, tmat, u[i:i + _DECODE_CHUNK])
        band = tie_rel[i:i + _DECODE_CHUNK]
        rad2 = bound + band * (1.0 + bound)
        root, cand, d2 = _ball_search(r, tmat, rad2,
                                      slop=_edge_slop(lat, tmat, rad2))
        # the ties of each row, grouped by row, lexicographically sorted
        best = np.full(len(tmat), math.inf)
        np.minimum.at(best, root, d2)
        floor = best[root]
        tie = d2 <= floor + band[root] * (1.0 + floor)
        root, cand = root[tie], cand[tie]
        order = np.lexsort((*cand.T[::-1], root))
        root, cand = root[order], cand[order]
        first = np.ones(root.size, dtype=bool)
        first[1:] = root[1:] != root[:-1]
        out[i + root[first]] = cand[first]
        count[i:i + _DECODE_CHUNK] = np.bincount(root, minlength=len(tmat))
    return out, count


# ---------------------------------------------------------------------------
# batched ball enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PackedRows:
    """Integer coefficient rows stored as one int64 key per row.

    Column k, less lows[k], takes bits[k] bits, and column 0 the highest,
    so the keys order the rows lexicographically.  Indexing unpacks:
    rows[sel] is the int64 array that the unpacked (N, n) rows would give
    for [sel], one row for an integer index.
    """

    key: np.ndarray
    bits: tuple
    lows: tuple

    def __len__(self) -> int:
        return self.key.size

    def __getitem__(self, sel) -> np.ndarray:
        key = self.key[sel]
        flat = np.atleast_1d(key)
        shifts = np.cumsum((0,) + self.bits[:0:-1])[::-1, None]
        masks = np.array([(1 << b) - 1 for b in self.bits],
                         dtype=np.int64)[:, None]
        lows = np.array(self.lows, dtype=np.int64)[:, None]
        out = np.empty((flat.size, len(self.bits)), dtype=np.int64)
        for lo in range(0, flat.size, _KEY_CHUNK):
            cols = flat[lo:lo + _KEY_CHUNK] >> shifts  # row k: column k
            cols &= masks
            cols += lows
            out[lo:lo + _KEY_CHUNK] = cols.T
        return out.reshape(key.shape + (len(self.bits),))


def enumerate_ball(lat: Lattice, center, radius: float,
                   coeffs: bool = True, *, _packed: bool = False,
                   _half: bool = False) -> tuple:
    """All lattice points with ||B u - center|| <= radius.

    Returns (U, d2): integer coefficients, one point per row, plus squared
    distances to the center.  The one-center case of _ball_search.  With
    coeffs=False, U is None and the per-level coefficient gathers are
    skipped; d2 is the same array either way.  _packed=True returns U as
    a PackedRows, the keys in enumeration order, unless the coefficient
    spans pass 63 bits.  _half=True, for a center at the origin, returns
    the origin and one point of each +-u pair (_ball_search's half mode).
    """
    n = lat.n
    center = _vector(center, n, "center")
    if not radius < math.inf:
        raise DimensionMismatch(f"radius must be finite, got {radius}")
    if radius < 0:
        return (np.empty((0, n), dtype=np.int64) if coeffs else None,
                np.empty(0))
    q, r = lat.qr
    tmat = (center @ q)[None, :]
    rad2 = np.array([radius * radius])
    _, u, d2 = _ball_search(r, tmat, rad2, coeffs, _edge_slop(lat, tmat, rad2),
                            half=_half, packed=_packed)
    return u, d2


def _edge_slop(lat: Lattice, tmat: np.ndarray, rad2: np.ndarray) -> float:
    """_ball_search's edge margin for balls of squared radii rad2 around tmat.

    Every level's center c is a coordinate of a real vector v with
    |r v - t| <= radius, so |c| <= (|t| + radius) / sigma_min; far from the
    origin some 20 ulps of that outgrow the usual 1e-12.  The ends of the
    level's range, c +- w, are such coordinates too, at the radius that
    _ball_search's slack widens by at most 1e-6: a search whose ranges
    could pass 2^62, and so int64, is refused before any cast.
    """
    reach = math.sqrt(np.max(np.einsum("ij,ij->i", tmat, tmat), initial=0.0)) \
        + math.sqrt(np.max(rad2, initial=0.0))
    slop = max(1e-12, 4e-15 * reach / lat.sigma_min)
    edge = (reach * (1.0 + 1e-12) + 1e-6) / lat.sigma_min + slop
    if not edge < 2.0 ** 62:
        raise BudgetExceeded(f"ball enumeration reaches coefficients near "
                             f"{edge:.3g}, past 2^62")
    return slop


def _counts(run: np.ndarray, s: int) -> np.ndarray:
    """The counts whose running sums, from s, are run."""
    cnt = run.copy()
    cnt[1:] -= run[:-1]
    cnt[:1] -= s
    return cnt


def _blocks(ends: np.ndarray, chunk: int):
    """Yield (a, b, s, e, cnt): prefixes a..b-1 own items s..e-1, cnt each.

    ends holds each prefix's running item count.  A block takes whole
    prefixes, at most chunk items of them, or one prefix with more.  The
    block at a reads only ends[a:], so a caller may overwrite done blocks.
    """
    a = s = 0
    while a < ends.size:
        b = a + max(int(np.searchsorted(ends[a:], s + chunk, side="right")), 1)
        e = int(ends[b - 1])
        yield a, b, s, e, _counts(ends[a:b], s)
        a, s = b, e


def _int_type(reach: float) -> type:
    """The narrowest signed integer type that holds -reach .. reach."""
    for t in (np.int8, np.int16, np.int32):
        if reach <= np.iinfo(t).max:
            return t
    return np.int64


def _below(kids: list):
    """Yield, for levels k = 1 .. n-1, 0 and then the running count of the
    points below the level-k prefixes, from kids[k], the running count of
    the level-k children of the level-(k+1) prefixes."""
    at = None
    for run in kids[:-1]:
        at = np.concatenate(([0], run if at is None else at[run]))
        yield at


def _ball_search(r: np.ndarray, tmat: np.ndarray, rad2: np.ndarray,
                 coeffs: bool = True, slop: float = 1e-12,
                 half: bool = False, packed: bool = False) -> tuple:
    """Lattice points inside a ball around each of a batch of centers.

    tmat holds the centers in the QR frame of the lattice (centers @ q),
    one per row, r is its triangular factor and rad2 one squared radius per
    center.  Returns (root, U, d2): for every point found, the row of its
    center, its integer coefficients (None with coeffs=False) and its
    squared distance to that center; the points come out grouped by center
    in row order and, within a center, sorted by (u_{n-1}, ..., u_0).
    Level-by-level expansion over r (Fincke & Pohst), vectorized over the
    surviving prefixes of every center at once.  A prefix's children are
    contiguous, so a level keeps only its new coefficients and, over the
    prefixes above, the running count of its children.
    No temporary spans a whole level: the integer ranges are counted
    _LEVEL_CHUNK prefixes at a time, and the candidates expanded in blocks
    of whole prefixes holding about _LEVEL_CHUNK of them (each prefix's
    range computed again), whose survivors fill arrays sized for the
    level.  A level of at most _LEVEL_CHUNK prefixes and candidates is one
    block, whose arrays it keeps.  A candidate's arithmetic is the same in
    any block, so no output depends on the block size.  A level of several
    blocks stores its coefficients in the narrowest signed integer type
    that holds (max |tau_k| + sqrt(max lim)) / r_kk + slop + 2, a bound on
    every candidate; they are exact integers, so u * r[:k, k] keeps its
    bits, and they are widened to int64 only where the packed keys or the
    columns of U are formed.  Column k of U
    repeats each level-k coefficient once per point below it, counted by
    differences of running counts (_below), in an (n, N) C-order array
    whose transpose is U, so U[:, k] is contiguous.  packed=True fills no
    columns: U is a PackedRows whose keys are built top down, in place in
    each level's column: (u - low) << shift plus the parent prefix's key,
    each column's low and bit width taken over the prefixes with a point
    below them; only when the widths pass 63 bits is U the array.  slop
    widens each level's integer range past the ball's edge, so that the
    rounding of the level's real centers c cuts no point off; it must
    exceed a few ulps of the largest |c| (_edge_slop).

    half=True takes one center at the origin and returns the origin plus
    one point of each +-u pair: those whose last nonzero coefficient is
    positive.  There every level of -u negates u's tau, level center and
    integer range exactly (rounding is sign-symmetric, ceil(-x) =
    -floor(x)), so d2(-u) has the bits of d2(u).  Only the all-zero prefix
    has its range clamped to k >= 0; it stays row 0, since it comes first
    and its first candidate, 0, always survives.  The budget counts the
    full ball's candidates, 2 * total - 1, and prefixes, so the caps are
    the same.  POINT_CAP bounds each level's candidates and, since the
    next levels' centers keep k floats per prefix, its prefixes times k;
    25 * POINT_CAP bounds those prefix coordinates summed over the levels,
    the search's work.
    """
    m, n = tmat.shape
    slack = rad2 * (1.0 + 1e-12) + 1e-12
    # One center (enumerate_ball) keeps its radius a scalar and tracks no
    # root (it returns a read-only view of one 0).  On the large d2-only
    # balls of the certified sums the two per-prefix gathers would cost
    # about 11 % of the throughput and 6 % of the peak memory of the lemma
    # checks.
    per = m > 1
    lim = slack if per else slack[0]
    root = np.arange(m)
    tau = tmat
    d2 = np.zeros(m)
    # level k's coefficients, and the running count of them over the
    # level-(k+1) prefixes
    ucol: list = [None] * n
    kids: list = [None] * n
    work = 0
    for k in range(n - 1, -1, -1):
        rkk = r[k, k]

        def ranges(a, b):
            # (lowest candidate, candidate count) of prefixes a..b-1
            c = tau[a:b, k] / rkk
            w = np.sqrt(np.maximum((lim[a:b] if per else lim) - d2[a:b],
                                   0.0)) / rkk
            lo = np.ceil(c - w - slop).astype(np.int64)
            cnt = np.maximum(np.floor(c + w + slop).astype(np.int64) - lo + 1,
                             0)
            if half and a == 0:
                cnt[0] += lo[0]
                lo[0] = 0
            return lo, cnt

        # one chunk of prefixes keeps its ranges; more count theirs a chunk
        # at a time, and each expansion block computes its lows again
        if d2.size <= _LEVEL_CHUNK:
            lo, cnt = ranges(0, d2.size)
        else:
            lo, cnt = None, np.empty(d2.size, dtype=np.int64)
            for a in range(0, d2.size, _LEVEL_CHUNK):
                _, cnt[a:a + _LEVEL_CHUNK] = ranges(a, a + _LEVEL_CHUNK)
        total = int(cnt.sum())
        if total == 0:
            return (np.empty(0, dtype=np.intp),
                    np.empty((0, n), dtype=np.int64) if coeffs else None,
                    np.empty(0))
        if (2 * total - 1 if half else total) > POINT_CAP:
            raise BudgetExceeded(f"ball enumeration passed {POINT_CAP} points")
        ends = np.cumsum(cnt, out=None if lo is not None else cnt)
        # the last level of a one-center d2-only search needs no children
        need = k or per or coeffs

        def expand(lo, a, b, s, e, cnt):
            # (d2, u, running count per prefix) of the survivors among the
            # candidates s..e-1 of prefixes a..b-1, whose lows are lo
            uk = np.repeat(lo - ends[a:b] + cnt, cnt)
            uk += np.arange(s, e)
            nd = rkk * uk
            nd -= np.repeat(tau[a:b, k], cnt)
            nd *= nd
            nd += np.repeat(d2[a:b], cnt)
            keep = nd <= (np.repeat(lim[a:b], cnt) if per else lim)
            # the integer ranges hold few candidates outside the ball,
            # often none, and then no copy goes through the mask
            if keep.all():
                return nd, uk, ends[a:b] - s
            if not need:
                return nd[keep], None, None
            seen = np.concatenate(([0], np.cumsum(keep)))
            return nd[keep], uk[keep], seen[ends[a:b] - s]

        if lo is not None and total <= _LEVEL_CHUNK:
            nd, uk, ends = expand(lo, 0, ends.size, 0, total, cnt)
        else:
            nd = np.empty(total)
            # every candidate lies within |c| + w + slop of 0, rounded out
            reach = (np.max(np.abs(tau[:, k])) + math.sqrt(np.max(lim))) / rkk
            uk = np.empty(total, dtype=_int_type(reach + slop + 2.0)) \
                if need else None
            j = 0
            for a, b, s, e, cnt in _blocks(ends, _LEVEL_CHUNK):
                nd_b, uk_b, run = expand(ranges(a, b)[0], a, b, s, e, cnt)
                nd[j:j + nd_b.size] = nd_b
                if need:
                    uk[j:j + nd_b.size] = uk_b
                    # the survivors' running counts replace the candidates'
                    ends[a:b] = run + j
                j += nd_b.size
            nd = nd[:j]
            uk = None if uk is None else uk[:j]
        del lo, cnt, expand
        if per:
            root = np.repeat(root, _counts(ends, 0))
            lim = slack[root]
        if coeffs:
            ucol[k], kids[k] = uk, ends
        if k:
            # the prefix matrix: k floats for each surviving prefix
            coords = (2 * nd.size - 1 if half else nd.size) * k
            if coords > POINT_CAP:
                raise BudgetExceeded(
                    f"ball enumeration passed {POINT_CAP} prefix coordinates")
            work += coords
            if work > 25 * POINT_CAP:
                raise BudgetExceeded(
                    f"ball enumeration passed {25 * POINT_CAP} prefix "
                    "coordinates over its levels")
            nxt = np.empty((nd.size, k))
            for a, b, s, e, cnt in _blocks(ends, _LEVEL_CHUNK):
                np.subtract(np.repeat(tau[a:b, :k], cnt, axis=0),
                            uk[s:e, None] * r[:k, k], out=nxt[s:e])
            tau = nxt
        d2 = nd
        del ends, ranges
    # the level-1 prefix matrix, and a second reference to ucol[0]
    tau = nxt = uk = None
    if not per:
        root = np.broadcast_to(np.intp(0), d2.size)
    if not coeffs:
        return root, None, d2
    if packed and d2.size:
        # a column's span over the points is its span over the prefixes
        # with a point below them
        lows = [int(ucol[0].min())]
        tops = [int(ucol[0].max())]
        for u, at in zip(ucol[1:], _below(kids)):
            live = at[1:] > at[:-1]
            lows.append(int(u.min(where=live, initial=np.iinfo(u.dtype).max)))
            tops.append(int(u.max(where=live, initial=np.iinfo(u.dtype).min)))
        bits = [(top - low).bit_length() for top, low in zip(tops, lows)]
        if sum(bits) <= 63:
            shift = 0
            key = None
            for k in range(n - 1, -1, -1):
                col, ucol[k] = ucol[k].astype(np.int64), None
                col -= lows[k]
                col <<= shift
                shift += bits[k]
                if key is not None:
                    for a, b, s, e, cnt in _blocks(kids[k], _LEVEL_CHUNK):
                        col[s:e] += np.repeat(key[a:b], cnt)
                key = col
            return root, PackedRows(key, tuple(bits), tuple(lows)), d2
    cols = np.empty((n, d2.size), dtype=np.int64)
    cols[0] = ucol[0]
    for k, at in enumerate(_below(kids), 1):
        ucol[k - 1] = None
        for a, b, s, e, cnt in _blocks(at[1:], _LEVEL_CHUNK):
            cols[k, s:e] = np.repeat(ucol[k][a:b], cnt)
    return root, cols.T, d2


# ---------------------------------------------------------------------------
# basis files
# ---------------------------------------------------------------------------


def _read_lines(path: str, what: str) -> list:
    """The lines of a UTF-8 text file; ConfigError when it cannot be read.

    A missing file, a directory or undecodable bytes are bad input, not a
    failed run.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: byte "
                          f"{exc.start}: {exc.reason}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None


def load_basis(path: str, label: str = "") -> Lattice:
    lines = [ln.strip() for ln in _read_lines(path, "basis file") if ln.strip()]
    if not lines:
        raise ConfigError(f"empty basis file: {path}")
    try:
        n = int(lines[0])
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ConfigError(f"malformed basis file {path}: {exc}") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ConfigError(f"basis file {path} does not hold {n} rows of {n} entries")
    if not np.all(np.isfinite(rows)):
        raise ConfigError(f"basis file {path} holds a non-finite entry")
    return make_lattice(np.array(rows), label=label or path)
