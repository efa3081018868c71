"""Lattice construction, exact nearest-point search, and ball enumeration.

A lattice is represented by a square basis matrix whose COLUMNS are the
generator vectors.  All search routines are exact: the nearest-point solver
is a depth-first sphere search with a node budget.  Named lattices carry a
structure tag (Diag for Zn and diagonal bases, Checkerboard for Dn and E8)
whose decode_batch runs the closest-point algorithms of Conway & Sloane
("Fast quantizing and decoding algorithms for lattice quantizers and
codes", IEEE Trans. IT 1982) over a whole batch.  The batch decoder
accepts a structured answer only when every decision margin clears a guard
at least 1000 times wider than the search's tie band; other rows, and every row of
an untagged basis, go through Babai's nearest-plane rounding, whose
half-minimum-distance certificate either proves the answer or sends the
row to the exact search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    NotSquare,
    SingularBasis,
    UnknownName,
)

DEFAULT_NODE_CAP = 10**8
DEFAULT_POINT_CAP = 20_000_000
# rows per structured decode call: keeps its temporaries in cache
_DECODE_CHUNK = 4096

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LatticePoint:
    """Integer coefficients plus the embedded vector they map to.

    For coset outputs the embedding carries the shift (lambda - c), while
    coeffs always index the underlying lattice point lambda.
    """

    coeffs: np.ndarray
    embedding: np.ndarray


# A structured decision whose squared-distance margin is inside
# _GUARD_REL * (1 + |best|^2 + |y|^2) is left to the exact search.  The
# factor is 1000 times _enum_nearest's relative tie band, and the |y|^2 term
# covers the rounding error of both paths for points far from the origin,
# so an accepted row has one nearest point and no lexicographic tie-break.
_GUARD_REL = 1e-9


def _guard(best: np.ndarray, yt: np.ndarray) -> np.ndarray:
    return _GUARD_REL * (1.0 + best + np.einsum("ij,ij->j", yt, yt))


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
class Diag:
    """Orthogonal lattice with basis diag(steps)."""

    steps: np.ndarray

    def scaled(self, a: float) -> "Diag":
        return Diag(self.steps * a)

    def decode_batch(self, ys: np.ndarray) -> tuple:
        """(nearest points, ok) for the rows of ys: round each coordinate."""
        yt = np.ascontiguousarray(ys.T)
        steps = self.steps[:, None]
        pts = np.rint(yt / steps) * steps
        r = yt - pts
        margin = np.min(steps * (steps - 2.0 * np.abs(r)), axis=0)
        best = np.einsum("ij,ij->j", r, r)
        return pts.T, margin > _guard(best, yt)


@dataclass(frozen=True)
class Checkerboard:
    """step * D_n, joined with step * (D_n + 1/2) when half is set (E8 at n = 8)."""

    step: float
    half: bool

    def scaled(self, a: float) -> "Checkerboard":
        return Checkerboard(self.step * a, self.half)

    def decode_batch(self, ys: np.ndarray) -> tuple:
        """(nearest points, ok) for the rows of ys.

        D_n by _decode_dn; with the half coset, the nearer of the D_n
        decode and the D_n + 1/2 decode.
        """
        yt = np.ascontiguousarray(ys.T)
        z = yt / self.step
        pts, d2, margin = _decode_dn(z)
        if self.half:
            pts1, d21, margin1 = _decode_dn(z - 0.5)
            take = d21 < d2
            pts = np.where(take, pts1 + 0.5, pts)
            margin = np.minimum(np.where(take, margin1, margin),
                                np.abs(d21 - d2))
            d2 = np.minimum(d2, d21)
        s2 = self.step * self.step
        return (pts * self.step).T, margin * s2 > _guard(d2 * s2, yt)


@dataclass(eq=False)
class Lattice:
    basis: np.ndarray
    label: str = ""
    structure: Diag | Checkerboard | None = None
    lambda1: float | None = None
    _qr: tuple | None = field(default=None, repr=False)
    _inv: np.ndarray | None = field(default=None, repr=False)
    _cols: tuple | None = field(default=None, repr=False)
    _dual: Lattice | None = field(default=None, repr=False)
    # analytics.flatness reports, keyed by (float(sigma), point_cap)
    _flatness: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def volume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    @property
    def gram(self) -> np.ndarray:
        return self.basis.T @ self.basis

    def qr(self) -> tuple:
        """Cached (Q, R) with R upper triangular and positive diagonal."""
        if self._qr is None:
            q, r = np.linalg.qr(self.basis)
            sgn = np.sign(np.diag(r))
            sgn[sgn == 0] = 1.0
            q = q * sgn
            r = sgn[:, None] * r
            self._qr = (np.ascontiguousarray(q), np.ascontiguousarray(r))
        return self._qr

    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.linalg.inv(self.basis)
        return self._inv

    def dual(self) -> "Lattice":
        """Cached dual lattice, basis inv(B).T; volume is 1/volume."""
        if self._dual is None:
            self._dual = make_lattice(self.inv().T, label=self.label + "*")
        return self._dual

    def scale(self, a: float) -> "Lattice":
        if a <= 0:
            raise SingularBasis("scale factor must be positive")
        structure = None if self.structure is None else self.structure.scaled(a)
        lam = None if self.lambda1 is None else self.lambda1 * a
        return Lattice(self.basis * a, label=f"{self.label}*{a:g}",
                       structure=structure, lambda1=lam)

    def lambda1_lb(self) -> float:
        """Certified lower bound on the shortest nonzero vector norm."""
        if self.lambda1 is not None:
            return self.lambda1
        s = float(np.linalg.svd(self.basis, compute_uv=False)[-1])
        self.lambda1 = s  # sigma_min(B) <= ||B u|| for any unit u
        return s

    def _dfs_tabs(self) -> tuple:
        # cached plain-python views of R for the depth-first search
        if self._cols is None:
            _, r = self.qr()
            n = self.n
            diag = tuple(float(r[k, k]) for k in range(n))
            cols = tuple(tuple(float(r[i, k]) for i in range(k)) for k in range(n))
            self._cols = (diag, cols)
        return self._cols


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
        structure = Diag(np.diag(b).copy())
    return Lattice(b, label=label or "custom", structure=structure)


def standard_lattice(name: str, n: int | None = None) -> Lattice:
    """Named constructions: Zn, Dn, E8, A2."""
    if name == "Zn":
        if n is None or n < 1:
            raise ConfigError("Zn needs a dimension n >= 1")
        lat = Lattice(np.eye(n), label=f"Z{n}",
                      structure=Diag(np.ones(n)), lambda1=1.0)
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
        return Lattice(rows.T.copy(), label=f"D{n}",
                       structure=Checkerboard(1.0, False), lambda1=math.sqrt(2.0))
    if name == "E8":
        rows = np.zeros((8, 8))
        rows[0, 0] = 2.0
        for i in range(1, 7):
            rows[i, i - 1] = -1.0
            rows[i, i] = 1.0
        rows[7, :] = 0.5
        return Lattice(rows.T.copy(), label="E8",
                       structure=Checkerboard(1.0, True), lambda1=math.sqrt(2.0))
    if name == "A2":
        b = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
        return Lattice(b, label="A2", lambda1=1.0)
    raise UnknownName(f"no lattice named {name!r}")


# ---------------------------------------------------------------------------
# exact nearest-point search
# ---------------------------------------------------------------------------


def _enum_nearest(diag, cols, t, node_cap, tie_rel=1e-12, init=None, feasible=None):
    """Depth-first sphere search minimizing ||R u - t||^2.

    Candidates at each level are visited in zig-zag order around the real
    center, so a level can be abandoned as soon as its contribution exceeds
    the current limit.  Returns (ties, best, nodes) where ties is a list of
    (coeff tuple, dist2) within the tie band of the best feasible leaf.
    """
    n = len(t)
    best = math.inf
    ties: list = []
    if init is not None:
        u_init, d_init = init
        best = d_init
        ties = [(tuple(int(v) for v in u_init), d_init)]
    band = tie_rel * (1.0 + best) if math.isfinite(best) else 0.0
    lim = best + band

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
                if feasible is None or feasible(uu):
                    if nd < best:
                        best = nd
                        band = tie_rel * (1.0 + best)
                        lim = best + band
                        ties = [tv for tv in ties if tv[1] <= lim]
                        ties.append((uu, nd))
                    elif nd <= lim:
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
    # dedupe (the seeded incumbent may coincide with an enumerated leaf)
    seen = {}
    for uu, nd in ties:
        if uu not in seen or nd < seen[uu]:
            seen[uu] = nd
    final = [(uu, nd) for uu, nd in seen.items() if nd <= best + band]
    final.sort(key=lambda item: item[0])
    return final, best, nodes


def closest_point(lat: Lattice, y, node_cap: int = DEFAULT_NODE_CAP) -> LatticePoint:
    """Exact nearest lattice point to y.

    Ties (squared-distance difference inside a relative 1e-12 band) are
    broken toward the lexicographically smallest coefficient vector.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (lat.n,):
        raise DimensionMismatch(f"point has shape {y.shape}, lattice dim {lat.n}")
    if not np.all(np.isfinite(y)):
        raise DimensionMismatch("point must be finite")
    q, _ = lat.qr()
    t = (y @ q).tolist()
    diag, cols = lat._dfs_tabs()
    ties, _, _ = _enum_nearest(diag, cols, t, node_cap)
    u = np.array(ties[0][0], dtype=np.int64)
    return LatticePoint(u, lat.basis @ u)


def closest_points_batch(lat: Lattice, ys: np.ndarray,
                         node_cap: int = DEFAULT_NODE_CAP) -> np.ndarray:
    """Coefficient matrix of the nearest lattice points for each row of ys.

    A structured lattice decodes every row with its exact Conway-Sloane
    decoder and maps the points to coefficients in its own basis.  Rows
    whose decision margin falls inside the tie guard, and all rows of an
    untagged basis, take Babai's nearest-plane rounding: rows whose residual
    is inside half the minimum distance are provably optimal, the rest
    rerun through the exact search.  Output matches closest_point row by
    row, ties included: every accepted row has a unique nearest point, and
    the exact search resolves the rest lexicographically.
    """
    ys = np.asarray(ys, dtype=float)
    m, n = ys.shape
    if n != lat.n:
        raise DimensionMismatch(f"batch has width {n}, lattice dim {lat.n}")
    if not np.all(np.isfinite(ys)):
        raise DimensionMismatch("point must be finite")
    if lat.structure is None:
        return _babai_exact(lat, ys, node_cap)
    u = np.empty((m, n), dtype=np.int64)
    ok = np.empty(m, dtype=bool)
    to_coeffs = lat.inv().T
    for i in range(0, m, _DECODE_CHUNK):
        pts, ok[i:i + _DECODE_CHUNK] = lat.structure.decode_batch(
            ys[i:i + _DECODE_CHUNK])
        u[i:i + _DECODE_CHUNK] = np.rint(pts @ to_coeffs)
    rest = np.nonzero(~ok)[0]
    if rest.size:
        u[rest] = _babai_exact(lat, ys[rest], node_cap)
    return u


def _babai_exact(lat: Lattice, ys: np.ndarray, node_cap: int) -> np.ndarray:
    """Babai rounding, certified by half the minimum distance or searched."""
    q, r = lat.qr()
    tmat = ys @ q
    s = tmat.copy()
    m, n = ys.shape
    u = np.empty((m, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        uk = np.floor(s[:, k] / r[k, k] + 0.5).astype(np.int64)
        u[:, k] = uk
        if k:
            s[:, :k] -= uk[:, None] * r[:k, k]
    resid = tmat - u @ r.T
    d2 = np.einsum("ij,ij->i", resid, resid)
    half = 0.5 * lat.lambda1_lb()
    hard = np.nonzero(d2 >= (half * half) * (1.0 - 1e-9))[0]
    if hard.size:
        diag, cols = lat._dfs_tabs()
        for i in hard:
            ties, _, _ = _enum_nearest(diag, cols, tmat[i].tolist(), node_cap)
            u[i] = ties[0][0]
    return u


def mod_lattice(lat: Lattice, x, node_cap: int = DEFAULT_NODE_CAP) -> np.ndarray:
    """x reduced modulo the lattice: x - closest_point(x)."""
    x = np.asarray(x, dtype=float)
    return x - closest_point(lat, x, node_cap).embedding


def coset_decode(lat: Lattice, c, y, node_cap: int = DEFAULT_NODE_CAP) -> LatticePoint:
    """Nearest point of the shifted set L - c to y.

    Equals closest_point(L, y + c) shifted back; the embedding field holds
    lambda - c while coeffs index lambda.
    """
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)
    if c.shape != (lat.n,):
        raise DimensionMismatch(f"shift has shape {c.shape}, lattice dim {lat.n}")
    p = closest_point(lat, y + c, node_cap)
    return LatticePoint(p.coeffs, p.embedding - c)


def contains(lat: Lattice, x, tol: float = 1e-6) -> bool:
    """Membership test: x is a lattice vector up to the given residual."""
    x = np.asarray(x, dtype=float)
    u = np.round(lat.inv() @ x)
    return bool(np.linalg.norm(lat.basis @ u - x) < tol)


# ---------------------------------------------------------------------------
# batched ball enumeration
# ---------------------------------------------------------------------------


def enumerate_ball(lat: Lattice, center, radius: float,
                   point_cap: int = DEFAULT_POINT_CAP, coeffs: bool = True) -> tuple:
    """All lattice points with ||B u - center|| <= radius.

    Returns (U, d2): integer coefficients, one point per row, plus squared
    distances to the center.  Level-by-level expansion over the triangular
    factor, vectorized over the surviving prefixes.  With coeffs=False, U
    is None and the per-level coefficient gathers are skipped; d2 is the
    same array either way.
    """
    center = np.asarray(center, dtype=float)
    n = lat.n
    if center.shape != (n,):
        raise DimensionMismatch(f"center has shape {center.shape}, lattice dim {n}")
    empty = (np.empty((0, n), dtype=np.int64) if coeffs else None, np.empty(0))
    if radius < 0:
        return empty
    q, r = lat.qr()
    t = center @ q
    rad2 = radius * radius
    slack = rad2 * (1.0 + 1e-12) + 1e-12

    tau = t[None, :].copy()
    d2 = np.zeros(1)
    ucols: list = []
    for k in range(n - 1, -1, -1):
        rkk = r[k, k]
        c = tau[:, k] / rkk
        w = np.sqrt(np.maximum(slack - d2, 0.0)) / rkk
        lo = np.ceil(c - w - 1e-12).astype(np.int64)
        hi = np.floor(c + w + 1e-12).astype(np.int64)
        cnt = np.maximum(hi - lo + 1, 0)
        total = int(cnt.sum())
        if total == 0:
            return empty
        if total > point_cap:
            raise BudgetExceeded(f"ball enumeration passed {point_cap} points")
        rows = np.repeat(np.arange(cnt.size), cnt)
        starts = np.cumsum(cnt) - cnt
        uk = lo[rows] + (np.arange(total) - starts[rows])
        e = rkk * uk - tau[rows, k]
        nd = d2[rows] + e * e
        keep = nd <= slack
        rows = rows[keep]
        uk = uk[keep]
        d2 = nd[keep]
        if coeffs:
            ucols = [col[rows] for col in ucols]
            ucols.append(uk)
        if k:
            tau = tau[rows][:, :k] - uk[:, None] * r[:k, k][None, :]
    if not coeffs:
        return None, d2
    u = np.stack(ucols[::-1], axis=1).astype(np.int64)
    return u, d2


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------


def save_basis(lat: Lattice, path: str) -> None:
    """Write the basis: dimension line, then one row of coordinates per line."""
    with open(path, "w") as fh:
        fh.write(f"{lat.n}\n")
        for row in lat.basis:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_basis(path: str, label: str = "") -> Lattice:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"empty basis file: {path}")
    try:
        n = int(lines[0])
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ConfigError(f"malformed basis file {path}: {exc}") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ConfigError(f"basis file {path} does not hold {n} rows of {n} entries")
    return make_lattice(np.array(rows), label=label or path)
