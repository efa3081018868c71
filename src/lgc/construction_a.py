"""Mod-p lattices lifted from linear codes, with ensemble flatness search.

A linear code C over Z_p lifts to the lattice {v in Z^n : v mod p in C},
scaled by a.  Random ensembles of such lattices are how good flatness
factors are shown to exist; here the existential statement becomes an
empirical search ranked against the (1+delta)*gsnr^{n/2} bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, RandomnessExhausted, RankDeficientCode
from .analytics import FlatnessReport, flatness, gsnr
from .lattice import DEFAULT_POINT_CAP, Lattice, make_lattice
from .rng import RngSeed, stream


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _row_reduce_modp(mat: np.ndarray, p: int) -> tuple:
    """(reduced matrix, pivot columns) of a row-reduced echelon form mod p."""
    m = mat.astype(np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for j in range(rows):
            if j != r and m[j, c]:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A k-dimensional linear code of length n over Z_p."""

    p: int
    n: int
    k: int
    generator: np.ndarray

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ConfigError(f"p must be prime, got {self.p}")
        if not (1 <= self.k <= self.n):
            raise ConfigError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        g = np.asarray(self.generator, dtype=np.int64)
        if g.shape != (self.k, self.n):
            raise ConfigError(
                f"generator shape {g.shape} != ({self.k}, {self.n})")
        if np.any(g < 0) or np.any(g >= self.p):
            raise ConfigError("generator entries must lie in [0, p)")
        _, pivots = _row_reduce_modp(g, self.p)
        if len(pivots) != self.k:
            raise RankDeficientCode(
                f"generator has rank {len(pivots)} over Z_{self.p}, need {self.k}")
        object.__setattr__(self, "generator", g)


def lift(code: LinearCode, scale: float) -> Lattice:
    """Basis of the scaled mod-p lattice a*{v in Z^n : v mod p in C}.

    Row-reduces the generator so pivot coordinates carry the code rows and
    every non-pivot coordinate contributes p times a unit vector; the
    resulting triangular-by-permutation basis has |det| = a^n p^{n-k}.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    g, pivots = _row_reduce_modp(code.generator, code.p)
    if len(pivots) != code.k:
        raise RankDeficientCode(
            f"generator has rank {len(pivots)} over Z_{code.p}, need {code.k}")
    n, k, p = code.n, code.k, code.p
    rows = np.zeros((n, n), dtype=np.int64)
    rows[:k] = g
    free = [c for c in range(n) if c not in set(pivots)]
    for i, c in enumerate(free):
        rows[k + i, c] = p
    lat = make_lattice(scale * rows.T.astype(float),
                       label=f"modp-p{p}-n{n}-k{k}")
    want = scale ** n * p ** (n - k)
    if abs(lat.volume - want) > 1e-9 * want:
        raise RankDeficientCode(
            f"lifted volume {lat.volume} != a^n p^(n-k) = {want}")
    return lat


def random_code(p: int, n: int, k: int, seed: RngSeed, lane: int = 0,
                max_attempts: int = 1000) -> LinearCode:
    """Uniform full-rank k x n generator over Z_p, deterministic per seed."""
    if not _is_prime(p):
        raise ConfigError(f"p must be prime, got {p}")
    if not (1 <= k <= n):
        raise ConfigError(f"need 1 <= k <= n, got k={k} n={n}")
    rng = stream(seed, lane)
    for _ in range(max_attempts):
        g = rng.integers(0, p, size=(k, n), dtype=np.int64)
        _, pivots = _row_reduce_modp(g, p)
        if len(pivots) == k:
            return LinearCode(p, n, k, g)
    raise RandomnessExhausted(
        f"no full-rank generator in {max_attempts} attempts")


def theorem1_bound(lat: Lattice, sigma: float, delta: float = 1.0) -> float:
    """(1+delta) * gsnr^{n/2}: the ensemble flatness guarantee level."""
    return (1.0 + delta) * gsnr(lat, sigma) ** (lat.n / 2.0)


class EnsembleEntry(NamedTuple):
    sample_index: int
    code: LinearCode
    lattice: Lattice
    report: FlatnessReport
    bound: float


ENSEMBLE_CSV_HEADER = "sample_index,p,n,k,a,gsnr,epsilon,bound"


def ensemble_search(p: int, n: int, k: int, scale: float, sigma: float,
                    samples: int, seed: RngSeed, delta: float = 1.0,
                    point_cap: int = DEFAULT_POINT_CAP,
                    out_path: str | None = None) -> list:
    """Flatness-ranked random mod-p lattices at a common (a, sigma).

    Sample i draws its code from RNG lane i, so the ensemble is
    reproducible and independent of any sharding.  Entries come back
    sorted ascending by flatness factor; out_path additionally writes
    them as CSV rows in ranked order.
    """
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    entries = []
    for i in range(samples):
        code = random_code(p, n, k, seed, lane=i)
        lat = lift(code, scale)
        rep = flatness(lat, sigma, point_cap)
        entries.append(EnsembleEntry(i, code, lat, rep,
                                     theorem1_bound(lat, sigma, delta)))
    entries.sort(key=lambda e: (e.report.epsilon, e.sample_index))
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(ENSEMBLE_CSV_HEADER + "\n")
            for e in entries:
                fh.write(f"{e.sample_index},{p},{n},{k},{scale!r},"
                         f"{e.report.gsnr!r},{e.report.epsilon!r},"
                         f"{e.bound!r}\n")
    return entries


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_code(code: LinearCode, path: str) -> None:
    """Write "p n k" then the k generator rows."""
    with open(path, "w") as fh:
        fh.write(f"{code.p} {code.n} {code.k}\n")
        for row in code.generator:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def load_code(path: str) -> LinearCode:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ConfigError(f"{path}: empty code file")
    head = raw[0].split()
    if len(head) != 3:
        raise ConfigError(f"{path}: header must be 'p n k'")
    try:
        p, n, k = (int(v) for v in head)
        rows = [[int(v) for v in ln.split()] for ln in raw[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: non-integer entry ({exc})") from exc
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ConfigError(f"{path}: expected {k} rows of {n} entries")
    return LinearCode(p, n, k, np.array(rows, dtype=np.int64))
