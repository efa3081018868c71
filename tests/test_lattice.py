"""Lattice construction, exact CVP, ball enumeration, basis files."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from lgc.errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    NotSquare,
    SingularBasis,
    UnknownName,
)
from lgc.analytics import _ball_d2, flatness
from lgc.construction_a import ensemble_search, lift, random_code
import lgc
import lgc.lattice as lattice_mod
from lgc.lattice import (
    Lattice,
    _ball_search,
    _enum_nearest,
    _walk,
    closest_point,
    closest_points_batch,
    enumerate_ball,
    load_basis,
    make_lattice,
    standard_lattice,
)
from lgc.rng import RngSeed


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_lattice_basic():
    lat = make_lattice(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert lat.n == 2
    assert abs(lat.volume - 2.0) < 1e-12
    assert lat.label == "custom"


def test_make_lattice_rejects_bad_shapes():
    with pytest.raises(NotSquare):
        make_lattice(np.ones((2, 3)))
    with pytest.raises(SingularBasis):
        make_lattice(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularBasis):
        make_lattice(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_standard_lattices_volumes_and_minima():
    z8 = standard_lattice("Zn", 8)
    assert abs(z8.volume - 1.0) < 1e-12 and z8.lambda1_lb() == 1.0
    d4 = standard_lattice("Dn", 4)
    assert abs(d4.volume - 2.0) < 1e-12
    assert abs(d4.lambda1_lb() - math.sqrt(2)) < 1e-12
    e8 = standard_lattice("E8")
    assert abs(e8.volume - 1.0) < 1e-12
    assert abs(e8.lambda1_lb() - math.sqrt(2)) < 1e-12
    a2 = standard_lattice("A2")
    assert abs(a2.volume - math.sqrt(3) / 2) < 1e-12
    with pytest.raises(UnknownName):
        standard_lattice("Leech")
    with pytest.raises(ConfigError):
        standard_lattice("Zn")


def test_lattice_takes_only_its_fields():
    # the derived geometry is cached on first read, never passed in
    assert [f.name for f in dataclasses.fields(Lattice) if f.init] == [
        "basis", "label", "structure", "lambda1"]


def test_scale_and_dual():
    e8 = standard_lattice("E8")
    s = e8.scale(2.5)
    assert abs(s.volume - 2.5 ** 8) < 1e-6
    assert abs(s.lambda1_lb() - 2.5 * math.sqrt(2)) < 1e-12
    with pytest.raises(SingularBasis):
        e8.scale(0.0)
    # E8 is self-dual: dual volume 1 and same kissing count at radius sqrt(2)
    dual = e8.dual
    assert abs(dual.volume - 1.0) < 1e-9
    _, d2 = enumerate_ball(dual, np.zeros(8), 1.5)
    assert int(np.sum(np.abs(d2 - 2.0) < 1e-9)) == 240


def test_lambda1_lb_does_not_depend_on_call_history():
    """An untagged lattice's bound is its sigma_min, read and not stored:
    a scaled copy computes its own, whatever ran on the original first."""
    b = np.array([[1.0, 0.3, 0.1], [0.0, 1.1, 0.45], [0.0, 0.0, 0.9]])
    warm = make_lattice(b)
    flatness(warm, 0.5)
    assert warm.lambda1 is None
    cold = make_lattice(b)
    for a in np.linspace(0.3, 3.0, 200):
        assert warm.scale(a).lambda1_lb() == cold.scale(a).lambda1_lb()
    assert repr(flatness(warm.scale(2.56), 1.28)) \
        == repr(flatness(make_lattice(b).scale(2.56), 1.28))


def test_kissing_numbers():
    for name, n, kiss in (("E8", None, 240), ("Dn", 4, 24), ("A2", None, 6)):
        lat = standard_lattice(name, n)
        _, d2 = enumerate_ball(lat, np.zeros(lat.n), lat.lambda1_lb() + 1e-9)
        shell = np.sum(np.abs(d2 - lat.lambda1_lb() ** 2) < 1e-9)
        assert shell == kiss


# ---------------------------------------------------------------------------
# closest point: oracles
# ---------------------------------------------------------------------------


def _brute_cvp(lat, y, reach=5):
    """Exhaustive CVP over a coefficient box centered on the rounded preimage."""
    n = lat.n
    u0 = np.rint(lat.inv @ y).astype(np.int64)
    rng = [np.arange(c - reach, c + reach + 1) for c in u0]
    grids = np.meshgrid(*rng, indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=1)
    pts = U @ lat.basis.T
    d2 = np.einsum("ij,ij->i", pts - y, pts - y)
    return float(d2.min())


def test_cvp_matches_bruteforce_random_bases():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        b = rng.normal(size=(3, 3))
        while abs(np.linalg.det(b)) < 0.3:
            b = rng.normal(size=(3, 3))
        lat = make_lattice(b)
        y = 4.0 * rng.normal(size=3)
        d = np.linalg.norm(lat.basis @ closest_point(lat, y) - y)
        assert abs(d * d - _brute_cvp(lat, y)) < 1e-9


@pytest.mark.parametrize("name,n", [("Zn", 4), ("Dn", 4), ("E8", None)])
def test_cvp_matches_ball_argmin(name, n):
    lat = standard_lattice(name, n)
    rng = np.random.default_rng(7)
    ys = 2.0 * rng.normal(size=(1000, lat.n))
    dec = closest_points_batch(lat, ys)
    for i in range(0, 1000, 97):
        u, d2 = enumerate_ball(lat, ys[i], 4.0)
        j = int(np.argmin(d2))
        diff = dec[i] @ lat.basis.T - ys[i]
        assert abs(float(diff @ diff) - float(d2[j])) < 1e-9


def test_batch_matches_single():
    e8 = standard_lattice("E8")
    rng = np.random.default_rng(11)
    ys = 3.0 * rng.normal(size=(500, 8))
    dec = closest_points_batch(e8, ys)
    for i in range(0, 500, 41):
        assert np.array_equal(dec[i], closest_point(e8, ys[i]))


@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_closest_point_returns_the_batch_row(fresh_lattice, name):
    lat = fresh_lattice(name)
    rng = np.random.default_rng(26)
    for y in 2.0 * lat.volume ** (1.0 / lat.n) * rng.normal(size=(20, lat.n)):
        u = closest_point(lat, y)
        assert u.dtype == np.int64 and u.shape == (lat.n,)
        assert np.array_equal(u, closest_points_batch(lat, y[None])[0])


def _face_rows(lat, holes, rng, k):
    """k points near Voronoi faces: midpoints to minimal-vector neighbours
    and the given holes, moved by 0 (the first tenth) up to 1e-4."""
    u, _ = enumerate_ball(lat, np.zeros(lat.n), lat.lambda1_lb() * (1 + 1e-9))
    mids = 0.5 * (u[np.any(u != 0, axis=1)] @ lat.basis.T)
    offsets = np.concatenate([mids, holes])
    base = rng.integers(-3, 4, size=(k, lat.n)) @ lat.basis.T
    ys = base + offsets[rng.integers(len(offsets), size=k)]
    size = 10.0 ** rng.uniform(-16.0, -4.0, size=(k, 1))
    size[: k // 10] = 0.0
    return ys + size * rng.normal(size=(k, lat.n)), k // 10


def _watch_fallback(monkeypatch, frame=None):
    """Row counts of the batch decoder's _ball_nearest passes (only those
    in frame's own basis, when given); the per-row searches must not run."""
    rows = []
    ball_nearest = lattice_mod._ball_nearest

    def counting(lat, ys, *args):
        if frame is None or lat is frame:
            rows.append(len(ys))
        return ball_nearest(lat, ys, *args)

    def per_row(*args, **kwargs):
        raise AssertionError("the batch decoder called a per-row search")

    monkeypatch.setattr(lattice_mod, "_ball_nearest", counting)
    monkeypatch.setattr(lattice_mod, "closest_point", per_row)
    monkeypatch.setattr(lattice_mod, "_enum_nearest", per_row)
    return rows


_HALF8 = [0.5] * 8
_E1 = [1.0] + [0.0] * 7
_DIAG4 = [0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("scale", [1.0, 1.37])
@pytest.mark.parametrize("name,n,holes", [
    pytest.param("Zn", 8, [_HALF8], id="Z8"),
    pytest.param("Dn", 4, [_HALF8[:4], _E1[:4]], id="D4"),
    pytest.param("Dn", 8, [_HALF8, _E1], id="D8"),
    pytest.param("E8", None, [_E1], id="E8"),
    # unequal steps: each axis keeps its own margin; holes at half-steps
    pytest.param("diag", None, [[0.5 * v for v in _DIAG4]], id="diag"),
])
def test_batch_matches_enum_nearest(name, n, holes, scale, monkeypatch):
    """Structured decoding equals the exact search's first tie on every row."""
    if name == "diag":
        lat = make_lattice(np.diag(_DIAG4), label="diag")
    else:
        lat = standard_lattice(name, n)
    if scale != 1.0:
        lat = lat.scale(scale)
    rng = np.random.default_rng(1302)
    m = 100_000
    faces, exact = _face_rows(lat, scale * np.array(holes), rng, m // 5)
    spread = 3.0 * scale * rng.normal(size=(m - len(faces), lat.n))
    ys = np.concatenate([faces, spread])
    _, ok = lat.structure.decode_batch(ys)
    assert not ok[:exact].any()  # exact ties must take the fallback

    searched = _watch_fallback(monkeypatch)
    got = closest_points_batch(lat, ys)
    monkeypatch.undo()
    assert searched == [int(np.sum(~ok))]  # one pass over every refused row

    q, _ = lat.qr
    diag, cols = lat._dfs_tabs
    mismatches = sum(
        _enum_nearest(diag, cols, t)[0][0][0] != tuple(g)
        for t, g in zip((ys @ q).tolist(), got.tolist()))
    assert mismatches == 0


@pytest.mark.parametrize("name,n,y", [
    ("Zn", 2, [0.5, 0.5]),
    ("Zn", 2, [-0.5, 1.5]),
    ("Dn", 4, [1.0, 0.0, 0.0, 0.0]),
])
def test_batch_exact_ties_take_fallback(name, n, y):
    lat = standard_lattice(name, n)
    y = np.array(y)
    _, ok = lat.structure.decode_batch(y[None, :])
    assert not ok[0]
    got = closest_points_batch(lat, y[None, :])[0]
    u, d2 = enumerate_ball(lat, y, 1.0 + 1e-9)
    nearest = sorted(tuple(v) for v in u[d2 <= d2.min() + 1e-9].tolist())
    assert len(nearest) > 1
    assert tuple(got) == nearest[0]
    assert np.array_equal(got, closest_point(lat, y))


def _skewed6():
    """A random 6-D basis multiplied by a random unimodular matrix."""
    rng = np.random.default_rng(606)
    g = rng.normal(size=(6, 6))
    u = np.eye(6, dtype=np.int64)
    for _ in range(24):
        i, j = rng.choice(6, 2, replace=False)
        u[:, i] += rng.integers(-2, 3) * u[:, j]
    return make_lattice(g @ u, label="skew6")


_SQRT3 = math.sqrt(3.0)
_UNTAGGED = {
    # the benchmark's lift: sample 0 of the p=7, n=8, k=4 ensemble at gsnr 0.7
    "lift-7-8-4": (lambda: lift(random_code(7, 8, 4, RngSeed(2025, 0)),
                                math.sqrt(0.7 * 2.0 * math.pi / 7.0)), []),
    "lift-11-6-3": (lambda: lift(random_code(11, 6, 3, RngSeed(77, 0)), 0.5),
                    []),
    # A2's deep holes are equidistant from three lattice points
    "A2": (lambda: standard_lattice("A2"),
           [[0.5, _SQRT3 / 6.0], [1.0, _SQRT3 / 3.0]]),
    "skew6": (_skewed6, []),
}


def _minimal_vectors(lat):
    red, _ = lat.reduced
    reach = float(np.min(np.linalg.norm(red.basis, axis=0)))
    u, d2 = enumerate_ball(lat, np.zeros(lat.n), reach * (1 + 1e-9))
    nonzero = d2 > 0
    u, d2 = u[nonzero], d2[nonzero]
    return u[d2 <= d2.min() * (1 + 1e-9)] @ lat.basis.T, math.sqrt(d2.min())


@pytest.mark.parametrize("name", list(_UNTAGGED))
def test_reduced_basis_is_lll_and_certified(name):
    build, _ = _UNTAGGED[name]
    lat = build()
    red, t = lat.reduced
    assert lat.reduced[0] is red
    assert t.dtype == np.int64 and round(abs(np.linalg.det(t))) == 1
    assert np.array_equal(red.basis, lat.basis @ t)
    _, r = red.qr
    n = lat.n
    for k in range(1, n):
        mu = r[:k, k] / np.diag(r)[:k]
        assert np.all(np.abs(mu) <= 0.5 + 1e-9)
        lovasz = (0.99 - mu[k - 1] ** 2) * r[k - 1, k - 1] ** 2
        assert r[k, k] ** 2 >= lovasz * (1 - 1e-9)
    _, lam = _minimal_vectors(build())
    assert red.lambda1 <= lam * (1 + 1e-12)
    assert red.lambda1 >= build().lambda1_lb()


@pytest.mark.parametrize("name", list(_UNTAGGED))
def test_untagged_batch_matches_closest_point(name, monkeypatch):
    """Reduced-basis decoding equals closest_point row by row, ties included,
    and leaves the lattice's own lambda1 and flatness untouched."""
    build, holes = _UNTAGGED[name]
    lat = build()
    lam_before = lat.lambda1
    rng = np.random.default_rng(2718)
    mins, _ = _minimal_vectors(build())
    offsets = np.concatenate([0.5 * mins, np.array(holes).reshape(-1, lat.n)])
    k = 2000
    base = rng.integers(-3, 4, size=(k, lat.n)) @ lat.basis.T
    size = 10.0 ** rng.uniform(-16.0, -4.0, size=(k, 1))
    size[: k // 4] = 0.0  # exact ties
    faces = (base + offsets[rng.integers(len(offsets), size=k)]
             + size * rng.normal(size=(k, lat.n)))
    spread = 3.0 * lat.volume ** (1.0 / lat.n) * rng.normal(size=(10_000, lat.n))
    ys = np.concatenate([faces, spread])

    tie_pass = _watch_fallback(monkeypatch, lat)
    got = closest_points_batch(lat, ys)
    monkeypatch.undo()
    want = np.array([closest_point(lat, y) for y in ys])
    assert np.array_equal(got, want)
    assert sum(tie_pass) > 0  # the exact ties took the caller's-basis pass
    assert lat.lambda1 == lam_before

    sigma = math.sqrt(lat.volume ** (2.0 / lat.n) / (2.0 * math.pi * 0.7))
    decoded = flatness(lat, sigma)
    cold = flatness(build(), sigma)
    assert repr(decoded) == repr(cold)
    assert lat.lambda1_lb() == build().lambda1_lb()


@pytest.mark.parametrize("lo,hi", [(3.0, 4.0), (5.5, 6.0)],
                         ids=["1e3-1e4", "1e5.5-1e6"])
def test_far_ties_take_the_guard_band(lo, hi, monkeypatch):
    """Exact ties far from the origin on a skewed A2 basis: the two points
    are equidistant, but the rounding of the reduced and the caller's
    frames differs by more than closest_point's tie band, so the second
    point often falls just outside the ball through the Babai point.  Only
    the guard band in the reduced pass's search radius keeps it, and sends
    the row to the caller's-basis pass that breaks the tie as closest_point
    does; that pass in turn needs _ball_search's edge margin to grow with
    the coordinates, or it loses points on its ball's edge.  The band grows
    like |y|, as the rounding does, so no ball holds more than the four
    points nearest a midpoint of a minimal vector, up to |y| = 1e6."""
    a2 = standard_lattice("A2")
    lat = make_lattice(a2.basis @ np.array([[2, 5], [1, 3]]), label="skewA2")
    assert not np.array_equal(lat.reduced[1], np.eye(2))
    mins = np.array([[1.0, 0.0], [0.5, _SQRT3 / 2.0], [-0.5, _SQRT3 / 2.0]])
    rng = np.random.default_rng(5)
    k = 1500
    mag = 10.0 ** rng.uniform(lo, hi, size=(k, 1))
    base = np.rint(mag * rng.normal(size=(k, 2))) @ a2.basis.T
    ys = base + 0.5 * mins[rng.integers(3, size=k)]
    tie_pass = _watch_fallback(monkeypatch, lat)
    per_row = []
    ball_search = lattice_mod._ball_search

    def counting(r, tmat, *args, **kwargs):
        out = ball_search(r, tmat, *args, **kwargs)
        per_row.append(np.bincount(out[0], minlength=len(tmat)).max())
        return out

    monkeypatch.setattr(lattice_mod, "_ball_search", counting)
    got = closest_points_batch(lat, ys)
    monkeypatch.undo()
    want = np.array([closest_point(lat, y) for y in ys])
    assert np.array_equal(got, want)
    assert sum(tie_pass) > k // 2
    assert max(per_row) <= 4


def _skew4():
    """Z4 on the basis I + 3S, S the upper shift matrix."""
    return make_lattice(np.eye(4) + 3.0 * np.eye(4, k=1), label="skew4")


_WALKED = {
    "lift": lambda: lift(random_code(7, 8, 4, RngSeed(2025, 0)), 0.6),
    "skew4": _skew4,
}


@pytest.mark.parametrize("name", list(_WALKED))
def test_walk_rounds_each_level_as_nearest_plane(name):
    """_walk without points gives the coefficients of a per-row
    nearest-plane loop, and its d2 has the bits of the walk that measures
    those points."""
    lat = _WALKED[name]()
    q, r = lat.qr
    rng = np.random.default_rng(8)
    tmat = (5.0 * rng.normal(size=(300, lat.n))) @ lat.basis.T @ q
    u, d2 = _walk(r, tmat)
    want = np.empty_like(u)
    for i, t in enumerate(tmat):
        s = t.copy()
        for k in range(lat.n - 1, -1, -1):
            want[i, k] = math.floor(s[k] / r[k, k] + 0.5)
            s[:k] -= want[i, k] * r[:k, k]
    assert u.dtype == np.int64 and np.array_equal(u, want)
    measured_u, measured = _walk(r, tmat, u)
    assert measured_u is u and measured.tobytes() == d2.tobytes()


@pytest.mark.parametrize("name", list(_WALKED))
def test_batch_matches_closest_point_at_the_certificate_edge(name):
    """Rows at half the reduced basis's certified minimum distance from
    lattice points, times 1 +- 1e-10 and 1 +- 1e-15, and the same at the
    certificate's 1e-9 margin inside it: whichever side of the certificate
    the rounding puts a row, its answer is closest_point's."""
    lat = _WALKED[name]()
    half = 0.5 * lat.reduced[0].lambda1_lb()
    edges = np.outer([1.0, math.sqrt(1.0 - 1e-9)],
                     [1 - 1e-10, 1 + 1e-10, 1 - 1e-15, 1 + 1e-15]).ravel()
    rng = np.random.default_rng(1710)
    k = 400
    v = rng.normal(size=(k, lat.n))
    v *= (half * edges[np.arange(k) % edges.size]
          / np.linalg.norm(v, axis=1))[:, None]
    ys = rng.integers(-3, 4, size=(k, lat.n)) @ lat.basis.T + v
    want = np.array([closest_point(lat, y) for y in ys])
    assert np.array_equal(closest_points_batch(lat, ys), want)


@pytest.mark.parametrize("mag", [1e4, 1e5, 1e6], ids=["1e4", "1e5", "1e6"])
@pytest.mark.parametrize("name", ["E8", "D4", "diag"])
def test_structured_guard_accepts_far_rows(name, mag):
    """Rows near lattice points with coefficients up to mag: the structured
    decoder's guard grows like |y|, as its rounding does, so it refuses
    only the rows whose margin is inside that band, a small share even at
    |y| ~ 1e6; every row still equals closest_point."""
    lat = {"E8": standard_lattice("E8"), "D4": standard_lattice("Dn", 4),
           "diag": make_lattice(np.diag(_DIAG4))}[name]
    rng = np.random.default_rng(7)
    m = 4096
    u = rng.integers(-int(mag), int(mag) + 1, size=(m, lat.n))
    ys = u @ lat.basis.T + 0.3 * rng.normal(size=(m, lat.n))
    _, ok = lat.structure.decode_batch(ys)
    assert np.count_nonzero(~ok) <= m // 40
    want = np.array([closest_point(lat, y) for y in ys])
    assert np.array_equal(closest_points_batch(lat, ys), want)


def test_batch_matches_closest_point_on_benchmark_lattice():
    """The Poltyrev arm's traffic: the best lift of the p=7, n=8, k=4
    ensemble at gsnr 0.7 (ensemble seed 2025), Gaussian noise at VNR 2.2."""
    p, n, k = 7, 8, 4
    scale = math.sqrt(0.7 * 2.0 * math.pi / p ** (2.0 * (n - k) / n))
    lat = ensemble_search(p, n, k, scale, 1.0, 4, RngSeed(2025, 0))[0].lattice
    assert lat.structure is None
    noise = math.sqrt(lat.volume ** (2.0 / n) / (2.0 * math.pi * math.e * 2.2))
    ys = noise * np.random.default_rng(22).normal(size=(3000, n))
    got = closest_points_batch(lat, ys)
    want = np.array([closest_point(lat, y) for y in ys])
    assert np.array_equal(got, want)
    assert np.any(got != 0)  # some rows decode to another point than 0


def test_cvp_tie_lexicographic():
    z1 = standard_lattice("Zn", 1)
    u = closest_point(z1, np.array([0.5]))
    assert u[0] == 0  # tie between 0 and 1 breaks to the smaller


def test_cvp_validations(monkeypatch):
    z2 = standard_lattice("Zn", 2)
    with pytest.raises(DimensionMismatch):
        closest_point(z2, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        closest_point(z2, np.array([np.inf, 0.0]))
    for lat in (z2, make_lattice([[2.0, 1.0], [0.0, 1.0]])):
        for bad in (np.nan, np.inf):
            with pytest.raises(DimensionMismatch, match="finite"):
                closest_points_batch(lat, np.array([[0.3, 0.1], [bad, 0.0]]))
    monkeypatch.setattr(lattice_mod, "NODE_CAP", 3)
    with pytest.raises(BudgetExceeded):
        closest_point(standard_lattice("E8"), np.full(8, 0.37))


# ---------------------------------------------------------------------------
# coset ops, membership, mod
# ---------------------------------------------------------------------------


def test_coset_point_and_mod():
    d4 = standard_lattice("Dn", 4)
    c = np.array([0.2, -0.3, 0.1, 0.4])
    y = np.array([1.9, 0.1, -2.2, 0.6])
    # the nearest point of L - c to y is B u - c, u nearest to y + c
    x = d4.basis @ closest_point(d4, y + c) - c
    # each residual lies in the Voronoi cell: zero is its nearest point
    for r in (y - x, y - d4.basis @ closest_point(d4, y)):
        assert np.all(closest_point(d4, r) == 0)


# ---------------------------------------------------------------------------
# ball enumeration
# ---------------------------------------------------------------------------


def test_enumerate_ball_counts_z2():
    z2 = standard_lattice("Zn", 2)
    u, d2 = enumerate_ball(z2, np.zeros(2), 2.0)
    # |{v in Z^2 : |v| <= 2}| = 13
    assert u.shape[0] == 13
    assert np.all(d2 <= 4.0 + 1e-9)


def test_enumerate_ball_offcenter_and_empty():
    a2 = standard_lattice("A2")
    u, d2 = enumerate_ball(a2, np.array([0.13, 0.21]), 1.2)
    pts = u @ a2.basis.T
    ref = np.einsum("ij,ij->i", pts - [0.13, 0.21], pts - [0.13, 0.21])
    assert np.allclose(np.sort(ref), np.sort(d2))
    u, d2 = enumerate_ball(a2, np.zeros(2), -1.0)
    assert u.shape[0] == 0


def test_budgets_are_module_constants():
    # the search budgets are lattice.NODE_CAP and lattice.POINT_CAP (tests
    # override them with monkeypatch), and the code draws are capped by
    # construction_a.MAX_CODE_ATTEMPTS, never a parameter
    for name in dir(lgc):
        obj = getattr(lgc, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert not {"point_cap", "node_cap", "primal_pref",
                    "max_attempts"} & set(params), name


def test_enumerate_ball_budget(monkeypatch):
    z8 = standard_lattice("Zn", 8)
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 1000)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(z8, np.zeros(8), 14.0)


def test_ball_search_work_budget(monkeypatch):
    """25 * POINT_CAP bounds the prefix coordinates summed over a search's
    levels.  The unit ball of Z^60 keeps 1 + 2 (60 - k) prefixes of k
    floats at level k: 1,830 coordinates at most, 73,750 in all.  A cap of
    2,950 admits every level and the sum; 2,949 only every level.  The
    half ball counts its full ball's prefixes, so it stops at the same
    cap."""
    z60 = standard_lattice("Zn", 60)  # built before the cap drops under n*n
    zero = np.zeros(60)
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 2950)
    assert enumerate_ball(z60, zero, 1.01)[0].shape == (121, 60)
    assert _ball_d2(z60, zero, 1.01).size == 121
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 2949)
    for ball in (enumerate_ball, _ball_d2):
        with pytest.raises(BudgetExceeded, match="over its levels"):
            ball(z60, zero, 1.01)


def test_enumerate_ball_boundary_inclusive():
    z2 = standard_lattice("Zn", 2)
    u, d2 = enumerate_ball(z2, np.zeros(2), 1.0)
    # the four unit vectors on the boundary are included
    assert u.shape[0] == 5


@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_enumerate_ball_d2_only_matches_coeff_mode(fresh_lattice, name,
                                                   monkeypatch):
    lat = fresh_lattice(name)
    center = np.random.default_rng(11).uniform(-1.0, 1.0, lat.n) @ lat.basis.T
    for radius in (-1.0, 1e-3, 1.7, 3.1):
        u, d2 = enumerate_ball(lat, center, radius)
        none, d2_only = enumerate_ball(lat, center, radius, coeffs=False)
        assert none is None
        assert d2_only.dtype == d2.dtype
        assert d2_only.tobytes() == d2.tobytes()
    assert u.shape[0] > 20
    # smallest cap the coefficient mode accepts; d2-only mode has the same
    lo, hi = 0, u.shape[0] * 1000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr(lattice_mod, "POINT_CAP", mid)
        try:
            enumerate_ball(lat, center, radius)
            hi = mid
        except BudgetExceeded:
            lo = mid
    monkeypatch.setattr(lattice_mod, "POINT_CAP", lo)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(lat, center, radius, coeffs=False)
    monkeypatch.setattr(lattice_mod, "POINT_CAP", hi)
    _, d2_only = enumerate_ball(lat, center, radius, coeffs=False)
    assert d2_only.tobytes() == d2.tobytes()


@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_ball_search_matches_enumerate_ball_per_center(fresh_lattice, name):
    lat = fresh_lattice(name)
    q, r = lat.qr
    rng = np.random.default_rng(23)
    centers = rng.uniform(-2.0, 2.0, (7, lat.n)) @ lat.basis.T
    # a deep-hole center with a ball too small to hold any point
    centers[3] = 0.5 * lat.basis.sum(axis=1)
    radii = np.array([1.7, 0.0, 2.3, 1e-3, 1.1, 2.0, 0.6])
    tmat = np.stack([center @ q for center in centers])
    for coeffs in (True, False):
        root, u, d2 = _ball_search(r, tmat, radii * radii, coeffs=coeffs)
        assert np.all(np.diff(root) >= 0)
        for i, (center, radius) in enumerate(zip(centers, radii)):
            want_u, want_d2 = enumerate_ball(lat, center, radius, coeffs=coeffs)
            mine = root == i
            assert d2[mine].tobytes() == want_d2.tobytes()
            if coeffs:
                assert u.dtype == want_u.dtype == np.int64
                assert u[mine].tobytes() == want_u.tobytes()
            else:
                assert u is None and want_u is None
    assert np.count_nonzero(root == 3) == 0
    assert root.size > 30
    one, _, _ = _ball_search(r, tmat[:1], radii[:1] ** 2)
    assert one.size > 1 and one.strides == (0,)  # one center: no root array


def _search_bytes(out):
    """(root, U, d2) of _ball_search as comparable bytes."""
    root, u, d2 = out
    if isinstance(u, lattice_mod.PackedRows):
        u = (u.key.tobytes(), u.bits, u.lows)
    elif u is not None:
        u = (u.dtype.str, u.shape, u.tobytes())
    return np.asarray(root).tobytes(), u, d2.tobytes()


def _search_calls(lat):
    """(r, calls) for _ball_search on lat, calls being (args, kwargs) in
    every output mode: one center with coefficients, packed or d2 only,
    the half ball, and many centers.  The first radius sets the top
    level's range half a step inside the ball's edge."""
    q, r = lat.qr
    unit = lat.volume ** (1.0 / lat.n)
    rng = np.random.default_rng(41)
    centers = np.concatenate([np.zeros((1, lat.n)),
                              rng.uniform(-2.0, 2.0, (4, lat.n)) @ lat.basis.T])
    top = abs(r[-1, -1])
    radii = np.array([(math.ceil(1.2 * unit / top) + 0.5) * top, 1.1 * unit,
                      0.7 * unit, 1.3 * unit, 0.2 * unit])
    tmat = centers @ q
    rad2 = radii * radii
    calls = [((tmat[:1], rad2[:1]), {"coeffs": True}),
             ((tmat[:1], rad2[:1]), {"coeffs": True, "packed": True}),
             ((tmat[:1], rad2[:1]), {"coeffs": False}),
             ((tmat[:1], rad2[:1]), {"coeffs": False, "half": True}),
             ((tmat, rad2), {"coeffs": True}),
             ((tmat, rad2), {"coeffs": False})]
    return r, calls


@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_ball_search_masked_and_unmasked_levels_agree(fresh_lattice, name):
    """A wide edge margin puts candidates outside the ball into the level
    masks: at the top level for certain, since the first radius sets that
    level's range half a step inside the ball's edge.  A narrow one leaves
    most levels with no candidate to drop, and their masks are skipped.
    Both give the same points, coefficients and d2, in every output mode:
    one center with coefficients, packed or d2 only, the half ball, and
    many centers."""
    r, calls = _search_calls(fresh_lattice(name))
    for (t, r2), kw in calls:
        narrow = _ball_search(r, t, r2, slop=1e-12, **kw)
        wide = _ball_search(r, t, r2, slop=0.7, **kw)
        assert narrow[2].size > 1
        assert _search_bytes(wide) == _search_bytes(narrow)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_ball_search_blocks_change_no_output(fresh_lattice, monkeypatch, name,
                                            chunk):
    """_LEVEL_CHUNK sets only how each level is cut into blocks: at 1 and
    7 the levels run in many blocks of whole prefixes, with candidates
    masked (the wide margin) and prefixes with no candidate inside them,
    and every output mode keeps the bytes of the default's one-block
    levels."""
    lat = fresh_lattice(name)
    r, calls = _search_calls(lat)
    for slop in (1e-12, 0.7):
        want = [_search_bytes(_ball_search(r, t, r2, slop=slop, **kw))
                for (t, r2), kw in calls]
        with monkeypatch.context() as patch:
            patch.setattr(lattice_mod, "_LEVEL_CHUNK", chunk)
            got = [_search_bytes(_ball_search(r, t, r2, slop=slop, **kw))
                   for (t, r2), kw in calls]
        assert got == want


def _box_ball(lat, tmat, rad2):
    """(root, U, d2) of every lattice point in each ball, by brute force.

    tmat holds the centers in the QR frame, as _ball_search takes them.
    Scans a coefficient box that holds the ball around each center; d2 and
    membership (d2 <= rad2 * (1 + 1e-12) + 1e-12) are computed in
    _ball_search's own arithmetic (_walk), so points on a ball's edge
    count the same way.  Points come grouped by center, each group sorted
    by (u_{n-1}, ..., u_0).
    """
    _, r = lat.qr
    stretch = np.linalg.norm(lat.inv, 2)  # |u - inv(B) c| <= radius*stretch
    out = []
    for i, (t, r2) in enumerate(zip(tmat, rad2)):
        mid = np.rint(np.linalg.solve(r, t)).astype(np.int64)
        h = int(math.ceil(math.sqrt(r2) * stretch)) + 2
        u = np.stack(np.meshgrid(*[np.arange(v - h, v + h + 1) for v in mid],
                                 indexing="ij"), axis=-1).reshape(-1, lat.n)
        _, d2 = _walk(r, np.tile(t, (u.shape[0], 1)), u)
        keep = d2 <= r2 * (1.0 + 1e-12) + 1e-12
        u, d2 = u[keep], d2[keep]
        order = np.lexsort(u.T)
        out.append((np.full(order.size, i), u[order], d2[order]))
    return [np.concatenate(parts) for parts in zip(*out)]


def _skew_a2():
    """A2 on the basis A2 @ [[2, 5], [1, 3]], far from LLL-reduced."""
    a2 = standard_lattice("A2")
    return make_lattice(a2.basis @ np.array([[2, 5], [1, 3]]), label="skewA2")


@pytest.mark.parametrize("name", ["Z4", "D4", "A2", "skewA2"])
def test_ball_search_order_matches_box(fresh_lattice, name):
    """Points come grouped by center and sorted by (u_{n-1}, ..., u_0)
    within each; _ball_nearest's tie ranking and the sampler's table both
    rely on this order.  Coefficients and d2 match a box scan exactly."""
    lat = _skew_a2() if name == "skewA2" else fresh_lattice(name)
    q, r = lat.qr
    rng = np.random.default_rng(31)
    centers = rng.uniform(-3.0, 3.0, (6, lat.n)) @ lat.basis.T
    centers[2] = 0.0  # balls through lattice points: ties on the edge
    rad2 = np.array([4.5, 0.4, 2.0, 1e-6, 5.0, 1.0])
    tmat = centers @ q
    want = _box_ball(lat, tmat, rad2)
    assert want[0].size > 40
    root, u, d2 = _ball_search(r, tmat, rad2)
    assert np.array_equal(root, want[0])
    assert u.dtype == np.int64 and np.array_equal(u, want[1])
    assert d2.tobytes() == want[2].tobytes()


@pytest.mark.parametrize("name", ["Z4", "D4", "A2", "skewA2"])
def test_ball_search_order_matches_box_in_blocks(fresh_lattice, monkeypatch,
                                                 name):
    """The same order and bytes when every level runs in blocks of about
    7 candidates."""
    monkeypatch.setattr(lattice_mod, "_LEVEL_CHUNK", 7)
    test_ball_search_order_matches_box(fresh_lattice, name)


def test_enumerate_ball_far_center_keeps_edge_points():
    """Far from the origin (|c| about 1e4) on a skewed A2 basis, balls of
    radius 0.5 around midpoints of minimal vectors pass exactly through
    two lattice points.  The rounding of each level's center there exceeds
    a fixed 1e-12 edge margin, which dropped such points; the margin now
    grows with the center (_edge_slop)."""
    a2 = standard_lattice("A2")
    lat = _skew_a2()
    mins = np.array([[1.0, 0.0], [0.5, _SQRT3 / 2.0], [-0.5, _SQRT3 / 2.0]])
    rng = np.random.default_rng(5)
    k = 400
    mag = 10.0 ** rng.uniform(3.8, 4.2, size=(k, 1))
    base = np.rint(mag * rng.normal(size=(k, 2))) @ a2.basis.T
    centers = base + 0.5 * mins[rng.integers(3, size=k)]
    q, _ = lat.qr
    tmat = np.stack([c @ q for c in centers])  # enumerate_ball's own frame
    _, want_u, want_d2 = _box_ball(lat, tmat, np.full(k, 0.25))
    got = [enumerate_ball(lat, c, 0.5) for c in centers]
    assert np.array_equal(np.concatenate([u for u, _ in got]), want_u)
    assert np.concatenate([d2 for _, d2 in got]).tobytes() == want_d2.tobytes()
    assert want_u.shape[0] > k


@pytest.mark.parametrize("far, dtype", [(200, np.int16), (40_000, np.int32),
                                        (3e9, np.int64)])
@pytest.mark.parametrize("name", ["Z4", "D4", "A2", "skewA2"])
def test_ball_search_far_centers_match_box(fresh_lattice, monkeypatch, name,
                                           far, dtype):
    """A level of several blocks stores its coefficients in the narrowest
    integer type that holds its candidates.  Centers whose coefficients
    pass the int8, int16 and int32 limits take the next type, and give the
    box scan's int64 coefficients and d2, unpacked and packed."""
    lat = _skew_a2() if name == "skewA2" else fresh_lattice(name)
    q, r = lat.qr
    rng = np.random.default_rng(37)
    m = far * rng.choice([-1.0, 1.0], (4, lat.n))
    centers = (rng.uniform(-1.0, 1.0, (4, lat.n)) + m) @ lat.basis.T
    rad2 = np.array([4.5, 2.0, 5.0, 1.0])
    tmat = centers @ q
    want = _box_ball(lat, tmat, rad2)
    assert want[0].size > 40
    types = []
    int_type = lattice_mod._int_type
    monkeypatch.setattr(lattice_mod, "_int_type",
                        lambda reach: types.append(int_type(reach)) or types[-1])
    monkeypatch.setattr(lattice_mod, "_LEVEL_CHUNK", 7)
    slop = lattice_mod._edge_slop(lat, tmat, rad2)
    root, u, d2 = _ball_search(r, tmat, rad2, slop=slop)
    assert np.array_equal(root, want[0])
    assert u.dtype == np.int64 and np.array_equal(u, want[1])
    assert d2.tobytes() == want[2].tobytes()
    assert set(types) == {dtype}
    for i in range(4):  # packed, one center at a time
        mine = want[0] == i
        rows, d2 = _ball_search(r, tmat[i:i + 1], rad2[i:i + 1], slop=slop,
                                packed=True)[1:]
        assert isinstance(rows, lattice_mod.PackedRows)
        assert np.array_equal(rows[:], want[1][mine])
        assert d2.tobytes() == want[2][mine].tobytes()


def test_packed_ball_with_an_empty_last_level():
    """Around 1e15 * (1, 1, 1) the ball of radius 0.5 on D3 keeps prefixes
    down to the last level, where every candidate falls outside it: the
    packed search returns no rows, as the unpacked one does."""
    d3 = standard_lattice("Dn", 3)
    center = np.full(3, 1e15)
    for packed in (False, True):
        u, d2 = enumerate_ball(d3, center, 0.5, _packed=packed)
        assert u.shape == (0, 3) and d2.size == 0


def test_ball_ranges_past_int64_are_refused():
    """A level's integer range lies within (|t| + radius + 1e-6) / sigma_min
    of 0 (1e-6 bounds the squared radius's absolute slack), and a search
    whose ranges could pass 2^62 is refused before any int64 cast: on Z at
    step 1e-150 the slack alone reaches 1e144 steps, and on Z itself a
    center at 2^62 does."""
    tiny = standard_lattice("Zn", 1).scale(1e-150)
    with pytest.raises(BudgetExceeded, match=r"past 2\^62"):
        enumerate_ball(tiny, np.zeros(1), 1e-149)
    with pytest.raises(BudgetExceeded, match=r"past 2\^62"):
        enumerate_ball(standard_lattice("Zn", 1), np.array([2.0 ** 62]), 0.5)


# ---------------------------------------------------------------------------
# basis files
# ---------------------------------------------------------------------------


def test_basis_roundtrip(tmp_path):
    e8 = standard_lattice("E8")
    p = tmp_path / "e8.basis"
    p.write_text("8\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n"
                                  for row in e8.basis))
    again = load_basis(str(p))
    assert np.array_equal(again.basis, e8.basis)


def test_load_basis_malformed(tmp_path):
    p = tmp_path / "bad.basis"
    p.write_text("2\n1.0 0.0\n")
    with pytest.raises(ConfigError):
        load_basis(str(p))
    p.write_text("x\n")
    with pytest.raises(ConfigError):
        load_basis(str(p))
