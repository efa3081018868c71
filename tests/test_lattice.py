"""Lattice construction, exact CVP, ball enumeration, serialization."""

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
import lgc.lattice as lattice_mod
from lgc.lattice import (
    DEFAULT_NODE_CAP,
    Lattice,
    _enum_nearest,
    closest_point,
    closest_points_batch,
    contains,
    coset_decode,
    enumerate_ball,
    load_basis,
    make_lattice,
    mod_lattice,
    save_basis,
    standard_lattice,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_lattice_basic():
    lat = make_lattice(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert lat.n == 2
    assert abs(lat.volume - 2.0) < 1e-12
    assert lat.label == "custom"
    g = lat.gram
    assert np.allclose(g, lat.basis.T @ lat.basis)


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


def test_scale_and_dual():
    e8 = standard_lattice("E8")
    s = e8.scale(2.5)
    assert abs(s.volume - 2.5 ** 8) < 1e-6
    assert abs(s.lambda1_lb() - 2.5 * math.sqrt(2)) < 1e-12
    with pytest.raises(SingularBasis):
        e8.scale(0.0)
    # E8 is self-dual: dual volume 1 and same kissing count at radius sqrt(2)
    dual = e8.dual()
    assert abs(dual.volume - 1.0) < 1e-9
    _, d2 = enumerate_ball(dual, np.zeros(8), 1.5)
    assert int(np.sum(np.abs(d2 - 2.0) < 1e-9)) == 240


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
    u0 = np.rint(lat.inv() @ y).astype(np.int64)
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
        pt = closest_point(lat, y)
        d = np.linalg.norm(pt.embedding - y)
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
        assert np.array_equal(dec[i], closest_point(e8, ys[i]).coeffs)


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


_HALF8 = [0.5] * 8
_E1 = [1.0] + [0.0] * 7


@pytest.mark.parametrize("scale", [1.0, 1.37])
@pytest.mark.parametrize("name,n,holes", [
    pytest.param("Zn", 8, [_HALF8], id="Z8"),
    pytest.param("Dn", 4, [_HALF8[:4], _E1[:4]], id="D4"),
    pytest.param("Dn", 8, [_HALF8, _E1], id="D8"),
    pytest.param("E8", None, [_E1], id="E8"),
])
def test_batch_matches_enum_nearest(name, n, holes, scale, monkeypatch):
    """Structured decoding equals the exact search's first tie on every row."""
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

    searched = []

    def counting(*args, **kwargs):
        searched.append(1)
        return _enum_nearest(*args, **kwargs)

    monkeypatch.setattr(lattice_mod, "_enum_nearest", counting)
    got = closest_points_batch(lat, ys)
    print(f"{lat.label}: {int(np.sum(~ok))} of {m} rows failed the guard, "
          f"{len(searched)} took the exact search")

    q, _ = lat.qr()
    diag, cols = lat._dfs_tabs()
    mismatches = sum(
        _enum_nearest(diag, cols, t, DEFAULT_NODE_CAP)[0][0][0] != tuple(g)
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
    assert np.array_equal(got, closest_point(lat, y).coeffs)


def test_cvp_tie_lexicographic():
    z1 = standard_lattice("Zn", 1)
    pt = closest_point(z1, np.array([0.5]))
    assert pt.coeffs[0] == 0  # tie between 0 and 1 breaks to the smaller


def test_cvp_validations():
    z2 = standard_lattice("Zn", 2)
    with pytest.raises(DimensionMismatch):
        closest_point(z2, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        closest_point(z2, np.array([np.inf, 0.0]))
    for lat in (z2, make_lattice([[2.0, 1.0], [0.0, 1.0]])):
        for bad in (np.nan, np.inf):
            with pytest.raises(DimensionMismatch, match="finite"):
                closest_points_batch(lat, np.array([[0.3, 0.1], [bad, 0.0]]))
    with pytest.raises(BudgetExceeded):
        closest_point(standard_lattice("E8"), np.full(8, 0.37), node_cap=3)


# ---------------------------------------------------------------------------
# coset ops, membership, mod
# ---------------------------------------------------------------------------


def test_coset_decode_and_mod():
    d4 = standard_lattice("Dn", 4)
    c = np.array([0.2, -0.3, 0.1, 0.4])
    y = np.array([1.9, 0.1, -2.2, 0.6])
    pt = coset_decode(d4, c, y)
    # embedding is the coset point lambda - c for the lattice point lambda
    assert np.allclose(pt.embedding, d4.basis @ pt.coeffs - c)
    r = mod_lattice(d4, y)
    assert contains(d4, y - r, tol=1e-8)
    # residual lies in the Voronoi cell: zero is its nearest lattice point
    assert np.all(closest_point(d4, r).coeffs == 0)


def test_contains():
    e8 = standard_lattice("E8")
    assert contains(e8, np.full(8, 0.5))
    assert contains(e8, np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))
    assert not contains(e8, np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))


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


def test_enumerate_ball_budget():
    z8 = standard_lattice("Zn", 8)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(z8, np.zeros(8), 14.0, point_cap=1000)


def test_enumerate_ball_boundary_inclusive():
    z2 = standard_lattice("Zn", 2)
    u, d2 = enumerate_ball(z2, np.zeros(2), 1.0)
    # the four unit vectors on the boundary are included
    assert u.shape[0] == 5


@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_enumerate_ball_d2_only_matches_coeff_mode(fresh_lattice, name):
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
        try:
            enumerate_ball(lat, center, radius, point_cap=mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    with pytest.raises(BudgetExceeded):
        enumerate_ball(lat, center, radius, point_cap=lo, coeffs=False)
    _, d2_only = enumerate_ball(lat, center, radius, point_cap=hi, coeffs=False)
    assert d2_only.tobytes() == d2.tobytes()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_basis_roundtrip(tmp_path):
    e8 = standard_lattice("E8")
    p = tmp_path / "e8.basis"
    save_basis(e8, str(p))
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
