"""Mod-p lifting, random code ensembles, and the flatness guarantee bound."""

import math

import numpy as np
import pytest

from lgc.analytics import flatness, gsnr
from lgc.construction_a import (
    ENSEMBLE_CSV_HEADER,
    LinearCode,
    ensemble_csv,
    ensemble_search,
    lift,
    random_code,
    theorem1_bound,
)
from lgc.errors import ConfigError, RankDeficientCode
from lgc.lattice import closest_point, standard_lattice
from lgc.rng import RngSeed

Z4 = standard_lattice("Zn", 4)


def _member(lat, x):
    """x is a lattice vector: its rounded coefficients map back to x, up to
    the rounding of scale * k in the basis entries."""
    return np.allclose(lat.basis @ np.rint(lat.inv @ x), x, rtol=0.0,
                       atol=1e-12)


def _sigma_for_gsnr(lat, target):
    """Noise deviation putting gsnr(lat, sigma) at the target value."""
    return math.sqrt(lat.volume ** (2.0 / lat.n) / (2.0 * math.pi * target))


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_checkerboard_lift():
    code = LinearCode(2, 2, 1, np.array([[1, 1]]))
    lat = lift(code, 1.0)
    assert lat.volume == pytest.approx(2.0, rel=1e-12)
    # membership: codeword lifts are in, non-codewords are not
    assert _member(lat, np.array([1.0, 1.0]))
    assert _member(lat, np.array([2.0, 0.0]))
    assert not _member(lat, np.array([1.0, 0.0]))
    gap = lat.basis @ closest_point(lat, np.array([1.0, 0.0])) - [1.0, 0.0]
    assert float(gap @ gap) > 0.5


def test_full_code_is_scaled_integer_lattice():
    g = np.array([[1, 2, 0], [0, 1, 4], [3, 0, 2]])
    code = LinearCode(5, 3, 3, g)
    lat = lift(code, 1.5)
    assert lat.volume == pytest.approx(1.5 ** 3, rel=1e-12)
    assert _member(lat, np.array([1.5, 0.0, 0.0]))
    assert _member(lat, np.array([0.0, -3.0, 1.5]))


def test_volume_law_random_codes():
    for p, n, k in ((3, 3, 1), (5, 4, 2), (7, 6, 3), (2, 5, 4)):
        for scale in (1.0, 0.75):
            code = random_code(p, n, k, RngSeed(100 * p + n, k))
            lat = lift(code, scale)
            assert lat.volume == pytest.approx(scale ** n * p ** (n - k),
                                               rel=1e-9)
            assert lat.label == f"modp-p{p}-n{n}-k{k}"


def test_sublattice_containment():
    code = random_code(5, 4, 2, RngSeed(42, 0))
    scale = 0.8
    lat = lift(code, scale)
    for i in range(4):
        v = np.zeros(4)
        v[i] = 5 * scale
        assert _member(lat, v)
    # every scaled codeword row lies in the lattice
    for row in code.generator:
        assert _member(lat, scale * row.astype(float))


def test_code_validation():
    with pytest.raises(ConfigError):
        LinearCode(4, 2, 1, np.array([[1, 1]]))  # p not prime
    with pytest.raises(ConfigError):
        LinearCode(5, 2, 3, np.array([[1, 1], [0, 1], [1, 0]]))  # k > n
    with pytest.raises(ConfigError):
        LinearCode(5, 3, 1, np.array([[1, 7, 0]]))  # entry out of range
    with pytest.raises(RankDeficientCode):
        LinearCode(5, 3, 2, np.array([[1, 2, 3], [2, 4, 1]]))
    with pytest.raises(ConfigError):
        lift(LinearCode(2, 2, 1, np.array([[1, 1]])), 0.0)


# ---------------------------------------------------------------------------
# random codes
# ---------------------------------------------------------------------------


def test_random_code_determinism():
    a = random_code(7, 5, 3, RngSeed(3, 1))
    b = random_code(7, 5, 3, RngSeed(3, 1))
    assert np.array_equal(a.generator, b.generator)
    c = random_code(7, 5, 3, RngSeed(3, 1), lane=1)
    assert not np.array_equal(a.generator, c.generator)


def test_random_code_full_rank_square():
    for i in range(20):
        code = random_code(3, 4, 4, RngSeed(8, i))
        lat = lift(code, 1.0)
        assert lat.volume == pytest.approx(1.0, rel=1e-9)


def test_random_code_entry_histogram():
    p = 5
    counts = np.zeros(p)
    draws = 10000
    for i in range(draws):
        code = random_code(p, 4, 2, RngSeed(1234, i))
        vals, cnt = np.unique(code.generator, return_counts=True)
        counts[vals] += cnt
    total = counts.sum()
    expected = total / p
    sd = math.sqrt(total * (1 / p) * (1 - 1 / p))
    assert np.all(np.abs(counts - expected) < 3 * sd)


def test_random_code_validation():
    with pytest.raises(ConfigError):
        random_code(6, 4, 2, RngSeed(0, 0))
    with pytest.raises(ConfigError):
        random_code(5, 4, 0, RngSeed(0, 0))


# ---------------------------------------------------------------------------
# the guarantee bound and ensemble search
# ---------------------------------------------------------------------------


def test_theorem1_bound_value():
    sigma = _sigma_for_gsnr(Z4, 0.25)
    assert gsnr(Z4, sigma) == pytest.approx(0.25, rel=1e-12)
    assert theorem1_bound(Z4, sigma, 0.01) == pytest.approx(0.063125,
                                                            rel=1e-12)


def test_theorem1_bound_decays_geometrically():
    vals = []
    for n in (4, 8, 16):
        lat = standard_lattice("Zn", n)
        sigma = _sigma_for_gsnr(lat, 0.5)
        vals.append(theorem1_bound(lat, sigma, 1.0))
    assert vals[0] == pytest.approx(2.0 * 0.5 ** 2, rel=1e-12)
    assert vals[1] == pytest.approx(2.0 * 0.5 ** 4, rel=1e-12)
    assert vals[2] == pytest.approx(2.0 * 0.5 ** 8, rel=1e-12)


def test_ensemble_search_good_gsnr():
    p, n, k = 7, 8, 4
    scale = math.sqrt(0.7 * 2.0 * math.pi / 7.0)
    entries = ensemble_search(p, n, k, scale, 1.0, 12, RngSeed(2025, 0))
    assert len(entries) == 12
    eps = [e.report.epsilon for e in entries]
    assert eps == sorted(eps)
    for e in entries:
        assert e.report.gsnr == pytest.approx(0.7, rel=1e-12)
        assert e.bound == pytest.approx(2.0 * 0.7 ** 4, rel=1e-12)
    # the best draw of a modest ensemble already sits under the guarantee
    assert eps[0] < entries[0].bound
    header, rows = ensemble_csv(entries, scale)
    assert header == ENSEMBLE_CSV_HEADER
    assert len(rows) == 12
    first = rows[0].split(",")
    assert int(first[0]) == entries[0].sample_index
    assert float(first[6]) == eps[0]


def test_ensemble_search_bad_gsnr():
    # past the smoothing point every draw keeps a visible flatness factor
    scale = math.sqrt(1.3 * 2.0 * math.pi / 7.0)
    entries = ensemble_search(7, 8, 4, scale, 1.0, 4, RngSeed(7, 0))
    eps = [e.report.epsilon for e in entries]
    assert eps == sorted(eps)
    assert eps[0] > 0.1
    for e in entries:
        assert e.report.gsnr == pytest.approx(1.3, rel=1e-12)


def test_ensemble_degenerate_full_code():
    # k = n collapses the ensemble onto the scaled integer lattice
    scale = math.sqrt(0.8 * 2.0 * math.pi)
    entries = ensemble_search(5, 4, 4, scale, 1.0, 3, RngSeed(11, 0))
    want = flatness(Z4.scale(scale), 1.0).epsilon
    for e in entries:
        assert e.report.epsilon == pytest.approx(want, rel=1e-9)


def test_ensemble_validation():
    with pytest.raises(ConfigError):
        ensemble_search(7, 8, 4, 1.0, 1.0, 0, RngSeed(0, 0))

