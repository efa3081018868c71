"""Discrete Gaussian sampling: tables, structured backends, tail statistics."""

import csv
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from lgc.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLarge,
    FlatnessTooLarge,
    NonpositiveSigma,
)
from lgc.analytics import _tail_bound
from lgc.lattice import (
    Lattice,
    PackedRows,
    enumerate_ball,
    make_lattice,
    standard_lattice,
)
from lgc.rng import RngSeed, stream
from lgc.scheme import design_volume, make_params
import lgc.lattice as lattice_mod
import lgc.sampler as sampler_mod
from lgc.sampler import (
    DEFICIT_TARGET,
    build_spec,
    sample,
    sample_coeffs,
    sample_csv,
    sphere_tail_bound,
    tail_event_rate,
)

Z1 = standard_lattice("Zn", 1)
Z2 = standard_lattice("Zn", 2)
Z4 = standard_lattice("Zn", 4)
Z8 = standard_lattice("Zn", 8)
D4 = standard_lattice("Dn", 4)
E8 = standard_lattice("E8")
# diagonal bases whose coefficients differ from their coordinates
Z4_17 = Z4.scale(1.7)
DIAG4 = make_lattice(np.diag([0.5, 1.0, 1.5, 2.0]))

# independently computed with a 40-digit series: 1 / theta_Z(1/(2 pi))
P_ZERO_Z1 = 0.398942278266861706
# independently computed exact escape mass for Z, sigma0 = 1, c = 0
TAIL_Z1 = 0.009134342835606503


def axis_spec(lat, sigma0, c):
    """build_spec with a table budget of 1 point, so the axis backend serves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler_mod, "TABLE_CAP", 1)
        return build_spec(lat, sigma0, c)


def _support_pmf(spec):
    """Dense pmf keyed by coefficient tuples (table backend)."""
    return {tuple(u): float(p)
            for u, p in zip(spec.table_coeffs.tolist(), spec.table_probs)}


def _axis_lookup(ks, probs, wanted):
    """Per-axis probabilities for an integer vector of k values."""
    idx = np.searchsorted(ks, wanted)
    ok = (idx < ks.size) & (ks[np.minimum(idx, ks.size - 1)] == wanted)
    out = np.zeros(wanted.shape, dtype=float)
    out[ok] = probs[idx[ok]]
    return out


def _structured_pmf_at(spec, coeffs):
    """Exact structured-backend pmf evaluated at table coefficient rows.

    Identifies each row's coset and per-axis k values from its raw
    coordinates, then applies the even-sum conditional within the coset
    when the layout has the filter.
    """
    ax = spec.lattice.structure
    emb = coeffs @ spec.lattice.basis.T
    out = np.zeros(coeffs.shape[0])
    for t, off in enumerate(ax.offsets):
        k_real = (emb - off) / ax.steps
        k = np.rint(k_real).astype(int)
        sel = np.all(np.abs(k_real - k) < 1e-9, axis=1)
        prod = np.ones(coeffs.shape[0])
        b = 1.0
        for i, (ks, probs, _) in enumerate(spec.axis_tables[t]):
            prod *= _axis_lookup(ks, probs, k[:, i])
            b *= float(np.sum(np.where(ks % 2 == 0, probs, -probs)))
        mass = 1.0
        if ax.even_sum:
            sel &= (k.sum(axis=1) % 2) == 0
            mass = 0.5 * (1.0 + b)
        out[sel] = float(spec.coset_probs[t]) * prod[sel] / mass
    return out


# ---------------------------------------------------------------------------
# table backend
# ---------------------------------------------------------------------------


def test_origin_mass_z1():
    spec = build_spec(Z1, 1.0, np.zeros(1))
    assert spec.backend == "table"
    pmf = _support_pmf(spec)
    assert pmf[(0,)] == pytest.approx(P_ZERO_Z1, rel=1e-12)


def test_deficit_certificate():
    for lat, s in ((Z1, 1.0), (Z2, 1.3), (Z4, 0.9), (D4, 0.9), (E8, 0.45)):
        spec = build_spec(lat, s, np.zeros(lat.n))
        assert 0.0 <= spec.deficit < DEFICIT_TARGET


def test_ratio_law():
    # p(x)/p(y) = exp((|y|^2 - |x|^2) / (2 sigma0^2)) across the support
    spec = build_spec(Z2, 1.1, np.zeros(2))
    emb = spec.table_coeffs @ Z2.basis.T
    norms = np.einsum("ij,ij->i", emb, emb)
    log_ratio = np.log(spec.table_probs) + norms / (2.0 * 1.1 ** 2)
    assert np.max(log_ratio) - np.min(log_ratio) < 1e-10


def test_support_ordering_and_mass():
    spec = build_spec(Z2, 1.0, np.full(2, 0.25))
    rows = [tuple(int(v) for v in r) for r in spec.table_coeffs]
    assert rows == sorted(rows)
    assert spec.table_probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(spec.table_cdf) >= 0)
    assert spec.table_cdf[-1] == 1.0


def _sandwich_e8_case():
    # criterion 4: E8 at the design volume, eps'' = 1, SNR 10, shift 0.25
    params = make_params(math.sqrt(10.0), 1.0)
    vol = design_volume(params.sigma_tilde, 1.0, 8)
    return E8.scale(vol ** 0.125), params.sigma0, np.full(8, 0.25)


_TABLE_CASES = {
    "sandwich_e8": _sandwich_e8_case,
    "D4": lambda: (D4, 1.3, np.array([0.3, -0.2, 0.7, 0.1])),
    "A2": lambda: (standard_lattice("A2"), 2.0, np.array([0.4, -0.35])),
    # Z8 on the basis I + 4 S (S the shift matrix): its short vectors have
    # coefficients up to about 4^7, and the spans take 80 bits together
    "skew8": lambda: (Lattice(np.eye(8) + 4.0 * np.eye(8, k=1), label="skew8",
                              lambda1=1.0), 0.3, np.full(8, 0.1)),
}


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_table_matches_lexsort_reference(case):
    """build_spec's table equals, to the bit, enumerate_ball at the spec's
    radius followed by np.lexsort; the sorted packed keys and their lexsort
    fallback (spans over 63 bits) both run."""
    lat, sigma0, c = _TABLE_CASES[case]()
    spec = build_spec(lat, sigma0, c)
    assert spec.backend == "table"
    radius = spec.truncation_radius
    coeffs, d2 = enumerate_ball(lat, c, radius)
    w = np.exp(-d2 / (2.0 * sigma0 * sigma0))
    z = float(w.sum())
    order = np.lexsort(coeffs.T[::-1])
    probs = w[order] / z
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    tau = 1.0 / (2.0 * math.pi * sigma0 * sigma0)
    deficit = _tail_bound(lat.n, lat.lambda1_lb(), tau, radius) / z
    table = spec.table_coeffs
    assert table.dtype == np.int64 and table.flags["C_CONTIGUOUS"]
    assert table.shape == coeffs.shape
    for k in range(lat.n):  # column by column keeps the copies small
        assert np.array_equal(table[:, k], coeffs[order, k])
    assert spec.table_probs.tobytes() == probs.tobytes()
    assert spec.table_cdf.tobytes() == cdf.tobytes()
    assert spec.deficit == deficit
    # packed keys, except where the spans pass 63 bits (lexsort fallback)
    assert isinstance(spec.table_rows, PackedRows) == (case != "skew8")


class _FixedUniforms:
    """A generator stub whose random() returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        assert count == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("case", ["sandwich_e8", "D4"])
def test_table_draws_match_unsorted_search(case):
    """sample_coeffs looks up its uniforms in sorted order and scatters the
    indices back; every draw gets the row an unsorted right-sided search of
    the CDF gives, also for uniforms exactly on CDF entries, repeated
    uniforms and uniforms past the last entry below 1."""
    lat, sigma0, c = _TABLE_CASES[case]()
    spec = build_spec(lat, sigma0, c)
    cdf = spec.table_cdf
    rng = np.random.default_rng(15)
    on = cdf[rng.integers(0, cdf.size - 1, size=500)]
    u = np.concatenate([
        rng.random(3000), on, on[:50], np.nextafter(on, 0.0), cdf[:3],
        [0.0, cdf[-2], np.nextafter(1.0, 0.0)]])
    rng.shuffle(u)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
    want = spec.table_rows[idx]
    got = sample_coeffs(spec, _FixedUniforms(u), u.size)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert len(set(map(tuple, got))) > 1000


def test_table_build_memory():
    """The criterion-4 build holds sorted packed keys, not the 2.65M x 8
    coefficient table, and under tracemalloc peaks below 1.2 times the
    bytes of its keys, probabilities and cdf and holds below 1.05 times
    them: 1.06 times (64.3 MiB) and 1.00 times (60.8 MiB), and a 1.41 times
    peak with int64 ball-search columns and an argsort order."""
    lat, sigma0, c = _sandwich_e8_case()
    tracemalloc.start()
    try:
        spec = build_spec(lat, sigma0, c)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = (spec.table_rows.key.nbytes + spec.table_probs.nbytes
              + spec.table_cdf.nbytes)
    assert len(spec.table_rows) == 2_654_137
    assert held < 1.05 * nbytes and peak < 1.2 * nbytes


@pytest.mark.parametrize("wide", [False, True], ids=["composite", "argsort"])
@pytest.mark.parametrize("name", ["Z4", "D4", "E8", "A2", "lift"])
def test_sort_table_matches_argsort(fresh_lattice, name, wide):
    """_sort_table's in-place sort of keys that carry their row index gives
    np.argsort's order of enumerate_ball's packed keys, and the weights
    follow.  With column 0's field widened until the keys take 63 bits,
    the composite would pass 63 bits and the keys are argsorted."""
    lat = fresh_lattice(name)
    n = lat.n
    c = np.random.default_rng(17).uniform(-1.0, 1.0, n) @ lat.basis.T
    unit = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    # a ball of about 3,000 points
    rows, d2 = enumerate_ball(lat, c, (3000.0 * lat.volume / unit) ** (1.0 / n),
                              _packed=True)
    assert isinstance(rows, PackedRows) and len(rows) > 1000
    bits = rows.bits
    if wide:
        bits = (bits[0] + 63 - sum(bits),) + bits[1:]
    assert (sum(bits) - bits[-1] + (len(rows) - 1).bit_length() > 63) == wide
    order = np.argsort(rows.key)
    got, w = sampler_mod._sort_table(
        PackedRows(rows.key.copy(), bits, rows.lows), d2)
    assert (got.bits, got.lows) == (bits, rows.lows)
    assert got.key.tobytes() == rows.key[order].tobytes()
    assert w.tobytes() == d2[order].tobytes()


def test_shift_moves_support():
    spec = build_spec(Z1, 1.0, np.array([0.5]))
    pmf = _support_pmf(spec)
    # the two nearest points of Z - 0.5 are symmetric, so equiprobable
    assert pmf[(0,)] == pytest.approx(pmf[(1,)], rel=1e-12)
    best = spec.table_coeffs[np.argmax(spec.table_probs)]
    emb = Z1.basis @ best - spec.shift
    assert abs(emb[0]) == pytest.approx(0.5, abs=1e-12)


def test_sampling_determinism():
    spec = build_spec(D4, 0.9, np.zeros(4))
    seed = RngSeed(11, 7)
    a = sample(spec, seed, 256)
    assert np.array_equal(a, sample(spec, seed, 256))
    assert not np.array_equal(a, sample(spec, RngSeed(11, 8), 256))


@pytest.mark.parametrize("axis", [False, True], ids=["table", "parity"])
def test_sample_is_sample_coeffs_on_the_seed_stream(axis):
    spec = (axis_spec if axis else build_spec)(D4, 0.9, np.full(4, 0.25))
    assert spec.backend == ("parity" if axis else "table")
    got = sample(spec, RngSeed(11, 7), 300)
    assert got.dtype == np.int64 and got.shape == (300, 4)
    assert np.array_equal(got,
                          sample_coeffs(spec, stream(RngSeed(11, 7)), 300))


def test_empirical_frequencies_z1():
    spec = build_spec(Z1, 1.0, np.zeros(1))
    pmf = _support_pmf(spec)
    vals = sample(spec, RngSeed(5, 0), 20000)[:, 0]
    assert abs(np.mean(vals == 0) - P_ZERO_Z1) < 0.01
    # chi-square goodness of fit against the exact table, pooling bins
    # with tiny expectation
    keys = sorted(pmf)
    expected = np.array([pmf[k] * vals.size for k in keys])
    observed = np.array([np.sum(vals == k[0]) for k in keys])
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    gof = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert gof.pvalue > 1e-4


# ---------------------------------------------------------------------------
# structured backends against the exhaustive table
# ---------------------------------------------------------------------------


def test_product_matches_table_z4():
    table = build_spec(Z4, 1.0, np.zeros(4))
    prod = axis_spec(Z4, 1.0, np.zeros(4))
    assert table.backend == "table" and prod.backend == "product"
    got = _structured_pmf_at(prod, table.table_coeffs)
    assert np.max(np.abs(got - table.table_probs)) < 1e-13


@pytest.mark.parametrize("lat,s", [
    pytest.param(Z4_17, 1.7, id="Z4*1.7"),
    pytest.param(DIAG4, 1.0, id="diag"),
])
def test_product_matches_table_diagonal(lat, s):
    c = np.array([0.3, -0.2, 0.0, 0.45])
    table = build_spec(lat, s, c)
    prod = axis_spec(lat, s, c)
    assert table.backend == "table" and prod.backend == "product"
    got = _structured_pmf_at(prod, table.table_coeffs)
    assert np.max(np.abs(got - table.table_probs)) < 1e-13


# (lattice, sigma0, shift, backend, sha256 of the int64 sample_coeffs bytes
# of 4096 draws on RngSeed(77, 0))
_DRAWS_PINNED = {
    "Z4": (Z4, 1.0, [0.25, -0.4, 0.0, 0.7], "product",
           "aa159510942da60b8f49d03db6b8f5c1ab3b37b8b3f49e53537256081bbe00d4"),
    "Z4*1.7": (Z4_17, 1.7, [0.0] * 4, "product",
               "a1be83adf4055e7f514a0a6443cdacedfa8e58be505750476e4315ffe2bb1ce4"),
    "diag": (DIAG4, 1.0, [0.3] * 4, "product",
             "7a02b05390d0384ed848c87de542218d2da96cff9d68b9e2f82a507954a35cf9"),
    "D4": (D4, 0.9, [0.1] * 4, "parity",
           "d1a0ef45af65eecc50ec8cc12f5e24a303738d167c8db454a4377d838c363230"),
    "E8": (E8, 0.45, [0.25] * 8, "parity",
           "3f87c3cbcd8c4d76ca384761a78c0fe9a4e981823a9959d6581d839149387b03"),
}


@pytest.mark.parametrize("name", list(_DRAWS_PINNED))
def test_structured_draws_pinned(name):
    lat, s, c, backend, digest = _DRAWS_PINNED[name]
    spec = axis_spec(lat, s, np.array(c))
    assert spec.backend == backend
    u = sample_coeffs(spec, stream(RngSeed(77, 0)), 4096)
    assert u.dtype == np.int64
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


def test_product_matches_table_shifted():
    c = np.array([0.25, -0.4, 0.0, 0.7])
    table = build_spec(Z4, 0.9, c)
    prod = axis_spec(Z4, 0.9, c)
    got = _structured_pmf_at(prod, table.table_coeffs)
    emb = table.table_coeffs @ Z4.basis.T - c
    direct = np.exp(-np.einsum("ij,ij->i", emb, emb) / (2 * 0.9 ** 2))
    direct /= direct.sum()
    assert np.max(np.abs(got - direct)) < 1e-13
    assert np.max(np.abs(got - table.table_probs)) < 1e-13


@pytest.mark.parametrize("lat,s", [(D4, 0.9), (E8, 0.45)])
def test_parity_matches_table(lat, s):
    table = build_spec(lat, s, np.zeros(lat.n))
    par = axis_spec(lat, s, np.zeros(lat.n))
    assert table.backend == "table" and par.backend == "parity"
    got = _structured_pmf_at(par, table.table_coeffs)
    assert np.max(np.abs(got - table.table_probs)) < 1e-12


def test_parity_sampling_hits_both_cosets():
    spec = axis_spec(E8, 0.45, np.zeros(8))
    emb = sample(spec, RngSeed(3, 1), 4000) @ E8.basis.T
    frac = np.abs(emb - np.rint(emb))
    half = np.all(np.abs(frac - 0.5) < 1e-9, axis=1)
    whole = np.all(frac < 1e-9, axis=1)
    assert np.all(half | whole)
    assert half.sum() > 0 and whole.sum() > 0
    # every draw satisfies the even-coordinate-sum constraint of E8
    assert np.all(np.abs(np.mod(emb.sum(axis=1), 2.0)) < 1e-9)


def test_parity_empirical_frequencies_d4():
    table = build_spec(D4, 0.9, np.zeros(4))
    spec = axis_spec(D4, 0.9, np.zeros(4))
    emb = sample(spec, RngSeed(17, 0), 30000) @ D4.basis.T
    support = np.rint(table.table_coeffs @ D4.basis.T).astype(int)
    pmf = dict(zip(map(tuple, support.tolist()), table.table_probs))
    keys = sorted(pmf)
    expected = np.array([pmf[k] * emb.shape[0] for k in keys])
    # with shift 0 every D4 point embeds to exact integers: count each once
    assert np.array_equal(np.rint(emb), emb)
    vals, counts = np.unique(emb.astype(int), axis=0, return_counts=True)
    seen = dict(zip(map(tuple, vals.tolist()), counts.tolist()))
    observed = np.array([seen.get(k, 0) for k in keys])
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    gof = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert gof.pvalue > 1e-4


# ---------------------------------------------------------------------------
# tail statistics
# ---------------------------------------------------------------------------


def test_sphere_tail_bound_value():
    assert sphere_tail_bound(8, 0.1) == pytest.approx(
        (1.1 / 0.9) / 256.0, rel=1e-12)
    with pytest.raises(FlatnessTooLarge):
        sphere_tail_bound(8, 1.0)


def test_tail_event_rate_z1():
    spec = build_spec(Z1, 1.0, np.zeros(1))
    bound, mass = tail_event_rate(spec)
    assert mass == pytest.approx(TAIL_Z1, rel=1e-12)
    assert bound == pytest.approx(0.5000000053505760, rel=1e-12)
    assert mass < bound


def test_tail_convolution_matches_table():
    table = build_spec(Z4, 1.0, np.zeros(4))
    prod = axis_spec(Z4, 1.0, np.zeros(4))
    b1, m1 = tail_event_rate(table)
    b2, m2 = tail_event_rate(prod)
    assert b1 == pytest.approx(b2, rel=1e-12)
    assert m1 == pytest.approx(m2, rel=1e-10)
    assert abs(m1 - m2) < 1e-13


def test_tail_mass_below_bound_grid():
    for s in (1.5, 2.0, 3.0):
        spec = build_spec(Z8, s, np.zeros(8))
        bound, mass = tail_event_rate(spec)
        assert 0.0 < mass < bound


def test_tail_needs_centered_equal_steps():
    shifted = axis_spec(Z4, 1.0, np.full(4, 0.25))
    with pytest.raises(BudgetExceeded):
        tail_event_rate(shifted)
    par = axis_spec(D4, 0.9, np.zeros(4))
    with pytest.raises(BudgetExceeded):
        tail_event_rate(par)


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------


def test_rejects_bad_inputs():
    with pytest.raises(NonpositiveSigma):
        build_spec(Z1, 0.0, np.zeros(1))
    with pytest.raises(NonpositiveSigma):
        build_spec(Z1, -1.0, np.zeros(1))
    with pytest.raises(DimensionMismatch):
        build_spec(Z2, 1.0, np.zeros(3))
    with pytest.raises(DimensionTooLarge):
        build_spec(standard_lattice("Zn", 13), 1.0, np.zeros(13))


def test_shift_past_float_resolution_refused():
    # DIAG4's first axis steps by 0.5, so coordinate 2^51 is coefficient
    # 2^52, where float64 steps by 1; both backends refuse it
    for build, backend in ((build_spec, "table"), (axis_spec, "product")):
        near = build(DIAG4, 1.0, [2.0 ** 51 - 0.5, 0.0, 0.0, 0.0])
        assert near.backend == backend
        for far in ([2.0 ** 51, 0.0, 0.0, 0.0], [-(2.0 ** 51), 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1e300]):
            with pytest.raises(DimensionMismatch, match=r"2\^52"):
                build(DIAG4, 1.0, far)


def test_budget_without_structure():
    skew = make_lattice(np.array([[1.0, 0.3], [0.0, 1.0]]).T, label="skew")
    with pytest.raises(BudgetExceeded):
        axis_spec(skew, 1.0, np.zeros(2))


def test_axis_table_past_point_budget(monkeypatch):
    # Z2 at volume 1e-300 has axis step 1e-150: a table of ~6e151 points,
    # refused before np.arange allocates anything
    with pytest.raises(BudgetExceeded, match="point budget"):
        build_spec(Z2.scale(1e-150), math.sqrt(10.0), np.zeros(2))
    # the budget is lattice.POINT_CAP, read at call time: Z1 at sigma0 1
    # starts from 2 * 12 + 1 = 25 points
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 24)
    with pytest.raises(BudgetExceeded, match="point budget"):
        axis_spec(Z1, 1.0, np.zeros(1))
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 25)
    assert axis_spec(Z1, 1.0, np.zeros(1)).backend == "product"
    # the budget bounds the spec's tables together: Z2's two tables of 25
    # points each fit alone, but not both within 49
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 49)
    with pytest.raises(BudgetExceeded, match="point budget"):
        axis_spec(Z2, 1.0, np.zeros(2))
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 50)
    assert axis_spec(Z2, 1.0, np.zeros(2)).backend == "product"


def test_axis_table_one_range_certifies_its_tail():
    """_axis_table builds the one range floor(center) +- _start_span and
    refuses the table unless that range's tail bound is below 1e-16.  Its
    9.5 sigma0 + 2 steps must certify from sigma0 far below a step up to
    1e4 steps, for any offset and shift."""
    rng = np.random.default_rng(27)
    for ratio in np.logspace(-6, 4, 31):
        for _ in range(4):
            step = float(np.exp(rng.uniform(-3.0, 3.0)))
            offset = step * rng.random()
            ci = step * rng.uniform(-1e3, 1e3)
            ks, probs, cdf, rel_tail, _, _ = sampler_mod._axis_table(
                step, offset, ci, ratio * step)
            assert rel_tail < 1e-16
            assert ks.size == 2 * sampler_mod._start_span(
                step, ratio * step) + 1
            assert probs.size == ks.size and cdf[-1] == 1.0


def test_parity_draws_peak_under_three_outputs():
    """The parity draws keep their first round in the output array and turn
    axis values into coefficients in place: under tracemalloc, 10^5 draws
    on E8 peak under three times the bytes of their output (2.38x; 4.19x
    when each round was scattered into an empty array and each conversion
    step allocated its own array)."""
    spec = build_spec(E8, 1.0, np.full(8, 0.25))
    assert spec.backend == "parity"
    rng = stream(RngSeed(1))
    tracemalloc.start()
    try:
        out = sample_coeffs(spec, rng, 10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (10 ** 5, 8) and out.dtype == np.int64
    assert peak < 3 * out.nbytes


def test_table_weights_underflow_is_budget_error(monkeypatch):
    """Every point of Zn - 0.5 lies at squared distance n/4 or more, whose
    weight exp(-n / (8 sigma0^2)) is 0.0 in float64 at these sigma0.  No
    radius certifies such a table, so its first ball with a point is
    refused instead of grown to the point budget (lowered here, so that a
    build which grows fails fast with the budget's message).  An empty
    ball still grows: at sigma0 0.02 the first radius, 0.15, holds no
    point, and the table certifies at 0.54."""
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 10_000)
    for n, sigma0 in ((1, 1e-3), (4, 0.02)):
        with pytest.raises(BudgetExceeded, match="weights underflow"):
            build_spec(standard_lattice("Zn", n), sigma0, np.full(n, 0.5))
    spec = build_spec(Z1, 0.02, np.array([0.5]))
    assert spec.table_coeffs.ravel().tolist() == [0, 1]
    assert spec.truncation_radius > 0.5


def test_sample_count_validation(monkeypatch):
    spec = build_spec(Z1, 1.0, np.zeros(1))
    with pytest.raises(DimensionMismatch):
        sample(spec, RngSeed(1, 0), 0)
    # refused before any draw: more rows than TABLE_CAP, read at call time
    with pytest.raises(BudgetExceeded, match="sample budget"):
        sample(spec, RngSeed(1, 0), 10 ** 30)
    monkeypatch.setattr(sampler_mod, "TABLE_CAP", 10)
    assert len(sample(spec, RngSeed(1, 0), 10)) == 10
    with pytest.raises(BudgetExceeded, match="sample budget"):
        sample(spec, RngSeed(1, 0), 11)


def test_spec_dict_round_trip():
    spec = build_spec(Z2, 1.0, np.full(2, 0.25))
    d = spec.as_dict()
    assert d["lattice"] == Z2.label
    assert d["sigma0"] == 1.0
    assert d["shift"] == [0.25, 0.25]
    assert 0.0 <= d["deficit"] < DEFICIT_TARGET
    assert d["truncation_radius"] == spec.truncation_radius


def test_sample_csv():
    spec = build_spec(Z2, 1.0, np.full(2, 0.25))
    coeffs = sample(spec, RngSeed(9, 0), 50)
    header, lines = sample_csv(spec, coeffs)
    rows = list(csv.reader([header, *lines]))
    assert rows[0] == ["coeffs0", "coeffs1", "embedding0", "embedding1"]
    assert len(rows) == 51
    for row, want in zip(rows[1:], coeffs):
        u = np.array([int(v) for v in row[:2]])
        x = np.array([float(v) for v in row[2:]])
        assert np.array_equal(u, want)
        assert np.allclose(x, u @ Z2.basis.T - 0.25, atol=0)
    with pytest.raises(DimensionMismatch):
        sample_csv(spec, coeffs[:0])
