"""Decoders, Monte Carlo arms, exponent, design window, rate budget."""

import math

import numpy as np
import pytest

from lgc.errors import (
    ConfigError,
    DimensionMismatch,
    DimensionTooLarge,
    FlatnessTooLarge,
    InsufficientErrors,
    MuBelowOne,
    NonpositiveSigma,
    SingularBasis,
)
from lgc.analytics import (
    entropy_deviation,
    flatness_direct,
    gsnr,
    moment_check,
    partition_sandwich_check,
)
from lgc.construction_a import lift, random_code, theorem1_bound
from lgc.lattice import (
    closest_point,
    closest_points_batch,
    enumerate_ball,
    standard_lattice,
)
from lgc.rng import RngSeed, stream
import lgc.lattice as lattice_mod
import lgc.sampler as sampler_mod
import lgc.scheme as scheme_mod
from lgc.sampler import build_spec, sample_coeffs, sphere_tail_bound
from lgc.scheme import (
    BLOCK,
    CSV_HEADER,
    decode_agreement,
    design_volume,
    eps_prime_formula,
    feasible_volume_interval,
    make_params,
    map_decode,
    mmse_decode,
    paired_ratio_interval,
    poltyrev_exponent,
    rate_budget,
    rate_lower_formula,
    sandwich_check,
    simulate_error,
    simulate_poltyrev,
    vnr,
    wilson_interval,
)

Z1 = standard_lattice("Zn", 1)
Z2 = standard_lattice("Zn", 2)
Z4 = standard_lattice("Zn", 4)
Z8 = standard_lattice("Zn", 8)
D4 = standard_lattice("Dn", 4)
E8 = standard_lattice("E8")
A2 = standard_lattice("A2")


def axis_spec(lat, sigma0, c):
    """build_spec with a table budget of 1 point, so the axis backend serves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler_mod, "TABLE_CAP", 1)
        return build_spec(lat, sigma0, c)


# ---------------------------------------------------------------------------
# parameters and channel
# ---------------------------------------------------------------------------


def test_params_values():
    p = make_params(2.0, 1.0)
    assert p.alpha == pytest.approx(0.8, rel=1e-15)
    assert p.sigma_tilde ** 2 == pytest.approx(0.8, rel=1e-12)
    assert p.snr == pytest.approx(4.0, rel=1e-15)
    q = make_params(1.0, 1.0)
    assert q.alpha == pytest.approx(0.5, rel=1e-15)
    assert q.sigma_tilde == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    # effective noise never exceeds either deviation
    assert q.sigma_tilde < min(q.sigma0, q.sigma)
    with pytest.raises(NonpositiveSigma):
        make_params(0.0, 1.0)
    with pytest.raises(NonpositiveSigma):
        make_params(1.0, -2.0)


def test_params_reject_an_snr_past_float_range():
    # each square is a normal float, but their ratio is not
    with pytest.raises(NonpositiveSigma, match="overflows"):
        make_params(1e150, 1e-150)


@pytest.mark.parametrize("call,error", [
    (lambda: build_spec(Z1, math.nan, [0.0]), NonpositiveSigma),
    (lambda: build_spec(Z1, math.inf, [0.0]), NonpositiveSigma),
    (lambda: build_spec(Z1, -1.0, [0.0]), NonpositiveSigma),
    (lambda: build_spec(Z1, 1.0, [math.nan]), DimensionMismatch),
    (lambda: build_spec(Z1, 1.0, [-math.inf]), DimensionMismatch),
    (lambda: make_params(math.nan, 1.0), NonpositiveSigma),
    (lambda: make_params(math.inf, 1.0), NonpositiveSigma),
    (lambda: make_params(1.0, math.nan), NonpositiveSigma),
    (lambda: make_params(1.0, math.inf), NonpositiveSigma),
    # squares that under- or overflow
    (lambda: make_params(1e-200, 1.0), NonpositiveSigma),
    (lambda: make_params(1e200, 1.0), NonpositiveSigma),
    (lambda: make_params(1.0, 1e-200), NonpositiveSigma),
    (lambda: map_decode(build_spec(Z2, 1.5, np.zeros(2)), make_params(1.5, 1.0),
                        [math.nan, 0.0]), DimensionMismatch),
    (lambda: map_decode(build_spec(Z2, 1.5, np.zeros(2)), make_params(1.5, 1.0),
                        [math.inf, 0.0]), DimensionMismatch),
    (lambda: map_decode(axis_spec(Z2, 1.5, np.zeros(2)),
                        make_params(1.5, 1.0), [0.0, math.nan]), DimensionMismatch),
    (lambda: map_decode(axis_spec(D4, 0.9, np.zeros(4)),
                        make_params(0.9, 1.0), [0.0, 0.0, -math.inf, 0.0]),
     DimensionMismatch),
    (lambda: scheme_mod._map_batch(
        build_spec(Z2, 1.5, np.zeros(2)), make_params(1.5, 1.0),
        np.array([[0.0, 0.0], [math.nan, 0.0]]), np.zeros((2, 2), dtype=np.int64)),
     DimensionMismatch),
    (lambda: scheme_mod._map_batch(
        axis_spec(D4, 0.9, np.zeros(4)), make_params(0.9, 1.0),
        np.array([[math.inf, 0.0, 0.0, 0.0]]), np.zeros((1, 4), dtype=np.int64)),
     DimensionMismatch),
], ids=["spec-sigma0-nan", "spec-sigma0-inf", "spec-sigma0-neg",
        "spec-shift-nan", "spec-shift-inf", "params-sigma0-nan",
        "params-sigma0-inf", "params-sigma-nan", "params-sigma-inf",
        "params-sigma0-underflow", "params-sigma0-overflow",
        "params-sigma-underflow",
        "map-table-nan", "map-table-inf", "map-product-nan", "map-parity-inf",
        "map-batch-table-nan", "map-batch-parity-inf"])
def test_nonfinite_library_inputs_rejected(call, error):
    with pytest.raises(error, match="finite"):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: Z2.scale(math.nan), SingularBasis),
    (lambda: Z2.scale(math.inf), SingularBasis),
    (lambda: simulate_poltyrev(Z2, math.nan, 10, RngSeed(1, 0)),
     NonpositiveSigma),
    (lambda: simulate_poltyrev(Z2, math.inf, 10, RngSeed(1, 0)),
     NonpositiveSigma),
    (lambda: design_volume(math.nan, 0.1, 4), NonpositiveSigma),
    (lambda: design_volume(1.0, math.nan, 4), DimensionMismatch),
    (lambda: poltyrev_exponent(math.nan), MuBelowOne),
    (lambda: eps_prime_formula(4, math.nan), FlatnessTooLarge),
    (lambda: rate_lower_formula(4, math.nan, 0.1, 0.1), NonpositiveSigma),
    (lambda: rate_lower_formula(4, 10.0, math.nan, 0.1), FlatnessTooLarge),
    (lambda: rate_lower_formula(4, 10.0, 0.1, math.nan), DimensionMismatch),
    (lambda: sphere_tail_bound(4, math.nan), FlatnessTooLarge),
    (lambda: theorem1_bound(Z2, 1.0, delta=math.nan), ConfigError),
    (lambda: lift(random_code(3, 4, 2, RngSeed(1, 0)), math.nan), ConfigError),
    (lambda: flatness_direct(Z2, 1.0, math.nan), DimensionMismatch),
], ids=["scale-nan", "scale-inf", "poltyrev-sigma-nan", "poltyrev-sigma-inf",
        "volume-sigma-nan", "volume-slack-nan", "exponent-mu-nan",
        "eps-prime-nan", "rate-snr-nan", "rate-eps-nan", "rate-slack-nan",
        "sphere-tail-nan", "theorem1-delta-nan", "lift-scale-nan",
        "flatness-grid-nan"])
def test_nonfinite_formula_scalars_rejected(call, error):
    with pytest.raises(error):
        call()


_NAN2 = [math.nan, 0.0]


@pytest.mark.parametrize("call,error", [
    (lambda: enumerate_ball(Z2, _NAN2, 1.0), DimensionMismatch),
    (lambda: enumerate_ball(Z2, np.zeros(2), math.nan), DimensionMismatch),
    (lambda: partition_sandwich_check(A2, 1.0, _NAN2), DimensionMismatch),
    (lambda: moment_check(Z2, 3.0, _NAN2), DimensionMismatch),
    (lambda: entropy_deviation(Z2, 3.0, _NAN2), DimensionMismatch),
    (lambda: closest_point(Z2, [0.0, 0.0, 1.0]), DimensionMismatch),
    (lambda: closest_point(Z2, [math.inf, 0.0]), DimensionMismatch),
    (lambda: mmse_decode(Z2, np.zeros(2), make_params(3.0, 1.0),
                         [0.0, 0.0, 1.0]), DimensionMismatch),
    (lambda: closest_points_batch(Z2, np.zeros(2)), DimensionMismatch),
], ids=["ball-center-nan", "ball-radius-nan", "partition-shift-nan",
        "moment-shift-nan", "entropy-shift-nan", "closest-point-shape",
        "closest-point-inf", "coset-point-shape", "batch-1d"])
def test_vector_arguments_rejected(call, error):
    with pytest.raises(error, match="finite|shape"):
        call()


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def test_mmse_decode_fixed_points():
    p = make_params(3.0, 1.0)
    c = np.full(2, 0.25)
    # a y that alpha maps exactly onto a coset point decodes to it
    target = np.array([2.0, -1.0]) - c
    y = target / p.alpha
    u = mmse_decode(Z2, c, p, y)
    assert u.dtype == np.int64 and u.shape == (2,)
    assert np.array_equal(u, [2, -1])
    assert np.allclose(Z2.basis @ u - c, target, atol=1e-12)
    assert np.array_equal(u, closest_point(Z2, p.alpha * y + c))


def test_mmse_decode_rejects_bad_shapes():
    # a one-element y does not broadcast to a point, and a shift of the
    # wrong length is a dimension error, not numpy's
    p = make_params(3.0, 1.0)
    with pytest.raises(DimensionMismatch, match="point has shape"):
        mmse_decode(Z2, np.zeros(2), p, np.ones(1))
    with pytest.raises(DimensionMismatch, match="shift has shape"):
        mmse_decode(Z2, np.zeros(3), p, np.ones(2))
    with pytest.raises(DimensionMismatch, match="shift must be finite"):
        mmse_decode(Z2, np.array([0.0, math.nan]), p, np.ones(2))
    with pytest.raises(DimensionMismatch, match="point must be finite"):
        mmse_decode(Z2, np.zeros(2), p, np.array([0.0, math.inf]))


def test_map_matches_exhaustive_posterior():
    p = make_params(1.5, 1.0)
    spec = build_spec(Z2, 1.5, np.full(2, 0.25))
    emb = spec.table_coeffs @ Z2.basis.T - spec.shift
    rng = np.random.default_rng(7)
    ys = list(3.0 * rng.standard_normal((50, 2)))
    ys.append(np.full(2, 40.0))
    ys.append(np.full(2, -40.0))
    for y in ys:
        diff = emb - y
        score = (np.log(spec.table_probs)
                 - np.einsum("ij,ij->i", diff, diff) / (2 * p.sigma ** 2))
        want = spec.table_coeffs[int(np.argmax(score))]
        got = map_decode(spec, p, y)
        assert got.dtype == np.int64 and got.shape == (2,)
        assert np.array_equal(got, want)


def test_hot_paths_never_unpack_the_whole_table(monkeypatch):
    """The table's hot paths read its rows by index or one chunk at a time:
    with table_coeffs raising and chunks of 512 rows, no unpack of the
    sorted keys covers the whole table."""
    def whole_table(spec):
        raise AssertionError("table_coeffs read on a hot path")

    unpack = lattice_mod.PackedRows.__getitem__

    def partial_unpack(rows, sel):
        out = unpack(rows, sel)
        assert out.size < rows.key.size * len(rows.bits), "whole table unpacked"
        return out

    monkeypatch.setattr(sampler_mod.DiscreteGaussianSpec, "table_coeffs",
                        property(whole_table))
    monkeypatch.setattr(lattice_mod.PackedRows, "__getitem__", partial_unpack)
    monkeypatch.setattr(sampler_mod, "_TABLE_CHUNK", 512)
    lat, c, p = D4, np.array([0.3, -0.2, 0.7, 0.1]), make_params(1.3, 0.6)
    spec = build_spec(lat, p.sigma0, c)
    # more rows than a block of 2000 trials draws
    assert isinstance(spec.table_rows, lattice_mod.PackedRows)
    assert len(spec.table_rows) > 2000
    simulate_error(lat, c, p, 2000, RngSeed(3, 0))
    sandwich_check(lat, c, p, 2000, RngSeed(4, 0))
    _, mass = sampler_mod.tail_event_rate(spec)
    assert 0.0 <= mass <= 1.0
    ys = np.random.default_rng(8).normal(size=(3, lat.n))
    for y in ys:
        map_decode(spec, p, y)
    mmse = closest_points_batch(lat, c + p.alpha * ys)
    scheme_mod._map_batch(spec, p, ys, mmse)
    decode_agreement(lat, c, p, 64, RngSeed(5, 0), spec=spec)


@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_branch_and_bound_matches_table_map(shift):
    p = make_params(0.9, 0.7)
    c = np.full(4, shift)
    table = build_spec(D4, 0.9, c)
    struct = axis_spec(D4, 0.9, c)
    assert struct.backend == "parity"
    rng = np.random.default_rng(13)
    tie_gap = 2.0 * p.sigma_tilde ** 2 * 1e-12
    for y in 1.5 * rng.standard_normal((60, 4)):
        a = map_decode(table, p, y)
        b = map_decode(struct, p, y)
        if not np.array_equal(a, b):
            da = D4.basis @ a - c - p.alpha * y
            db = D4.basis @ b - c - p.alpha * y
            assert abs(float(da @ da) - float(db @ db)) < tie_gap


@pytest.mark.parametrize("chunk", [None, 1, 3])
def test_map_table_forced_tie_takes_lowest_index(chunk, monkeypatch):
    # D_{Z-1/2} is symmetric: at y = 0 the points -1/2 (k = 0) and 1/2
    # (k = 1) have equal posteriors, and the lower table index wins
    if chunk is not None:
        monkeypatch.setattr(sampler_mod, "_TABLE_CHUNK", chunk)
    spec = build_spec(Z1, 1.0, np.array([0.5]))
    assert spec.backend == "table"
    got = map_decode(spec, make_params(1.0, 1.0), np.zeros(1))
    assert got.tolist() == [0]


@pytest.mark.parametrize("chunk", [1, 7])
def test_map_table_chunking_does_not_change_output(chunk, monkeypatch):
    p = make_params(1.5, 1.0)
    spec = build_spec(Z2, 1.5, np.full(2, 0.5))
    ys = [np.zeros(2), np.array([0.0, 0.7]), *(2.0 * np.random.default_rng(3)
                                               .standard_normal((40, 2)))]
    whole = [map_decode(spec, p, y).tolist() for y in ys]
    monkeypatch.setattr(sampler_mod, "_TABLE_CHUNK", chunk)
    assert [map_decode(spec, p, y).tolist() for y in ys] == whole


# lattice, sigma0, sigma, shift, axis (True: the axis backend, not the table)
MAP_CASES = {
    "Z8-product": (Z8, 3.0, 1.0, 0.0, False),
    "E8-parity": (E8, 3.0, 1.0, 0.5, False),
    "D4-parity": (D4, 1.0, 1.0, 0.25, True),
    "Z2-table": (Z2, 1.5, 1.0, 0.5, False),
    "Z1-table": (Z1, 1.0, 1.0, 0.5, False),
    "Z1-product": (Z1, 1.0, 1.0, 0.5, True),
}


@pytest.mark.parametrize("case", list(MAP_CASES))
def test_map_batch_matches_map_decode(case, monkeypatch):
    lat, s0, s, shift, axis = MAP_CASES[case]
    p = make_params(s0, s)
    c = np.full(lat.n, shift)
    spec = (axis_spec if axis else build_spec)(lat, s0, c)
    rng = np.random.default_rng(31)
    u = sample_coeffs(spec, rng, 1000)
    pts = u @ lat.basis.T
    noisy = pts - c + s * rng.standard_normal(pts.shape)
    # alpha*y + c halfway between two lattice points (exact ties when
    # alpha = 1/2), and y = 0, where D_{Z-1/2} ties -1/2 with 1/2
    steps = np.eye(lat.n)[rng.integers(0, lat.n, 100)] @ lat.basis.T
    mid = (pts[:100] + 0.5 * steps - c) / p.alpha
    # alpha*y + c nearer the lexicographically larger of the two points by
    # 4 times map_decode's tie band on the squared distance; far from the
    # origin, where the posterior's own relative band would call it a tie
    outer = np.argsort(np.einsum("ij,ij->i", pts, pts))[-100:]
    up = np.eye(lat.n, dtype=np.int64)[rng.integers(0, lat.n, 100)]
    step = up @ lat.basis.T
    s2 = np.einsum("ij,ij->i", step, step)
    delta = 2e-12 * (1.0 + 0.25 * s2) / s2
    near = (pts[outer] + (0.5 + delta)[:, None] * step - c) / p.alpha
    # alpha*y + c on lattice points just outside the truncation ball, so
    # that the MMSE point lies outside it
    v = rng.choice([-1.0, 1.0], (40, lat.n)) * rng.uniform(0.5, 1.5, (40, lat.n))
    v *= (spec.truncation_radius + 0.5) / np.linalg.norm(v, axis=1,
                                                          keepdims=True)
    x = closest_points_batch(lat, v + c) @ lat.basis.T - c
    far = x[np.einsum("ij,ij->i", x, x) > spec.truncation_radius ** 2][:10]
    assert far.shape[0] == 10
    # y out to about two truncation radii in random directions, some
    # coordinates near 0, so the clamped box point is not the answer
    wide = 2.0 * spec.truncation_radius / math.sqrt(lat.n) \
        * rng.standard_normal((100, lat.n))
    ys = np.concatenate([noisy, mid, near, wide, np.zeros((1, lat.n)),
                         far / p.alpha])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return map_decode(*args, **kwargs)

    monkeypatch.setattr(scheme_mod, "map_decode", counting)
    mmse = closest_points_batch(lat, p.alpha * ys + c)
    got = scheme_mod._map_batch(spec, p, ys, mmse)
    want = np.array([map_decode(spec, p, y) for y in ys])
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    if lat.n == 1:
        assert got[-11].tolist() == [0]
    if spec.backend == "table":
        assert not calls
    else:
        assert len(calls) >= 10
        nearer = np.all(got[1100:1200] == u[outer] + up, axis=1)
        assert np.count_nonzero(nearer) >= 50


@pytest.mark.parametrize("case", ["Z8-product", "D4-parity", "E8-parity"])
def test_map_decode_searches_no_ball(case, monkeypatch):
    # the per-row reference walks the support box's axes: with the ball
    # engine and the nearest-point decoders disabled it still decodes
    # in-box, halfway-tie and far targets; the batched decoder, given the
    # MMSE points, searches no ball either
    lat, s0, s, shift, axis = MAP_CASES[case]
    p = make_params(s0, s)
    c = np.full(lat.n, shift)
    spec = (axis_spec if axis else build_spec)(lat, s0, c)
    assert spec.backend != "table"
    rng = np.random.default_rng(5)
    pts = sample_coeffs(spec, rng, 30) @ lat.basis.T
    inside = pts - c + s * rng.standard_normal(pts.shape)
    half = (pts + 0.5 * lat.basis[:, rng.integers(0, lat.n, 30)].T - c) \
        / p.alpha
    far = 2.0 * spec.truncation_radius / math.sqrt(lat.n) \
        * rng.standard_normal((30, lat.n))
    ys = np.concatenate([inside, half, far])
    mmse = closest_points_batch(lat, p.alpha * ys + c)
    want = scheme_mod._map_batch(spec, p, ys, mmse)

    def refuse(*args, **kwargs):
        raise AssertionError("map_decode searched a lattice ball")

    for mod, name in ((lattice_mod, "_ball_search"), (scheme_mod, "closest_point"),
                      (scheme_mod, "closest_points_batch")):
        monkeypatch.setattr(mod, name, refuse)
    got = np.array([map_decode(spec, p, y) for y in ys])
    assert np.array_equal(got, want)
    assert np.array_equal(scheme_mod._map_batch(spec, p, ys, mmse), want)


def test_map_stays_in_the_support_box():
    # Z8 at sigma0 = 3 draws every coordinate from k in -31..31: the
    # truncation ball (radius 87.7) holds (60, 0, ..., 0), which has
    # probability 0, and the MAP word is the box point (31, 0, ..., 0)
    p = make_params(3.0, 1.0)
    spec = build_spec(Z8, 3.0, np.zeros(8))
    assert spec.backend == "product"
    assert spec.truncation_radius > 60.0
    y = np.zeros(8)
    y[0] = 60.0 / p.alpha
    want = [31] + [0] * 7
    assert map_decode(spec, p, y).tolist() == want
    mmse = closest_points_batch(Z8, p.alpha * y[None, :])
    assert scheme_mod._map_batch(spec, p, y[None, :], mmse).tolist() == [want]


def test_map_far_targets_match_round_then_clamp():
    # targets 1.5 beyond the truncation radius, no coordinate near 0: on
    # the product layout the MAP word is each coordinate rounded, then
    # clamped to the table's range
    p = make_params(3.0, 1.0)
    spec = build_spec(Z8, 3.0, np.zeros(8))
    rng = np.random.default_rng(4)
    v = rng.choice([-1.0, 1.0], (10, 8)) * rng.uniform(0.9, 1.1, (10, 8))
    v *= (spec.truncation_radius + 1.5) / np.linalg.norm(v, axis=1,
                                                          keepdims=True)
    got = np.array([map_decode(spec, p, x / p.alpha) for x in v])
    assert np.array_equal(got, np.clip(np.rint(v), -31, 31))


@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_map_parity_matches_exhaustive_box(shift):
    # D4's parity layout at sigma0 = 1: every even-sum k in the tables'
    # box, scored exhaustively, for targets out to three truncation radii
    p = make_params(1.0, 1.0)
    c = np.full(4, shift)
    spec = axis_spec(D4, 1.0, c)
    assert spec.backend == "parity" and len(spec.axis_tables) == 1
    ranges = [range(int(tab[0][0]), int(tab[0][-1]) + 1)
              for tab in spec.axis_tables[0]]
    ks = np.stack(np.meshgrid(*ranges, indexing="ij"), -1).reshape(-1, 4)
    ks = ks[ks.sum(axis=1) % 2 == 0]
    ax = spec.lattice.structure
    pts = ks * ax.steps + ax.offsets[0]
    coeffs = np.rint(pts @ D4.inv.T).astype(np.int64)
    rng = np.random.default_rng(8)
    for _ in range(60):
        d = rng.standard_normal(4)
        target = d / np.linalg.norm(d) * rng.uniform(0.0, 3.0) \
            * spec.truncation_radius
        d2 = np.einsum("ij,ij->i", pts - target, pts - target)
        tied = coeffs[d2 <= d2.min() * (1 + 1e-12) + 1e-12]
        want = tied[np.lexsort(tied.T[::-1])[0]]
        got = map_decode(spec, p, (target - c) / p.alpha)
        assert np.array_equal(got, want)


def test_map_rejects_bad_shape():
    p = make_params(1.5, 1.0)
    spec = build_spec(Z2, 1.5, np.zeros(2))
    with pytest.raises(DimensionMismatch):
        map_decode(spec, p, np.zeros(3))


def test_decode_agreement_small():
    # on a table, _map_table scores log p(x) - |y - x|^2 / (2 sigma^2)
    # over every support point with no completed square: an independent
    # check of MAP = MMSE-scaled lattice decoding
    for lat, s0, s, shift, trials, size in (
            (Z2, 2.0, 1.0, [0.0, 0.0], 300, 845),
            (D4, 1.0, 0.6, [0.3, -0.2, 0.7, 0.1], 300, 14_581),
            (E8, 0.3, 0.2, [0.25] * 8, 100, 40_176)):
        c = np.array(shift)
        spec = build_spec(lat, s0, c)
        assert spec.backend == "table" and len(spec.table_rows) == size
        rep = decode_agreement(lat, c, make_params(s0, s), trials,
                               RngSeed(21, 0), spec=spec)
        assert rep.trials == trials
        assert rep.agreements + rep.ties == trials
        assert rep.mismatches == 0


@pytest.mark.parametrize("trials", [0, -1])
def test_decode_agreement_rejects_no_trials(trials):
    with pytest.raises(DimensionMismatch, match="trials"):
        decode_agreement(Z2, np.zeros(2), make_params(2.0, 1.0), trials,
                         RngSeed(21, 0))


def test_decode_agreement_structured():
    p = make_params(1.2, 0.8)
    spec = axis_spec(D4, 1.2, np.zeros(4))
    rep = decode_agreement(D4, np.zeros(4), p, 128, RngSeed(22, 0), spec=spec)
    assert rep.agreements + rep.ties == 128
    assert rep.mismatches == 0


@pytest.mark.parametrize("other", ["lattice", "sigma0", "shift", "shape"])
def test_decode_agreement_rejects_a_spec_of_other_inputs(other):
    # the spec fixes the lattice, sigma0 and shift that the trials draw
    # from; decoding them against other ones would count false mismatches
    spec = build_spec(Z8, 3.0, np.zeros(8))
    lat, c, p = Z8, np.zeros(8), make_params(3.0, 1.0)
    if other == "lattice":
        lat = standard_lattice("Zn", 8)
    elif other == "sigma0":
        p = make_params(2.0, 1.0)
    elif other == "shift":
        c = np.full(8, 0.5)
    else:
        c = np.zeros(3)
    with pytest.raises(DimensionMismatch):
        decode_agreement(lat, c, p, 100, RngSeed(23, 0), spec=spec)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_wilson_interval():
    p, lo, hi = wilson_interval(50, 1000)
    assert p == 0.05
    assert lo < p < hi
    assert lo == pytest.approx(0.03815, abs=2e-4)
    assert hi == pytest.approx(0.06525, abs=2e-4)
    zp, zlo, zhi = wilson_interval(0, 100)
    assert zp == 0.0 and zlo == pytest.approx(0.0, abs=1e-15) and zhi > 0.0
    op, olo, ohi = wilson_interval(100, 100)
    assert op == 1.0 and ohi == 1.0 and olo < 1.0


def test_simulate_error_clean_channel():
    p = make_params(1.0, 0.01)
    res = simulate_error(Z1, np.zeros(1), p, 4096, RngSeed(31, 0))
    assert res.errors == 0
    assert res.p_hat == 0.0
    assert res.trials == 4096
    with pytest.raises(DimensionMismatch):
        simulate_error(Z1, np.zeros(1), p, 0, RngSeed(31, 0))


def test_simulate_poltyrev_z1_matches_gaussian_escape():
    res = simulate_poltyrev(Z1, 0.25, 200000, RngSeed(2024, 0))
    # escape probability of the unit cell is 2 Q(1/(2*0.25)) = 2 Q(2)
    truth = 2.0 * 0.5 * math.erfc(2.0 / math.sqrt(2.0))
    assert res.ci_low <= truth <= res.ci_high
    assert res.p_hat == pytest.approx(truth, abs=3e-3)
    with pytest.raises(NonpositiveSigma):
        simulate_poltyrev(Z1, 0.0, 100, RngSeed(2024, 0))


def test_poltyrev_factorizes_over_product_lattice():
    s = 0.25
    one = simulate_poltyrev(Z1, s, 1000000, RngSeed(77, 0))
    four = simulate_poltyrev(Z4, s, 400000, RngSeed(78, 0))
    pred = 1.0 - (1.0 - one.p_hat) ** 4
    # propagate the one-dimensional CI through the map p -> 1-(1-p)^4
    lo = 1.0 - (1.0 - one.ci_low) ** 4
    hi = 1.0 - (1.0 - one.ci_high) ** 4
    assert lo <= four.ci_high and hi >= four.ci_low
    assert four.p_hat == pytest.approx(pred, abs=5e-3)


def test_threads_do_not_change_counts():
    p = make_params(1.0, 0.6)
    base = simulate_error(Z2, np.zeros(2), p, 3 * BLOCK + 100, RngSeed(9, 9))
    multi = simulate_error(Z2, np.zeros(2), p, 3 * BLOCK + 100, RngSeed(9, 9),
                           threads=4)
    assert base.errors == multi.errors
    pb = simulate_poltyrev(D4, 0.5, 2 * BLOCK + 7, RngSeed(10, 1))
    pm = simulate_poltyrev(D4, 0.5, 2 * BLOCK + 7, RngSeed(10, 1), threads=3)
    assert pb.errors == pm.errors


def test_threads_do_not_change_counts_on_lift(fresh_lattice):
    lat = fresh_lattice("lift")
    noise = math.sqrt(lat.volume ** (2.0 / lat.n) / (2.0 * math.pi * math.e * 2.0))
    one = simulate_poltyrev(lat, noise, 2 * BLOCK + 7, RngSeed(12, 1))
    assert "reduced" in vars(lat)  # built before any worker thread
    two = simulate_poltyrev(fresh_lattice("lift"), noise, 2 * BLOCK + 7,
                            RngSeed(12, 1), threads=2)
    assert one.errors == two.errors > 0


@pytest.mark.parametrize("name", ["E8", "lift"])
def test_warm_decoder_builds_what_the_batch_decoder_reads(fresh_lattice, name):
    """After _warm_decoder, closest_points_batch adds or replaces no
    attribute of the lattice or of its reduction, on rows that take every
    pass: certified rows and exact ties (midpoints of minimal vectors,
    found on a second copy of the lattice)."""
    probe = fresh_lattice(name)
    reach = float(np.min(np.linalg.norm(probe.reduced[0].basis, axis=0)))
    u, d2 = enumerate_ball(probe, np.zeros(probe.n), reach * (1 + 1e-9))
    short = u[(d2 > 0) & (d2 <= d2[d2 > 0].min() * (1 + 1e-9))]
    rng = np.random.default_rng(3)
    ys = np.concatenate([0.5 * short @ probe.basis.T,
                         0.3 * reach * rng.normal(size=(200, probe.n))])
    lat = fresh_lattice(name)
    lattice_mod._warm_decoder(lat)
    assert {"qr", "inv", "sigma_min"} <= vars(lat).keys()
    assert ("reduced" in vars(lat)) == (lat.structure is None)
    frames = [lat] + ([lat.reduced[0]] if "reduced" in vars(lat) else [])
    warm = [dict(vars(f)) for f in frames]
    closest_points_batch(lat, ys)
    for f, before in zip(frames, warm):
        assert vars(f).keys() == before.keys()
        assert all(vars(f)[k] is v for k, v in before.items())


def test_sim_result_csv():
    res = simulate_poltyrev(Z1, 0.3, 1000, RngSeed(5, 5), label="poltyrev")
    assert len(CSV_HEADER.split(",")) == 15
    row = res.csv_row().split(",")
    assert len(row) == 15
    assert row[0] == Z1.label
    assert row[1] == "poltyrev"
    assert int(row[9]) == 1000
    assert math.isnan(float(row[3]))  # sigma0 is not a scheme input here
    assert float(row[11]) == res.p_hat


def test_sandwich_small_scale():
    p = make_params(2.0, 1.0)
    res = sandwich_check(Z1, np.zeros(1), p, 3 * BLOCK, RngSeed(404, 0))
    assert res.passed
    assert res.lo <= 1.0 <= res.hi
    assert res.ratio_lo <= res.ratio <= res.ratio_hi
    assert res.scheme.trials == res.poltyrev.trials == 3 * BLOCK
    assert 0.0 <= res.eps1 < 1.0 and 0.0 <= res.eps2 < 1.0


_PAIRED_CASES = {
    "E8": lambda: (E8, np.full(8, 0.25), make_params(0.8, 0.35)),
    "D4-table": lambda: (D4, np.array([0.3, -0.2, 0.7, 0.1]),
                         make_params(1.3, 0.45)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", list(_PAIRED_CASES))
def test_sandwich_arms_equal_separate_runs(case, threads):
    """The one paired pass gives each arm the SimResult of its own run."""
    lat, c, p = _PAIRED_CASES[case]()
    trials, seed = 2 * BLOCK + 300, RngSeed(7, 0)
    res = sandwich_check(lat, c, p, trials, seed, threads)
    want_s = simulate_error(lat, c, p, trials, seed, threads, label="scheme")
    want_p = simulate_poltyrev(lat, p.sigma_tilde, trials, seed, threads,
                               label="poltyrev")
    # repr compares every field, the NaN ones of the Poltyrev arm included
    assert repr(res.scheme) == repr(want_s)
    assert repr(res.poltyrev) == repr(want_p)
    assert res.scheme.csv_row() == want_s.csv_row()
    assert res.poltyrev.csv_row() == want_p.csv_row()
    assert build_spec(lat, p.sigma0, c).backend == (
        "table" if case == "D4-table" else "parity")


@pytest.mark.parametrize("case", list(_PAIRED_CASES))
def test_sandwich_paired_counts_match_trial_indicators(case):
    """The 2x2 counts equal those of per-trial error indicators, drawn
    block by block from the lanes the scheme documents, and the paired
    interval is the one their counts give."""
    lat, c, p = _PAIRED_CASES[case]()
    trials, seed = 2 * BLOCK + 300, RngSeed(8, 0)
    res = sandwich_check(lat, c, p, trials, seed)
    spec = build_spec(lat, p.sigma0, c)
    basis_t = lat.basis.T.copy()
    scheme_wrong, poltyrev_wrong = [], []
    for b, start in enumerate(range(0, trials, BLOCK)):
        m = min(BLOCK, trials - start)
        u = sample_coeffs(spec, stream(seed, 2 * b), m)
        noise = stream(seed, 2 * b + 1).standard_normal((m, lat.n))
        y = u @ basis_t - c + p.sigma * noise
        dec = closest_points_batch(lat, p.alpha * y + c)
        scheme_wrong += [bool(np.any(d != x)) for d, x in zip(dec, u)]
        dec = closest_points_batch(lat, p.sigma_tilde * noise)
        poltyrev_wrong += [bool(np.any(d != 0)) for d in dec]
    assert len(scheme_wrong) == trials
    n_s = sum(scheme_wrong)
    n_p = sum(poltyrev_wrong)
    n_both = sum(a and b for a, b in zip(scheme_wrong, poltyrev_wrong))
    assert (res.scheme.errors, res.poltyrev.errors, res.both_errors) \
        == (n_s, n_p, n_both)
    assert 0 < n_both < min(n_s, n_p)
    assert (res.paired_lo, res.paired_hi) == paired_ratio_interval(
        n_s, n_p, n_both)
    # sharing most failures, the paired interval is inside the Wilson one
    assert res.ratio_lo < res.paired_lo < res.ratio < res.paired_hi \
        < res.ratio_hi


def test_paired_ratio_interval_by_hand():
    """Counts 3381, 3363 and 1713 (scheme, Poltyrev, both): the log ratio
    has variance 1/3381 + 1/3363 - 2*1713/(3381*3363) = 3318/11370303
    = 158/541443 = 2.9181280e-4, so the 95% half-width is 1.959964 *
    0.0170825 = 0.0334811 around log(3381/3363) = 0.0053381."""
    lo, hi = paired_ratio_interval(3381, 3363, 1713)
    assert math.log(lo) == pytest.approx(0.0053380910 - 0.0334811420,
                                         abs=1e-9)
    assert math.log(hi) == pytest.approx(0.0053380910 + 0.0334811420,
                                         abs=1e-9)
    assert (lo, hi) == pytest.approx((0.97224928, 1.03958254), abs=1e-8)
    # no shared failures: the independent delta-method interval
    lo0, hi0 = paired_ratio_interval(100, 100, 0)
    assert math.log(hi0) == pytest.approx(1.959963984540054 * math.sqrt(0.02),
                                          rel=1e-12)
    assert lo0 * hi0 == pytest.approx(1.0, rel=1e-12)
    # the same failures in both arms: a point interval at 1
    assert paired_ratio_interval(57, 57, 57) == (1.0, 1.0)


def test_sandwich_insufficient_errors():
    p = make_params(1.0, 0.05)
    with pytest.raises(InsufficientErrors):
        sandwich_check(Z1, np.zeros(1), p, 2048, RngSeed(1, 0))


def test_sandwich_checks_the_dimension_before_the_flatness_sums(monkeypatch):
    def flatness(*args):
        raise AssertionError("flatness summed before build_spec's check")

    monkeypatch.setattr(scheme_mod, "flatness", flatness)
    with pytest.raises(DimensionTooLarge):
        sandwich_check(standard_lattice("Zn", 20), np.zeros(20),
                       make_params(math.sqrt(10.0), 1.0), 2048, RngSeed(1, 0))


def test_sandwich_flatness_guard():
    p = make_params(0.15, 0.05)
    with pytest.raises(FlatnessTooLarge):
        sandwich_check(Z1, np.zeros(1), p, 2048, RngSeed(1, 0))


# ---------------------------------------------------------------------------
# exponent
# ---------------------------------------------------------------------------


def test_exponent_values():
    assert poltyrev_exponent(1.0).exponent == 0.0
    assert poltyrev_exponent(8.0).exponent == pytest.approx(1.0, rel=1e-15)
    assert poltyrev_exponent(8.0, n=8).bound == pytest.approx(
        math.exp(-8.0), rel=1e-12)
    e2 = poltyrev_exponent(2.0).exponent
    assert e2 == pytest.approx(0.5 * (1.0 - math.log(2.0)), rel=1e-15)
    with pytest.raises(MuBelowOne):
        poltyrev_exponent(0.999)


def test_exponent_branch_continuity():
    # evaluate both closed forms exactly at the branch points
    at2_low = 0.5 * ((2.0 - 1.0) - math.log(2.0))
    at2_high = 0.5 * math.log(math.e * 2.0 / 4.0)
    assert abs(at2_low - at2_high) < 1e-12
    at4_low = 0.5 * math.log(math.e * 4.0 / 4.0)
    at4_high = 4.0 / 8.0
    assert abs(at4_low - at4_high) < 1e-12
    assert poltyrev_exponent(2.0).exponent == pytest.approx(at2_low, abs=1e-15)
    assert poltyrev_exponent(4.0).exponent == pytest.approx(0.5, abs=1e-15)


def test_exponent_monotone():
    mus = np.linspace(1.0, 12.0, 111)
    es = [poltyrev_exponent(float(m)).exponent for m in mus]
    assert all(b > a for a, b in zip(es, es[1:]))
    bounds = [poltyrev_exponent(float(m), n=4).bound for m in mus]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    for m, e, b in zip(mus, es, bounds):
        assert b == pytest.approx(math.exp(-4.0 * e), rel=1e-12)


def test_vnr_values_and_invariance():
    assert vnr(Z1, 0.1) == pytest.approx(5.854983152431917, rel=1e-12)
    assert vnr(Z2.scale(3.0), 3.0 * 0.4) == pytest.approx(
        vnr(Z2, 0.4), rel=1e-12)


def test_design_volume():
    assert design_volume(math.sqrt(0.8), 0.0, 2) == pytest.approx(
        13.663574756277704, rel=1e-12)
    # scaling any lattice to the designed volume lands the VNR at 1+eps''
    v = design_volume(0.7, 0.25, 2)
    lat = Z2.scale(math.sqrt(v))
    assert vnr(lat, 0.7) == pytest.approx(1.25, rel=1e-12)
    with pytest.raises(NonpositiveSigma):
        design_volume(0.0, 0.1, 2)
    with pytest.raises(DimensionMismatch):
        design_volume(1.0, -0.1, 2)


# ---------------------------------------------------------------------------
# design window
# ---------------------------------------------------------------------------


def test_feasible_interval_matches_snr_condition():
    # scanning the SNR shows the window opens exactly past sigma0^2 = e sigma^2
    for ratio in np.linspace(1.0, 10.0, 19):
        p = make_params(math.sqrt(ratio), 1.0)
        lo, hi = feasible_volume_interval(p)
        assert (lo < hi) == (ratio > math.e)
    p = make_params(math.sqrt(10.0), 1.0)
    lo, hi = feasible_volume_interval(p)
    assert lo == pytest.approx(2 * math.pi * math.e * 10.0 / 11.0, rel=1e-12)
    assert hi == pytest.approx(2 * math.pi * 100.0 / 11.0, rel=1e-12)
    # a volume inside the window clears the VNR floor and keeps the GSNR at
    # sigma0^2 / sqrt(sigma0^2 + sigma^2) in the smoothing regime on Z8
    lat = Z8.scale(math.sqrt(0.5 * (lo + hi)))
    assert vnr(lat, p.sigma_tilde) > 1.0
    assert gsnr(lat, p.sigma0 ** 2 / math.sqrt(p.sigma0 ** 2 + 1.0)) < 1.0


# ---------------------------------------------------------------------------
# rate budget
# ---------------------------------------------------------------------------


def test_rate_formula_values():
    assert rate_lower_formula(8, 10.0, 0.0, 0.0) == pytest.approx(
        1.1989476363991853, rel=1e-12)
    assert rate_lower_formula(8, 10.0, 0.5, 0.1) == pytest.approx(
        0.27690607543174384, rel=1e-12)
    ep = eps_prime_formula(8, 0.5)
    assert ep == pytest.approx(-math.log(0.5) / 8 + math.pi * 0.5 / 4.0,
                               rel=1e-12)
    assert eps_prime_formula(8, 0.0) == 0.0
    with pytest.raises(FlatnessTooLarge):
        eps_prime_formula(8, 1.0)
    with pytest.raises(FlatnessTooLarge):
        rate_lower_formula(8, 10.0, 1.0, 0.0)


def test_rate_monotone_in_snr():
    rates = [rate_lower_formula(8, s, 0.2, 0.05) for s in np.linspace(1, 30, 30)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_approaches_capacity():
    cap = 0.5 * math.log1p(10.0)
    gaps = [cap - rate_lower_formula(8, 10.0, e, e)
            for e in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2e-3


def test_rate_budget_on_z8():
    rb = rate_budget(Z8, make_params(3.0, 1.0), 0.05)
    assert rb.n == 8
    assert rb.eps < 1e-15
    assert rb.eps_prime < 1e-15
    assert rb.rate_lower == pytest.approx(0.5 * math.log(10.0) - 0.025,
                                          rel=1e-12)
    with pytest.raises(FlatnessTooLarge):
        rate_budget(Z8, make_params(0.3, 0.1), 0.05)

