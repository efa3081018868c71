"""Print one sha256 per output family of lgc, to compare two trees bit for bit.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/exactness.py

Every family hashes exact bytes (float64 arrays as raw bytes, scalars as
float.hex), computed from fixed seeds, so two trees whose outputs agree to
the bit print the same lines.  The families:

- flatness: flatness reports and theta values on Z4, D4, E8 and a
  Construction-A lift;
- table: the inverse-CDF table of the criterion-4 configuration (E8 at the
  design volume, SNR 10, shift 0.25);
- table_stats: on the criterion-4 table, a D4 table and a table whose
  coefficient spans pass 63 bits (the lexsort fallback), the tail masses
  (not on the fallback), 4,096 draws and a few per-row MAP decodes;
- axes: the structured samplers' axis tables (k values, probabilities and
  cdf of each) on Z8 and E8, with draws and tail masses (plus D4 and a
  diagonal basis);
- batch: closest_points_batch on seeded batches, ties included, over Z8,
  D4, E8, a diagonal basis and the lift;
- certificate: closest_points_batch on rows at the edge of the untagged
  decoder's nearest-plane certificate (half the certified minimum distance
  of the reduced basis, and its 1e-9 margin, each times 1 +- 1e-10 and
  1 +- 1e-15), over the lift, I + 3S on Z4 (S the upper shift) and A2 on
  the skewed basis A2 @ [[2, 5], [1, 3]];
- map: per-row MAP decodes and decode_agreement counts on structured specs;
- map_batch: the batched MAP decoder's coefficients (scheme._map_batch) on
  the map family's four structured specs and on two table specs (Z2 at
  shift 0.5, and D4 at sigma0 1.3, sigma 0.6), for channel rows, rows out
  to two truncation radii and rows whose targets sit at half-integer
  coefficients;
- lemmas: flatness_direct on Z2, A2 and D4; moment_check and
  entropy_deviation on Z4 (40-digit axis sums), D4 and A2 (enumerated
  support sums); partition_sandwich_check at fixed shifts;
- sample_csv: the `lgc sample` CSVs of E8 at sigma0 0.4 (table) and at
  sigma0 1 (parity), both at shift 0.25, of Zn:8 at sigma0 3 (product) and
  of Zn:2 at sigma0 1, shift 0.5 (table), 20,000 draws each, seed 2026;
- sandwich_csv: the `lgc sandwich` CSV of the criterion-4 configuration at
  2^16 trials, seed 2024;
- sandwich_paired: sandwich_check on the same configuration, trials and
  seed: the scheme, Poltyrev and shared error counts and the paired
  interval of their ratio;
- simulate: the csv_row of simulate_error on the criterion-4 configuration
  and on D4 (sigma0 5, which the parity sampler serves), and of
  simulate_poltyrev on E8 and on the best lattice of the poltyrev_modp
  ensemble, at 2 * BLOCK + 7 trials with 1 and 2 threads;
- ensemble: the ensemble_csv rows of ensemble_search over (p, n, k) =
  (7, 8, 4), sigma 1, 4 samples, seed 2025, at gsnr 0.7 and 1.5, with
  each entry's theta value, truncation bound and radius.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile

import numpy as np

from lgc.analytics import (
    entropy_deviation,
    flatness,
    flatness_direct,
    moment_check,
    partition_sandwich_check,
    theta,
)
import lgc.sampler
from lgc.cli import main as lgc_main
from lgc.construction_a import ensemble_csv, ensemble_search, lift, random_code
from lgc.lattice import (
    Lattice,
    closest_points_batch,
    make_lattice,
    standard_lattice,
)
from lgc.rng import RngSeed, stream
from lgc.sampler import (
    build_spec,
    sample_coeffs,
    tail_event_rate,
)
import lgc.scheme
from lgc.scheme import (
    BLOCK,
    decode_agreement,
    design_volume,
    make_params,
    map_decode,
    sandwich_check,
    simulate_error,
    simulate_poltyrev,
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Hash:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self.h.update(str((v.dtype.str, v.shape)).encode())
                self.h.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, (float, np.floating)):
                self.h.update(float(v).hex().encode())
            else:
                self.h.update(repr(v).encode())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def _axis_spec(lat, sigma0, c):
    """build_spec with a table budget of 1 point, so the axis backend serves."""
    cap, lgc.sampler.TABLE_CAP = lgc.sampler.TABLE_CAP, 1
    try:
        return build_spec(lat, sigma0, c)
    finally:
        lgc.sampler.TABLE_CAP = cap


def _lattices() -> dict:
    return {
        "Z4": standard_lattice("Zn", 4),
        "Z8": standard_lattice("Zn", 8),
        "D4": standard_lattice("Dn", 4),
        "E8": standard_lattice("E8"),
        "diag": make_lattice(np.diag([0.5, 1.0, 1.5, 2.0]), label="diag"),
        "lift": lift(random_code(7, 8, 4, RngSeed(2025, 0)), 0.6),
    }


def family_flatness(lats: dict) -> str:
    h = _Hash()
    for name in ("Z4", "D4", "E8", "lift"):
        lat = lats[name]
        unit = lat.volume ** (1.0 / lat.n)
        for s in (0.25, 0.35, 0.45, 0.6, 0.9):
            rep = flatness(lat, s * unit)
            h.add(name, rep.sigma, rep.gsnr, rep.epsilon, rep.theta.value,
                  rep.theta.truncation_bound, rep.theta.radius)
        for tau in (0.3, 1.0, 2.5):
            tv = theta(lat, tau / unit ** 2)
            h.add(tv.value, tv.truncation_bound, tv.radius)
    return h.hexdigest()


def _criterion4():
    params = make_params(math.sqrt(10.0), 1.0)
    vol = design_volume(params.sigma_tilde, 1.0, 8)
    return standard_lattice("E8").scale(vol ** 0.125), params


def family_table() -> str:
    lat, params = _criterion4()
    spec = build_spec(lat, params.sigma0, np.full(8, 0.25))
    h = _Hash()
    h.add(spec.backend, spec.table_coeffs, spec.table_probs, spec.table_cdf,
          spec.deficit, spec.truncation_radius)
    return h.hexdigest()


def family_table_stats(lats: dict) -> str:
    lat, params = _criterion4()
    skew8 = Lattice(np.eye(8) + 4.0 * np.eye(8, k=1), label="skew8",
                    lambda1=1.0)
    # tail_event_rate's bound needs flatness < 1, which skew8 cannot certify
    # at a sigma0 whose table stays small (its flatness is 9.4 at 0.3)
    cases = (
        (lat, params.sigma0, np.full(8, 0.25), params.sigma, True),
        (lats["D4"], 1.3, np.array([0.3, -0.2, 0.7, 0.1]), 0.6, True),
        (skew8, 0.3, np.full(8, 0.1), 0.2, False),
    )
    h = _Hash()
    for lat, sigma0, c, sigma, tail in cases:
        spec = build_spec(lat, sigma0, c)
        h.add(lat.label, spec.backend)
        if tail:
            h.add(*tail_event_rate(spec))
        h.add(sample_coeffs(spec, stream(RngSeed(9, 0)), 4096))
        rng = np.random.default_rng(77)
        ys = spec.truncation_radius / math.sqrt(lat.n) \
            * rng.normal(size=(4, lat.n))
        params = make_params(sigma0, sigma)
        h.add(np.array([map_decode(spec, params, y) for y in ys]))
    return h.hexdigest()


def family_axes(lats: dict) -> str:
    h = _Hash()
    rng = np.random.default_rng(31)
    for name in ("Z8", "E8", "D4", "diag"):
        lat = lats[name]
        for sigma0 in (0.7, 3.0):
            for shift in (np.zeros(lat.n), 0.5 * rng.random(lat.n)):
                spec = _axis_spec(lat, sigma0, shift)
                h.add(name, spec.backend, spec.deficit, spec.truncation_radius,
                      spec.coset_probs)
                for tables in spec.axis_tables:
                    for tab in tables:
                        h.add(tab[0], *tab[-2:])  # ks, probs, cdf
                h.add(sample_coeffs(spec, stream(RngSeed(7, 0)), 1 << 14))
                if spec.backend == "product" and not shift.any() \
                        and np.all(np.diag(lat.basis) == lat.basis[0, 0]):
                    h.add(*tail_event_rate(spec))
    return h.hexdigest()


def _batch_rows(lat, rng, m: int) -> np.ndarray:
    """Gaussian rows plus rows at half-integer coefficients, exact and
    nudged, on and near the Voronoi faces."""
    gauss = 3.0 * lat.volume ** (1.0 / lat.n) * rng.normal(size=(m, lat.n))
    half = rng.integers(-4, 5, size=(m, lat.n)) \
        + 0.5 * rng.integers(0, 2, size=(m, lat.n))
    faces = half @ lat.basis.T
    faces[m // 2:] += 1e-9 * rng.normal(size=(m - m // 2, lat.n))
    return np.concatenate([gauss, faces])


def family_batch(lats: dict) -> str:
    h = _Hash()
    for name in ("Z8", "D4", "E8", "diag", "lift"):
        lat = lats[name]
        rng = np.random.default_rng(1302)
        h.add(name, closest_points_batch(lat, _batch_rows(lat, rng, 10_000)))
    e8 = lats["E8"].scale(1.37)
    h.add(closest_points_batch(e8, _batch_rows(e8, np.random.default_rng(5),
                                               10_000)))
    return h.hexdigest()


def _certificate_rows(lat, rng, m: int) -> np.ndarray:
    """Rows in random directions from lattice points, at half the certified
    minimum distance of lat's reduction and at the nearest-plane
    certificate's 1e-9 margin inside it, each times 1 +- 1e-10 or
    1 +- 1e-15."""
    half = 0.5 * lat.reduced[0].lambda1_lb()
    edges = np.outer([1.0, math.sqrt(1.0 - 1e-9)],
                     [1 - 1e-10, 1 + 1e-10, 1 - 1e-15, 1 + 1e-15]).ravel()
    v = rng.normal(size=(m, lat.n))
    v *= (half * edges[rng.integers(edges.size, size=m)]
          / np.linalg.norm(v, axis=1))[:, None]
    return rng.integers(-3, 4, size=(m, lat.n)) @ lat.basis.T + v


def family_certificate(lats: dict) -> str:
    skew4 = make_lattice(np.eye(4) + 3.0 * np.eye(4, k=1), label="skew4")
    skew_a2 = make_lattice(standard_lattice("A2").basis
                           @ np.array([[2, 5], [1, 3]]), label="skewA2")
    h = _Hash()
    for lat in (lats["lift"], skew4, skew_a2):
        rows = _certificate_rows(lat, np.random.default_rng(1710), 4000)
        h.add(lat.label, closest_points_batch(lat, rows))
    return h.hexdigest()


_MAP_SPECS =(("Z8", 2.0, 0.0), ("D4", 1.0, 0.25), ("E8", 1.2, 0.25),
              ("diag", 1.5, 0.1))


def family_map(lats: dict) -> str:
    h = _Hash()
    for name, sigma0, shift in _MAP_SPECS:
        lat = lats[name]
        c = np.full(lat.n, shift)
        params = make_params(sigma0, 1.0)
        spec = _axis_spec(lat, sigma0, c)
        rng = np.random.default_rng(44)
        ys = 2.0 * spec.truncation_radius / math.sqrt(lat.n) \
            * rng.normal(size=(200, lat.n))
        h.add(name, np.array([map_decode(spec, params, y) for y in ys]))
        h.add(tuple(decode_agreement(lat, c, params, 3000, RngSeed(303, 0),
                                     spec=spec)))
    return h.hexdigest()


def _map_rows(spec, params, rng, m: int) -> np.ndarray:
    """Channel rows, rows out to two truncation radii and rows whose
    targets c + alpha*y sit at half-integer coefficients."""
    lat, c = spec.lattice, spec.shift
    sent = sample_coeffs(spec, rng, m) @ lat.basis.T - c
    channel = sent + params.sigma * rng.normal(size=sent.shape)
    wide = 2.0 * spec.truncation_radius / math.sqrt(lat.n) \
        * rng.normal(size=(m, lat.n))
    half = rng.integers(-3, 4, size=(m, lat.n)) \
        + 0.5 * rng.integers(0, 2, size=(m, lat.n))
    ties = (half @ lat.basis.T - c) / params.alpha
    return np.concatenate([channel, wide, ties])


def family_map_batch(lats: dict) -> str:
    h = _Hash()
    specs = [(_axis_spec(lats[name], sigma0, np.full(lats[name].n, shift)),
              make_params(sigma0, 1.0), 300)
             for name, sigma0, shift in _MAP_SPECS]
    # the D4 table holds 41,654 points, and _map_table scores all per row
    specs += [(build_spec(standard_lattice("Zn", 2), 2.0, np.full(2, 0.5)),
               make_params(2.0, 1.0), 300),
              (build_spec(lats["D4"], 1.3, np.array([0.3, -0.2, 0.7, 0.1])),
               make_params(1.3, 0.6), 60)]
    for spec, params, m in specs:
        lat = spec.lattice
        ys = _map_rows(spec, params, np.random.default_rng(19), m)
        mmse = closest_points_batch(lat, params.alpha * ys + spec.shift)
        h.add(lat.label, spec.backend,
              lgc.scheme._map_batch(spec, params, ys, mmse))
    return h.hexdigest()


def family_lemmas(lats: dict) -> str:
    h = _Hash()
    a2 = standard_lattice("A2")
    for name, lat in (("Z2", standard_lattice("Zn", 2)), ("A2", a2),
                      ("D4", lats["D4"])):
        unit = lat.volume ** (1.0 / lat.n)
        for s in (0.3, 0.5):
            h.add(name, flatness_direct(lat, s * unit, 6))
    rng = np.random.default_rng(12)
    for name, lat in (("Z4", lats["Z4"]), ("D4", lats["D4"]), ("A2", a2)):
        unit = lat.volume ** (1.0 / lat.n)
        for s in (1.5, 2.5):
            for c in (np.zeros(lat.n), rng.random(lat.n) @ lat.basis.T):
                mom = moment_check(lat, s * unit, c)
                h.add(name, *mom, entropy_deviation(lat, s * unit, c))
        for s in (0.45, 0.8):
            for c in (np.zeros(lat.n), rng.random(lat.n) @ lat.basis.T):
                h.add(*partition_sandwich_check(lat, s * unit, c))
    return h.hexdigest()


def _cli_csv(tmp: str, argv: list) -> bytes:
    """The CSV bytes `lgc <argv> --out <file in tmp>` writes."""
    out = os.path.join(tmp, "out.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = lgc_main([*argv, "--out", out])
    if code != 0:
        raise SystemExit(f"lgc {argv[0]} exited with {code}")
    with open(out, "rb") as fh:
        return fh.read()


_SAMPLE_CASES = (("E8", 0.4, 0.25), ("E8", 1.0, 0.25), ("Zn:8", 3.0, 0.0),
                 ("Zn:2", 1.0, 0.5))


def family_sample_csv() -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "sample.cfg")
        for name, sigma0, shift in _SAMPLE_CASES:
            with open(cfg, "w") as fh:
                fh.write(f"lattice = {name}\nsigma0 = {sigma0}\n"
                         f"shift = {shift}\n")
            h.update(_cli_csv(tmp, ["sample", "--config", cfg, "--seed",
                                    "2026", "--trials", "20000"]))
    return h.hexdigest()


def family_sandwich_csv() -> str:
    cfg = os.path.join(_ROOT, "perfbench", "sandwich_e8.cfg")
    with tempfile.TemporaryDirectory() as tmp:
        csv = _cli_csv(tmp, ["sandwich", "--config", cfg, "--seed", "2024",
                             "--trials", str(1 << 16)])
    return hashlib.sha256(csv).hexdigest()


def family_sandwich_paired() -> str:
    lat, params = _criterion4()
    res = sandwich_check(lat, np.full(8, 0.25), params, 1 << 16,
                         RngSeed(2024, 0))
    h = _Hash()
    h.add(res.scheme.errors, res.poltyrev.errors, res.both_errors,
          res.paired_lo, res.paired_hi)
    return h.hexdigest()


def _modp_lattice() -> tuple:
    # the best lattice of perfbench's poltyrev_modp ensemble, and its noise
    p, n, k = 7, 8, 4
    scale = math.sqrt(0.7 * 2.0 * math.pi / p ** (2.0 * (n - k) / n))
    lat = ensemble_search(p, n, k, scale, 1.0, 4, RngSeed(2025, 0))[0].lattice
    return lat, math.sqrt(lat.volume ** (2.0 / n) / (2.0 * math.pi * math.e
                                                     * 2.2))


def family_simulate(lats: dict) -> str:
    trials = 2 * BLOCK + 7
    e8, params = _criterion4()
    modp, modp_noise = _modp_lattice()
    h = _Hash()
    for threads in (1, 2):
        for lat, c, prm in ((e8, np.full(8, 0.25), params),
                            (lats["D4"], np.array([0.3, -0.2, 0.7, 0.1]),
                             make_params(5.0, 0.3))):
            h.add(simulate_error(lat, c, prm, trials, RngSeed(16, 0),
                                 threads=threads, label="s").csv_row())
        for lat, noise in ((lats["E8"], 0.28), (modp, modp_noise)):
            h.add(simulate_poltyrev(lat, noise, trials, RngSeed(16, 1),
                                    threads=threads, label="p").csv_row())
    return h.hexdigest()


def family_ensemble() -> str:
    h = _Hash()
    p, n, k = 7, 8, 4
    for g in (0.7, 1.5):
        scale = math.sqrt(g * 2.0 * math.pi / p ** (2.0 * (n - k) / n))
        entries = ensemble_search(p, n, k, scale, 1.0, 4, RngSeed(2025, 0))
        h.add(ensemble_csv(entries, scale))
        for e in entries:
            th = e.report.theta
            h.add(th.value, th.truncation_bound, th.radius)
    return h.hexdigest()


def main() -> int:
    lats = _lattices()
    families = (
        ("flatness", lambda: family_flatness(lats)),
        ("table", family_table),
        ("table_stats", lambda: family_table_stats(lats)),
        ("axes", lambda: family_axes(lats)),
        ("batch", lambda: family_batch(lats)),
        ("certificate", lambda: family_certificate(lats)),
        ("map",lambda: family_map(lats)),
        ("map_batch", lambda: family_map_batch(lats)),
        ("lemmas", lambda: family_lemmas(lats)),
        ("sample_csv", family_sample_csv),
        ("sandwich_csv", family_sandwich_csv),
        ("sandwich_paired", family_sandwich_paired),
        ("simulate", lambda: family_simulate(lats)),
        ("ensemble", family_ensemble),
    )
    for name, run in families:
        print(f"{name:13s} {run()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
