"""The benchmark's workloads: what one instance runs and how it is checked.

Importing this module does not import lgc; the parent process only needs
the sizes and seeds.  `Workload.run` executes one instance inside the
child process and calls `steady()` at (or just before) the first
steady-loop call, so everything before it counts as set-up.

Every call into lgc goes through a module attribute (`scheme.x(...)`,
never a name bound at import time), so the tracer's patches see it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SANDWICH_CFG = HERE / "sandwich_e8.cfg"
DIGESTS = HERE / "digests.json"

# lemmas_e8: (lattice, sigma) of the partition-sandwich shifts, in draw order
PARTITION_CASES = (("Zn", 4, 0.45), ("Dn", 4, 0.48), ("E8", None, 0.42))
LEMMA_DIMS = (1, 4, 8)
LEMMA_SIGMA0 = (1.5, 2.0, 3.0)
LEMMA_CHECKS = 2 * len(LEMMA_DIMS) * len(LEMMA_SIGMA0)  # moment + entropy

# poltyrev_modp: gsnr 0.7 at sigma 1 (the good-gsnr ensemble of the tests);
# decoding noise at VNR 2.2 puts p_hat near 1e-2 on the best lift
MODP = (7, 8, 4)
MODP_GSNR = 0.7
MODP_SAMPLES = 4
MODP_VNR = 2.2
# the ensemble (the lattice under test) is fixed; --seed draws the noise, so
# every seed decodes the same lattice and costs the same work
MODP_ENSEMBLE_SEED = 2025


@dataclass
class Outcome:
    """What one instance did: ops attempted and failed, and its digest."""

    attempted: int
    failed: int = 0
    digest: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(why)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    default_size: int
    tiny_size: int
    ops: Callable[[int], int]
    run: Callable


def _sandwich(seed: int, size: int, steady) -> Outcome:
    import lgc.cli
    import lgc.scheme

    steady.hook(lgc.scheme, "sample_coeffs")
    out = OUT / "sandwich_e8.csv"
    res = Outcome(attempted=2 * size)
    rc = lgc.cli.main(["sandwich", "--config", str(SANDWICH_CFG),
                       "--out", str(out), "--seed", str(seed),
                       "--trials", str(size), "--threads", "1"])
    if rc != 0:
        res.fail(res.attempted, f"lgc sandwich exited with {rc}")
        return res
    data = out.read_bytes()
    res.digest = {"csv_sha256": hashlib.sha256(data).hexdigest()}
    summary = json.loads(Path(str(out) + ".manifest.json").read_text())
    if not summary["sandwich"][0]["passed"]:
        res.fail(res.attempted, "sandwich check did not pass")
    rows = {r["label"]: r for r in csv.DictReader(io.StringIO(data.decode()))}
    p_hat = float(rows["poltyrev"]["p_hat"])
    if not 1e-3 <= p_hat <= 1e-2:
        res.fail(res.attempted, f"poltyrev p_hat {p_hat} outside [1e-3, 1e-2]")
    return res


def _lemmas(seed: int, size: int, steady) -> Outcome:
    import numpy as np
    import lgc.analytics as analytics
    from lgc.lattice import standard_lattice
    from lgc.rng import RngSeed, stream

    res = Outcome(attempted=len(PARTITION_CASES) * size + LEMMA_CHECKS)
    counts = {}
    values = hashlib.sha256()

    def check(key: str, fn) -> None:
        try:
            ok, detail = fn()
            values.update(repr(detail).encode())
        except Exception as exc:  # a raising check is a failed op
            ok = False
            res.problems.append(f"{key}: {type(exc).__name__}: {exc}")
        counts[key] = counts.get(key, 0) + int(ok)
        if not ok:
            res.fail(1, f"{key} failed")

    rng = stream(RngSeed(seed, 0))
    cases = [(standard_lattice(name, n), sigma)
             for name, n, sigma in PARTITION_CASES]
    steady()
    for lat, sigma in cases:
        for c in rng.random((size, lat.n)) @ lat.basis.T:

            def partition():
                chk = analytics.partition_sandwich_check(lat, sigma, c)
                return chk.passed, tuple(chk)

            check(f"partition_{lat.label}", partition)
    for n in LEMMA_DIMS:
        lat = standard_lattice("Zn", n)
        c = np.full(n, 0.3)
        for sigma0 in LEMMA_SIGMA0:

            def moment():
                chk = analytics.moment_check(lat, sigma0, c)
                return chk.passed, tuple(chk)

            def entropy():
                rep = analytics.entropy_check(lat, sigma0, c)
                dev = analytics.entropy_deviation(lat, sigma0, c)
                ok = dev <= rep.epsilon_prime + 1e-30
                return ok, (*rep.as_dict().values(), dev)

            check("moment", moment)
            check("entropy", entropy)
    # the counts, plus every checked value to the bit
    res.digest = {"passed": counts, "values_sha256": values.hexdigest()}
    return res


def _map_mmse(seed: int, size: int, steady) -> Outcome:
    import numpy as np
    import lgc.sampler as sampler
    import lgc.scheme as scheme
    from lgc.lattice import standard_lattice
    from lgc.rng import RngSeed

    params = scheme.make_params(3.0, 1.0)
    cases = (("Z8", standard_lattice("Zn", 8), np.zeros(8), RngSeed(seed, 0)),
             ("E8", standard_lattice("E8"), np.full(8, 0.5), RngSeed(seed, 1)))
    specs = [sampler.build_spec(lat, params.sigma0, c) for _, lat, c, _ in cases]
    res = Outcome(attempted=len(cases) * size)
    steady()
    for (key, lat, c, rs), spec in zip(cases, specs):
        try:
            rep = scheme.decode_agreement(lat, c, params, size, rs, spec=spec)
        except Exception as exc:
            res.fail(size, f"{key}: {type(exc).__name__}: {exc}")
            continue
        res.digest[key] = {"agreements": rep.agreements, "ties": rep.ties,
                           "mismatches": rep.mismatches}
        unaccounted = size - rep.agreements - rep.ties - rep.mismatches
        if rep.mismatches or unaccounted:
            res.fail(rep.mismatches + abs(unaccounted),
                     f"{key}: {rep.mismatches} MAP/MMSE mismatches")
    return res


def _poltyrev_modp(seed: int, size: int, steady) -> Outcome:
    import lgc.construction_a as construction_a
    import lgc.scheme as scheme
    from lgc.rng import RngSeed

    p, n, k = MODP
    scale = math.sqrt(MODP_GSNR * 2.0 * math.pi / p ** (2.0 * (n - k) / n))
    entries = construction_a.ensemble_search(p, n, k, scale, 1.0,
                                             MODP_SAMPLES,
                                             RngSeed(MODP_ENSEMBLE_SEED, 0))
    res = Outcome(attempted=size)
    eps = [e.report.epsilon for e in entries]
    if eps != sorted(eps):
        res.fail(size, f"ensemble not sorted by flatness: {eps}")
    lat = entries[0].lattice
    noise = math.sqrt(lat.volume ** (2.0 / n)
                      / (2.0 * math.pi * math.e * MODP_VNR))
    steady()
    sim = scheme.simulate_poltyrev(lat, noise, size, RngSeed(seed, 1))
    res.digest = {"best_sample": entries[0].sample_index, "errors": sim.errors}
    bounds = (sim.p_hat, sim.ci_low, sim.ci_high)
    if not (all(math.isfinite(v) for v in bounds)
            and sim.ci_low <= sim.p_hat <= sim.ci_high):
        res.fail(size, f"Wilson interval not finite and ordered: {bounds}")
    return res


WORKLOADS = {w.name: w for w in (
    Workload("sandwich_e8", 2024, 65536, 32768, lambda s: 2 * s, _sandwich),
    Workload("lemmas_e8", 505, 3, 1,
             lambda s: len(PARTITION_CASES) * s + LEMMA_CHECKS, _lemmas),
    Workload("map_mmse_e8", 303, 4096, 256, lambda s: 2 * s, _map_mmse),
    Workload("poltyrev_modp", 2025, 20000, 2000, lambda s: s, _poltyrev_modp),
)}


def expected_digest(name: str, seed: int, size: int) -> dict | None:
    """The recorded digest for this workload, if (seed, size) is the recorded one."""
    rec = json.loads(DIGESTS.read_text()).get(name)
    if rec is None or rec["seed"] != seed or rec["size"] != size:
        return None
    return rec["digest"]
