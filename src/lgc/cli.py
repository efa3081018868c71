"""Command-line harness: configured experiments with reproducible outputs.

Usage: lgc <command> [--config FILE] [--out PATH] [--seed N] [--trials N]
       [--threads N]

Commands: flatness, sample, simulate, sandwich, exponent, rate, ensemble.

Config files are flat `key = value` lines ('#' starts a comment); unknown
keys are rejected.  Lattices are named (Zn:8, Dn:4, E8, A2) or read from a
basis file.  When `snr` is given the convention is sigma = 1 and
sigma0 = sqrt(snr).  One `sweep_axis` (sigma0, sigma, snr, mu, or V) with
a comma-separated `sweep_grid` turns the output into one row per grid
point.  Every run writes <out> plus <out>.manifest.json (config echo,
version, wall time).  Exit codes: 0 success, 2 config error, 3 numeric
precondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, LgcError, MultipleAxes
from .analytics import flatness
from .lattice import load_basis, standard_lattice
from .rng import RngSeed
from .sampler import build_spec, sample
from .scheme import (
    CSV_HEADER,
    design_volume,
    make_params,
    poltyrev_exponent,
    rate_budget,
    sandwich_check,
    simulate_error,
)
from .construction_a import ENSEMBLE_CSV_HEADER, ensemble_search

COMMANDS = ("flatness", "sample", "simulate", "sandwich", "exponent",
            "rate", "ensemble")

_COMMON_KEYS = {"command", "lattice", "out", "seed", "threads",
                "sweep_axis", "sweep_grid"}
_COMMAND_KEYS = {
    "flatness": {"sigma"},
    "sample": {"sigma0", "shift", "trials"},
    "simulate": {"sigma0", "sigma", "snr", "shift", "trials", "volume",
                 "eps_dprime", "label"},
    "sandwich": {"sigma0", "sigma", "snr", "shift", "trials", "volume",
                 "eps_dprime"},
    "exponent": {"mu", "n"},
    "rate": {"sigma0", "sigma", "snr", "eps_dprime"},
    "ensemble": {"p", "n", "k", "scale", "sigma", "samples", "delta"},
}
_SWEEP_AXES = {
    "flatness": {"sigma"},
    "sample": set(),
    "simulate": {"sigma0", "sigma", "snr", "V"},
    "sandwich": {"sigma0", "sigma", "snr", "V"},
    "exponent": {"mu"},
    "rate": {"snr", "sigma0", "sigma"},
    "ensemble": set(),
}

FLATNESS_HEADER = "lattice,n,sigma,gsnr,theta,epsilon"
EXPONENT_HEADER = "mu,exponent,bound"
RATE_HEADER = "lattice,n,snr,eps,eps_prime,eps_dprime,rate_lower"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_config(path: str) -> dict:
    """Flat `key = value` lines into a raw string dict."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    with open(path) as fh:
        for ln_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln_no}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if not key or not val:
                raise ConfigError(f"{path}:{ln_no}: empty key or value")
            if key in raw:
                raise ConfigError(f"{path}:{ln_no}: duplicate key '{key}'")
            raw[key] = val
    return raw


def _parse_float(name: str, text) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got '{text}'") from None
    if not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got '{text}'")
    return v


def _as_float(raw: dict, key: str, default=None, positive=False,
              nonnegative=False):
    if key not in raw:
        return default
    v = _parse_float(f"key '{key}'", raw[key])
    if positive and v <= 0:
        raise ConfigError(f"key '{key}' must be positive, got {v}")
    if nonnegative and v < 0:
        raise ConfigError(f"key '{key}' must be nonnegative, got {v}")
    return v


def _parse_int(name: str, text: str, minimum=None) -> int:
    try:
        v = int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got '{text}'") from None
    if minimum is not None and v < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {v}")
    return v


def _as_int(raw: dict, key: str, default=None, minimum=None):
    if key not in raw:
        return default
    return _parse_int(f"key '{key}'", raw[key], minimum)


def resolve_lattice(value: str):
    name = value.strip()
    if name == "E8" or name == "A2":
        return standard_lattice(name)
    for prefix, key in (("Zn:", "Zn"), ("Dn:", "Dn")):
        if name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                raise ConfigError(f"bad lattice dimension in '{name}'")
            return standard_lattice(key, n)
    path = name[len("basis:"):] if name.startswith("basis:") else name
    if not os.path.exists(path):
        raise ConfigError("lattice file not found")
    return load_basis(path)


def _parse_shift(raw: dict, n: int) -> np.ndarray:
    if "shift" not in raw:
        return np.zeros(n)
    vals = [_parse_float("key 'shift'", p.strip())
            for p in raw["shift"].split(",")]
    if len(vals) == 1:
        return np.full(n, vals[0])
    if len(vals) != n:
        raise ConfigError(f"shift has {len(vals)} entries, lattice dim {n}")
    return np.array(vals)


def _parse_sweep(raw: dict, command: str):
    axis = raw.get("sweep_axis")
    if axis is None:
        if "sweep_grid" in raw:
            raise ConfigError("sweep_grid given without sweep_axis")
        return None, None
    if "," in axis:
        raise MultipleAxes(f"exactly one sweep axis allowed, got '{axis}'")
    axis = axis.strip()
    if axis not in _SWEEP_AXES[command]:
        raise ConfigError(
            f"command '{command}' cannot sweep '{axis}' "
            f"(allowed: {sorted(_SWEEP_AXES[command]) or 'none'})")
    if "sweep_grid" not in raw:
        raise ConfigError("sweep_axis given without sweep_grid")
    grid = [_parse_float("sweep_grid", p.strip())
            for p in raw["sweep_grid"].split(",")]
    if not grid:
        raise ConfigError("sweep_grid is empty")
    return axis, grid


def _params_for(raw: dict, overrides: dict):
    """(sigma0, sigma) honoring the snr convention sigma=1, sigma0=sqrt(snr)."""
    if "snr" in overrides:
        if overrides["snr"] <= 0:
            raise ConfigError("snr grid values must be positive")
        return math.sqrt(overrides["snr"]), 1.0
    base_snr = _as_float(raw, "snr", positive=True)
    if base_snr is not None:
        if "sigma0" in raw or "sigma" in raw:
            raise ConfigError("give either snr or sigma0/sigma, not both")
        sigma0, sigma = math.sqrt(base_snr), 1.0
    else:
        sigma0 = _as_float(raw, "sigma0", positive=True)
        sigma = _as_float(raw, "sigma", positive=True)
    sigma0 = overrides.get("sigma0", sigma0)
    sigma = overrides.get("sigma", sigma)
    if sigma0 is None or sigma is None:
        raise ConfigError("need sigma0 and sigma (or snr)")
    if sigma0 <= 0 or sigma <= 0:
        raise ConfigError("sigma0/sigma values must be positive")
    return sigma0, sigma


def _scaled_to_volume(lat, volume_value, eps_dprime, sigma_tilde):
    """Rescale a named lattice to an explicit or designed volume."""
    if volume_value is None:
        return lat
    if volume_value == "design":
        v = design_volume(sigma_tilde, eps_dprime, lat.n)
    else:
        v = _parse_float("volume", volume_value)
        if v <= 0:
            raise ConfigError(f"volume must be positive, got {v}")
    return lat.scale((v / lat.volume) ** (1.0 / lat.n))


# ---------------------------------------------------------------------------
# per-command runners: return (header, rows, manifest_extra)
# ---------------------------------------------------------------------------


def _run_flatness(raw, seed, trials, threads):
    lat = resolve_lattice(raw.get("lattice", ""))
    axis, grid = _parse_sweep(raw, "flatness")
    sigmas = grid if axis == "sigma" else [_as_float(raw, "sigma",
                                                     positive=True)]
    if sigmas[0] is None:
        raise ConfigError("flatness needs 'sigma' or a sigma sweep")
    rows = []
    for s in sigmas:
        if s <= 0:
            raise ConfigError(f"sigma grid values must be positive, got {s}")
        rep = flatness(lat, s)
        rows.append(f"{lat.label},{lat.n},{s!r},{rep.gsnr!r},"
                    f"{rep.theta.value!r},{rep.epsilon!r}")
    return FLATNESS_HEADER, rows, {}


def _run_exponent(raw, seed, trials, threads):
    n = _as_int(raw, "n", default=1, minimum=1)
    axis, grid = _parse_sweep(raw, "exponent")
    mus = grid if axis == "mu" else [_as_float(raw, "mu")]
    if mus[0] is None:
        raise ConfigError("exponent needs 'mu' or a mu sweep")
    rows = []
    for mu in mus:
        pt = poltyrev_exponent(mu, n)
        rows.append(f"{pt.mu!r},{pt.exponent!r},{pt.bound!r}")
    return EXPONENT_HEADER, rows, {"n": n}


def _run_rate(raw, seed, trials, threads):
    lat = resolve_lattice(raw.get("lattice", ""))
    eps_dprime = _as_float(raw, "eps_dprime", default=0.05, nonnegative=True)
    axis, grid = _parse_sweep(raw, "rate")
    points = grid if axis else [None]
    rows = []
    for v in points:
        over = {axis: v} if axis else {}
        sigma0, sigma = _params_for(raw, over)
        params = make_params(sigma0, sigma)
        rb = rate_budget(lat, params, eps_dprime)
        rows.append(f"{lat.label},{lat.n},{params.snr!r},{rb.eps!r},"
                    f"{rb.eps_prime!r},{rb.eps_dprime!r},{rb.rate_lower!r}")
    return RATE_HEADER, rows, {}


def _run_sample(raw, seed, trials, threads):
    lat = resolve_lattice(raw.get("lattice", ""))
    sigma0 = _as_float(raw, "sigma0", positive=True)
    if sigma0 is None:
        raise ConfigError("sample needs 'sigma0'")
    shift = _parse_shift(raw, lat.n)
    spec = build_spec(lat, sigma0, shift)
    pts = sample(spec, seed, trials)
    header = ",".join([f"coeffs{i}" for i in range(lat.n)]
                      + [f"embedding{i}" for i in range(lat.n)])
    rows = []
    for pt in pts:
        rows.append(",".join([str(int(v)) for v in pt.coeffs]
                             + [repr(float(v)) for v in pt.embedding]))
    return header, rows, {"spec": spec.as_dict()}


def _run_simulate(raw, seed, trials, threads):
    axis, grid = _parse_sweep(raw, "simulate")
    label = raw.get("label", "")
    points = grid if axis else [None]
    rows = []
    for v in points:
        over = {axis: v} if axis and axis in ("sigma0", "sigma", "snr") else {}
        sigma0, sigma = _params_for(raw, over)
        params = make_params(sigma0, sigma)
        vol = v if axis == "V" else raw.get("volume")
        lat = _scaled_to_volume(resolve_lattice(raw.get("lattice", "")), vol,
                                _as_float(raw, "eps_dprime", default=0.05,
                                          nonnegative=True),
                                params.sigma_tilde)
        shift = _parse_shift(raw, lat.n)
        res = simulate_error(lat, shift, params, trials, seed, threads, label)
        rows.append(res.csv_row())
    return CSV_HEADER, rows, {}


def _run_sandwich(raw, seed, trials, threads):
    axis, grid = _parse_sweep(raw, "sandwich")
    points = grid if axis else [None]
    rows = []
    summaries = []
    for v in points:
        over = {axis: v} if axis and axis in ("sigma0", "sigma", "snr") else {}
        sigma0, sigma = _params_for(raw, over)
        params = make_params(sigma0, sigma)
        vol = v if axis == "V" else raw.get("volume")
        lat = _scaled_to_volume(resolve_lattice(raw.get("lattice", "")), vol,
                                _as_float(raw, "eps_dprime", default=0.05,
                                          nonnegative=True),
                                params.sigma_tilde)
        shift = _parse_shift(raw, lat.n)
        res = sandwich_check(lat, shift, params, trials, seed, threads)
        rows.extend([res.scheme.csv_row(), res.poltyrev.csv_row()])
        summaries.append({"ratio": res.ratio, "ratio_lo": res.ratio_lo,
                          "ratio_hi": res.ratio_hi, "lo": res.lo,
                          "hi": res.hi, "eps1": res.eps1, "eps2": res.eps2,
                          "passed": res.passed})
    return CSV_HEADER, rows, {"sandwich": summaries}


def _run_ensemble(raw, seed, trials, threads):
    p = _as_int(raw, "p", minimum=2)
    n = _as_int(raw, "n", minimum=1)
    k = _as_int(raw, "k", minimum=1)
    scale = _as_float(raw, "scale", positive=True)
    sigma = _as_float(raw, "sigma", positive=True)
    samples = _as_int(raw, "samples", default=100, minimum=1)
    delta = _as_float(raw, "delta", default=1.0, nonnegative=True)
    if None in (p, n, k, scale, sigma):
        raise ConfigError("ensemble needs p, n, k, scale, sigma")
    entries = ensemble_search(p, n, k, scale, sigma, samples, seed, delta)
    rows = [f"{e.sample_index},{p},{n},{k},{scale!r},{e.report.gsnr!r},"
            f"{e.report.epsilon!r},{e.bound!r}" for e in entries]
    return ENSEMBLE_CSV_HEADER, rows, {}


_RUNNERS = {
    "flatness": _run_flatness,
    "sample": _run_sample,
    "simulate": _run_simulate,
    "sandwich": _run_sandwich,
    "exponent": _run_exponent,
    "rate": _run_rate,
    "ensemble": _run_ensemble,
}


def main(argv=None) -> int:
    parser = _Parser(prog="lgc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials")
    parser.add_argument("--threads")
    t_start = time.time()
    try:
        args = parser.parse_args(argv)
        raw = parse_config(args.config) if args.config else {}
        if "command" in raw and raw["command"] != args.command:
            raise ConfigError(
                f"config command '{raw['command']}' != '{args.command}'")
        unknown = set(raw) - _COMMON_KEYS - _COMMAND_KEYS[args.command]
        if unknown:
            raise ConfigError(
                f"unknown key(s) for {args.command}: {', '.join(sorted(unknown))}")
        master = args.seed if args.seed is not None else \
            _as_int(raw, "seed", default=0, minimum=0)
        seed = RngSeed(master)
        if args.trials is not None:
            trials = _parse_int("--trials", args.trials, minimum=1)
        else:
            trials = _as_int(raw, "trials", default=10000, minimum=1)
        if args.threads is not None:
            threads = _parse_int("--threads", args.threads, minimum=1)
        elif "threads" in raw:
            threads = _as_int(raw, "threads", minimum=1)
        else:
            threads = _parse_int("LGC_THREADS",
                                 os.environ.get("LGC_THREADS", "1"), minimum=1)
        out = args.out or raw.get("out") or f"{args.command}.csv"
        header, rows, extra = _RUNNERS[args.command](raw, seed, trials,
                                                     threads)
        with open(out, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
        manifest = {
            "command": args.command,
            "version": __version__,
            "config": dict(raw),
            "seed": master,
            "trials": trials,
            "threads": threads,
            "out": out,
            "rows": len(rows),
            "wall_time_s": time.time() - t_start,
        }
        manifest.update(extra)
        with open(out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")
    except (ConfigError, MultipleAxes) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except LgcError as exc:
        print(f"run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"{out}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
