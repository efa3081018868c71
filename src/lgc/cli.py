"""Command-line harness: configured experiments with reproducible outputs.

Usage: lgc <command> [--config FILE] [--out PATH] [--seed N] [--trials N]
       [--threads N]

Commands: flatness, sample, simulate, sandwich, exponent, rate, ensemble.

Config files are flat `key = value` lines ('#' starts a comment); unknown
keys are rejected.  Lattices are named (Zn:8, Dn:4, E8, A2) or read from a
basis file.  When `snr` is given the convention is sigma = 1 and
sigma0 = sqrt(snr); an snr, in the config or swept, excludes sigma0 and
sigma.  One `sweep_axis` (sigma0, sigma, snr, mu, or V, as the command
allows) with a comma-separated `sweep_grid` turns the output into one row
per grid point; grid values must be positive, except mu's.  Every run
writes <out> plus <out>.manifest.json (config echo, version, wall time).
Exit codes: 0 success, 2 config error, 3 numeric precondition failure
(such as a sigma whose 2 pi sigma^2 under- or overflows, or a certified
sum past the point budget).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, LgcError, MultipleAxes
from .analytics import flatness
from .lattice import _read_lines, load_basis, standard_lattice
from .rng import RngSeed
from .sampler import build_spec, sample, sample_csv
from .scheme import (
    CSV_HEADER,
    design_volume,
    feasible_volume_interval,
    make_params,
    poltyrev_exponent,
    rate_budget,
    sandwich_check,
    simulate_error,
)
from .construction_a import ensemble_csv, ensemble_search

_COMMON_KEYS = {"command", "lattice", "out", "seed", "threads",
                "sweep_axis", "sweep_grid"}
FLATNESS_HEADER = "lattice,n,sigma,gsnr,theta,epsilon"
EXPONENT_HEADER = "mu,exponent,bound"
RATE_HEADER = "lattice,n,snr,eps,eps_prime,eps_dprime,rate_lower"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_config(path: str) -> dict:
    """Flat `key = value` lines into a raw string dict."""
    raw = {}
    for ln_no, line in enumerate(_read_lines(path, "config file"), 1):
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


def _parse_sweep(raw: dict, command: str) -> list:
    """One {axis: value} override per sweep_grid value, or [{}] without a
    sweep.

    Every grid value is checked here, once: positive on every axis but
    mu, whose values below 1 poltyrev_exponent rejects (MuBelowOne).
    """
    axis = raw.get("sweep_axis")
    if axis is None:
        if "sweep_grid" in raw:
            raise ConfigError("sweep_grid given without sweep_axis")
        return [{}]
    if "," in axis:
        raise MultipleAxes(f"exactly one sweep axis allowed, got '{axis}'")
    axes = COMMANDS[command].axes
    if axis not in axes:
        raise ConfigError(f"command '{command}' cannot sweep '{axis}' "
                          f"(allowed: {sorted(axes) or 'none'})")
    if "sweep_grid" not in raw:
        raise ConfigError("sweep_axis given without sweep_grid")
    grid = [_parse_float("sweep_grid", p.strip())
            for p in raw["sweep_grid"].split(",")]
    for v in grid:
        if v <= 0 and axis != "mu":
            raise ConfigError(f"{axis} grid values must be positive, got {v}")
    return [{axis: v} for v in grid]


def _params_for(raw: dict, over: dict):
    """GaussianParams of one sweep point; a config or grid snr means
    sigma = 1 and sigma0 = sqrt(snr), and excludes sigma0 and sigma."""
    snr = over.get("snr", _as_float(raw, "snr", positive=True))
    if snr is not None:
        if {"sigma0", "sigma"} & (raw.keys() | over.keys()):
            raise ConfigError("give either snr or sigma0/sigma, not both")
        return make_params(math.sqrt(snr), 1.0)
    sigma0 = over.get("sigma0", _as_float(raw, "sigma0", positive=True))
    sigma = over.get("sigma", _as_float(raw, "sigma", positive=True))
    if sigma0 is None or sigma is None:
        raise ConfigError("need sigma0 and sigma (or snr)")
    return make_params(sigma0, sigma)


# ---------------------------------------------------------------------------
# per-command runners: return (header, rows, manifest_extra)
# ---------------------------------------------------------------------------


def _run_flatness(raw, points, seed, trials, threads):
    lat = resolve_lattice(raw.get("lattice", ""))
    sigma = _as_float(raw, "sigma", positive=True)
    rows = []
    for over in points:
        s = over.get("sigma", sigma)
        if s is None:
            raise ConfigError("flatness needs 'sigma' or a sigma sweep")
        rep = flatness(lat, s)
        rows.append(f"{lat.label},{lat.n},{s!r},{rep.gsnr!r},"
                    f"{rep.theta.value!r},{rep.epsilon!r}")
    return FLATNESS_HEADER, rows, {}


def _run_exponent(raw, points, seed, trials, threads):
    n = _as_int(raw, "n", default=1, minimum=1)
    mu = _as_float(raw, "mu")
    rows = []
    for over in points:
        m = over.get("mu", mu)
        if m is None:
            raise ConfigError("exponent needs 'mu' or a mu sweep")
        pt = poltyrev_exponent(m, n)
        rows.append(f"{pt.mu!r},{pt.exponent!r},{pt.bound!r}")
    return EXPONENT_HEADER, rows, {"n": n}


def _run_rate(raw, points, seed, trials, threads):
    lat = resolve_lattice(raw.get("lattice", ""))
    eps_dprime = _as_float(raw, "eps_dprime", default=0.05, nonnegative=True)
    rows = []
    for over in points:
        params = _params_for(raw, over)
        rb = rate_budget(lat, params, eps_dprime)
        rows.append(f"{lat.label},{lat.n},{params.snr!r},{rb.eps!r},"
                    f"{rb.eps_prime!r},{rb.eps_dprime!r},{rb.rate_lower!r}")
    return RATE_HEADER, rows, {}


def _run_sample(raw, points, seed, trials, threads):
    lat = resolve_lattice(raw.get("lattice", ""))
    sigma0 = _as_float(raw, "sigma0", positive=True)
    if sigma0 is None:
        raise ConfigError("sample needs 'sigma0'")
    shift = _parse_shift(raw, lat.n)
    spec = build_spec(lat, sigma0, shift)
    header, rows = sample_csv(spec, sample(spec, seed, trials))
    return header, rows, {"spec": spec.as_dict()}


def _sweep_points(raw: dict, points: list):
    """Yield (lattice, shift, params) for each sweep point of simulate and
    sandwich; the lattice, the shift and eps_dprime are read once."""
    lat = resolve_lattice(raw.get("lattice", ""))
    shift = _parse_shift(raw, lat.n)
    eps_dprime = _as_float(raw, "eps_dprime", default=0.05, nonnegative=True)
    volume = raw.get("volume")
    if volume not in (None, "design"):
        volume = _parse_float("volume", volume)
        if volume <= 0:
            raise ConfigError(f"volume must be positive, got {volume}")
    for over in points:
        params = _params_for(raw, over)
        v = over.get("V", volume)
        if v == "design":
            v = design_volume(params.sigma_tilde, eps_dprime, lat.n)
        if v is None:
            yield lat, shift, params
        else:
            yield lat.scale((v / lat.volume) ** (1.0 / lat.n)), shift, params


def _run_simulate(raw, points, seed, trials, threads):
    label = raw.get("label", "")
    rows = [simulate_error(lat, shift, params, trials, seed, threads,
                           label).csv_row()
            for lat, shift, params in _sweep_points(raw, points)]
    return CSV_HEADER, rows, {}


def _run_sandwich(raw, points, seed, trials, threads):
    rows = []
    summaries = []
    for lat, shift, params in _sweep_points(raw, points):
        res = sandwich_check(lat, shift, params, trials, seed, threads)
        rows.extend([res.scheme.csv_row(), res.poltyrev.csv_row()])
        summaries.append({"ratio": res.ratio, "ratio_lo": res.ratio_lo,
                          "ratio_hi": res.ratio_hi, "lo": res.lo,
                          "hi": res.hi, "eps1": res.eps1, "eps2": res.eps2,
                          "passed": res.passed,
                          "errors_scheme": res.scheme.errors,
                          "errors_poltyrev": res.poltyrev.errors,
                          "errors_both": res.both_errors,
                          "paired_lo": res.paired_lo,
                          "paired_hi": res.paired_hi,
                          "v2n": lat.volume ** (2.0 / lat.n),
                          "v2n_window": feasible_volume_interval(params)})
    return CSV_HEADER, rows, {"sandwich": summaries}


def _run_ensemble(raw, points, seed, trials, threads):
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
    header, rows = ensemble_csv(entries, scale)
    return header, rows, {}


class _Command(NamedTuple):
    keys: set      # config keys beyond _COMMON_KEYS
    axes: set      # allowed sweep_axis values
    run: Callable  # (raw, points, seed, trials, threads) -> (header, rows, extra)


_SNR_KEYS = {"sigma0", "sigma", "snr"}
COMMANDS = {
    "flatness": _Command({"sigma"}, {"sigma"}, _run_flatness),
    "sample": _Command({"sigma0", "shift", "trials"}, set(), _run_sample),
    "simulate": _Command(
        _SNR_KEYS | {"shift", "trials", "volume", "eps_dprime", "label"},
        _SNR_KEYS | {"V"}, _run_simulate),
    "sandwich": _Command(
        _SNR_KEYS | {"shift", "trials", "volume", "eps_dprime"},
        _SNR_KEYS | {"V"}, _run_sandwich),
    "exponent": _Command({"mu", "n"}, {"mu"}, _run_exponent),
    "rate": _Command(_SNR_KEYS | {"eps_dprime"}, _SNR_KEYS, _run_rate),
    "ensemble": _Command({"p", "n", "k", "scale", "sigma", "samples", "delta"},
                         set(), _run_ensemble),
}


def _write_atomic(files: dict) -> None:
    """Run write(fh) for each {path: write} on a temp file beside path.

    Every temp file is written before any path is replaced, so a failed
    write leaves all the paths as they were; the temp files are removed on
    any failure.
    """
    tmps = {path: f"{path}.{os.getpid()}.tmp" for path in files}
    try:
        for path, write in files.items():
            with open(tmps[path], "w") as fh:
                write(fh)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


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
        command = COMMANDS[args.command]
        unknown = set(raw) - _COMMON_KEYS - command.keys
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
        header, rows, extra = command.run(raw, _parse_sweep(raw, args.command),
                                          seed, trials, threads)
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
        _write_atomic({
            out: lambda fh: fh.writelines(
                line + "\n" for line in (header, *rows)),
            out + ".manifest.json": lambda fh: fh.write(
                json.dumps(manifest, indent=2, default=str) + "\n"),
        })
    except ConfigError as exc:
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
