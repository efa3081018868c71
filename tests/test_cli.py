"""End-to-end harness runs: configs, sweeps, manifests, exit codes."""

import ast
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgc.cli import (
    CSV_HEADER,
    EXPONENT_HEADER,
    FLATNESS_HEADER,
    RATE_HEADER,
    main,
)
from lgc.construction_a import ENSEMBLE_CSV_HEADER, ensemble_csv, ensemble_search
import lgc.lattice as lattice_mod
from lgc.lattice import standard_lattice
from lgc.rng import RngSeed
from lgc.sampler import build_spec, sample, sample_csv


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


def _manifest(path):
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analytic commands
# ---------------------------------------------------------------------------


def test_exponent_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
        # exponent curve over the achievability region
        n = 4
        sweep_axis = mu
        sweep_grid = 1, 1.5, 2, 3, 4, 8
    """)
    out = tmp_path / "exp.csv"
    assert main(["exponent", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{out}: 6 rows\n"
    header, rows = _rows(out)
    assert header == EXPONENT_HEADER
    assert len(rows) == 6
    table = [tuple(float(v) for v in r.split(",")) for r in rows]
    assert table[0][1] == 0.0  # exponent vanishes at mu = 1
    exps = [r[1] for r in table]
    bounds = [r[2] for r in table]
    assert all(b > a for a, b in zip(exps, exps[1:]))
    assert all(b < a for a, b in zip(bounds, bounds[1:]))
    man = _manifest(out)
    assert man["command"] == "exponent"
    assert man["rows"] == 6
    assert man["n"] == 4
    assert man["config"]["sweep_axis"] == "mu"
    assert "version" in man and "wall_time_s" in man


def test_flatness_sweep(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sweep_axis = sigma
        sweep_grid = 0.5, 0.8, 1.2, 2.0
    """)
    out = tmp_path / "flat.csv"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == FLATNESS_HEADER
    eps = [float(r.split(",")[5]) for r in rows]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert rows[0].split(",")[0] == "Z2"
    assert int(rows[0].split(",")[1]) == 2


def test_flatness_of_skewed_basis_file(tmp_path):
    # a unimodular basis of Z8 whose dual has long columns
    basis = tmp_path / "skew.txt"
    rows = np.eye(8) + 3.0 * np.eye(8, k=1)
    basis.write_text("8\n" + "".join(" ".join(repr(float(v)) for v in row)
                                      + "\n" for row in rows))
    cfg = _write_config(tmp_path, f"lattice = {basis}\nsigma = 1.5\n")
    out = tmp_path / "flat.csv"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out)
    assert float(rows[0].split(",")[5]) == pytest.approx(
        8.2357602951942425e-19, rel=1e-9)


@pytest.mark.parametrize("command,body,column,value", [
    ("flatness", "lattice = E8\nsigma = 1e100\n", 4, "inf"),
    ("rate", "lattice = E8\nsnr = 1e300\n", 3, "0.0"),
], ids=["flatness", "rate"])
def test_theta_past_the_float_range_exits_0(tmp_path, command, body, column,
                                            value):
    # on E8 at sigma 1e100 (sigma0 1e150 for the rate), tau^{-n/2}
    # overflows: theta is inf, and the dual-sum epsilon is 0
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out)
    assert rows[0].split(",")[column] == value


@pytest.mark.parametrize("command,body,code", [
    ("flatness", "lattice = Zn:8\nsigma = 1e-40\n", 0),
    ("flatness", "lattice = E8\nsigma = 1e-77\n", 0),
    ("rate", "lattice = E8\nsnr = 1e-300\n", 3),
    ("rate", "lattice = Zn:8\nsnr = 1e-200\n", 3),
    ("sandwich", "lattice = E8\nsigma0 = 1e-100\nsigma = 1e-101\n", 3),
    ("ensemble", "p = 3\nn = 4\nk = 1\nscale = 1\nsigma = 1e-100\n", 0),
], ids=["flatness-Z8", "flatness-E8", "rate-E8", "rate-Z8", "sandwich",
        "ensemble"])
def test_gsnr_power_past_the_float_range(tmp_path, capsys, command, body,
                                         code):
    # gsnr^(n/2) overflows: epsilon (primal product formula) and the
    # ensemble's theorem-1 bound are inf, and rate and sandwich refuse it
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert err.startswith("run: FlatnessTooLarge") and err.count("\n") == 1
        assert not out.exists()
        return
    header, rows = _rows(out)
    names = header.split(",")
    for row in rows:
        got = dict(zip(names, row.split(",")))
        assert got["epsilon"] == "inf"
        assert got.get("bound", "inf") == "inf"


def test_rate_sweep(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Zn:8
        eps_dprime = 0.05
        sweep_axis = snr
        sweep_grid = 4, 9, 16, 25
    """)
    out = tmp_path / "rate.csv"
    assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == RATE_HEADER
    snrs = [float(r.split(",")[2]) for r in rows]
    rates = [float(r.split(",")[6]) for r in rows]
    assert snrs == [4.0, 9.0, 16.0, 25.0]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    # sigma0 = sqrt(snr), sigma = 1 keeps the flatness slack negligible
    assert rates[1] == pytest.approx(0.5 * math.log(10.0) - 0.025, rel=1e-9)


# ---------------------------------------------------------------------------
# sampling and simulation commands
# ---------------------------------------------------------------------------


def test_sample_run_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sigma0 = 1.0
        shift = 0.25
        trials = 40
        seed = 9
    """)
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == "coeffs0,coeffs1,embedding0,embedding1"
    assert len(rows) == 40
    for r in rows:
        u0, u1, x0, x1 = r.split(",")
        assert float(x0) == int(u0) - 0.25
        assert float(x1) == int(u1) - 0.25
    man = _manifest(out)
    assert man["spec"]["lattice"] == "Z2"
    assert man["spec"]["sigma0"] == 1.0
    assert man["spec"]["shift"] == [0.25, 0.25]
    assert 0.0 <= man["spec"]["deficit"] < 1e-12
    first = out.read_text()
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == first
    # a different master seed changes the draws
    assert main(["sample", "--config", cfg, "--out", str(out),
                 "--seed", "10"]) == 0
    assert out.read_text() != first


def test_sample_shift_per_coordinate(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sigma0 = 1.0
        shift = 0.1, 0.2
        trials = 4
    """)
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert _manifest(out)["spec"]["shift"] == [0.1, 0.2]
    for r in _rows(out)[1]:
        u0, u1, x0, x1 = r.split(",")
        assert (float(x0), float(x1)) == (int(u0) - 0.1, int(u1) - 0.2)


def test_simulate_design_volume(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = E8
        snr = 10
        volume = design
        eps_dprime = 0.05
        shift = 0.25
        trials = 4096
        seed = 3
    """)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 1
    f = rows[0].split(",")
    assert f[0].startswith("E8")  # rescaled lattices carry the scale tag
    assert int(f[2]) == 8
    assert float(f[3]) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert float(f[4]) == 1.0
    # designed volume pins the volume-to-noise ratio at 1 + eps''
    assert float(f[8]) == pytest.approx(1.05, rel=1e-9)
    assert int(f[9]) == 4096
    first = out.read_text()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == first


def test_simulate_threads_identical(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Dn:2
        sigma0 = 2.0
        sigma = 1.0
        trials = 20000
        seed = 12
    """)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b),
                 "--threads", "4"]) == 0
    assert a.read_text() == b.read_text()


def test_simulate_volume_sweep(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sigma0 = 2.0
        sigma = 1.0
        trials = 2048
        sweep_axis = V
        sweep_grid = 2, 4, 8
    """)
    out = tmp_path / "vs.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _rows(out)
    vols = [float(r.split(",")[7]) for r in rows]
    assert vols == pytest.approx([2.0, 4.0, 8.0], rel=1e-9)
    errs = [int(r.split(",")[10]) for r in rows]
    # larger cells at fixed noise mean fewer decoding errors
    assert errs[0] > errs[-1]


def test_sandwich_run(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = Zn:1
        sigma0 = 2.0
        sigma = 1.0
        trials = 32768
        seed = 404
    """)
    out = tmp_path / "sand.csv"
    assert main(["sandwich", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == CSV_HEADER
    assert len(rows) == 2
    assert rows[0].split(",")[1] == "scheme"
    assert rows[1].split(",")[1] == "poltyrev"
    man = _manifest(out)
    s = man["sandwich"][0]
    assert s["passed"] is True
    assert s["lo"] <= 1.0 <= s["hi"]
    assert s["ratio_lo"] <= s["ratio"] <= s["ratio_hi"]
    # Z1 at sigma0 2, sigma 1: sigma_tilde^2 = 0.8, sigma0^4 / (sigma0^2 +
    # sigma^2) = 3.2
    assert s["v2n"] == 1.0
    assert s["v2n_window"] == pytest.approx(
        [2 * math.pi * math.e * 0.8, 2 * math.pi * 3.2], rel=1e-12)


def _csv_bytes(header: str, rows: list) -> bytes:
    """The bytes of a CSV file holding header and rows, one line each."""
    return "".join(line + "\n" for line in (header, *rows)).encode()


def test_cli_rows_match_library_writers(tmp_path):
    cfg = _write_config(tmp_path, """
        lattice = E8
        sigma0 = 3.0
        shift = 0.25
        trials = 300
        seed = 9
    """)
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    spec = build_spec(standard_lattice("E8"), 3.0, np.full(8, 0.25))
    header, rows = sample_csv(spec, sample(spec, RngSeed(9), 300))
    assert out.read_bytes() == _csv_bytes(header, rows)

    cfg = _write_config(tmp_path, """
        p = 7
        n = 6
        k = 3
        scale = 0.9
        sigma = 1.0
        samples = 5
        delta = 0.5
    """, name="ens.cfg")
    out = tmp_path / "ens.csv"
    assert main(["ensemble", "--config", cfg, "--out", str(out),
                 "--seed", "17"]) == 0
    entries = ensemble_search(7, 6, 3, 0.9, 1.0, 5, RngSeed(17), 0.5)
    assert out.read_bytes() == _csv_bytes(*ensemble_csv(entries, 0.9))


def test_ensemble_run(tmp_path):
    scale = math.sqrt(0.7 * 2.0 * math.pi / 5.0)
    cfg = _write_config(tmp_path, f"""
        p = 5
        n = 4
        k = 2
        scale = {scale}
        sigma = 1.0
        samples = 6
        seed = 2025
    """)
    out = tmp_path / "ens.csv"
    assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _rows(out)
    assert header == ENSEMBLE_CSV_HEADER
    assert len(rows) == 6
    eps = [float(r.split(",")[6]) for r in rows]
    assert eps == sorted(eps)
    gammas = [float(r.split(",")[5]) for r in rows]
    assert gammas == pytest.approx([0.7] * 6, rel=1e-12)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_lattice_file_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
        lattice = /nonexistent/basis.txt
        sigma = 1.0
    """)
    rc = main(["flatness", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "config: lattice file not found\n"


_UTF8 = "is not UTF-8 text: byte 9: invalid continuation byte"


@pytest.mark.parametrize("which,bad,message", [
    ("config", "latin1", _UTF8),
    ("config", "dir", "cannot read config file"),
    ("basis", "latin1", _UTF8),
    ("basis", "dir", "cannot read basis file"),
    ("basis", "nan", "holds a non-finite entry"),
    ("basis", "inf", "holds a non-finite entry"),
    ("basis", "empty", "empty basis file"),
], ids=["config-latin1", "config-dir", "basis-latin1", "basis-dir",
        "basis-nan", "basis-inf", "basis-empty"])
def test_bad_input_files_are_config_errors(tmp_path, capsys, which, bad,
                                           message):
    """A config or basis file that is not UTF-8 text, a directory, an
    empty basis or one holding nan or inf exits with code 2 and a message."""
    bad_path = tmp_path / "bad"
    if bad == "dir":
        bad_path.mkdir()
    elif bad == "empty":
        bad_path.write_text("")
    elif bad == "latin1":
        bad_path.write_bytes("sigma = 1\xe9\n".encode("latin-1"))
    else:
        bad_path.write_text(f"2\n1.0 0.0\n0.0 {bad}\n")
    if which == "config":
        cfg = str(bad_path)
    else:
        cfg = _write_config(tmp_path, f"lattice = {bad_path}\nsigma = 1.0\n")
    out = tmp_path / "x.csv"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err
    assert not out.exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sigma = 1.0
        bogus = 3
    """)
    assert main(["flatness", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: unknown key(s) for flatness: bogus")


def test_multiple_sweep_axes_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sigma0 = 2.0
        sigma = 1.0
        trials = 64
        sweep_axis = sigma0, snr
        sweep_grid = 1, 2
    """)
    assert main(["simulate", "--config", cfg]) == 2
    assert "exactly one sweep axis" in capsys.readouterr().err


def test_config_file_validation(tmp_path, capsys):
    missing = str(tmp_path / "absent.cfg")
    assert main(["flatness", "--config", missing]) == 2
    cfg = _write_config(tmp_path, "sigma = 1\nsigma = 2\n")
    assert main(["flatness", "--config", cfg]) == 2
    assert "duplicate key" in capsys.readouterr().err
    cfg = _write_config(tmp_path, "just words\n")
    assert main(["flatness", "--config", cfg]) == 2
    cfg = _write_config(tmp_path, "lattice = Zn:2\nsweep_grid = 1,2\nsigma = 1\n")
    assert main(["flatness", "--config", cfg]) == 2
    assert "without sweep_axis" in capsys.readouterr().err


def test_snr_conflicts_with_sigmas(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        snr = 10
        sigma0 = 3.0
        trials = 64
    """)
    assert main(["simulate", "--config", cfg]) == 2
    assert "either snr or sigma0/sigma" in capsys.readouterr().err


@pytest.mark.parametrize("flags,env,message", [
    (["--threads", "-3"], None, "--threads must be >= 1, got -3"),
    (["--threads", "0"], None, "--threads must be >= 1, got 0"),
    (["--trials", "0"], None, "--trials must be >= 1, got 0"),
    ([], "abc", "LGC_THREADS must be an integer, got 'abc'"),
    ([], "0", "LGC_THREADS must be >= 1, got 0"),
    (["--seed", "-1"], None, "master_seed out of u64 range: -1"),
    (["--seed", str(1 << 64)], None,
     "master_seed out of u64 range: 18446744073709551616"),
])
def test_run_size_flags_validated(tmp_path, capsys, monkeypatch, flags, env,
                                  message):
    if env is not None:
        monkeypatch.setenv("LGC_THREADS", env)
    cfg = _write_config(tmp_path, """
        lattice = Zn:2
        sigma0 = 2.0
        sigma = 1.0
        trials = 64
    """)
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,body,message", [
    ("sandwich", "lattice = Zn:2\nsigma0 = nan\nsigma = 1.0\n",
     "key 'sigma0' must be finite, got 'nan'"),
    ("sandwich", "lattice = Zn:2\nsigma0 = inf\nsigma = 1.0\n",
     "key 'sigma0' must be finite, got 'inf'"),
    ("flatness", "lattice = E8\nsigma = nan\n",
     "key 'sigma' must be finite, got 'nan'"),
    ("flatness", "lattice = E8\nsweep_axis = sigma\nsweep_grid = 0.5, -inf\n",
     "sweep_grid must be finite, got '-inf'"),
    ("sample", "lattice = Zn:2\nsigma0 = 1.0\nshift = 0.1, nan\n",
     "key 'shift' must be finite, got 'nan'"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\nsigma = 1.0\nvolume = inf\n",
     "volume must be finite, got 'inf'"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\nsigma = 1.0\nvolume = abc\n",
     "volume must be a number, got 'abc'"),
])
def test_nonfinite_config_floats_rejected(tmp_path, capsys, command, body,
                                          message):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,body,message", [
    ("flatness", "lattice = Zn:2\nsigma =\n", "run.cfg:2: empty key or value"),
    ("flatness", "lattice = Zn:2\nsigma = 0\n",
     "key 'sigma' must be positive, got 0.0"),
    ("rate", "lattice = Zn:2\nsnr = 10\neps_dprime = -0.1\n",
     "key 'eps_dprime' must be nonnegative, got -0.1"),
    ("flatness", "lattice = Zn:x\nsigma = 1.0\n",
     "bad lattice dimension in 'Zn:x'"),
    ("sample", "lattice = Zn:2\nsigma0 = 1.0\nshift = 0.1, 0.2, 0.3\n",
     "shift has 3 entries, lattice dim 2"),
    ("flatness", "lattice = Zn:2\nsweep_axis = mu\nsweep_grid = 1, 2\n",
     "command 'flatness' cannot sweep 'mu'"),
    ("flatness", "lattice = Zn:2\nsweep_axis = sigma\n",
     "sweep_axis given without sweep_grid"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\n",
     "need sigma0 and sigma (or snr)"),
    ("flatness", "lattice = Zn:2\n", "flatness needs 'sigma'"),
    ("exponent", "n = 2\n", "exponent needs 'mu'"),
    ("sample", "lattice = Zn:2\n", "sample needs 'sigma0'"),
    ("ensemble", "p = 5\nn = 4\nk = 2\nscale = 1.0\n",
     "ensemble needs p, n, k, scale, sigma"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\nsigma = 1.0\nthreads = 0\n",
     "key 'threads' must be >= 1, got 0"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\nsigma = 1.0\nvolume = -1\n",
     "volume must be positive, got -1.0"),
    ("flatness", "lattice = Dn:1\nsigma = 1.0\n", "Dn needs a dimension n >= 2"),
    # dimensions past n*n <= POINT_CAP, refused before any array is built
    ("flatness", "lattice = Zn:10000000\nsigma = 1.0\n",
     "Zn dimension must satisfy n*n <="),
    ("flatness", "lattice = Dn:10000000\nsigma = 1.0\n",
     "Dn dimension must satisfy n*n <="),
    ("ensemble", f"p = 5\nn = {10**30}\nk = 1\nscale = 1.0\nsigma = 1.0\n",
     "code length must satisfy n*n <="),
    ("exponent", f"mu = 2\nn = {10**400}\n", "n must be below 2^1024"),
], ids=["empty-value", "sigma-zero", "eps_dprime-negative", "lattice-dim",
        "shift-length", "axis-not-sweepable", "axis-without-grid",
        "sigma-missing", "flatness-sigma", "exponent-mu", "sample-sigma0",
        "ensemble-keys", "threads-zero", "volume-negative", "lattice-dn1",
        "lattice-zn-huge", "lattice-dn-huge", "ensemble-n-huge",
        "exponent-n-huge"])
def test_config_errors_name_the_key(tmp_path, capsys, command, body, message):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command,body", [
    ("rate", "lattice = Zn:2\nsigma0 = 3.0\nsweep_axis = snr\n"
             "sweep_grid = 4, 9\n"),
    ("simulate", "lattice = Zn:2\nsnr = 4\ntrials = 64\nsweep_axis = sigma\n"
                 "sweep_grid = 1, 2\n"),
    ("sandwich", "lattice = Zn:2\nsnr = 4\ntrials = 64\nsweep_axis = sigma0\n"
                 "sweep_grid = 1, 2\n"),
], ids=["snr-sweep-with-sigma0", "sigma-sweep-with-snr",
        "sigma0-sweep-with-snr"])
def test_sweep_obeys_snr_or_sigmas_rule(tmp_path, capsys, command, body):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config: give either snr or sigma0/sigma, not both\n"
    assert not out.exists()


@pytest.mark.parametrize("command,body", [
    ("flatness", "lattice = Zn:2\nsweep_axis = sigma\nsweep_grid = 1, 0\n"),
    ("rate", "lattice = Zn:2\nsweep_axis = snr\nsweep_grid = 4, -1\n"),
    ("rate", "lattice = Zn:2\nsigma0 = 2.0\nsweep_axis = sigma\n"
             "sweep_grid = -1\n"),
    ("simulate", "lattice = Zn:2\nsigma = 1.0\ntrials = 64\n"
                 "sweep_axis = sigma0\nsweep_grid = 2, 0\n"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\nsigma = 1.0\ntrials = 64\n"
                 "sweep_axis = V\nsweep_grid = 2, -4\n"),
], ids=["sigma", "snr", "rate-sigma", "sigma0", "V"])
def test_nonpositive_grid_values_rejected(tmp_path, capsys, command, body):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "must be positive" in err
    assert not out.exists()


@pytest.mark.parametrize("command,body", [
    ("sample", "lattice = Zn:2\nsigma0 = 1.0\ntrials = 4\n"),
    ("ensemble", "p = 5\nn = 4\nk = 2\nscale = 1.0\nsigma = 1.0\n"
                 "samples = 2\n"),
], ids=["sample", "ensemble"])
def test_command_without_axes_rejects_sweep(tmp_path, capsys, command, body):
    cfg = _write_config(tmp_path,
                        body + "sweep_axis = sigma\nsweep_grid = 1, 2\n")
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config: command '{command}' cannot sweep 'sigma' (allowed: none)\n")
    assert not out.exists()


def test_command_mismatch_rejected(tmp_path):
    cfg = _write_config(tmp_path, "command = rate\nsigma = 1.0\nlattice = Zn:2\n")
    assert main(["flatness", "--config", cfg]) == 2


def test_unknown_command_rejected():
    assert main(["bogus"]) == 2


def test_numeric_precondition_is_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "mu = 0.5\n")
    rc = main(["exponent", "--config", cfg, "--out", str(tmp_path / "e.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("run: MuBelowOne")
    cfg = _write_config(tmp_path, """
        lattice = Zn:1
        sigma0 = 0.3
        sigma = 0.1
    """)
    rc = main(["rate", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("run: FlatnessTooLarge")


@pytest.mark.parametrize("command,body", [
    ("flatness", "lattice = Zn:2\nsigma = 1e-200\n"),
    ("rate", "lattice = Zn:2\nsigma0 = 1e-200\nsigma = 1.0\n"),
    ("sample", "lattice = Zn:2\nsigma0 = 1e-200\n"),
    ("simulate", "lattice = Zn:2\nsigma0 = 2.0\nsigma = 1e-200\ntrials = 64\n"),
    # each square is in range, but sigma0^2 / sigma^2 overflows
    ("simulate", "lattice = Zn:2\nsigma0 = 1e150\nsigma = 1e-150\n"),
], ids=["flatness", "rate", "sample", "simulate", "snr-overflow"])
def test_sigma_whose_square_underflows_is_exit_3(tmp_path, capsys, command,
                                                 body):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("run: NonpositiveSigma")
    assert not out.exists()


def test_high_dimensional_flatness_is_exit_3(tmp_path, capsys):
    # the primal ball estimate of Z^400 overflows a float; on the dual side
    # the first ball (radius 1.40) holds the 801 points of norm <= 1, and
    # the next (1.75) the norm-3 points, whose prefix matrices pass the
    # point budget within a few levels
    cfg = _write_config(tmp_path, "lattice = Zn:400\nsigma = 1.14\n")
    out = tmp_path / "x.csv"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("run: BudgetExceeded")
    assert not out.exists()


def test_axis_table_past_point_budget_is_exit_3(tmp_path, capsys,
                                               monkeypatch):
    # volume 1e-300 puts Z2's axis step at 1e-150
    cfg = _write_config(tmp_path, "lattice = Zn:2\nsnr = 10\nvolume = 1e-300\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("run: BudgetExceeded: axis table")
    assert not out.exists()
    # E8 at sigma0 2 holds 16 tables (2 cosets x 8 axes) of 43 points each:
    # each fits a budget of 687, but together they do not
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 687)
    cfg = _write_config(tmp_path, "lattice = E8\nsigma0 = 2.0\n")
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run: BudgetExceeded: axis tables")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("lattice", ["E8", "Zn:12"])
@pytest.mark.parametrize("command", ["simulate", "sandwich"])
def test_tail_bound_past_float_range_is_exit_3(tmp_path, capsys, command,
                                               lattice):
    # volume 1e-300 puts lambda_1 near 1e-37 (E8) or 1e-25 (Zn:12): the
    # packing count of the first tail shell passes float range, so the tail
    # is uncertified and the radius grows until the axis budget refuses it
    cfg = _write_config(tmp_path, f"lattice = {lattice}\nsnr = 1000\n"
                                  "volume = 1e-300\ntrials = 64\n")
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run: BudgetExceeded: axis tables")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,body", [
    ("sample", "lattice = E8\nsigma0 = 1\nshift = 1e300\n"),
    ("simulate", "lattice = E8\nsnr = 10\nshift = 1e300\ntrials = 64\n"),
    ("sample", "lattice = Zn:8\nsigma0 = 1\nshift = 1e17\n"),
], ids=["sample-E8", "simulate-E8", "sample-Z8"])
def test_shift_past_float_resolution_is_exit_3(tmp_path, capsys, command,
                                               body):
    # basis coefficients past 2^52: float64 cannot tell neighbouring
    # lattice coordinates apart, so no table is built
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run: DimensionMismatch: shift")
    assert err.count("\n") == 1
    assert not out.exists()


def test_sample_past_draw_budget_is_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "lattice = Zn:2\nsigma0 = 1.0\n")
    out = tmp_path / "x.csv"
    assert main(["sample", "--config", cfg, "--out", str(out),
                 "--trials", str(10 ** 30)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run: BudgetExceeded: ")
    assert "sample budget" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n, sigma0", [(1, "1e-3"), (4, "0.02")])
def test_sample_weights_underflow_is_exit_3(tmp_path, capsys, monkeypatch,
                                            n, sigma0):
    # every support weight underflows to 0.0: refused at the first ball
    # with a point, not grown to the point budget (lowered here, so that a
    # build which grows fails fast with the budget's message)
    monkeypatch.setattr(lattice_mod, "POINT_CAP", 10_000)
    cfg = _write_config(tmp_path, f"lattice = Zn:{n}\nsigma0 = {sigma0}\n"
                                  f"shift = {', '.join(['0.5'] * n)}\n")
    out = tmp_path / "x.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run: BudgetExceeded: ")
    assert "weights underflow" in err and err.count("\n") == 1
    assert not out.exists()


def test_unwritable_output_is_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "mu = 2.0\n")
    rc = main(["exponent", "--config", cfg,
               "--out", str(tmp_path / "no" / "dir" / "e.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("run: ")


class _FailingRow(str):
    """A CSV row whose write fails part-way through the file."""

    def __add__(self, other):
        raise OSError("disk full")


@pytest.mark.parametrize("fail_at", ["csv", "manifest"])
def test_failed_write_leaves_no_partial_files(tmp_path, capsys, monkeypatch,
                                               fail_at):
    import lgc.cli as cli_mod

    cfg = _write_config(tmp_path, """
        n = 4
        sweep_axis = mu
        sweep_grid = 1, 2, 4
    """)
    out = tmp_path / "e.csv"
    manifest = tmp_path / "e.csv.manifest.json"
    out.write_text("old\n")
    manifest.write_text("{}\n")
    if fail_at == "csv":
        real = cli_mod.COMMANDS["exponent"]

        def runner(*args):
            header, rows, extra = real.run(*args)
            return header, rows[:2] + [_FailingRow(rows[2])], extra

        monkeypatch.setitem(cli_mod.COMMANDS, "exponent",
                            real._replace(run=runner))
    else:
        def dumps(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli_mod.json, "dumps", dumps)
    rc = main(["exponent", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "run: OSError: disk full\n"
    # neither file of the pair is replaced unless both were written
    assert manifest.read_text() == "{}\n"
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "e.csv", "e.csv.manifest.json", "run.cfg"]


def test_module_entry_point(tmp_path):
    cfg = _write_config(tmp_path, "mu = 2.0\nn = 8\n")
    out = tmp_path / "e.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "lgc.cli", "exponent", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == f"{out}: 1 rows\n"
    header, rows = _rows(out)
    assert header == EXPONENT_HEADER
    mu, e, bound = (float(v) for v in rows[0].split(","))
    assert mu == 2.0
    assert e == pytest.approx(0.5 * (1.0 - math.log(2.0)), rel=1e-12)
    assert bound == pytest.approx(math.exp(-8.0 * e), rel=1e-12)


def test_benchmark_tracer_names_exist(monkeypatch):
    # the benchmark's tracer patches these module attributes by name; a
    # refactor that drops one must fail here, not at `--trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracing.PATCHES
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert tracing.PATCHES and missing == []


def test_benchmark_tracer_sees_the_certified_sums(monkeypatch):
    # the tracer counts ball enumerations at enumerate_ball; the half balls
    # that flatness sums at the origin must pass through it too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    for mod, attr, *_ in tracing.PATCHES:
        mod = importlib.import_module(mod)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after
    tracer = tracing.Tracer("test")
    tracer.install()
    importlib.import_module("lgc.analytics").flatness(
        standard_lattice("E8"), 0.42)
    assert tracing.layer_metrics(tracer.spans)["lattice.enum_ball_calls"] > 0


def test_every_export_is_reached_outside_the_tests():
    # each name lgc/__init__ exports is read by a command, another library
    # module, tools/exactness.py or the benchmark: an AST walk collects the
    # names and attributes those files read, and the strings, since the
    # tracer's PATCHES names the attributes it wraps as strings
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "lgc").glob("*.py")
             if p.name != "__init__.py"]
    files += [root / "tools" / "exactness.py", *(root / "perfbench").glob("*.py")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    init = ast.parse((root / "src" / "lgc" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    missing = ", ".join(sorted(exported - used))
    assert exported and not missing, f"reached only by tests: {missing}"
