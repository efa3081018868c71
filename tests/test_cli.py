"""End-to-end harness runs: configs, sweeps, manifests, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lgc.cli import (
    CSV_HEADER,
    EXPONENT_HEADER,
    FLATNESS_HEADER,
    RATE_HEADER,
    main,
)
from lgc.construction_a import ENSEMBLE_CSV_HEADER


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


def test_unwritable_output_is_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "mu = 2.0\n")
    rc = main(["exponent", "--config", cfg,
               "--out", str(tmp_path / "no" / "dir" / "e.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("run: ")


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
