import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import vicsekbgk.cli as cli
import vicsekbgk.linstab as linstab
from vicsekbgk.solver import (_CSV_BLOCK, DIAGNOSTICS_HEADER, InitSpec,
                              SolverAbort, SolverConfig)
from test_linstab import _singular_at
from test_solver import _nan_after, _write_csv_per_value


def _read_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_resolution_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"experiment": "bifurcation", "num": 21, "mu_max": 3.0}))
    config = cli.resolve_config("bifurcation", str(cfg_file), ["num=11"])
    assert config["num"] == 11          # --set beats the file
    assert config["mu_max"] == 3.0      # file beats the default
    assert config["mu_min"] == 2.0      # default survives


def test_nested_override():
    config = cli.resolve_config("simulate", None,
                                ["init.amplitude=0.05", "init.recipe=mode-bump"])
    assert config["init"]["amplitude"] == 0.05
    assert config["init"]["recipe"] == "mode-bump"
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.resolve_config("simulate", None, ["init.shape=disc"])


def test_config_file_nested_block(tmp_path):
    # a block of the file sets its keys one by one; the others keep defaults
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"experiment": "simulate", "t_end": 0.02,
         "init": {"recipe": "mode-bump", "mode_k": [2, 1]}}))
    config = cli.resolve_config("simulate", str(cfg_file), ["init.amplitude=0.05"])
    assert config["init"] == {"recipe": "mode-bump", "amplitude": 0.05,
                              "mode_k": [2, 1], "width": 0.7}
    assert config["t_end"] == 0.02
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"init": {"shape": "disc"}}))
    with pytest.raises(cli.ConfigError, match="unknown config key: init.shape"):
        cli.resolve_config("simulate", str(bad), [])


def test_dotted_key_through_a_number_exits_2(tmp_path, capsys):
    rc = cli.main(["simulate", "--set", "mu.x=1", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config key: mu.x" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_unknown_key_rejected():
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.resolve_config("bifurcation", None, ["num_points=5"])


def test_value_validation():
    with pytest.raises(cli.ConfigError, match="num"):
        cli.resolve_config("bifurcation", None, ["num=0"])
    with pytest.raises(cli.ConfigError, match="num"):
        cli.resolve_config("bifurcation", None, ["num=eleven"])
    with pytest.raises(cli.ConfigError, match="eps_reg"):
        cli.resolve_config("simulate", None, ["mode=regularized"])
    with pytest.raises(cli.ConfigError, match="--set"):
        cli.resolve_config("bifurcation", None, ["num:11"])
    with pytest.raises(cli.ConfigError, match="d"):
        cli.resolve_config("dispersion", None, ["d=3"])
    with pytest.raises(cli.ConfigError, match="dt"):
        cli.resolve_config("homogeneous", None, ["dt=1e-9"])


def test_config_file_errors(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.resolve_config("bifurcation", str(missing), [])
    bad = tmp_path / "bad.json"
    bad.write_text("{num: 3}")
    with pytest.raises(cli.ConfigError, match="valid JSON"):
        cli.resolve_config("bifurcation", str(bad), [])
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(cli.ConfigError, match="JSON object"):
        cli.resolve_config("bifurcation", str(arr), [])
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"experiment": "entropy"}))
    with pytest.raises(cli.ConfigError, match="entropy"):
        cli.resolve_config("bifurcation", str(other), [])


def test_config_error_exits_2_before_computing(tmp_path, capsys):
    start = time.monotonic()
    rc = cli.main(["simulate", "--set", "mode=regularized",
                   "--output-dir", str(tmp_path)])
    elapsed = time.monotonic() - start
    assert rc == 2
    assert elapsed < 1.0
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_output_dir_exits_2(tmp_path, sub):
    # a file where the directory, or one of its parents, should be
    blocker = tmp_path / "file"
    blocker.write_bytes(b"not a directory\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vicsekbgk", "bifurcation", "--set", "num=3",
         "--output-dir", str(blocker / sub)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr
    assert blocker.read_bytes() == b"not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_non_number_exits_2(tmp_path, capsys):
    rc = cli.main(["simulate", "--set", "gamma=abc", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "gamma" in err
    assert "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


def test_infinite_dt_exits_2(tmp_path, capsys):
    rc = cli.main(["simulate", "--set", "dt=Infinity", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "dt" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--set", "t_end=0.015"], "t_end"),
    (["linear-decay", "--set", "t_end=10.005"], "t_end"),
    (["simulate", "--set", "mode=linearized",
      "--set", "init.recipe=large-blob"], "init.recipe"),
    (["simulate", "--set", "mode=linearized", "--set", "init.recipe=mode-bump",
      "--set", "init.mode_k=[0,0]"], "init.mode_k"),
    (["simulate", "--set", "seed=-1"], "seed"),
    (["simulate", "--set", "eps_reg=0.1"], "eps_reg"),  # nonlinear ignores it
    (["bounds", "--set", "seed=-1"], "seed"),
    (["linear-decay", "--set", "fit_t_min=30"], "fit_t_min"),
])
def test_solver_rule_exits_2_before_computing(tmp_path, capsys, argv, key):
    start = time.monotonic()
    rc = cli.main(argv + ["--quiet", "--output-dir", str(tmp_path)])
    elapsed = time.monotonic() - start
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "manifest.json").exists()
    assert elapsed < 1.0


# each solver experiment's SolverConfig at its DEFAULTS, field by field: a
# renamed config key would silently fall back to SolverConfig's default
_DEFAULT_SOLVER_CONFIGS = {
    "simulate": SolverConfig(
        mu=2.2, mode="nonlinear", gamma=10.0, nx=32, ntheta=64, dt=0.01,
        t_end=40.0, eps_reg=None, jeq_angle=0.0,
        init=InitSpec(recipe="random-smooth", amplitude=0.01, mode_k=(1, 0),
                      width=0.7),
        snapshot_every=50, seed=0, keep_snapshots=False, dealias=True),
    "linear-decay": SolverConfig(
        mu=1.5, mode="linearized", gamma=10.0, nx=32, ntheta=64, dt=0.01,
        t_end=30.0, eps_reg=None, jeq_angle=0.0,
        init=InitSpec(recipe="random-smooth", amplitude=1.0, mode_k=(1, 0),
                      width=0.7),
        snapshot_every=25, seed=11, keep_snapshots=False, dealias=True),
    "entropy": SolverConfig(
        mu=3.0, mode="regularized", gamma=10.0, nx=32, ntheta=128, dt=0.01,
        t_end=20.0, eps_reg=0.1, jeq_angle=0.0,
        init=InitSpec(recipe="large-blob", amplitude=0.0, mode_k=(1, 0),
                      width=0.55),
        snapshot_every=20, seed=0, keep_snapshots=False, dealias=True),
}


@pytest.mark.parametrize("experiment", sorted(_DEFAULT_SOLVER_CONFIGS))
def test_default_solver_config_field_by_field(experiment):
    c = cli.resolve_config(experiment, None, [])
    got = cli._experiment_solver_config(experiment, c)
    want = _DEFAULT_SOLVER_CONFIGS[experiment]
    for f in dataclasses.fields(SolverConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_non_finite_json_rejected(tmp_path):
    for text in ("NaN", "Infinity", "-Infinity", "1e999"):
        with pytest.raises(cli.ConfigError, match="non-finite"):
            cli.resolve_config("bifurcation", None, [f"mu_max={text}"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"experiment": "bifurcation", "mu_max": %s}' % text)
        with pytest.raises(cli.ConfigError, match="non-finite"):
            cli.resolve_config("bifurcation", str(cfg), [])


# ---------------------------------------------------------------------------
# experiment runs (miniature settings)
# ---------------------------------------------------------------------------

def test_bifurcation_golden(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["bifurcation", "--set", "num=11", "--quiet"]
    assert cli.main(args + ["--output-dir", str(out1)]) == 0
    assert cli.main(args + ["--output-dir", str(out2)]) == 0
    data = np.loadtxt(out1 / "branch.csv", delimiter=",", skiprows=1)
    assert data.shape == (11, 4)
    mu, L = data[:, 0], data[:, 1]
    assert mu[0] == 2.0 and L[0] == 0.0
    assert np.all(np.diff(mu) > 0)
    assert np.all(np.diff(L) > 0)
    assert np.max(data[:, 3]) <= 1e-11
    manifest = _read_manifest(out1)
    assert manifest["experiment"] == "bifurcation"
    assert manifest["outputs"] == ["branch.csv"]
    assert manifest["summary"]["monotone_above_threshold"] is True
    assert manifest["config"]["num"] == 11
    # reruns are bit-identical
    assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()


def test_config_file_equals_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bifurcation", "num": 7,
                               "mu_max": 3.5}))
    out1, out2 = tmp_path / "file", tmp_path / "sets"
    assert cli.main(["bifurcation", "--config", str(cfg), "--quiet",
                     "--output-dir", str(out1)]) == 0
    assert cli.main(["bifurcation", "--set", "num=7", "--set", "mu_max=3.5",
                     "--quiet", "--output-dir", str(out2)]) == 0
    assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()


def test_homogeneous_mini(tmp_path):
    rc = cli.main(["homogeneous", "--set", "t_end=5.0", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    data = np.loadtxt(tmp_path / "homogeneous.csv", delimiter=",", skiprows=1)
    assert data[0, 0] == 0.0 and abs(data[-1, 0] - 5.0) < 1e-12
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["L_limit"] > 0.9
    assert summary["gap"] >= 0.0


def test_dispersion_mini(tmp_path):
    rc = cli.main(["dispersion", "--set", "im_max=2.0", "--set", "z_step=0.5",
                   "--set", "k_max=10", "--quiet", "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["min_re_h"] > 0.2
    assert summary["flagged"] is False
    assert summary["num_below_one_fifth"] == 0
    lines = (tmp_path / "dispersion.csv").read_text().splitlines()
    assert lines[0] == "z_re,z_im,k1,k2,min_singular,re_h"
    assert len(lines) - 1 == summary["num_points"]


def test_dispersion_golden(tmp_path):
    # byte-level pin of a small table below threshold (J = 0): the kernel
    # columns, the sweep and the %.17g CSV writer all enter these bytes
    rc = cli.main(["dispersion", "--set", "mu=1.9", "--set", "im_max=2.0",
                   "--set", "z_step=0.5", "--set", "k_max=10", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    data = (tmp_path / "dispersion.csv").read_bytes()
    assert data.count(b"\n") == 109
    assert hashlib.sha256(data).hexdigest() == (
        "1a21791670c9fa2ee71a0fa4d8dffe357aac45ad3f12d7501eb3ecffb5610921")


def test_dispersion_csv_matches_per_value_oracle(tmp_path):
    # several writer blocks on the default lattice (40 wavenumbers); the
    # oracle formats every value of the same sweep, row by row
    settings = ["im_max=10", "z_step=0.5"]
    rc = cli.main(["dispersion", *[a for kv in settings for a in ("--set", kv)],
                   "--quiet", "--output-dir", str(tmp_path)])
    assert rc == 0
    c = cli.resolve_config("dispersion", None, settings)
    z = linstab.default_z_grid(delta=c["delta"], re_max=c["re_max"],
                               im_max=c["im_max"], step=c["z_step"])
    sweep = linstab.dispersion_sweep(c["mu"], c["gamma"], z_values=z,
                                     k_max=c["k_max"])
    rows = [(zi.real, zi.imag, k[0], k[1], s, h)
            for k, s_row, h_row in zip(sweep.k_vectors, sweep.sigma_min, sweep.re_h)
            for zi, s, h in zip(sweep.z_values, s_row, h_row)]
    assert len(rows) > 2 * _CSV_BLOCK
    _write_csv_per_value(tmp_path / "oracle.csv", "z_re,z_im,k1,k2,min_singular,re_h",
                         rows)
    assert ((tmp_path / "dispersion.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


def test_bounds_mini(tmp_path):
    rc = cli.main(["bounds", "--set", "num_samples=64", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["all_bounds_hold"] is True
    assert summary["num_samples"] == 64
    assert max(summary["max_violation_c0"], summary["max_violation_c1"],
               summary["max_violation_c2"]) <= 0.0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert len(lines) == 65


def test_simulate_mini(tmp_path):
    rc = cli.main(["simulate", "--set", "nx=16", "--set", "ntheta=32",
                   "--set", "t_end=0.5", "--set", "snapshot_every=10",
                   "--set", "fit_t_min=0.0", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    manifest = _read_manifest(tmp_path)
    names = manifest["outputs"]
    assert "diagnostics.csv" in names
    assert "snapshot_0000.f64" in names and "snapshot_0001.json" in names
    for name in names:
        assert (tmp_path / name).exists()
    summary = manifest["summary"]
    assert summary["mass_initial"] == pytest.approx(2.2, abs=1e-12)
    assert summary["mass_drift_rel"] < 1e-12
    assert "J_gap" in summary and "dist_rate" in summary


def test_simulate_linearized_mass_drift_is_relative_to_mu(tmp_path):
    # the perturbation's own mass starts at round-off (~1e-20), so a drift
    # relative to it is noise; relative to the mean density mu it is ~1e-20
    rc = cli.main(["simulate", "--set", "mode=linearized", "--set", "mu=1.5",
                   "--set", "nx=16", "--set", "ntheta=32",
                   "--set", "t_end=1", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _read_manifest(tmp_path)["summary"]
    assert abs(summary["mass_initial"]) < 1e-15
    assert summary["mass_drift_rel"] <= 1e-12


def test_linear_decay_mini(tmp_path):
    rc = cli.main(["linear-decay", "--set", "nx=16", "--set", "ntheta=32",
                   "--set", "t_end=2.0", "--set", "snapshot_every=10",
                   "--set", "fit_t_min=0.5", "--set", "k_max=10", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["rate_predicted"] == pytest.approx(0.25, abs=1e-12)
    assert summary["l2_monotone"] is True
    assert summary["fit_r2"] > 0.9


def test_linear_decay_manifest_is_strict_json_at_zero_predicted_rate(tmp_path):
    # at mu = d the k = 0 rate mu/2 - 1 is 0, so the ratio is undefined
    rc = cli.main(["linear-decay", "--set", "mu=2.0", "--set", "nx=8",
                   "--set", "ntheta=16", "--set", "t_end=12", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0

    def reject(token):
        raise ValueError(f"non-finite number {token} in the manifest")

    text = (tmp_path / "manifest.json").read_text()
    summary = json.loads(text, parse_constant=reject)["summary"]
    assert summary["rate_predicted"] == 0.0
    assert summary["ratio"] is None


def test_entropy_mini(tmp_path):
    rc = cli.main(["entropy", "--set", "nx=16", "--set", "ntheta=32",
                   "--set", "t_end=0.5", "--set", "snapshot_every=5",
                   "--quiet", "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["max_violation"] <= 0.0
    assert summary["c"] >= 0.0
    assert summary["mass_drift_rel"] < 1e-11
    assert summary["entropy_initial"] > summary["entropy_final"]


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

def test_fit_window_failure_exits_1(tmp_path, capsys):
    rc = cli.main(["linear-decay", "--set", "nx=16", "--set", "ntheta=32",
                   "--set", "t_end=2.0", "--set", "snapshot_every=10",
                   "--set", "fit_t_min=1.85", "--set", "fit_t_max=1.95",
                   "--quiet", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err
    # the diagnostics were written before the fit failed; the manifest
    # records the failure and lists no outputs
    assert (tmp_path / "diagnostics.csv").exists()
    manifest = _read_manifest(tmp_path)
    assert manifest["summary"] == {
        "error": "fewer than 3 usable points in the fit window",
        "error_type": "ValueError"}
    assert manifest["outputs"] == []


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys):
    argv = ["linear-decay", "--set", "nx=16", "--set", "ntheta=32",
            "--set", "t_end=2.0", "--set", "snapshot_every=10",
            "--quiet", "--output-dir", str(tmp_path)]
    assert cli.main(argv + ["--set", "seed=1", "--set", "fit_t_min=0.5"]) == 0
    assert _read_manifest(tmp_path)["config"]["seed"] == 1
    rc = cli.main(argv + ["--set", "seed=2", "--set", "fit_t_min=1.85",
                          "--set", "fit_t_max=1.95"])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err
    # the manifest beside the second run's files is its own failure record,
    # not the first run's success
    manifest = _read_manifest(tmp_path)
    assert manifest["config"]["seed"] == 2
    assert manifest["summary"]["error"]
    assert manifest["outputs"] == []


def test_solver_abort_writes_failure_manifest(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise SolverAbort(0.5)

    monkeypatch.setattr(cli, "run", boom)
    rc = cli.main(["simulate", "--set", "t_end=1.0", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err
    manifest = _read_manifest(tmp_path)
    assert manifest["summary"]["last_valid_time"] == 0.5
    assert "non-finite" in manifest["summary"]["error"]
    assert manifest["outputs"] == []


def test_memory_error_writes_failure_manifest(tmp_path, monkeypatch, capsys):
    # a run too large to allocate (bounds at num_samples=10**12, say) fails
    # like a numerical one; the stand-in runner allocates nothing
    def boom(config, outdir):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setitem(cli._RUNNERS, "bounds", boom)
    rc = cli.main(["bounds", "--quiet", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "Unable to allocate 7.28 TiB" in capsys.readouterr().err
    manifest = _read_manifest(tmp_path)
    assert manifest["summary"] == {"error": "Unable to allocate 7.28 TiB",
                                   "error_type": "MemoryError"}
    assert manifest["outputs"] == []


def test_solver_abort_manifest_records_last_good_row(tmp_path, monkeypatch):
    # step 6 of 10 turns the state non-finite; samples fall every 2 steps
    _nan_after(monkeypatch, 5)
    rc = cli.main(["simulate", "--set", "nx=8", "--set", "ntheta=16",
                   "--set", "dt=0.05", "--set", "t_end=0.5",
                   "--set", "snapshot_every=2", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 1
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["last_valid_time"] == 6 * 0.05
    row = summary["last_good_row"]
    assert row["t"] == 4 * 0.05
    assert set(row) == set(DIAGNOSTICS_HEADER.split(","))
    assert all(math.isfinite(v) for v in row.values())


# ---------------------------------------------------------------------------
# console behavior
# ---------------------------------------------------------------------------

def test_quiet_silences_stdout(tmp_path, capsys):
    rc = cli.main(["bifurcation", "--set", "num=3", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_progress_lists_outputs_and_summary(tmp_path, capsys):
    rc = cli.main(["bifurcation", "--set", "num=3",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "branch.csv" in out and "manifest.json" in out
    assert "max_residual" in out


def test_module_entry_point(tmp_path):
    # the package is run from the source tree, installed or not
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vicsekbgk", "bifurcation", "--set", "num=3",
         "--quiet", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert (tmp_path / "branch.csv").exists()


def test_numerical_failure_writes_failure_manifest(tmp_path, capsys):
    rc = cli.main(["simulate", "--set", "init.amplitude=3", "--set", "t_end=0.02",
                   "--quiet", "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "initial field is negative" in capsys.readouterr().err
    manifest = _read_manifest(tmp_path)
    assert manifest["summary"] == {
        "error": "initial field is negative; reduce the amplitude",
        "error_type": "ValueError"}
    assert manifest["outputs"] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_unreachable_branch_tolerance_writes_failure_manifest(tmp_path, capsys):
    # solve_L's Newton polish cannot bring the residual down to 1e-300
    rc = cli.main(["bifurcation", "--set", "tol=1e-300", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "Newton polish did not reach residual" in capsys.readouterr().err
    manifest = _read_manifest(tmp_path)
    assert manifest["summary"]["error_type"] == "RuntimeError"
    assert manifest["outputs"] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_non_finite_sweep_writes_failure_manifest(tmp_path, monkeypatch, capsys):
    _singular_at(monkeypatch, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = cli.main(["dispersion", "--set", "im_max=1.0", "--quiet",
                       "--output-dir", str(tmp_path)])
    assert rc == 1
    assert "non-finite h or sigma_min at z = " in capsys.readouterr().err
    summary = _read_manifest(tmp_path)["summary"]
    assert summary["error_type"] == "FloatingPointError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_import_leaves_scipy_optimize_and_linalg_unloaded():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vicsekbgk, vicsekbgk.cli; "
         "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _lattice_wavenumbers_double_loop(gamma, k_max):
    """linstab.lattice_wavenumbers as it was: every m in the square
    |m1|, |m2| <= k_max / gamma, tested one by one, m2-major."""
    mmax = int(math.floor(k_max / gamma))
    out = []
    for m2 in range(-mmax, mmax + 1):
        for m1 in range(-mmax, mmax + 1):
            if m2 < 0 or (m2 == 0 and m1 <= 0):
                continue
            if math.hypot(m1, m2) * gamma <= k_max + 1e-9:
                out.append((gamma * m1, gamma * m2))
    return np.array(out, dtype=float).reshape(-1, 2)


def _default_z_grid_arange(delta, re_max, im_max, step):
    """linstab.default_z_grid as it was: np.arange sizes each axis."""
    re = np.arange(-delta, re_max + 1e-12, step)
    if re[-1] < re_max - 1e-12:
        re = np.append(re, re_max)
    im = np.arange(-im_max, im_max + 1e-12, step)
    if im[-1] < im_max - 1e-12:
        im = np.append(im, im_max)
    return (re[:, None] + 1j * im[None, :]).ravel()


def test_dispersion_sweep_cells_count_the_built_grids():
    # the linstab counters equal the size of the lattice and grid the run
    # would build, with ends on and off the grid spacing, and the builders
    # sized by them reproduce the old ones bit for bit
    assert cli._sweep_cells(cli.resolve_config("dispersion", None, [])) == 160_400
    big = 10 ** 9
    rng = np.random.default_rng(7)
    for i in range(400):
        step = float(10.0 ** rng.uniform(-1.5, 0.5))
        gamma = float(10.0 ** rng.uniform(-0.5, 1.0))
        c = {"delta": float(rng.uniform(0.01, 0.99)), "z_step": step,
             "re_max": float(10.0 ** rng.uniform(-2.0, 1.0)),
             "im_max": float(10.0 ** rng.uniform(-2.0, 1.2)), "gamma": gamma,
             "k_max": float(gamma * rng.uniform(1.0, 12.0))}
        if i % 2:
            c["k_max"] = gamma * int(rng.integers(1, 12))
            c["im_max"] = step * int(rng.integers(1, 40))
            c["re_max"] = max(step * int(rng.integers(1, 20)) - c["delta"], step)
        if i % 5 == 0:
            c["k_max"] = None
        k_max = 5.0 * gamma if c["k_max"] is None else c["k_max"]
        ks = _lattice_wavenumbers_double_loop(gamma, k_max)
        zs = _default_z_grid_arange(c["delta"], c["re_max"], c["im_max"], step)
        assert linstab.lattice_wavenumbers(gamma, k_max).tobytes() == ks.tobytes(), c
        assert linstab.default_z_grid(c["delta"], c["re_max"], c["im_max"],
                                      step).tobytes() == zs.tobytes(), c
        assert linstab._lattice_extent(gamma, k_max, big)[0] == len(ks), c
        assert (linstab._axis_size(-c["delta"], c["re_max"], step, big)
                * linstab._axis_size(-c["im_max"], c["im_max"], step, big)
                == zs.size), c
        assert cli._sweep_cells(c) == len(ks) * zs.size, c


def test_dispersion_sweep_too_large_exits_2(tmp_path, capsys):
    # 50,101 x 201 z at 40 wavenumbers: ~403 million cells
    start = time.monotonic()
    rc = cli.main(["dispersion", "--set", "z_step=1e-6", "--set", "re_max=1e-4",
                   "--set", "im_max=1e-4", "--output-dir", str(tmp_path)])
    assert time.monotonic() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "(k, z) cells" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_dispersion_k_max_below_the_lattice_exits_2(tmp_path, capsys):
    rc = cli.main(["dispersion", "--set", "k_max=5", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "invalid value for k_max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_linear_decay_k_max_below_the_lattice_exits_2(tmp_path, capsys,
                                                      monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "spectral_abscissa", no_work)
    rc = cli.main(["linear-decay", "--set", "k_max=5", "--quiet",
                   "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "invalid value for k_max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # the shortest wavenumber itself is a valid k_max
    cli.resolve_config("linear-decay", None, ["k_max=10"])


def test_linear_decay_k_max_with_too_many_wavenumbers_exits_2(tmp_path, capsys,
                                                              monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "spectral_abscissa", no_work)
    monkeypatch.setattr(linstab, "lattice_wavenumbers", no_work)
    start = time.monotonic()
    # at gamma = 10: 1.6e10 wavenumbers, and 2,512 (one ring past the cap)
    for k_max in ("1e6", "400"):
        rc = cli.main(["linear-decay", "--set", f"k_max={k_max}", "--quiet",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "invalid value for k_max" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    assert time.monotonic() - start < 1.0
    # 2,498 wavenumbers are within the cap
    assert linstab._lattice_extent(10.0, 399.0, 10 ** 9)[0] == 2_498
    cli.resolve_config("linear-decay", None, ["k_max=399"])


def test_linear_decay_k_max_over_the_contour_length_exits_2(tmp_path, capsys,
                                                            monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "spectral_abscissa", no_work)
    monkeypatch.setattr(linstab, "lattice_wavenumbers", no_work)
    # gamma 100, k_max 3,990: the 2,498 wavenumbers of gamma 10, k_max 399,
    # each ten times as long, so ten times the summed |k|
    assert linstab._lattice_extent(100.0, 3990.0, 10 ** 9)[0] == 2_498
    start = time.monotonic()
    rc = cli.main(["linear-decay", "--set", "gamma=100", "--set", "k_max=3990",
                   "--quiet", "--output-dir", str(tmp_path)])
    assert time.monotonic() - start < 1.0
    assert rc == 2
    assert "invalid value for k_max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_lattice_length_sums_the_built_lattice():
    rng = np.random.default_rng(8)
    for gamma in (0.3, 1.0, 10.0, 100.0):
        for k_max in gamma * np.concatenate([[1.0, 5.0, 399 / 10, 40.0],
                                             rng.uniform(1.0, 30.0, 5)]):
            k = linstab.lattice_wavenumbers(gamma, k_max)
            assert linstab._lattice_extent(gamma, k_max, 10 ** 9)[1] == \
                pytest.approx(np.hypot(k[:, 0], k[:, 1]).sum(), rel=1e-12, abs=0.0)
    assert linstab._lattice_extent(10.0, 5.0, 10 ** 9)[1] == 0.0
    # at gamma 10 the length cap falls where the wavenumber cap does
    assert (linstab._lattice_extent(10.0, 399.0, 10 ** 9)[1]
            <= cli._MAX_ABSCISSA_LENGTH
            < linstab._lattice_extent(10.0, 400.0, 10 ** 9)[1])
