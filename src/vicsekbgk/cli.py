"""Batch experiment runner.

Single entry point with one subcommand per experiment:

    bifurcation   branch table mu -> L with residuals
    homogeneous   the scalar flux ODE trajectory
    dispersion    (z, k) sweep of Re h and sigma_min(Id - mu A)
    bounds        sampled verification of the coefficient bounds
    simulate      full PDE run with diagnostics and snapshots
    linear-decay  linearized run, fitted rate vs predicted rate
    entropy       regularized blob run with the entropy certificate

Configuration precedence: built-in defaults < --config JSON file < --set
KEY=VAL overrides (dotted keys reach nested blocks, values parsed as JSON
with a plain-string fallback).  Unknown keys are rejected and every
parameter is validated before any computation starts.  The solver
experiments build their SolverConfig once and validate it with
solver.validate, the one place the rules on its fields are stated; this
module checks only the keys that never reach the solver (fit windows, sweep
controls; a homogeneous run of more than _MAX_FLOW_STEPS steps, a
dispersion sweep above _MAX_SWEEP_CELLS (k, z) cells and a linear-decay
k_max whose lattice holds more than _MAX_ABSCISSA_WAVENUMBERS or sums |k|
above _MAX_ABSCISSA_LENGTH are rejected from their arithmetic size).
solver.validate also rejects an eps_reg outside regularized mode, where it
would be ignored.  Each run writes its artifacts plus a manifest.json
(resolved config, version, wall time, output list, summary scalars) into
--output-dir; the manifest is written last and atomically.  A run that fails
(exit 1) still writes a manifest, with no outputs listed, even if it wrote
some, and the error and its type as summary; a solver abort adds its time
(last_valid_time) and the last good diagnostics row (last_good_row).  A run
first deletes the directory's previous manifest, so no earlier run's
manifest is left beside its files.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .equilibria import (
    asymptotic_L,
    equilibrium_branch,
    homogeneous_flow,
    project_to_manifold,
    solve_L,
)
from .linstab import (
    _axis_size,
    _lattice_extent,
    axis_coefficients,
    bound_budget,
    c0_bound,
    c1_bound,
    c2_bound,
    default_eps,
    default_z_grid,
    dispersion_sweep,
    spectral_abscissa,
)
from .solver import (
    InitSpec,
    SolverAbort,
    SolverConfig,
    _write_csv,
    fit_decay_rate,
    fit_entropy_growth,
    run,
    validate,
    write_diagnostics_csv,
    write_snapshot,
)

_SOLVER_EXPERIMENTS = ("simulate", "linear-decay", "entropy")
EXPERIMENTS = ("bifurcation", "homogeneous", "dispersion", "bounds",
               *_SOLVER_EXPERIMENTS)


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the offender."""


_INIT_DEFAULTS = {"recipe": "random-smooth", "amplitude": 0.01,
                  "mode_k": [1, 0], "width": 0.7}

DEFAULTS: dict[str, dict] = {
    "bifurcation": {
        "d": 2, "mu_min": 2.0, "mu_max": 4.0, "num": 101, "tol": 1e-12,
    },
    "homogeneous": {
        "d": 2, "mu": 2.5, "L0": 0.01, "t_end": 40.0, "dt": 0.01,
    },
    "dispersion": {
        "mu": 1.0, "gamma": 10.0, "delta": 0.05, "k_max": None, "re_max": 2.0,
        "im_max": 50.0, "z_step": 0.25,
    },
    "bounds": {
        "d": 2, "gamma": 10.0, "eps": None, "num_samples": 1000, "seed": 0,
        "re_max": 2.0, "im_max": 50.0, "kmag_max": 50.0,
    },
    "simulate": {
        "mu": 2.2, "mode": "nonlinear", "gamma": 10.0, "nx": 32, "ntheta": 64,
        "dt": 0.01, "t_end": 40.0, "eps_reg": None, "jeq_angle": 0.0,
        "snapshot_every": 50, "seed": 0, "keep_snapshots": False,
        "dealias": True, "fit_t_min": 5.0, "fit_t_max": None,
        "init": dict(_INIT_DEFAULTS),
    },
    "linear-decay": {
        "mu": 1.5, "gamma": 10.0, "nx": 32, "ntheta": 64, "dt": 0.01,
        "t_end": 30.0, "amplitude": 1.0, "seed": 11, "snapshot_every": 25,
        "fit_t_min": 10.0, "fit_t_max": None, "k_max": None, "delta": 0.05,
    },
    "entropy": {
        "mu": 3.0, "gamma": 10.0, "nx": 32, "ntheta": 128, "dt": 0.01,
        "t_end": 20.0, "eps_reg": 0.1, "width": 0.55, "snapshot_every": 20,
        "seed": 0,
    },
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    raise ConfigError(f"non-finite number {token} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


# JSON hooks that turn NaN, Infinity and overflowing literals into errors
_FINITE_JSON = {"parse_constant": _reject_constant, "parse_float": _finite_float}


def _parse_value(text: str):
    try:
        return json.loads(text, **_FINITE_JSON)
    except json.JSONDecodeError:
        return text


def _apply_override(config: dict, key: str, value) -> None:
    parts = key.split(".")
    node = config
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ConfigError(f"unknown config key: {key}")
        node = node[p]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key: {key}")
    node[parts[-1]] = value


def resolve_config(experiment: str, config_path: str | None,
                   overrides: list[str]) -> dict:
    """defaults < config file < --set overrides, with unknown keys rejected."""
    config = copy.deepcopy(DEFAULTS[experiment])
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh, **_FINITE_JSON)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        declared = loaded.pop("experiment", experiment)
        if declared != experiment:
            raise ConfigError(
                f"config file is for experiment {declared!r}, not {experiment!r}")
        loaded.pop("output_dir", None)  # taken from the command line
        for key, value in loaded.items():
            if isinstance(value, dict):
                for sub, sval in value.items():
                    _apply_override(config, f"{key}.{sub}", sval)
            else:
                _apply_override(config, key, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VAL, got {item!r}")
        key, _, text = item.partition("=")
        key = key.strip()
        try:
            value = _parse_value(text)
        except ConfigError as exc:
            raise ConfigError(f"invalid value for {key}: {exc}") from None
        _apply_override(config, key, value)
    _check_types(DEFAULTS[experiment], config)
    validate_config(experiment, config)
    return config


def _need(cond: bool, key: str, what: str) -> None:
    if not cond:
        raise ConfigError(f"invalid value for {key}: {what}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_types(defaults: dict, c: dict, prefix: str = "") -> None:
    """Each entry has the type of its default: an integer for an integer,
    a number for a float, null or a number for null, a boolean for a
    boolean and an object for an object.  Runs before the range checks, so
    they compare numbers only."""
    for key, default in defaults.items():
        value, name = c[key], prefix + key
        if isinstance(default, dict):
            _need(isinstance(value, dict), name, "must be an object")
            _check_types(default, value, name + ".")
        elif isinstance(default, bool):
            _need(isinstance(value, bool), name, "must be true or false")
        elif isinstance(default, int):
            _need(isinstance(value, int) and not isinstance(value, bool),
                  name, "must be an integer")
        elif isinstance(default, float) or default is None:
            _need(_is_number(value) or (default is None and value is None),
                  name, "must be a number")


# A dispersion run peaks at ~100 B per (k, z) cell (the CSV columns tiled
# from the sweep) or at ~370 B per z (one k's coefficient tables), whichever
# is more: 105 B per cell measured on the default lattice (40 wavenumbers),
# 293 B on the smallest (2).  4 million cells, 25 times the default sweep,
# keep a run below ~1.2 GB.
_MAX_SWEEP_CELLS = 4_000_000

# homogeneous integrates its flux ODE by RK4 in Python and keeps every step:
# 2.5 million steps (t_end 40, dt 1.6e-5) took 55 s with peak RSS 260 MB on
# a 2-vCPU Xeon, about a minute like the linear-decay caps.
_MAX_FLOW_STEPS = 2_500_000

# The predicted rate of linear-decay counts the zeros for each lattice k on a
# contour whose length grows like |k|, so it costs a fixed time per k plus a
# time per unit of |k|.  At mu 1.5 on a 2-vCPU Xeon one k took ~4 ms at |k|
# 10-30, 36 ms at |k| 400 and 279 ms at |k| 4,000.  Time is the limit, not
# memory, so both parts are capped: the number of wavenumbers and their
# summed |k| (the contour length).  At gamma 10 both caps fall between k_max
# 399 and 400; k_max 400 (2,512 wavenumbers, summed |k| 669,900) took 51 s
# with peak RSS below 45 MB.  At gamma 100 the length cap binds first: the
# largest k_max it passes, 1,844 (534 wavenumbers), took 36 s with peak RSS
# 51 MB.  So the prediction stays near a minute, the length of the longest
# solver experiment, at gamma 10 and 100; below gamma 10 the wavenumber cap
# binds.
_MAX_ABSCISSA_WAVENUMBERS = 2_500
_MAX_ABSCISSA_LENGTH = 665_000.0


def _sweep_cells(c: dict) -> int:
    """(k, z) cells of the dispersion sweep, counted without building the
    lattice or the z grid; any count above _MAX_SWEEP_CELLS may be returned
    as a larger number."""
    cap = _MAX_SWEEP_CELLS
    nz = (_axis_size(-c["delta"], c["re_max"], c["z_step"], cap)
          * _axis_size(-c["im_max"], c["im_max"], c["z_step"], cap))
    if nz > cap:
        return nz
    k_max = 5.0 * c["gamma"] if c["k_max"] is None else c["k_max"]
    return nz * _lattice_extent(c["gamma"], k_max, cap // nz)[0]


def validate_config(experiment: str, c: dict) -> None:
    if experiment == "bifurcation":
        _need(c["d"] in (2, 3), "d", "must be 2 or 3")
        _need(c["mu_min"] > 0, "mu_min", "must be > 0")
        _need(c["mu_max"] >= c["mu_min"], "mu_max", "must be >= mu_min")
        _need(c["num"] >= 1, "num", "must be a positive integer")
        _need(c["tol"] > 0, "tol", "must be > 0")
    elif experiment == "homogeneous":
        _need(c["d"] in (2, 3), "d", "must be 2 or 3")
        _need(c["mu"] > 0, "mu", "must be > 0")
        _need(c["L0"] >= 0, "L0", "must be >= 0")
        _need(c["t_end"] > 0, "t_end", "must be > 0")
        _need(c["dt"] > 0, "dt", "must be > 0")
        _need(c["t_end"] / c["dt"] <= _MAX_FLOW_STEPS, "dt",
              f"must be >= t_end / {_MAX_FLOW_STEPS}")
    elif experiment == "dispersion":
        _need(c["mu"] > 0, "mu", "must be > 0")
        _need(c["gamma"] > 0, "gamma", "must be > 0")
        _need(0 < c["delta"] < 1, "delta", "must be in (0, 1)")
        _need(c["k_max"] is None or c["k_max"] > 0, "k_max",
              "must be null or > 0")
        _need(c["re_max"] > 0, "re_max", "must be > 0")
        _need(c["im_max"] > 0, "im_max", "must be > 0")
        _need(c["z_step"] > 0, "z_step", "must be > 0")
        cells = _sweep_cells(c)
        _need(cells > 0, "k_max", "must be >= gamma, the shortest wavenumber")
        if cells > _MAX_SWEEP_CELLS:
            raise ConfigError(
                f"the sweep exceeds {_MAX_SWEEP_CELLS} (k, z) cells; raise "
                "z_step or lower re_max, im_max or k_max")
    elif experiment == "bounds":
        _need(c["d"] in (2, 3), "d", "must be 2 or 3")
        _need(c["gamma"] > 0, "gamma", "must be > 0")
        _need(c["eps"] is None or 0 < c["eps"] < 1, "eps",
              "must be null or in (0, 1)")
        _need(c["num_samples"] >= 1, "num_samples", "must be a positive integer")
        _need(c["seed"] >= 0, "seed", "must be an integer >= 0")
        _need(c["re_max"] >= 0, "re_max", "must be >= 0")
        _need(c["im_max"] > 0, "im_max", "must be > 0")
        _need(c["kmag_max"] >= c["gamma"], "kmag_max", "must be >= gamma")
    elif experiment in _SOLVER_EXPERIMENTS:
        if "fit_t_min" in c:
            _need(c["fit_t_min"] >= 0, "fit_t_min", "must be >= 0")
            _need(c["fit_t_max"] is None or c["fit_t_max"] > c["fit_t_min"],
                  "fit_t_max", "must be null or > fit_t_min")
        if experiment == "linear-decay":  # its fit is its result
            _need(c["fit_t_min"] < c["t_end"], "fit_t_min", "must be < t_end")
            _need(c["amplitude"] > 0, "amplitude", "must be > 0")
            _need(c["k_max"] is None or c["k_max"] > 0, "k_max",
                  "must be null or > 0")
            _need(0 < c["delta"] < 1, "delta", "must be in (0, 1)")
        # every rule on the SolverConfig itself is the solver's
        try:
            validate(_experiment_solver_config(experiment, c))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if experiment == "linear-decay" and c["k_max"] is not None:
            # the predicted rate needs a k != 0 on the lattice gamma Z^2
            cap, length = _MAX_ABSCISSA_WAVENUMBERS, _MAX_ABSCISSA_LENGTH
            count, summed = _lattice_extent(c["gamma"], c["k_max"], cap)
            _need(0 < count <= cap and summed <= length, "k_max",
                  "must be null or >= gamma, the shortest wavenumber, and "
                  f"reach at most {cap} lattice wavenumbers of summed |k| at "
                  f"most {length:g}")
    else:  # pragma: no cover - guarded by argparse choices
        raise ConfigError(f"unknown experiment {experiment!r}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_manifest(outdir: str, experiment: str, config: dict,
                    outputs: list[str], summary: dict, t0: float) -> str:
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "config": config,
        "wall_time_seconds": time.monotonic() - t0,
        "outputs": outputs,
        "summary": summary,
    }
    path = os.path.join(outdir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# experiment runners: each returns (outputs, summary)
# ---------------------------------------------------------------------------

def _run_bifurcation(c: dict, outdir: str):
    d = c["d"]
    mus = np.linspace(c["mu_min"], c["mu_max"], c["num"])
    branch = equilibrium_branch(mus, d, tol=c["tol"])
    asymptotic = [asymptotic_L(float(mu), d) for mu in branch.mu]
    path = os.path.join(outdir, "branch.csv")
    _write_csv(path, "mu,L_solved,L_asymptotic,residual",
               (branch.mu, branch.L, asymptotic, branch.residual))
    ordered = branch.L[branch.mu > d]
    num_rows = len(branch.mu)
    summary = {
        "num_rows": num_rows,
        "max_residual": float(branch.residual.max()) if num_rows else 0.0,
        "monotone_above_threshold": bool(np.all(np.diff(ordered) > 0))
        if ordered.size > 1 else True,
    }
    return [path], summary


def _run_homogeneous(c: dict, outdir: str):
    J0 = np.zeros(c["d"])
    J0[0] = c["L0"]
    traj = homogeneous_flow(c["mu"], J0, t_end=c["t_end"], dt=c["dt"])
    path = os.path.join(outdir, "homogeneous.csv")
    _write_csv(path, "t,L", (traj.t, traj.L))
    L_limit = solve_L(c["mu"], c["d"]) if c["mu"] > c["d"] else 0.0
    summary = {
        "L_end": float(traj.L[-1]),
        "L_limit": L_limit,
        "gap": abs(float(traj.L[-1]) - L_limit),
    }
    return [path], summary


def _run_dispersion(c: dict, outdir: str):
    z_values = default_z_grid(delta=c["delta"], re_max=c["re_max"],
                              im_max=c["im_max"], step=c["z_step"])
    sweep = dispersion_sweep(c["mu"], c["gamma"], z_values=z_values,
                             k_max=c["k_max"])
    # one row per (k, z) pair, k-major: z and k as (nk, nz) views
    shape, z, k = sweep.re_h.shape, sweep.z_values, sweep.k_vectors
    path = os.path.join(outdir, "dispersion.csv")
    _write_csv(path, "z_re,z_im,k1,k2,min_singular,re_h",
               (np.broadcast_to(z.real, shape), np.broadcast_to(z.imag, shape),
                np.broadcast_to(k[:, :1], shape), np.broadcast_to(k[:, 1:], shape),
                sweep.sigma_min, sweep.re_h))
    below = int(np.count_nonzero(sweep.re_h < 0.2))
    summary = {
        "min_re_h": sweep.min_re_h,
        "min_singular": sweep.min_sigma,
        "max_inv_norm": sweep.max_inv_norm,
        "num_points": sweep.re_h.size,
        "num_below_one_fifth": below,
        "flagged": bool(below > 0),
        "argmin_h_z": [sweep.argmin_h[0].real, sweep.argmin_h[0].imag],
        "argmin_h_k": list(map(float, sweep.argmin_h[1])),
    }
    return [path], summary


def _run_bounds(c: dict, outdir: str):
    d = c["d"]
    eps = default_eps(d) if c["eps"] is None else c["eps"]
    budget = bound_budget(c["gamma"], d, eps)
    rng = np.random.default_rng(c["seed"])
    n = c["num_samples"]
    z = rng.uniform(0.0, c["re_max"], n) + 1j * rng.uniform(-c["im_max"], c["im_max"], n)
    kmag = rng.uniform(c["gamma"], c["kmag_max"], n)
    # one row per sample: (z_re, z_im, kmag), then (Re c0, |c1|, d|c2|),
    # then their three bounds
    table = np.empty((n, 9))
    for i, (zi, ki) in enumerate(zip(z, kmag)):
        c0, c1, c2 = axis_coefficients(complex(zi), float(ki), d)
        table[i] = (zi.real, zi.imag, ki, c0.real, abs(c1), d * abs(c2),
                    c0_bound(float(ki), d), c1_bound(float(ki), d),
                    d * c2_bound(float(ki), d, eps))
    path = os.path.join(outdir, "bounds.csv")
    _write_csv(path, "z_re,z_im,kmag,re_c0,abs_c1,d_abs_c2,"
                     "bound_c0,bound_c1,bound_d_c2", table.T)
    worst = (table[:, 3:6] - table[:, 6:9]).max(axis=0)
    summary = {
        "eps": eps,
        "alpha2": budget.alpha2,
        "phi0": budget.phi0,
        "phi2": budget.phi2,
        "max_violation_c0": float(worst[0]),
        "max_violation_c1": float(worst[1]),
        "max_violation_c2": float(worst[2]),
        "num_samples": n,
        "all_bounds_hold": bool(worst.max() <= 0.0),
    }
    return [path], summary


# the SolverConfig fields an experiment config may carry under their own name
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)} - {"mode", "init"}


def _solver_config(c: dict, mode: str, init: InitSpec) -> SolverConfig:
    """The SolverConfig with the given mode and init whose other fields are
    the entries of c named like them; a field c lacks keeps its default."""
    return SolverConfig(mode=mode, init=init,
                        **{key: c[key] for key in _SOLVER_KEYS & c.keys()})


def _experiment_solver_config(experiment: str, c: dict) -> SolverConfig:
    """The SolverConfig of a solver experiment, for validation and for the
    run alike."""
    if experiment == "simulate":
        return _solver_config(c, c["mode"], InitSpec(**c["init"]))
    if experiment == "linear-decay":
        return _solver_config(c, "linearized", InitSpec(
            recipe="random-smooth", amplitude=c["amplitude"]))
    return _solver_config(c, "regularized",
                          InitSpec(recipe="large-blob", width=c["width"]))


def _run_solver(experiment: str, c: dict, outdir: str):
    """Run a solver experiment and write its diagnostics and snapshots;
    returns the RunResult, the written paths and the end of the fit window
    (t_end unless fit_t_max is set)."""
    result = run(_experiment_solver_config(experiment, c))
    paths = [os.path.join(outdir, "diagnostics.csv")]
    write_diagnostics_csv(paths[0], result.series)
    cfg = result.config
    for i, (t, values) in enumerate(result.snapshots):
        base = os.path.join(outdir, f"snapshot_{i:04d}")
        raw, meta = write_snapshot(base, values, gamma=cfg.gamma, mu=cfg.mu,
                                   t=t, mode=cfg.mode)
        paths.extend([raw, meta])
    t_max = c["t_end"] if c.get("fit_t_max") is None else c["fit_t_max"]
    return result, paths, t_max


def _mass_drift(result) -> float:
    """Largest change of the mean density over a run, relative to its start,
    or to mu for a linearized perturbation, whose own mass starts at
    round-off."""
    mass, cfg = result.series.mass, result.config
    if cfg.mode == "linearized":
        return float(np.max(np.abs(mass - mass[0])) / cfg.mu)
    return float(np.max(np.abs(mass / mass[0] - 1.0)))


def _run_simulate(c: dict, outdir: str):
    result, paths, t_max = _run_solver("simulate", c, outdir)
    s, mu = result.series, c["mu"]
    summary = {
        "mass_initial": float(s.mass[0]),
        "mass_drift_rel": _mass_drift(result),
        "dist_final": float(s.dist[-1]),
    }
    if c["mode"] != "linearized":
        J0bar = np.array([s.jbar_x[0], s.jbar_y[0]])
        Jinf = np.array([s.jbar_x[-1], s.jbar_y[-1]])
        if mu > 2.0 and np.linalg.norm(J0bar) > 0:
            J1 = project_to_manifold(mu, J0bar)
            summary["J1"] = [float(J1[0]), float(J1[1])]
            summary["J_infty"] = [float(Jinf[0]), float(Jinf[1])]
            summary["J_gap"] = float(np.linalg.norm(J1 - Jinf))
    try:
        rate, r2 = fit_decay_rate(s, c["fit_t_min"], t_max, column="dist")
        summary["dist_rate"] = rate
        summary["dist_r2"] = r2
    except ValueError:
        summary["dist_rate"] = None
        summary["dist_r2"] = None
    return paths, summary


def _run_linear_decay(c: dict, outdir: str):
    result, paths, t_max = _run_solver("linear-decay", c, outdir)
    s = result.series
    rate, r2 = fit_decay_rate(s, c["fit_t_min"], t_max, column="l2")
    predicted = spectral_abscissa(c["mu"], c["gamma"], c["k_max"],
                                  delta=c["delta"])
    summary = {
        "rate_measured": rate,
        "rate_predicted": predicted,
        "ratio": rate / predicted if predicted != 0 else None,
        "fit_r2": r2,
        "l2_monotone": bool(np.all(np.diff(s.l2) <= 1e-10)),
    }
    return paths, summary


def _run_entropy(c: dict, outdir: str):
    result, paths, _ = _run_solver("entropy", c, outdir)
    s = result.series
    fit = fit_entropy_growth(s)
    summary = {
        "c": fit.c,
        "C": fit.C,
        "max_violation": fit.max_violation,
        "entropy_initial": float(s.entropy[0]),
        "entropy_final": float(s.entropy[-1]),
        "mass_drift_rel": _mass_drift(result),
    }
    return paths, summary


_RUNNERS = {
    "bifurcation": _run_bifurcation,
    "homogeneous": _run_homogeneous,
    "dispersion": _run_dispersion,
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "linear-decay": _run_linear_decay,
    "entropy": _run_entropy,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vicsekbgk",
        description="kinetic alignment model: experiments and sweeps")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="|".join(EXPERIMENTS))
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       dest="overrides", help="override one config entry")
        p.add_argument("--output-dir", default=".", metavar="PATH",
                       help="directory for artifacts (created if missing)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    experiment, outdir = args.experiment, args.output_dir
    try:
        config = resolve_config(experiment, args.config, args.overrides)
        os.makedirs(outdir, exist_ok=True)
        if os.path.isfile(stale := os.path.join(outdir, "manifest.json")):
            os.remove(stale)    # it marks a completed run, not this one
    except (ConfigError, OSError) as exc:   # an unusable --output-dir, too
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    try:
        outputs, summary = _RUNNERS[experiment](config, outdir)
    except (ArithmeticError, MemoryError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        summary = {"error": str(exc), "error_type": type(exc).__name__}
        if isinstance(exc, SolverAbort):
            summary["last_valid_time"] = exc.t
            summary["last_good_row"] = exc.last_good_row
        _write_manifest(outdir, experiment, config, [], summary, t0)
        return 1
    manifest_path = _write_manifest(outdir, experiment, config,
                                    [os.path.basename(p) for p in outputs],
                                    summary, t0)
    if not args.quiet:
        for path in outputs:
            print(f"wrote {path}")
        print(f"wrote {manifest_path}")
        for key, value in summary.items():
            print(f"  {key}: {value}")
    return 0
