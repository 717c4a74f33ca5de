"""Workload definitions and correctness checks of the vicsekbgk benchmark.

A workload is a list of CLI experiments, each given as a generated config
file, plus the per-process state the experiments build once (``SETUP``).
The package sees only the configs; the seed is the benchmark's.

Sizes: ``full`` is what the benchmark measures; ``smoke`` is the smallest
size at which every correctness check still holds, used by test_smoke.py.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os

DEFAULT_SEED = 11

# relax: nonlinear simulate, mu=2.2, random-smooth at amplitude 0.01,
# 32^2 x 64 grid, dt=0.01, dealias on, default sampling (every 50 steps).
_RELAX_T_END = {"full": 2.0, "smoke": 0.5}
# decay: linear-decay at its defaults except t_end, shortened so a run holds
# more than one process; the fit window [10, t_end] keeps criterion 10's 25%.
_DECAY_T_END = {"full": 15.0, "smoke": 12.0}
# certify: bounds costs ~27 ms per sample at the seed commit.
_BOUNDS_SAMPLES = {"full": 150, "smoke": 10}
_DISPERSION = {
    "full": {"mu": 1.9},
    "smoke": {"mu": 1.9, "im_max": 10.0, "z_step": 0.5},
}

WHY = {
    "relax": "nonlinear simulate: nearly all time is solver.step, 6 complex "
             "FFTs per step; linstab unused",
    "decay": "linear-decay: linearized 2-FFT steps, dense diagnostics and "
             "spectral_abscissa root finding",
    "certify": "bifurcation, homogeneous, dispersion and bounds: linstab "
               "sweeps and bounds, CSV volume, equilibria; solver unused",
}


def experiments(workload: str, size: str, seed: int) -> list[tuple[str, dict]]:
    """(experiment, config) pairs run in order by one benchmark process."""
    if workload == "relax":
        return [("simulate", {
            "mu": 2.2, "mode": "nonlinear", "nx": 32, "ntheta": 64,
            "dt": 0.01, "dealias": True, "t_end": _RELAX_T_END[size],
            "seed": seed,
            "init": {"recipe": "random-smooth", "amplitude": 0.01},
        })]
    if workload == "decay":
        return [("linear-decay", {"t_end": _DECAY_T_END[size], "seed": seed})]
    if workload == "certify":
        return [
            ("bifurcation", {"d": 2}),
            ("homogeneous", {}),
            ("dispersion", dict(_DISPERSION[size])),
            ("bounds", {"d": 2, "num_samples": _BOUNDS_SAMPLES[size],
                        "seed": seed}),
        ]
    raise KeyError(workload)


# State each process builds once before its experiments: the solver
# workspace for the workload's SolverConfig, or the default bound cap eps.
SETUP = {"relax": "solver", "decay": "solver", "certify": "default_eps"}


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of failure messages (empty = pass)
# ---------------------------------------------------------------------------

MASS_DRIFT_TOL = 1e-11      # acceptance criterion 12
RATE_RATIO_TOL = 0.25       # acceptance criterion 10
MIN_RE_H = 0.2              # acceptance criterion 06
SUMMARY_RTOL = 1e-9         # summary scalars against the reference, relative
SUMMARY_ATOL = 1e-12        # floor for scalars that are themselves round-off

HASHED_OUTPUTS = {"bifurcation": "branch.csv", "dispersion": "dispersion.csv"}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _first_diagnostics(outdir: str) -> dict:
    with open(os.path.join(outdir, "diagnostics.csv"), newline="") as fh:
        return {k: float(v) for k, v in next(csv.DictReader(fh)).items()}


def check_experiment(experiment: str, config: dict, outdir: str,
                     summary: dict) -> list[str]:
    """The workload's own criteria on one finished experiment."""
    bad = []
    if experiment == "simulate":
        drift = summary["mass_drift_rel"]
        if not drift <= MASS_DRIFT_TOL:
            bad.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL}")
        dist0 = _first_diagnostics(outdir)["dist"]
        if not summary["dist_final"] < dist0:
            bad.append(f"dist_final {summary['dist_final']:.6e} is not below "
                       f"the t=0 distance {dist0:.6e}")
    elif experiment == "linear-decay":
        ratio = summary["ratio"]
        if not abs(ratio - 1.0) <= RATE_RATIO_TOL:
            bad.append(f"rate_measured / rate_predicted = {ratio:.4f}, "
                       f"outside 1 +- {RATE_RATIO_TOL}")
        if summary["l2_monotone"] is not True:
            bad.append("l2 is not monotone")
    elif experiment == "bifurcation":
        if not summary["max_residual"] <= config.get("tol", 1e-12):
            bad.append(f"branch max_residual {summary['max_residual']:.3e} "
                       f"> tol")
    elif experiment == "dispersion":
        if not summary["min_re_h"] >= MIN_RE_H:
            bad.append(f"min_re_h {summary['min_re_h']:.6f} < {MIN_RE_H}")
    elif experiment == "bounds":
        if summary["all_bounds_hold"] is not True:
            bad.append("all_bounds_hold is false")
    return bad


def _close(a, b) -> bool:
    if isinstance(b, bool) or b is None or isinstance(b, str):
        return a == b
    if isinstance(b, (int, float)):
        return (isinstance(a, (int, float)) and not isinstance(a, bool)
                and math.isclose(a, b, rel_tol=SUMMARY_RTOL,
                                 abs_tol=SUMMARY_ATOL))
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(
            _close(x, y) for x, y in zip(a, b))
    return a == b


def check_reference(experiment: str, outdir: str, summary: dict,
                    ref: dict | None, default_seed: bool) -> list[str]:
    """Output hashes always; summary scalars only at the default seed."""
    if ref is None:
        return [f"no reference recorded for {experiment}"]
    bad = []
    name = HASHED_OUTPUTS.get(experiment)
    if name is not None:
        got = sha256(os.path.join(outdir, name))
        if got != ref.get("sha256"):
            bad.append(f"sha256 of {name} is {got}, reference "
                       f"{ref.get('sha256')}")
    if default_seed:
        for key, want in ref["summary"].items():
            if not _close(summary.get(key), want):
                bad.append(f"summary {key} = {summary.get(key)!r}, reference "
                           f"{want!r}")
    return bad
