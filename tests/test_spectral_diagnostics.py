"""The diagnostics columns, taken from the half-spectrum, against nodal sums.

`nodal_diagnostics` is the solver's earlier formulation, kept here as an
oracle: every column is a sum over the nodal values, the angular moments
are taken cell by cell, the distance to the equilibrium family sums the
squared nodal differences, and a linearized row takes the physical field's
columns and then the perturbation's mass, mean flux and L^2 norm.
"""
import math

import numpy as np
import pytest

import vicsekbgk.solver as solver
from vicsekbgk.equilibria import solve_L
from vicsekbgk.solver import (
    InitSpec,
    SolverConfig,
    diagnostics,
    dist_to_manifold,
    entropy_functional,
    run,
)
from vicsekbgk.sphere import build_sphere_grid, von_mises


def nodal_moments(v, grid):
    """Cellwise (rho, J_x, J_y) of nodal values."""
    w = grid.weights
    return v @ w, v @ (w * grid.nodes[:, 0]), v @ (w * grid.nodes[:, 1])


def nodal_entropy(v):
    nx, _, ntheta = v.shape
    dvol = (2.0 * math.pi / nx) ** 2 * (2.0 * math.pi / ntheta)
    pos = v > 0.0
    s = float(np.sum(np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)) * dvol)
    return s + (2.0 * math.pi) ** 3 / math.e


def nodal_dist(v, mu, grid):
    nx, _, ntheta = v.shape
    wq = 2.0 * math.pi / ntheta
    dx2 = (2.0 * math.pi / nx) ** 2
    if mu <= 2.0:
        return math.sqrt(float(np.sum((v - mu / (2.0 * math.pi)) ** 2)) * dx2 * wq)
    L = solve_L(mu, 2)
    Fbar = v.mean(axis=(0, 1))
    spread2 = float(np.sum((v - Fbar) ** 2)) * dx2 * wq
    # a dense scan of the direction, refined by ternary search
    phis = np.linspace(0.0, 2.0 * math.pi, 721)

    def gap(phi):
        m = von_mises(L * np.array([np.cos(phi), np.sin(phi)]).T, grid)
        return np.sum((Fbar - mu * m) ** 2, axis=-1) * wq

    best = phis[int(np.argmin(gap(phis)))]
    lo, hi = best - 0.01, best + 0.01
    for _ in range(80):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if gap(a) < gap(b):
            hi = b
        else:
            lo = a
    return math.sqrt(spread2 + (2.0 * math.pi) ** 2 * float(gap(0.5 * (lo + hi))))


def nodal_diagnostics(v, mu, grid):
    nx, _, ntheta = v.shape
    rho, Jx, Jy = nodal_moments(v, grid)
    dvol = (2.0 * math.pi / nx) ** 2 * (2.0 * math.pi / ntheta)
    return {
        "mass": float(rho.mean()),
        "jbar_x": float(Jx.mean()),
        "jbar_y": float(Jy.mean()),
        "l2": math.sqrt(float(np.sum(v**2)) * dvol),
        "entropy": nodal_entropy(v),
        "dist": nodal_dist(v, mu, grid),
        "rho_min": float(rho.min()),
        "rho_max": float(rho.max()),
    }


def nodal_row(v, config, grid):
    """A run's row from nodal values; in linearized mode v is the
    perturbation of mu M_eq."""
    if config.mode != "linearized":
        return nodal_diagnostics(v, config.mu, grid)
    a = config.jeq_angle
    L = solve_L(config.mu, 2) if config.mu > 2.0 else 0.0
    Meq = von_mises(L * np.array([math.cos(a), math.sin(a)]), grid)
    row = nodal_diagnostics(config.mu * Meq + v, config.mu, grid)
    pert = nodal_diagnostics(v, config.mu, grid)
    for c in ("mass", "jbar_x", "jbar_y", "l2"):
        row[c] = pert[c]
    return row


# the linearized mass and mean flux are compared with an absolute tolerance
# of 1e-15 mu; every other column relative to its largest value over the run
ABSOLUTE = {"nonlinear": (), "linearized": ("mass", "jbar_x", "jbar_y")}

CASES = [pytest.param(mode, mu, angle, nx, id=f"{mode}-mu{mu}-nx{nx}")
         for mode, mu, angle in (("nonlinear", 1.5, 0.0), ("nonlinear", 2.2, 0.0),
                                 ("linearized", 1.5, 0.0),
                                 ("linearized", 2.5, 0.4))
         for nx in (6, 8)]


def _config(mode, mu, angle, nx):
    return SolverConfig(mu=mu, mode=mode, jeq_angle=angle, nx=nx, ntheta=16,
                        dt=0.1, t_end=1.0, snapshot_every=3,
                        keep_snapshots=True, seed=3,
                        init=InitSpec(recipe="random-smooth", amplitude=0.5))


@pytest.fixture
def nyquist_init(monkeypatch):
    """Add to each initial field a zero-mean part on the Nyquist row,
    column and corner, where Parseval's weight is 1, not 2."""
    init = solver.init_field

    def with_nyquist(config):
        F = init(config)
        sign = (-1.0) ** np.arange(config.nx)
        theta = build_sphere_grid(2, config.ntheta).angles
        F += 0.02 * config.mu * (
            sign[:, None, None] * (1.0 + 0.5 * np.cos(theta))
            + sign[None, :, None] * (1.0 + 0.5 * np.sin(theta))
            + (sign[:, None] * sign[None, :])[..., None])
        return F

    monkeypatch.setattr(solver, "init_field", with_nyquist)


def _compare(rows, want, mode, mu):
    for c in solver._COLUMNS[1:]:
        got = np.array([r[c] for r in rows])
        ref = np.array([r[c] for r in want])
        tol = (1e-15 * mu if c in ABSOLUTE[mode]
               else 1e-12 * np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= tol, c


@pytest.mark.parametrize("mode,mu,angle,nx", CASES)
def test_run_rows_match_nodal_oracle(nyquist_init, mode, mu, angle, nx):
    cfg = _config(mode, mu, angle, nx)
    res = run(cfg)
    S = np.fft.rfft2(res.snapshots[-1][1], axes=(0, 1))
    assert np.max(np.abs(S[:, nx // 2])) > 1e-3 * np.max(np.abs(S[1:]))
    grid = build_sphere_grid(2, cfg.ntheta)
    rows = [{c: getattr(res.series, c)[i] for c in solver._COLUMNS}
            for i in range(len(res.series))]
    assert [r["t"] for r in rows] == [t for t, _ in res.snapshots]
    _compare(rows, [nodal_row(v, cfg, grid) for _, v in res.snapshots], mode, mu)


@pytest.mark.parametrize("mode,mu,angle,nx", CASES)
def test_diagnostics_match_nodal_oracle(nyquist_init, mode, mu, angle, nx):
    cfg = _config(mode, mu, angle, nx)
    grid = build_sphere_grid(2, cfg.ntheta)
    snaps = run(cfg).snapshots
    if mode == "linearized":  # the physical fields of the run
        Meq = solver._workspace_of(cfg).Meq
        snaps = [(t, mu * Meq + v) for t, v in snaps]
    got = [diagnostics(v, grid, mu) for _, v in snaps]
    want = [nodal_diagnostics(v, mu, grid) for _, v in snaps]
    _compare(got, want, "nonlinear", mu)  # every column of a physical field
    for (_, v), row in zip(snaps, got):
        assert dist_to_manifold(v, grid, mu) == row["dist"]
        assert entropy_functional(v) == row["entropy"]


@pytest.mark.parametrize("mu", [1.5, 2.5])
def test_diagnostics_of_a_field_with_zero_and_negative_entries(mu):
    nx, ntheta = 6, 16
    grid = build_sphere_grid(2, ntheta)
    rng = np.random.default_rng(9)
    v = rng.normal(0.3, 0.3, size=(nx, nx, ntheta))
    v[v < 0.1] = 0.0
    v[0, 1, :4] = -0.2
    assert (v == 0.0).any() and (v < 0.0).any()
    got, want = diagnostics(v, grid, mu), nodal_diagnostics(v, mu, grid)
    for c, ref in want.items():
        assert abs(got[c] - ref) <= 1e-12 * max(abs(ref), 1.0), c
    assert abs(entropy_functional(v) - nodal_entropy(v)) <= 1e-12 * abs(nodal_entropy(v))


@pytest.mark.parametrize("mu", [2.2, 3.5])
@pytest.mark.parametrize("ntheta", [8, 16, 32, 64, 128])
def test_closest_direction_matches_the_dense_scan(ntheta, mu):
    # Relative tolerances.  On 400 such fields (20 seeds, nx 6) the nested
    # scans stayed within 3.4e-16 of a finer two-stage scan of the same gap
    # (4,096 directions, then 16 rounds of 128) at distances >= 1e-5 and
    # within 1.4e-10 below, where the gap's round-off (differences of size
    # 1e-6 between terms of size 1) sets the floor; other random fields have
    # reached 3.8e-12 and 2.1e-9.
    grid = build_sphere_grid(2, ntheta)
    for amplitude in (1e-6, 0.3):
        for seed in (0, 1, 2):
            v = solver.init_field(SolverConfig(
                mu=mu, nx=6, ntheta=ntheta, seed=seed,
                init=InitSpec(recipe="random-smooth", amplitude=amplitude)))
            ref = nodal_dist(v, mu, grid)
            tol = 4e-12 if ref >= 1e-5 else 2.1e-9
            assert abs(dist_to_manifold(v, grid, mu) - ref) <= tol * ref
