import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import vicsekbgk.solver as solver
from vicsekbgk.equilibria import homogeneous_flow, solve_L
from vicsekbgk.linstab import default_z_grid, flux_relaxation_matrix
from vicsekbgk.solver import (
    DIAGNOSTICS_HEADER,
    DiagnosticsSeries,
    EntropyFit,
    InitSpec,
    SolverAbort,
    SolverConfig,
    diagnostics,
    dist_to_manifold,
    entropy_functional,
    fit_decay_rate,
    fit_entropy_growth,
    init_field,
    read_diagnostics_csv,
    read_snapshot,
    regularized_flux,
    run,
    step,
    write_diagnostics_csv,
    write_snapshot,
)
from vicsekbgk.sphere import build_sphere_grid, moments, von_mises


def _series(t, **cols):
    t = np.asarray(t, dtype=float)
    data = {c: np.zeros_like(t) for c in
            ("mass", "jbar_x", "jbar_y", "l2", "entropy", "dist",
             "rho_min", "rho_max")}
    data.update({k: np.asarray(v, dtype=float) for k, v in cols.items()})
    return DiagnosticsSeries(t=t, **data)


# ---------------------------------------------------------------------------
# configuration and initial fields
# ---------------------------------------------------------------------------

def test_init_spec_coerces_mode_k():
    spec = InitSpec(mode_k=[2, 1])
    assert spec.mode_k == (2, 1)
    cfg = SolverConfig(mu=1.0, init=spec)
    hash(cfg)  # stays usable as a cache key


def test_validation_errors():
    bad = [
        SolverConfig(mu=1.0, mode="implicit"),
        SolverConfig(mu=1.0, init=InitSpec(recipe="delta")),
        SolverConfig(mu=-1.0),
        SolverConfig(mu=1.0, nx=7),
        SolverConfig(mu=1.0, ntheta=6),
        SolverConfig(mu=1.0, dt=0.0),
        SolverConfig(mu=1.0, mode="regularized"),
        SolverConfig(mu=1.0, snapshot_every=0),
        SolverConfig(mu=1.0, mode="linearized",
                     init=InitSpec(recipe="large-blob")),
        SolverConfig(mu=1.0, mode="linearized",
                     init=InitSpec(recipe="mode-bump", mode_k=(0, 0))),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            init_field(cfg)


@pytest.mark.parametrize("key, value", [
    ("nx", 8.0), ("ntheta", 16.0), ("snapshot_every", 2.5),
    ("snapshot_every", True), ("seed", 1.0), ("seed", False)])
def test_validate_requires_integer_fields(key, value):
    # non-integers used to fail inside numpy, or run with a rounded cadence
    solver.validate(SolverConfig(mu=1.0, nx=np.int64(8), ntheta=16,
                                 snapshot_every=np.int32(2), seed=np.int64(1)))
    with pytest.raises(ValueError, match=f"invalid value for {key}:"):
        solver.validate(SolverConfig(**{"mu": 1.0, "nx": 8, "ntheta": 16,
                                        key: value}))


@pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
def test_validate_rejects_eps_reg_outside_regularized_mode(mode):
    # only the regularized collision reads eps_reg; elsewhere it is an error
    solver.validate(SolverConfig(mu=1.0, mode="regularized", eps_reg=0.1))
    with pytest.raises(ValueError, match="invalid value for eps_reg:"):
        solver.validate(SolverConfig(mu=1.0, mode=mode, eps_reg=0.1))


def test_equilibrium_flux():
    assert np.all(solver._equilibrium_flux(1.5, 0.0) == 0.0)
    J = solver._equilibrium_flux(2.5, 0.7)
    L = solve_L(2.5, 2)
    assert np.max(np.abs(J - L * np.array([math.cos(0.7), math.sin(0.7)]))) < 1e-14


def test_init_zero_amplitude_is_equilibrium():
    for mu, angle in [(1.5, 0.0), (2.5, 0.9)]:
        cfg = SolverConfig(mu=mu, jeq_angle=angle, nx=8, ntheta=32,
                           init=InitSpec(amplitude=0.0))
        F = init_field(cfg)
        d = diagnostics(F, build_sphere_grid(2, 32), mu)
        assert abs(d["mass"] - mu) < 1e-13
        assert d["dist"] < 1e-5
        # the field is x-independent and matches mu M on every cell
        assert np.max(np.abs(F - F[0, 0])) == 0.0


def test_init_mass_exact():
    for recipe, mode in [("mode-bump", "nonlinear"),
                         ("random-smooth", "nonlinear"),
                         ("large-blob", "regularized")]:
        cfg = SolverConfig(mu=2.2, mode=mode, nx=16, ntheta=32,
                           eps_reg=0.1 if mode == "regularized" else None,
                           init=InitSpec(recipe=recipe, amplitude=0.4))
        rho, _ = moments(init_field(cfg), build_sphere_grid(2, 32))
        assert abs(rho.mean() - 2.2) < 1e-13
        assert rho.min() >= 0.0


def test_init_linearized_zero_mean():
    cfg = SolverConfig(mu=2.5, mode="linearized", nx=16, ntheta=32,
                       init=InitSpec(recipe="random-smooth", amplitude=1.0))
    rho, _ = moments(init_field(cfg), build_sphere_grid(2, 32))
    assert abs(rho.mean()) < 1e-14


def test_init_negative_rejected():
    cfg = SolverConfig(mu=2.0, init=InitSpec(amplitude=1.5))
    with pytest.raises(ValueError, match="negative"):
        init_field(cfg)


def test_init_rejects_fractional_mode_zero_gamma_and_empty_run():
    for cfg in (SolverConfig(mu=1.0, init=InitSpec(mode_k=(1.5, 0))),
                SolverConfig(mu=1.0, gamma=0),
                SolverConfig(mu=1.0, t_end=1e-12)):
        with pytest.raises(ValueError):
            init_field(cfg)


def test_random_smooth_matches_loop_oracle():
    # the term-by-term sum of full-grid cosines, drawn in the same order
    def oracle(nx, theta, seed):
        rng = np.random.default_rng(seed)
        x = 2.0 * math.pi * np.arange(nx) / nx
        X1, X2, TH = x[:, None, None], x[None, :, None], theta[None, None, :]
        g = np.zeros((nx, nx, theta.size))
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                for j in range(-3, 4):
                    amp = rng.normal()
                    pha = rng.uniform(0.0, 2.0 * math.pi)
                    g = g + amp * np.cos(m1 * X1 + m2 * X2 + j * TH + pha)
        return g / np.max(np.abs(g))

    theta = build_sphere_grid(2, 16).angles
    for seed in (0, 11, 12):
        got = solver._random_smooth(8, theta, seed)
        assert np.max(np.abs(got - oracle(8, theta, seed))) <= 1e-13


def test_regularized_flux():
    J = np.array([[0.3, 0.4], [3.0, 0.0], [0.0, 0.0]])
    out = regularized_flux(J.copy(), 1.0)
    assert np.array_equal(out[0], J[0])          # |J| = 0.5 <= 1 untouched
    assert np.max(np.abs(out[1] - [1.0, 0.0])) < 1e-15
    assert np.all(out[2] == 0.0)
    big = regularized_flux(np.array([[3.0, 4.0]]), 0.5)
    assert np.max(np.abs(big - [[1.2, 1.6]])) < 1e-14
    same = regularized_flux(J.copy(), 0.0)
    assert np.array_equal(same, J)


# ---------------------------------------------------------------------------
# stepping: conservation, fixed points, accuracy
# ---------------------------------------------------------------------------

def test_equilibrium_is_fixed_point():
    for mu, angle in [(1.5, 0.0), (2.7, 1.1)]:
        cfg = SolverConfig(mu=mu, jeq_angle=angle, nx=8, ntheta=32, dt=0.05)
        F0 = init_field(cfg)
        S1 = step(np.fft.rfft2(F0, axes=(0, 1)), cfg)
        F1 = np.fft.irfft2(S1, s=(cfg.nx, cfg.nx), axes=(0, 1))
        assert np.max(np.abs(F1 - F0)) < 1e-13


def test_mass_conserved_stepwise():
    cfg = SolverConfig(mu=2.2, nx=16, ntheta=32, dt=0.01, t_end=0.3,
                       snapshot_every=1, seed=3,
                       init=InitSpec(recipe="random-smooth", amplitude=0.3))
    res = run(cfg)
    assert np.max(np.abs(res.series.mass - 2.2)) < 1e-13
    assert np.all(res.series.rho_min > 0.0)


def test_homogeneous_flux_matches_moment_ode():
    # a spatially uniform field reduces the dynamics to the flux ODE
    # dJ/dt = mu c(|J|) J/|J| - J; the splitting converges at second order
    mu, kappa = 2.2, 0.5
    grid = build_sphere_grid(2, 64)
    wq = 2.0 * math.pi / 64
    vm = np.exp(kappa * np.cos(grid.angles))
    vm /= vm.sum() * wq
    J0 = mu * float((vm * np.cos(grid.angles)).sum() * wq)
    ref = homogeneous_flow(mu, np.array([J0, 0.0]), t_end=1.0, dt=1e-3)

    errs = []
    for dt in (0.02, 0.01):
        cfg = SolverConfig(mu=mu, nx=4, ntheta=64, dt=dt)
        S = np.fft.rfft2(np.broadcast_to(mu * vm, (4, 4, 64)), axes=(0, 1))
        for _ in range(int(round(1.0 / dt))):
            S = step(S, cfg)
        _, J = moments(np.fft.irfft2(S, s=(4, 4), axes=(0, 1)), grid)
        errs.append(abs(float(np.linalg.norm(J.mean(axis=(0, 1)))) - ref.L[-1]))
    assert errs[1] < errs[0]
    assert 3.4 < errs[0] / errs[1] < 4.6


def test_full_dynamics_second_order():
    fields = []
    for dt in (0.02, 0.01, 0.005):
        cfg = SolverConfig(mu=2.5, nx=16, ntheta=32, dt=dt, t_end=0.5,
                           init=InitSpec(amplitude=0.3))
        fields.append(run(cfg).snapshots[-1][1])
    e_coarse = np.max(np.abs(fields[0] - fields[1]))
    e_fine = np.max(np.abs(fields[1] - fields[2]))
    assert 3.4 < e_coarse / e_fine < 4.6


def test_linearized_l2_contracts_below_threshold():
    cfg = SolverConfig(mu=1.5, mode="linearized", nx=16, ntheta=32, dt=0.01,
                       t_end=0.5, snapshot_every=1,
                       init=InitSpec(recipe="random-smooth", amplitude=1.0))
    res = run(cfg)
    l2 = res.series.l2
    assert np.all(np.diff(l2) <= 1e-12)
    assert l2[-1] < l2[0]


def test_linearized_conserved_quantities():
    # mean density and the J-perpendicular mean flux are exactly conserved
    angle = 0.3
    cfg = SolverConfig(mu=2.5, mode="linearized", jeq_angle=angle, nx=16,
                       ntheta=32, dt=0.01, t_end=0.5, snapshot_every=1, seed=2,
                       init=InitSpec(recipe="random-smooth", amplitude=1.0))
    res = run(cfg)
    assert np.max(np.abs(res.series.mass)) < 1e-13
    perp = (-math.sin(angle) * res.series.jbar_x
            + math.cos(angle) * res.series.jbar_y)
    assert np.max(np.abs(perp - perp[0])) < 1e-13


def test_linearized_mean_flux_follows_matrix_ode():
    # the spatial-mean flux obeys dJ/dt = C J exactly; the splitting picks up
    # an O(dt^2) error against the matrix exponential
    mu = 2.5
    C = flux_relaxation_matrix(mu, solve_L(mu, 2) * np.array([1.0, 0.0]))
    errs = []
    for dt in (0.02, 0.01):
        cfg = SolverConfig(mu=mu, mode="linearized", nx=8, ntheta=64, dt=dt,
                           t_end=1.0, seed=6,
                           init=InitSpec(recipe="random-smooth", amplitude=1.0))
        s = run(cfg).series
        j0 = np.array([s.jbar_x[0], s.jbar_y[0]])
        jT = np.array([s.jbar_x[-1], s.jbar_y[-1]])
        errs.append(float(np.linalg.norm(jT - expm(C) @ j0)))
    assert 3.4 < errs[0] / errs[1] < 4.6


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_entropy_constant_field():
    for c in (0.3, 1.0):
        expected = (2.0 * math.pi) ** 3 * (c * math.log(c) + 1.0 / math.e)
        assert abs(entropy_functional(np.full((8, 8, 16), c)) - expected) < 1e-10


def test_entropy_ignores_zero_cells():
    v = np.zeros((8, 8, 16))
    assert abs(entropy_functional(v) - (2.0 * math.pi) ** 3 / math.e) < 1e-12


def test_dist_to_manifold_zero_cases():
    # subcritical: the family is the uniform state
    grid = build_sphere_grid(2, 32)
    uni = np.full((8, 8, 32), 1.5 / (2.0 * math.pi))
    assert dist_to_manifold(uni, grid, 1.5) == 0.0
    # supercritical: exact von Mises state at an off-axis angle
    mu, phi = 2.5, 0.9
    L = solve_L(mu, 2)
    wq = 2.0 * math.pi / 32
    m = np.exp(L * np.cos(grid.angles - phi))
    m /= m.sum() * wq
    F = np.ascontiguousarray(np.broadcast_to(mu * m, (8, 8, 32)))
    assert dist_to_manifold(F, grid, mu) < 1e-5


def test_dist_to_manifold_small_distance_keeps_digits():
    # F = mu M_J + eta g(x) h(theta) with g of zero spatial mean: the closest
    # equilibrium is mu M_J and the distance is eta ||g h||, far below ||F||
    mu, phi, eta = 2.5, 0.9, 1e-7
    nx, ntheta = 16, 32
    grid = build_sphere_grid(2, ntheta)
    M = von_mises(solve_L(mu, 2) * np.array([math.cos(phi), math.sin(phi)]),
                  grid)
    x = 2.0 * math.pi * np.arange(nx) / nx
    g = np.cos(x[:, None] + 2.0 * x[None, :])
    gh = g[..., None] * (np.cos(2.0 * grid.angles) + 0.5 * np.sin(grid.angles))
    F = mu * M + eta * gh
    dvol = (2.0 * math.pi / nx) ** 2 * (2.0 * math.pi / ntheta)
    want = eta * math.sqrt(float(np.sum(gh**2)) * dvol)
    assert abs(dist_to_manifold(F, grid, mu) / want - 1.0) <= 1e-8


def test_dist_to_manifold_detects_perturbation():
    mu = 2.5
    cfg = SolverConfig(mu=mu, nx=8, ntheta=32, init=InitSpec(amplitude=0.2))
    assert dist_to_manifold(init_field(cfg), build_sphere_grid(2, 32), mu) > 0.01


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------

def test_run_sampling_and_snapshots():
    cfg = SolverConfig(mu=1.5, nx=8, ntheta=16, dt=0.01, t_end=0.1,
                       snapshot_every=3, init=InitSpec(amplitude=0.1))
    res = run(cfg)
    assert res.series.t.tolist() == [0.0, 0.03, 0.06, 0.09, 0.1]
    assert [t for t, _ in res.snapshots] == [0.0, 0.1]
    kept = run(SolverConfig(mu=1.5, nx=8, ntheta=16, dt=0.01, t_end=0.1,
                            snapshot_every=5, keep_snapshots=True,
                            init=InitSpec(amplitude=0.1)))
    assert [t for t, _ in kept.snapshots] == [0.0, 0.05, 0.1]


def test_workspace_ignores_run_controls():
    # t_end, seed and init do not change the grid or the operator
    a = SolverConfig(mu=2.2, nx=8, ntheta=16, t_end=1.0, seed=1,
                     init=InitSpec(amplitude=0.1))
    b = SolverConfig(mu=2.2, nx=8, ntheta=16, t_end=2.0, seed=2,
                     init=InitSpec(recipe="random-smooth", amplitude=0.2))
    solver._workspace.cache_clear()
    init_field(a)
    init_field(b)
    assert solver._workspace.cache_info().misses == 1


def test_workspace_cache_keeps_one():
    # runs of two configs leave only the second one's workspace cached
    run(SolverConfig(mu=2.2, nx=8, ntheta=16, t_end=0.02))
    run(SolverConfig(mu=1.5, mode="linearized", nx=8, ntheta=16, t_end=0.02,
                     init=InitSpec(amplitude=0.1)))
    assert solver._workspace.cache_info().currsize == 1


def test_run_rejects_misaligned_t_end():
    with pytest.raises(ValueError, match="multiple"):
        run(SolverConfig(mu=1.5, nx=8, ntheta=16, dt=0.3, t_end=1.0))


def test_solver_abort_carries_time():
    err = SolverAbort(1.25)
    assert err.t == 1.25
    assert "1.25" in str(err)


# ---------------------------------------------------------------------------
# the run loop against a loop of step
# ---------------------------------------------------------------------------

def _step_loop(cfg):
    """Nodal snapshots at run's sample steps from a plain loop of step, the
    one-step oracle; raises SolverAbort like run, with the row of the last
    sample."""
    F = solver.init_field(cfg)
    S = np.fft.rfft2(F, axes=(0, 1))
    n = solver._num_steps(cfg)
    snaps = [(0.0, F)]
    last = (F, S, 0.0)
    for i in range(1, n + 1):
        S = step(S, cfg)
        if not np.isfinite(S.view(float)).all():
            ws = solver._workspace_of(cfg)
            values, S_last, t = last
            background = cfg.mu * ws.Meq if cfg.mode == "linearized" else None
            row = solver.diagnostics(values, ws.grid, cfg.mu,
                                     sums=solver._spectral_sums(S_last),
                                     background=background)
            raise SolverAbort(i * cfg.dt, {**row, "t": t})
        if i % cfg.snapshot_every == 0 or i == n:
            snaps.append((i * cfg.dt, np.fft.irfft2(S, s=(cfg.nx, cfg.nx),
                                                    axes=(0, 1))))
            last = (snaps[-1][1], S, i * cfg.dt)
    return snaps


def _linear_config(**kw):
    # 23 steps end on a partial block for every cadence tested; dt = 0.1 keeps
    # the rank-3 term of each collision well above round-off
    return SolverConfig(**{
        "mu": 2.5, "mode": "linearized", "jeq_angle": 0.4, "nx": 8,
        "ntheta": 16, "dt": 0.1, "t_end": 2.3, "keep_snapshots": True,
        "seed": 5, "init": InitSpec(recipe="random-smooth", amplitude=1.0),
        **kw})


@pytest.mark.parametrize("every", [1, 2, 7])
def test_linearized_run_matches_step_loop(every):
    cfg = _linear_config(snapshot_every=every)
    got, want = run(cfg).snapshots, _step_loop(cfg)
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        if every == 1:  # no pair is merged: the same operations as step
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("mode, eps_reg", [("nonlinear", None),
                                           ("regularized", 0.5)])
def test_nonlinear_run_is_step_loop(mode, eps_reg):
    cfg = SolverConfig(mu=2.5, mode=mode, eps_reg=eps_reg, nx=8, ntheta=16,
                       dt=0.05, t_end=0.4, snapshot_every=3,
                       keep_snapshots=True,
                       init=InitSpec(recipe="random-smooth", amplitude=0.5))
    got, want = run(cfg).snapshots, _step_loop(cfg)
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


def test_pair_map_is_two_linearized_collisions():
    cfg = _linear_config(dt=0.5, t_end=0.5)
    ws = solver._workspace_of(cfg)
    S = np.fft.rfft2(init_field(cfg), axes=(0, 1))
    R = solver._float_rows(S)
    two = solver._rank3(solver._rank3(R.copy(), ws.W2, ws.V2, ws.decay),
                        ws.W2, ws.V2, ws.decay)
    pair = solver._rank3(R.copy(), ws.W2, ws.V2pair, ws.decay2)
    scale = np.max(np.abs(two))
    assert np.max(np.abs(two - ws.decay2 * R)) > 0.1 * scale
    assert np.max(np.abs(pair - two)) <= 8 * np.finfo(float).eps * scale


def test_linearized_run_counts_rank3_maps(monkeypatch):
    calls = []
    rank3 = solver._rank3

    def counted(*args):
        calls.append(1)
        return rank3(*args)

    monkeypatch.setattr(solver, "_rank3", counted)
    res = run(_linear_config(snapshot_every=7))
    nsteps, nsamples = 23, len(res.series) - 1
    assert nsamples == 4
    assert len(calls) == nsteps + nsamples


def test_linearized_abort_time_matches_step_loop(monkeypatch):
    cfg = _linear_config(snapshot_every=10)
    F = init_field(cfg)
    F[1, 2, 3] = np.nan
    monkeypatch.setattr(solver, "init_field", lambda config: F.copy())
    with pytest.raises(SolverAbort) as got:
        run(cfg)
    with pytest.raises(SolverAbort) as want:
        _step_loop(cfg)
    assert got.value.t == want.value.t == cfg.dt


@pytest.mark.parametrize("mode, eps_reg", [("nonlinear", None),
                                           ("regularized", 0.5)])
def test_nonfinite_initial_field_aborts_at_dt(monkeypatch, mode, eps_reg):
    cfg = SolverConfig(mu=2.5, mode=mode, eps_reg=eps_reg, nx=8, ntheta=16,
                       dt=0.05, t_end=0.4, snapshot_every=3,
                       init=InitSpec(recipe="random-smooth", amplitude=0.5))
    F = init_field(cfg)
    F[1, 2, 3] = np.nan
    monkeypatch.setattr(solver, "init_field", lambda config: F.copy())
    with pytest.raises(SolverAbort) as got:
        run(cfg)
    with pytest.raises(SolverAbort) as want:
        _step_loop(cfg)
    assert got.value.t == want.value.t == cfg.dt
    row, ref = got.value.last_good_row, want.value.last_good_row
    assert row["t"] == ref["t"] == 0.0
    np.testing.assert_equal(row, ref)   # NaN entries compare equal here


def _count_traced_calls(monkeypatch):
    """Wrap the solver functions the benchmark traces by module attribute
    (step, init_field, diagnostics) with counters; returns the counts."""
    counts = {}
    for name in ("step", "init_field", "diagnostics"):
        counts[name] = 0

        def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    return counts


@pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
def test_run_calls_the_traced_functions(monkeypatch, mode):
    # 8 steps sampled every 3: samples after t = 0 at steps 3, 6 and 8
    cfg = SolverConfig(mu=2.5, mode=mode, nx=8, ntheta=16, dt=0.05,
                       t_end=0.4, snapshot_every=3,
                       init=InitSpec(recipe="random-smooth", amplitude=0.5))
    counts = _count_traced_calls(monkeypatch)
    nsamples = len(run(cfg).series) - 1
    assert nsamples == 3
    nsteps = 8 if mode == "nonlinear" else 0
    assert counts == {"step": nsteps, "init_field": 1,
                      "diagnostics": nsamples + 1}


@pytest.mark.parametrize("every", [1, 2])
def test_linearized_overflow_abort_matches_step_loop(monkeypatch, every):
    # the state is first non-finite after step 3, a sample step for every = 1
    # and a merged one for every = 2: the perturbation starts at 1e-250 and
    # the transport multiplies the half-spectrum cell (2, 1) by 1e200 per
    # step, so that cell reaches ~1e150 after step 2 and overflows in step 3
    cfg = _linear_config(snapshot_every=every, init=InitSpec(
        recipe="random-smooth", amplitude=1e-250))
    ws = solver._workspace_of(cfg)
    phase = ws.phase.copy()
    phase[2, 1] *= 1e200
    monkeypatch.setattr(ws, "phase", phase)
    with pytest.warns(RuntimeWarning), pytest.raises(SolverAbort) as got:
        run(cfg)
    with pytest.warns(RuntimeWarning), pytest.raises(SolverAbort) as want:
        _step_loop(cfg)
    assert got.value.t == want.value.t == 3 * cfg.dt
    row, ref = got.value.last_good_row, want.value.last_good_row
    assert row["t"] == ref["t"] == 2 * cfg.dt
    assert ref["l2"] > 1e100
    for c in ref:  # mass and mean flux are round-off of a 1e-250 field
        assert abs(row[c] - ref[c]) <= 1e-12 * abs(ref[c]) + 1e-240, c
    if every == 1:  # the same operations as step
        assert row == ref


def _nan_after(monkeypatch, k):
    """Make solver.step return a NaN spectrum from its (k + 1)-th call on."""
    good, calls = solver.step, []

    def failing(S, config):
        calls.append(1)
        out = good(S, config)
        if len(calls) > k:
            out[...] = np.nan
        return out

    monkeypatch.setattr(solver, "step", failing)


def test_solver_abort_carries_last_good_row(monkeypatch):
    cfg = SolverConfig(mu=2.5, nx=8, ntheta=16, dt=0.05, t_end=0.5,
                       snapshot_every=2,
                       init=InitSpec(recipe="random-smooth", amplitude=0.5))
    # the samples of a run that stops at step 4, the last one before the NaN
    want = run(SolverConfig(**{**vars(cfg), "t_end": 0.2})).series
    assert SolverAbort(1.0).last_good_row is None
    _nan_after(monkeypatch, 5)
    with pytest.raises(SolverAbort) as err:
        run(cfg)
    assert err.value.t == 6 * cfg.dt
    row = err.value.last_good_row
    assert row["t"] == 4 * cfg.dt
    assert row == {c: float(getattr(want, c)[-1]) for c in row}
    assert set(row) == set(DIAGNOSTICS_HEADER.split(","))


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_fit_decay_rate_synthetic():
    t = np.linspace(0.0, 10.0, 101)
    s = _series(t, dist=2.0 * np.exp(-0.3 * t))
    rate, r2 = fit_decay_rate(s, 0.0, 10.0)
    assert abs(rate - 0.3) < 1e-10
    assert r2 > 1.0 - 1e-12


def test_fit_decay_rate_constant():
    t = np.linspace(0.0, 5.0, 21)
    s = _series(t, dist=np.full_like(t, 0.7))
    rate, r2 = fit_decay_rate(s, 0.0, 5.0)
    assert abs(rate) < 1e-12
    assert r2 == 1.0


def test_fit_decay_rate_floor_and_window():
    t = np.arange(10.0)
    y = np.exp(-t)
    y[5:] = 1e-17                     # sits below the noise floor
    s = _series(t, l2=y)
    rate, r2 = fit_decay_rate(s, 0.0, 9.0, column="l2")
    assert abs(rate - 1.0) < 1e-10 and r2 > 1.0 - 1e-12
    with pytest.raises(ValueError, match="fewer than 3"):
        fit_decay_rate(s, 3.0, 4.0, column="l2")
    with pytest.raises(ValueError, match="column"):
        fit_decay_rate(s, 0.0, 9.0, column="t")


def test_fit_entropy_growth_constant():
    t = np.linspace(0.0, 10.0, 51)
    fit = fit_entropy_growth(_series(t, entropy=np.full_like(t, 5.0)))
    assert isinstance(fit, EntropyFit)
    assert fit.c == 0.0
    assert abs(fit.C - 2.5) < 1e-6
    assert fit.max_violation <= 0.0


def test_fit_entropy_growth_exponential():
    # the envelope is optimized at the final time: for a growing history the
    # terminal bound is tight (and c = 0 attains it, so ties pick c = 0)
    t = np.linspace(0.0, 5.0, 101)
    E = 1.0 + np.exp(2.0 * t)
    fit = fit_entropy_growth(_series(t, entropy=E))
    assert fit.c == 0.0
    assert fit.max_violation <= 0.0
    terminal = fit.C * (1.0 + math.exp(fit.c * t[-1]))
    assert abs(terminal - E[-1]) < 1e-6 * E[-1]
    assert np.all(E <= fit.C * (1.0 + np.exp(fit.c * t)) + 1e-9)


def test_fit_entropy_growth_decaying():
    t = np.linspace(0.0, 10.0, 51)
    fit = fit_entropy_growth(_series(t, entropy=3.0 + np.exp(-t)))
    assert fit.c == 0.0
    assert fit.max_violation <= 0.0


# ---------------------------------------------------------------------------
# on-disk formats
# ---------------------------------------------------------------------------

def test_diagnostics_csv_roundtrip(tmp_path):
    cfg = SolverConfig(mu=2.2, nx=8, ntheta=16, dt=0.01, t_end=0.05,
                       snapshot_every=2, init=InitSpec(amplitude=0.1))
    series = run(cfg).series
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, series)
    text = path.read_text()
    assert text.splitlines()[0] == DIAGNOSTICS_HEADER
    back = read_diagnostics_csv(path)
    for col in ("t", "mass", "jbar_x", "jbar_y", "l2", "entropy", "dist",
                "rho_min", "rho_max"):
        assert np.array_equal(getattr(back, col), getattr(series, col))


def test_diagnostics_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("time,mass\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_diagnostics_csv(path)


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(6, 6, 10))
    base = tmp_path / "snap_0000"
    raw, meta_path = write_snapshot(base, values, gamma=10.0, mu=2.2, t=1.5,
                                    mode="nonlinear")
    assert raw.endswith(".f64") and meta_path.endswith(".json")
    back, meta = read_snapshot(base)
    assert np.array_equal(back, values)
    assert meta["nx"] == 6 and meta["ntheta"] == 10
    assert meta["gamma"] == 10.0 and meta["mu"] == 2.2 and meta["t"] == 1.5
    assert meta["mode"] == "nonlinear"


def test_snapshot_payload_mismatch(tmp_path):
    values = np.zeros((4, 4, 8))
    base = tmp_path / "snap"
    raw, _ = write_snapshot(base, values, gamma=10.0, mu=1.0, t=0.0,
                            mode="nonlinear")
    with open(raw, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(base)


def _write_csv_per_value(path, header, rows):
    """The per-value CSV writer that the one-pass ``solver._write_csv``
    replaced, kept as its byte-level oracle."""
    lines = [header]
    lines.extend(",".join(format(float(v), ".17g") for v in row) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_csv_matches_per_value_oracle(tmp_path):
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                        math.nan, math.inf, -math.inf, 1.0 / 3.0, -2.0 / 3.0, 0.1,
                        1.0, -7.0, 2.0**53, 12345678901234567.0, 1e-300, 123.456])
    rng = np.random.default_rng(5)
    scaled = rng.standard_normal(special.size) * 10.0 ** rng.integers(-300, 300, special.size)
    columns = [special, special[::-1], scaled, np.arange(special.size)]
    solver._write_csv(tmp_path / "new.csv", "a,b,c,d", columns)
    _write_csv_per_value(tmp_path / "old.csv", "a,b,c,d", zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_zero_rows_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    solver._write_csv(path, "t,L", (np.zeros(0), np.zeros(0)))
    assert path.read_bytes() == b"t,L\n"


def test_write_csv_blocks_match_per_value_oracle(tmp_path):
    n = solver._CSV_BLOCK + 1
    rng = np.random.default_rng(6)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
               np.arange(n), -rng.random(n)]
    solver._write_csv(tmp_path / "new.csv", "a,b,c", columns)
    _write_csv_per_value(tmp_path / "old.csv", "a,b,c", zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_formatting_memory_is_bounded(tmp_path):
    # 160,000 x 6, the size of the default dispersion table: the table itself
    # is 7.7 MB, its 17-digit text ~18 MB
    rng = np.random.default_rng(9)
    columns = [rng.standard_normal(160_000) for _ in range(6)]
    tracemalloc.start()
    try:
        solver._write_csv(tmp_path / "big.csv", "a,b,c,d,e,f", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def _assert_matches_per_value_oracle(tmp_path, header, columns):
    solver._write_csv(tmp_path / "new.csv", header, columns)
    _write_csv_per_value(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_repeated_specials_match_per_value_oracle(tmp_path):
    nan_bits = np.array([math.nan, -math.nan]).view(np.int64)
    nans = np.concatenate([nan_bits, nan_bits | 1]).view(float)
    specials = np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                1e308, 1.0 / 3.0, 0.1], nans])
    n = 2 * solver._CSV_BLOCK + 7
    rng = np.random.default_rng(12)
    tiled = np.resize(specials, n)
    drawn = specials[rng.integers(0, specials.size, n)]
    # distinct bit patterns: -0.0 beside 0.0 and each NaN apart
    assert solver._distinct_keys(tiled).size == specials.size
    # the rows of a transposed table, as the bounds experiment passes them:
    # strided columns
    table = np.column_stack([tiled, rng.standard_normal(n), drawn])
    # the repeating columns are looked up, the one of distinct values is not
    assert [solver._distinct_keys(c) is None for c in table.T] == [False, True, False]
    _assert_matches_per_value_oracle(tmp_path, "a,b,c", table.T)


def test_write_csv_one_value_past_the_distinct_limit(tmp_path):
    # a column is looked up while at most half its values are distinct, also
    # when that is more values than one block holds
    rng = np.random.default_rng(13)
    values = rng.standard_normal(solver._CSV_BLOCK + 1)
    at_half = np.tile(values, 2)
    past_half = at_half.copy()
    past_half[-1] = 7.0
    assert solver._distinct_keys(at_half).size == values.size
    assert solver._distinct_keys(past_half) is None
    _assert_matches_per_value_oracle(tmp_path, "a,b", [at_half, past_half])


def test_write_csv_all_repeating_columns_match_per_value_oracle(tmp_path):
    # six looked-up columns over several blocks, drawn from a pool of every
    # kind of field: signed zeros, NaNs of different bits, infinities,
    # subnormals and the 24-character fields, the widest there are
    nan_bits = np.array([math.nan, -math.nan]).view(np.int64)
    nans = np.concatenate([nan_bits, nan_bits | 1, nan_bits | 12345]).view(float)
    widest = [-2.2250738585072014e-308, -1.7976931348623157e308,
              -4.9406564584124654e-324, -1.2345678901234567e-100]
    pool = np.concatenate([[-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324,
                            2.2250738585072009e-308, 1.0 / 3.0, -0.1, 1e16],
                           nans, widest])
    assert max(len(format(v, ".17g")) for v in pool) == 24
    n = 3 * solver._CSV_BLOCK + 11
    rng = np.random.default_rng(16)
    columns = [pool[rng.integers(0, pool.size, n)] for _ in range(6)]
    assert all(solver._distinct_keys(c) is not None for c in columns)
    _assert_matches_per_value_oracle(tmp_path, "a,b,c,d,e,f", columns)


def _dispersion_shaped_columns(nk, im_max, seed, views=False):
    """Columns shaped like cli's dispersion table: z tiled over the k, k
    repeated over the z (as (nk, nz) broadcast views if views, else
    materialized), then two columns of values drawn from pools a fifth of
    their length, about the share of distinct min_singular and re_h."""
    z = default_z_grid(im_max=im_max)
    rng = np.random.default_rng(seed)
    k = 10.0 * rng.integers(-5, 6, (nk, 2))
    n = nk * z.size
    pools = (rng.random(n // 5) + 0.5,
             rng.standard_normal(n // 5) * 10.0 ** rng.integers(-5, 5, n // 5))
    drawn = [pool[rng.integers(0, pool.size, n)] for pool in pools]
    if views:
        shape = (nk, z.size)
        return [np.broadcast_to(z.real, shape), np.broadcast_to(z.imag, shape),
                np.broadcast_to(k[:, :1], shape), np.broadcast_to(k[:, 1:], shape),
                *(d.reshape(shape) for d in drawn)]
    return [np.tile(z.real, nk), np.tile(z.imag, nk), np.repeat(k[:, 0], z.size),
            np.repeat(k[:, 1], z.size), *drawn]


def test_write_csv_dispersion_shaped_table_matches_per_value_oracle(tmp_path):
    columns = _dispersion_shaped_columns(40, 10.0, seed=14)
    assert columns[0].size > 3 * solver._CSV_BLOCK
    # every column repeats; the last two hold more distinct values than a block
    assert all(solver._distinct_keys(c) is not None for c in columns)
    assert solver._distinct_keys(columns[-1]).size > solver._CSV_BLOCK
    _assert_matches_per_value_oracle(
        tmp_path, "z_re,z_im,k1,k2,min_singular,re_h", columns)


def test_write_csv_broadcast_views_write_the_materialized_bytes(tmp_path):
    views = _dispersion_shaped_columns(16, 10.0, seed=17, views=True)
    copies = _dispersion_shaped_columns(16, 10.0, seed=17)
    assert any(0 in c.strides for c in views)
    header = "z_re,z_im,k1,k2,min_singular,re_h"
    solver._write_csv(tmp_path / "views.csv", header, views)
    solver._write_csv(tmp_path / "copies.csv", header, copies)
    assert (tmp_path / "views.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()


def _peak_writing(path, columns) -> int:
    tracemalloc.start()
    try:
        solver._write_csv(path, "z_re,z_im,k1,k2,min_singular,re_h", columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_dispersion_shaped_memory_is_bounded(tmp_path):
    # the default dispersion table's shape, 40 k x 4,010 z = 160,400 rows
    columns = _dispersion_shaped_columns(40, 50.0, seed=15)
    assert columns[0].size == 160_400
    # a copy of the table alone would be 7.7 MB
    assert _peak_writing(tmp_path / "big.csv", columns) < 5e6


def test_write_csv_dispersion_table_from_views_memory_is_bounded(tmp_path):
    # the z and k columns of the default table as views, which are never
    # copied whole: the writer holds the sort of one 1.3 MB column, the
    # distinct values' fields (~0.8 MB a column) and one block's bytes
    columns = _dispersion_shaped_columns(40, 50.0, seed=15, views=True)
    assert columns[0].size == 160_400
    assert _peak_writing(tmp_path / "big.csv", columns) < 4.5e6
    # a broadcast column's distinct values come from its one row of 4,010
    tracemalloc.start()
    try:
        assert solver._distinct_keys(columns[0]).size == 10
        assert tracemalloc.get_traced_memory()[1] < 0.1e6
    finally:
        tracemalloc.stop()


def test_write_csv_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique's first call imports numpy.ma; the writer must not pay it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, vicsekbgk.solver as s; "
         f"s._write_csv({str(tmp_path / 'x.csv')!r}, 'a,b', "
         "(np.tile([0.5, -0.0, 3.0], 3000), np.arange(9000.0) / 7)); "
         "print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert (tmp_path / "x.csv").read_text().count("\n") == 9001


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="one length"):
        solver._write_csv(tmp_path / "bad.csv", "a,b", (np.zeros(3), np.zeros(4)))
