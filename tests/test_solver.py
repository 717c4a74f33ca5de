import math

import numpy as np
import pytest
from scipy.linalg import expm

import vicsekbgk.solver as solver
from vicsekbgk.equilibria import homogeneous_flow, solve_L
from vicsekbgk.linstab import flux_relaxation_matrix
from vicsekbgk.solver import (
    DIAGNOSTICS_HEADER,
    DiagnosticsSeries,
    EntropyFit,
    InitSpec,
    PhaseField,
    SolverAbort,
    SolverConfig,
    diagnostics,
    dist_to_manifold,
    entropy_functional,
    equilibrium_flux,
    field_moments,
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
from vicsekbgk.sphere import build_sphere_grid, von_mises


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


def test_equilibrium_flux():
    assert np.all(equilibrium_flux(SolverConfig(mu=1.5)) == 0.0)
    cfg = SolverConfig(mu=2.5, jeq_angle=0.7)
    J = equilibrium_flux(cfg)
    L = solve_L(2.5, 2)
    assert np.max(np.abs(J - L * np.array([math.cos(0.7), math.sin(0.7)]))) < 1e-14


def test_init_zero_amplitude_is_equilibrium():
    for mu, angle in [(1.5, 0.0), (2.5, 0.9)]:
        cfg = SolverConfig(mu=mu, jeq_angle=angle, nx=8, ntheta=32,
                           init=InitSpec(amplitude=0.0))
        F = init_field(cfg)
        d = diagnostics(F, mu)
        assert abs(d["mass"] - mu) < 1e-13
        assert d["dist"] < 1e-5
        # the field is x-independent and matches mu M on every cell
        assert np.max(np.abs(F.values - F.values[0, 0])) == 0.0


def test_init_mass_exact():
    for recipe, mode in [("mode-bump", "nonlinear"),
                         ("random-smooth", "nonlinear"),
                         ("large-blob", "regularized")]:
        cfg = SolverConfig(mu=2.2, mode=mode, nx=16, ntheta=32,
                           eps_reg=0.1 if mode == "regularized" else None,
                           init=InitSpec(recipe=recipe, amplitude=0.4))
        F = init_field(cfg)
        rho, _ = field_moments(F)
        assert abs(rho.mean() - 2.2) < 1e-13
        assert rho.min() >= 0.0


def test_init_linearized_zero_mean():
    cfg = SolverConfig(mu=2.5, mode="linearized", nx=16, ntheta=32,
                       init=InitSpec(recipe="random-smooth", amplitude=1.0))
    F = init_field(cfg)
    rho, _ = field_moments(F)
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
        S1 = step(np.fft.rfft2(F0.values, axes=(0, 1)), cfg.dt, cfg)
        F1 = PhaseField(np.fft.irfft2(S1, s=(cfg.nx, cfg.nx), axes=(0, 1)),
                        F0.gamma, F0.grid)
        assert np.max(np.abs(F1.values - F0.values)) < 1e-13


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
        F = PhaseField(np.ascontiguousarray(
            np.broadcast_to(mu * vm, (4, 4, 64))), cfg.gamma, grid)
        S = np.fft.rfft2(F.values, axes=(0, 1))
        for _ in range(int(round(1.0 / dt))):
            S = step(S, dt, cfg)
        F = PhaseField(np.fft.irfft2(S, s=(4, 4), axes=(0, 1)), cfg.gamma, grid)
        _, J = field_moments(F)
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
    grid = build_sphere_grid(2, 16)
    for c in (0.3, 1.0):
        F = PhaseField(np.full((8, 8, 16), c), 10.0, grid)
        expected = (2.0 * math.pi) ** 3 * (c * math.log(c) + 1.0 / math.e)
        assert abs(entropy_functional(F) - expected) < 1e-10


def test_entropy_ignores_zero_cells():
    grid = build_sphere_grid(2, 16)
    v = np.zeros((8, 8, 16))
    F = PhaseField(v, 10.0, grid)
    assert abs(entropy_functional(F) - (2.0 * math.pi) ** 3 / math.e) < 1e-12


def test_dist_to_manifold_zero_cases():
    # subcritical: the family is the uniform state
    grid = build_sphere_grid(2, 32)
    uni = PhaseField(np.full((8, 8, 32), 1.5 / (2.0 * math.pi)), 10.0, grid)
    assert dist_to_manifold(uni, 1.5) == 0.0
    # supercritical: exact von Mises state at an off-axis angle
    mu, phi = 2.5, 0.9
    L = solve_L(mu, 2)
    wq = 2.0 * math.pi / 32
    m = np.exp(L * np.cos(grid.angles - phi))
    m /= m.sum() * wq
    F = PhaseField(np.ascontiguousarray(
        np.broadcast_to(mu * m, (8, 8, 32))), 10.0, grid)
    assert dist_to_manifold(F, mu) < 1e-5


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
    F = PhaseField(mu * M + eta * gh, 10.0, grid)
    dvol = (2.0 * math.pi / nx) ** 2 * (2.0 * math.pi / ntheta)
    want = eta * math.sqrt(float(np.sum(gh**2)) * dvol)
    assert abs(dist_to_manifold(F, mu) / want - 1.0) <= 1e-8


def test_dist_to_manifold_detects_perturbation():
    mu = 2.5
    cfg = SolverConfig(mu=mu, nx=8, ntheta=32, init=InitSpec(amplitude=0.2))
    F = init_field(cfg)
    assert dist_to_manifold(F, mu) > 0.01


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


def test_run_rejects_misaligned_t_end():
    with pytest.raises(ValueError, match="multiple"):
        run(SolverConfig(mu=1.5, nx=8, ntheta=16, dt=0.3, t_end=1.0))


def test_solver_abort_carries_time():
    err = SolverAbort(1.25)
    assert err.t == 1.25
    assert "1.25" in str(err)


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


def test_phase_field_copy_is_independent():
    grid = build_sphere_grid(2, 16)
    F = PhaseField(np.ones((4, 4, 16)), 10.0, grid)
    G = F.copy()
    G.values[0, 0, 0] = 7.0
    assert F.values[0, 0, 0] == 1.0


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
