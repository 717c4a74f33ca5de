"""End-to-end acceptance checks for the alignment-kinetics laboratory.

Each test covers one numbered criterion and prints a single verdict line
(`criterion NN: PASS/FAIL: details`) straight to the terminal before
asserting, so a plain pytest run doubles as a readable report.  The checks
mix exact identities (quadrature normalization, moment relations, recursion
consistency) with property-based ones whose constants are fitted on a seeded
sample and then verified with zero violations.
"""

import math

import numpy as np
import pytest

from vicsekbgk.equilibria import homogeneous_flow, project_to_manifold, solve_L
from vicsekbgk.linstab import (
    alpha2,
    axis_coefficients,
    c0_bound,
    c1_bound,
    c2_bound,
    default_eps,
    default_z_grid,
    dispersion_sweep,
    fl_solve,
    flux_relaxation_matrix,
    lambda_J,
    phi0,
    phi2,
    spectral_abscissa,
)
from vicsekbgk.solver import (
    InitSpec,
    SolverConfig,
    fit_decay_rate,
    fit_entropy_growth,
    run,
    step,
)
from vicsekbgk.sphere import (
    auto_node_count,
    axis_integral,
    axis_integral_recursive,
    build_sphere_grid,
    moments,
    partition_function,
    von_mises,
    von_mises_gradient,
)


def _report(capsys, num: int, ok: bool, details: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}: {details}")
    assert ok, f"criterion {num:02d}: {details}"


def _unit(d: int) -> np.ndarray:
    e = np.zeros(d)
    e[0] = 1.0
    return e


@pytest.fixture(scope="session")
def default_sweeps():
    """Dispersion sweeps at gamma = 10, d = 2 shared by criteria 6 and 7.

    For mu above threshold the sweep is taken around the branch state.
    """
    out = {}
    for mu in (1.0, 1.9, 2.05):
        J = solve_L(mu, 2) * _unit(2) if mu > 2.0 else None
        out[mu] = dispersion_sweep(mu, 10.0, J=J)
    return out


def test_criterion_01_quadrature_normalization(capsys):
    zrel = []
    for d, ref in ((2, 2.0 * math.pi), (3, 4.0 * math.pi)):
        grid = build_sphere_grid(d, 64)
        zrel.append(abs(partition_function(np.zeros(d), grid) - ref) / ref)
    mass_err = []
    for d in (2, 3):
        for jmag in (0.0, 1.0, 10.0, 50.0):
            grid = build_sphere_grid(d, auto_node_count(jmag))
            m = von_mises(jmag * _unit(d), grid)
            mass_err.append(abs(grid.integrate(m) - 1.0))
    ok = max(zrel) <= 1e-12 and max(mass_err) <= 1e-10
    _report(capsys, 1, ok,
            f"Z(0) rel err {max(zrel):.2e} (tol 1e-12), "
            f"von Mises mass err {max(mass_err):.2e} over |J| in "
            f"{{0,1,10,50}}, d in {{2,3}} (tol 1e-10)")


def test_criterion_02_moment_identities(capsys):
    worst = 0.0
    for d, mu in ((2, 2.5), (2, 3.5), (3, 3.5)):
        L = solve_L(mu, d)
        grid = build_sphere_grid(d, auto_node_count(L))
        m = von_mises(L * _unit(d), grid)
        par = grid.integrate(grid.nodes[:, 0] ** 2 * m)
        perp = grid.integrate(grid.nodes[:, 1] ** 2 * m)
        worst = max(worst,
                    abs(par - (1.0 - (d - 1) / mu)),
                    abs(perp - 1.0 / mu))
    ok = worst <= 1e-8
    _report(capsys, 2, ok,
            f"second-moment identities max err {worst:.2e} at "
            f"(d,mu) in {{(2,2.5),(2,3.5),(3,3.5)}} (tol 1e-8)")


def test_criterion_03_bifurcation_asymptotics(capsys):
    d = 2
    gaps = np.array([1e-1, 1e-2, 1e-3])
    errs = np.array([abs(solve_L(d + g, d) ** 2 - (d + 2) * g) for g in gaps])
    K = errs[0] / gaps[0] ** 2
    ok = bool(np.all(errs <= K * gaps ** 2 * (1.0 + 1e-9)))
    _report(capsys, 3, ok,
            f"|L^2 - 4(mu-2)| <= K (mu-2)^2 with K = {K:.4f} from the "
            f"coarsest gap; err/gap^2 = "
            + ", ".join(f"{e / g ** 2:.4f}" for e, g in zip(errs, gaps)))


def test_criterion_04_flux_relaxation_matrix(capsys):
    sym = 0.0
    for d, mu in ((2, 1.0), (2, 2.5), (3, 3.5)):
        J = solve_L(mu, d) * _unit(d)
        C = flux_relaxation_matrix(mu, J, d=d)
        sym = max(sym, float(np.max(np.abs(C - C.T))))
    sub = 0.0
    for d, mu in ((2, 1.7), (3, 2.4)):
        C = flux_relaxation_matrix(mu, d=d)
        sub = max(sub, float(np.max(np.abs(C - (mu / d - 1.0) * np.eye(d)))))
    eig_err = 0.0
    null_ok = True
    for d in (2, 3):
        mu = d + 0.5
        L = solve_L(mu, d)
        C = flux_relaxation_matrix(mu, L * _unit(d), d=d)
        ev = np.linalg.eigvalsh(C)
        null_ok &= int(np.sum(np.abs(ev) < 1e-10)) == d - 1
        lam = mu - d - L ** 2 / mu
        eig_err = max(eig_err, float(np.min(np.abs(ev - lam))))
    # lambda_J = -2(mu-d)/d + O((mu-d)^2); the quadratic constant is < 1
    asym = max(abs(lambda_J(d + g, d) + 2.0 * g / d) / g ** 2
               for d in (2, 3) for g in (0.1, 0.05, 0.02, 0.01))
    ok = sym <= 1e-12 and sub <= 1e-10 and null_ok and eig_err <= 1e-10 \
        and asym <= 1.0
    _report(capsys, 4, ok,
            f"symmetry {sym:.1e} (tol 1e-12), mu<=d identity {sub:.1e} "
            f"(tol 1e-10), null dim d-1 {null_ok}, eigenvalue err "
            f"{eig_err:.1e} (tol 1e-10), |lambda_J + 2(mu-d)/d| <= "
            f"{asym:.3f} (mu-d)^2 (K pinned at 1)")


def test_criterion_05_coefficient_bounds(capsys):
    d = 2
    eps = default_eps(d)
    # the bound functions implement exactly the advertised right-hand sides
    g = 10.0
    shape_err = max(
        abs(c0_bound(g, d) - (1.0 - phi0(g, d))),
        abs(c1_bound(g, d) - (1.0 / (2.0 * math.sqrt(d)) + 1.0 / g)),
        abs(d * c2_bound(g, d, eps) - (1.0 - alpha2(d, eps) * phi2(eps * g))))
    rng = np.random.default_rng(20)
    viol = 0
    margin = np.inf
    for _ in range(1000):
        z = complex(rng.uniform(0.0, 2.0), rng.uniform(-50.0, 50.0))
        kmag = rng.uniform(10.0, 50.0)
        c0, c1, c2 = axis_coefficients(z, kmag, d)
        gaps = (c0_bound(kmag, d) - c0.real,
                c1_bound(kmag, d) - abs(c1),
                d * c2_bound(kmag, d, eps) - d * abs(c2))
        margin = min(margin, *gaps)
        viol += sum(gp < -1e-12 for gp in gaps)
    ok = shape_err <= 1e-12 and viol == 0
    _report(capsys, 5, ok,
            f"bound formulas err {shape_err:.1e}, {viol} violations over "
            f"1000 samples (Re z in [0,2], |Im z| <= 50, |k| in [10,50]), "
            f"smallest slack {margin:.4f}")


def test_criterion_06_dispersion_margin(capsys, default_sweeps):
    mins = {mu: s.min_re_h for mu, s in default_sweeps.items()}
    ok = min(mins.values()) >= 0.2
    _report(capsys, 6, ok,
            "min Re h = "
            + ", ".join(f"{v:.4f} (mu={mu})" for mu, v in mins.items())
            + " over the default sweep; threshold 1/5")


def test_criterion_07_operator_invertibility(capsys, default_sweeps):
    fine_grid = default_z_grid(step=0.125)
    details = []
    ok = True
    for mu, s in default_sweeps.items():
        J = solve_L(mu, 2) * _unit(2) if mu > 2.0 else None
        fine = dispersion_sweep(mu, 10.0, J=J, z_values=fine_grid)
        rel = abs(fine.min_sigma - s.min_sigma) / s.min_sigma
        ok &= s.min_sigma > 0.0 and rel <= 0.05
        details.append(f"mu={mu}: min sigma {s.min_sigma:.4f}, "
                       f"refinement shift {rel:.2%}")
    _report(capsys, 7, ok, "; ".join(details) + " (stability tol 5%)")


def test_criterion_08_transformed_moment_bounds(capsys):
    # fit C on a moderate sub-range, then demand zero violations over the
    # full sweep; a wrong decay exponent would blow up in the far tail
    mu, gamma = 1.5, 10.0
    grid = build_sphere_grid(2, 256)
    w = grid.weights
    rng = np.random.default_rng(8)
    data = []
    for _ in range(10):
        f0 = np.zeros(256, dtype=complex)
        for m in range(-8, 9):
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            f0 += amp * np.exp(1j * m * grid.angles)
        data.append(f0 / np.sqrt(np.sum(w * np.abs(f0) ** 2)))
    kvecs = [gamma * np.array(v, dtype=float)
             for v in ((1, 0), (2, 0), (0, 3), (3, 4), (1, 1), (2, 1), (5, 0))]
    ys = [0.0, 5.0, 15.0, 25.0, 35.0, 60.0, 100.0, 200.0, 400.0]
    ys = sorted(set(ys + [-y for y in ys]))
    rows = []
    for f0 in data:
        for k in kvecs:
            kmag = float(np.linalg.norm(k))
            for x in (0.0, 1.0):
                for y in ys:
                    sol = fl_solve(x + 1j * y, k, mu, np.zeros(2), f0)
                    size = abs(sol.rho_tilde) + float(np.linalg.norm(sol.J_tilde))
                    rows.append((kmag, y, size))
    kmag, y, size = np.array(rows).T
    in_a = np.abs(y) >= 2.0 * kmag
    ratio_a = size * np.sqrt(1.0 + y ** 2)
    ratio_b = size * (1.0 + kmag ** 2) ** 0.1
    fit = (np.abs(y) <= 100.0) & (kmag <= 30.0)
    CA = float(ratio_a[in_a & fit].max())
    CB = float(ratio_b[~in_a & fit].max())
    viol_a = int(np.sum(ratio_a[in_a] > CA * (1.0 + 1e-3)))
    viol_b = int(np.sum(ratio_b[~in_a] > CB * (1.0 + 1e-3)))
    ok = viol_a == 0 and viol_b == 0 and in_a.sum() > 0 and (~in_a).sum() > 0
    _report(capsys, 8, ok,
            f"|rho~|+|J~| <= C <Im z>^-1 ||f||: C = {CA:.3f}, "
            f"{viol_a}/{int(in_a.sum())} violations; <k>^-1/5 branch: "
            f"C = {CB:.3f}, {viol_b}/{int((~in_a).sum())} violations "
            f"(10 random data, {len(rows)} solves)")


def test_criterion_09_homogeneous_dynamics(capsys):
    ang = 0.73
    e = np.array([math.cos(ang), math.sin(ang)])
    sub = homogeneous_flow(1.5, 0.01 * e, t_end=40.0)
    sup = homogeneous_flow(2.5, 0.01 * e, t_end=80.0)
    gap = abs(sup.L[-1] - solve_L(2.5, 2))
    drift = float(np.max(np.linalg.norm(sup.direction - e, axis=-1)))
    # spatially constant PDE data follows the flux ODE at second order
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
    order = errs[0] / errs[1]
    ok = sub.L[-1] < 1e-6 and gap < 1e-8 and drift <= 1e-14 \
        and 3.4 < order < 4.6
    _report(capsys, 9, ok,
            f"L(40) = {sub.L[-1]:.2e} at mu=1.5 (tol 1e-6), |L - L_mu| = "
            f"{gap:.2e} at mu=2.5 (tol 1e-8), direction drift {drift:.1e} "
            f"(tol 1e-14), PDE/ODE error ratio {order:.2f} under dt halving")


@pytest.mark.slow
def test_criterion_10_linearized_decay(capsys):
    cfg = SolverConfig(mu=1.5, mode="linearized", nx=32, ntheta=64, dt=0.01,
                       t_end=30.0, snapshot_every=1, seed=11,
                       init=InitSpec(recipe="random-smooth", amplitude=1.0))
    res = run(cfg)
    rate, r2 = fit_decay_rate(res.series, 10.0, 30.0, column="l2")
    pred = spectral_abscissa(1.5, 10.0)
    rel = abs(rate - pred) / pred
    growth = float(np.max(np.diff(res.series.l2)))

    mu = 2.2
    cfg2 = SolverConfig(mu=mu, mode="linearized", nx=32, ntheta=64, dt=0.01,
                        t_end=60.0, snapshot_every=50, seed=4,
                        init=InitSpec(recipe="random-smooth", amplitude=1.0))
    res2 = run(cfg2)
    s = res2.series
    perp = (-math.sin(cfg2.jeq_angle) * s.jbar_x
            + math.cos(cfg2.jeq_angle) * s.jbar_y)
    perp_drift = float(np.max(np.abs(perp - perp[0])))
    # limit state mu (P J(0)) . grad_J M along the conserved direction
    grid = build_sphere_grid(2, cfg2.ntheta)
    Jeq = solve_L(mu, 2) * np.array([math.cos(cfg2.jeq_angle),
                                     math.sin(cfg2.jeq_angle)])
    G = von_mises_gradient(Jeq, grid)
    p = perp[0] * np.array([-math.sin(cfg2.jeq_angle),
                            math.cos(cfg2.jeq_angle)])
    finf = mu * (p @ G)
    FT = res2.snapshots[-1][1]
    dvol = (2.0 * math.pi / cfg2.nx) ** 2 * (2.0 * math.pi / cfg2.ntheta)
    dist = math.sqrt(float(np.sum((FT - finf[None, None, :]) ** 2)) * dvol)
    ok = rel <= 0.25 and r2 > 0.99 and growth <= 1e-10 \
        and perp_drift <= 1e-8 and dist <= 1e-5
    _report(capsys, 10, ok,
            f"fitted rate {rate:.6f} vs predicted {pred:.6f} "
            f"(rel {rel:.2%}, tol 25%), max per-step L2 increment "
            f"{growth:.1e} (tol 1e-10); mu=2.2: perp-flux drift "
            f"{perp_drift:.1e} (tol 1e-8), ||f(60) - f_inf|| = {dist:.2e} "
            f"(tol 1e-5)")


def test_criterion_11_rate_scaling(capsys):
    d = 2
    gaps = np.array([0.02, 0.05, 0.1])
    details = []
    ok = True
    # the branch rates differ by a factor ~2 across the threshold, so each
    # side is fitted by its own line through the origin
    for side, mus in (("below", d - gaps), ("above", d + gaps)):
        lam = np.array([abs(spectral_abscissa(mu, 10.0)) for mu in mus])
        slope = float(np.dot(gaps, lam) / np.dot(gaps, gaps))
        r2 = 1.0 - float(np.sum((lam - slope * gaps) ** 2) / np.sum(lam ** 2))
        ok &= r2 >= 0.95
        details.append(f"{side}: slope {slope:.4f}, r2 {r2:.5f}")
    _report(capsys, 11, ok,
            "|rate| vs |mu-2| through the origin, " + "; ".join(details)
            + " (tol r2 >= 0.95 each side)")


@pytest.mark.slow
def test_criterion_12_nonlinear_local_stability(capsys):
    amp = 1e-2
    cfg = SolverConfig(mu=2.2, nx=32, ntheta=64, dt=0.01, t_end=40.0,
                       snapshot_every=50, seed=5,
                       init=InitSpec(recipe="random-smooth", amplitude=amp))
    res = run(cfg)
    s = res.series
    rate, r2 = fit_decay_rate(s, 5.0, 40.0, column="dist")
    mass_drift = float(np.max(np.abs(s.mass - s.mass[0])) / s.mass[0])
    J1 = project_to_manifold(2.2, np.array([s.jbar_x[0], s.jbar_y[0]]))
    Jinf = np.array([s.jbar_x[-1], s.jbar_y[-1]])
    gap = float(np.linalg.norm(J1 - Jinf))
    ok = rate > 0.0 and r2 >= 0.98 and mass_drift <= 1e-11 \
        and gap <= 5.0 * amp
    _report(capsys, 12, ok,
            f"dist decay rate {rate:.4f} with r2 {r2:.4f} (tol 0.98), mass "
            f"drift {mass_drift:.1e} (tol 1e-11), |J_1 - J_inf| = {gap:.2e} "
            f"(tol 5 x amplitude = {5 * amp})")


@pytest.mark.slow
def test_criterion_13_entropy_bound(capsys):
    fits = {}
    mass = 0.0
    for eps in (0.1, 0.01):
        cfg = SolverConfig(mu=3.0, mode="regularized", eps_reg=eps, nx=32,
                           ntheta=128, dt=0.01, t_end=20.0, snapshot_every=50,
                           init=InitSpec(recipe="large-blob", width=0.55))
        res = run(cfg)
        fits[eps] = fit_entropy_growth(res.series)
        mass = max(mass, float(np.max(np.abs(res.series.mass
                                             - res.series.mass[0]))
                               / res.series.mass[0]))
    fa, fb = fits[0.1], fits[0.01]
    viol = max(fa.max_violation, fb.max_violation)
    c_stable = (fa.c == fb.c == 0.0) or \
        (min(fa.c, fb.c) > 0.0 and max(fa.c, fb.c) <= 2.0 * min(fa.c, fb.c))
    C_ratio = max(fa.C, fb.C) / min(fa.C, fb.C)
    ok = viol <= 0.0 and c_stable and C_ratio <= 2.0 and mass <= 1e-11
    _report(capsys, 13, ok,
            f"entropy(t) <= C(1+exp(ct)): max violation {viol:.1e}, "
            f"c = ({fa.c}, {fb.c}), C ratio {C_ratio:.4f} across "
            f"eps in {{0.1, 0.01}} (tol 2x), mass drift {mass:.1e} "
            f"(tol 1e-11)")


def test_criterion_14_axis_integral_recursions(capsys):
    worst = 0.0
    for m in range(0, 13):
        for k in (0, 2, 4):
            worst = max(worst, abs(axis_integral(k, m)
                                   - axis_integral_recursive(k, m)))
        worst = max(worst,
                    abs(axis_integral(4, m) - (axis_integral(2, m)
                                               - axis_integral(2, m + 2))),
                    abs(axis_integral(2, m) - axis_integral(0, m + 2)
                        / (m + 1)))
        if m >= 2:
            worst = max(worst, abs(axis_integral(0, m)
                                   - (m - 1) / m * axis_integral(0, m - 2)))
    ok = worst <= 1e-12
    _report(capsys, 14, ok,
            f"quadrature vs recursion and the three reduction identities "
            f"agree to {worst:.2e} for m <= 12 (tol 1e-12)")
