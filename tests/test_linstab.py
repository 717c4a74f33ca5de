import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from vicsekbgk import linstab
from vicsekbgk.equilibria import solve_L
from vicsekbgk.linstab import (
    SingularOperatorError,
    SingularSymbolError,
    abscissa_candidates,
    alpha2,
    axis_coefficients,
    bound_budget,
    c0_bound,
    c1_bound,
    c2_bound,
    default_eps,
    default_z_grid,
    dispersion_coefficients,
    dispersion_sweep,
    fl_solve,
    flux_relaxation_matrix,
    lambda_J,
    lattice_wavenumbers,
    phi0,
    phi2,
    spectral_abscissa,
)
from vicsekbgk.sphere import auto_node_count, build_sphere_grid, von_mises, \
    von_mises_gradient


def c1_symmetrized(z, kmag: float, d: int, n: int | None = None):
    """c1 via the manifestly damped form -i|k| Int omega_1^2 M_0 /
    ((1+z)^2 + |k|^2 omega_1^2), evaluated by quadrature.

    Provided as an independent cross-check of the closed form; the node count
    grows with |k| because the integrand peaks on a 1/|k| scale.
    """
    if d not in (2, 3):
        raise ValueError("d in (2, 3)")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    a2 = (1.0 + z) ** 2
    b = float(kmag)
    if n is None:
        n = max(2048, 32 * int(math.ceil(b)))
    if d == 2:
        theta = 2.0 * np.pi * np.arange(n) / n
        u = np.cos(theta)
        wgt = np.full(n, 1.0 / n)  # includes the 1/(2 pi) of M_0
    else:
        x, w = np.polynomial.legendre.leggauss(n)
        u = x
        wgt = w / 2.0
    out = -1j * b * ((u**2 * wgt) @ (1.0 / (a2[:, None] + (b * u[None, :]) ** 2)).T)
    return complex(out[0]) if scalar else out


def _dense_kernel_moments(z, k, mu, J, n=4096):
    """Trapezoid-rule oracle for the circle integrals behind the coefficients."""
    theta = 2.0 * np.pi * np.arange(n) / n
    w = 2.0 * np.pi / n
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    L = np.linalg.norm(J)
    m = np.exp(nodes @ J - L)
    m /= m.sum() * w
    den = 1.0 + z + 1j * (nodes @ k)
    a = (m / den).sum() * w
    b = (nodes.T * (m / den)).sum(axis=1) * w
    ww = np.einsum("ni,nj,n->ij", nodes, nodes, m / den) * w
    return a, b, ww


# ---------------------------------------------------------------------------
# flux relaxation matrix
# ---------------------------------------------------------------------------

def test_flux_matrix_disordered():
    C = flux_relaxation_matrix(1.0, d=2)
    assert np.max(np.abs(C - (-0.5) * np.eye(2))) < 1e-10
    C3 = flux_relaxation_matrix(3.0, d=3)
    assert np.max(np.abs(C3)) < 1e-10


def test_flux_matrix_on_branch():
    for d in (2, 3):
        mu = d + 0.5
        L = solve_L(mu, d)
        J = np.zeros(d)
        J[0] = L
        C = flux_relaxation_matrix(mu, J, d=d)
        assert np.max(np.abs(C - C.T)) < 1e-12
        evals = np.sort(np.linalg.eigvalsh(C))
        # d-1 conserved directions along J-perp plus the relaxation eigenvalue
        assert np.max(np.abs(evals[1:])) < 1e-10
        assert abs(evals[0] - lambda_J(mu, d)) < 1e-10
        for v in np.eye(d)[1:]:
            assert np.linalg.norm(C @ v) < 1e-10


def test_flux_matrix_rejects_off_manifold():
    with pytest.raises(ValueError):
        flux_relaxation_matrix(2.5, np.array([0.1, 0.0]))


def test_lambda_J_values():
    mu = 2.2
    L = solve_L(mu, 2)
    assert abs(lambda_J(mu, 2) - (mu - 2.0 - L * L / mu)) < 1e-14
    assert abs(lambda_J(mu, 2) - (-0.17595813801387395)) < 1e-10
    with pytest.raises(ValueError):
        lambda_J(2.0, 2)


def test_lambda_J_asymptotics():
    # lambda_J = -2(mu/d - 1) + K_d (mu - d)^2 + O((mu - d)^3) with
    # K_2 = 2/3 and K_3 = 20/63 (from the small-flux series of c)
    gaps = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    errs = np.array([abs(lambda_J(2.0 + g, 2) + g) for g in gaps])
    ratios = errs[:-1] / errs[1:]
    assert np.all((ratios > 3.5) & (ratios < 4.2))
    assert abs(errs[-1] / gaps[-1] ** 2 - 2.0 / 3.0) < 0.04
    err3 = abs(lambda_J(3.05, 3) + 2.0 * 0.05 / 3.0)
    assert abs(err3 / 0.05 ** 2 - 20.0 / 63.0) < 0.04


# ---------------------------------------------------------------------------
# axis coefficients
# ---------------------------------------------------------------------------

def test_axis_coefficients_k_zero():
    for d in (2, 3):
        for z in (0.0, 0.7 + 1.3j, -0.2 - 5.0j):
            c0, c1, c2 = axis_coefficients(z, 0.0, d)
            assert abs(c0 - 1.0 / (1.0 + z)) < 1e-14
            assert abs(c1) < 1e-14
            assert abs(c2 - 1.0 / (d * (1.0 + z))) < 1e-14


def test_axis_coefficients_dense_oracle():
    # direct high-resolution quadrature of Int w1^j M_0 / (1 + z + i k w1)
    for d, n in [(2, 200000), (3, 200000)]:
        if d == 2:
            theta = (np.arange(n) + 0.5) * 2.0 * np.pi / n
            w1 = np.cos(theta)
            wts = np.full(n, 1.0 / n)
        else:
            u, gw = np.polynomial.legendre.leggauss(n // 100)
            w1 = u
            wts = gw / 2.0
        for z, kmag in [(0.3, 2.0), (0.05 + 4.0j, 12.5), (1.5 - 9.0j, 0.03)]:
            den = 1.0 + z + 1j * kmag * w1
            c0, c1, c2 = axis_coefficients(z, kmag, d)
            assert abs(c0 - (wts / den).sum()) < 1e-11
            assert abs(c1 - (wts * w1 / den).sum()) < 1e-11
            assert abs(c2 - (wts * w1 ** 2 / den).sum()) < 1e-11


def test_axis_coefficients_symmetrized_c1():
    for d in (2, 3):
        for z, kmag in [(0.0, 10.0), (0.4 + 7.0j, 25.0), (2.0, 0.5)]:
            _, c1, _ = axis_coefficients(z, kmag, d)
            assert abs(c1 - c1_symmetrized(z, kmag, d)) < 1e-10


def test_axis_coefficients_large_real_part():
    z = 1000.0
    for d in (2, 3):
        c0, c1, c2 = axis_coefficients(z, 10.0, d)
        bound = 1.0 / (1.0 + z)
        assert abs(c0) <= bound and abs(c1) <= bound and abs(c2) <= bound


def test_axis_coefficients_domain():
    with pytest.raises(ValueError):
        axis_coefficients(-1.5, 1.0, 2)


def _axis_textbook_2d(a, b):
    """d = 2 axis coefficients from the textbook forms 1/w, (1 - a/w)/(ib)
    and (a/b^2)(1 - a/w), w = sqrt(a^2 + b^2), in long double: 1 - a/w
    cancels, costing |a/b|^2 long-double eps, ~1e-16 at b >= 0.03|a|."""
    a = np.asarray(a, dtype=np.clongdouble)
    b = np.longdouble(b)
    w = np.sqrt(a * a + b * b)
    one = 1 - a / w
    return 1 / w, one / (1j * b), a * one / (b * b)


def _max_rel_err(got, want):
    return max(abs(complex(g) - complex(v)) / abs(complex(v))
               for g, v in zip(got, want))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
def test_axis_coefficients_2d_against_long_double_oracle():
    # |k| / |1 + z| from 0.03 to 1e3, plus near-resonant points |k| close to
    # |Im(1 + z)| with small Re z + 1, where a^2 + |k|^2 cancels
    rng = np.random.default_rng(17)
    n = 2000
    z = rng.uniform(-0.95, 3.0, n) + 1j * rng.uniform(-60.0, 60.0, n)
    ratio = np.concatenate([[0.03, 0.03 * (1 + 1e-12)],
                            10.0 ** rng.uniform(math.log10(0.03), 3.0, n - 2)])
    kmag = ratio * np.abs(1.0 + z)
    zr = rng.uniform(-0.99, -0.9, 200) + 1j * rng.uniform(10.0, 60.0, 200)
    z = np.concatenate([z, zr])
    kmag = np.concatenate([kmag, zr.imag * (1.0 + rng.uniform(-1e-3, 1e-3, 200))])
    worst = 0.0
    for zi, ki in zip(z, kmag):
        got = axis_coefficients(complex(zi), float(ki), 2)
        worst = max(worst, _max_rel_err(got, _axis_textbook_2d(1.0 + zi, ki)))
    assert worst < 1e-14


def test_axis_coefficients_2d_small_wavenumber_against_mpmath():
    # |k| / |1 + z| from 0 to 0.03, where the textbook forms cancel: the
    # oracle evaluates them at 40 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(19)
    z = rng.uniform(-0.95, 3.0, 300) + 1j * rng.uniform(-60.0, 60.0, 300)
    ratio = np.concatenate([[0.03, 0.03 * (1 - 1e-12)],
                            10.0 ** rng.uniform(-8.0, math.log10(0.03), 298)])
    for zi, ri in zip(z, ratio):
        a = 1.0 + complex(zi)
        ki = float(ri * abs(a))
        A, B = mp.mpc(a.real, a.imag), mp.mpf(ki)
        W = mp.sqrt(A * A + B * B)
        one = 1 - A / W
        got = axis_coefficients(complex(zi), ki, 2)
        assert _max_rel_err(got, (1 / W, one / (1j * B), A * one / (B * B))) < 1e-14
    for zi in z[:20]:
        a = 1.0 + complex(zi)
        c0, c1, c2 = axis_coefficients(complex(zi), 0.0, 2)
        assert _max_rel_err((c0, c2), (1 / a, 0.5 / a)) < 1e-15 and c1 == 0


# ---------------------------------------------------------------------------
# explicit bound functions
# ---------------------------------------------------------------------------

def test_phi2_profile():
    assert phi2(0.0) == 0.0
    u = np.linspace(0.0, 30.0, 200)
    v = phi2(u)
    assert np.all(np.diff(v) > 0)
    assert np.all(v < 1.0)
    assert abs(phi2(1.0) - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-15


def test_alpha2_endpoints_and_monotonicity():
    for d in (2, 3):
        assert abs(alpha2(d, 0.0) - 0.5) < 1e-12
        assert alpha2(d, 1.0 - 1e-12) < 2e-6
        eps = np.linspace(0.05, 0.95, 10)
        vals = [alpha2(d, e) for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_alpha2_analytic_oracles():
    # d=2: (theta_eps + eps sin(theta_eps))/pi with theta_eps = arccos(eps);
    # d=3: (1 - eps^3)/2
    for eps in (0.1, 0.25, 0.6):
        te = math.acos(eps)
        assert abs(alpha2(2, eps) - (te + eps * math.sin(te)) / math.pi) < 1e-12
        assert abs(alpha2(3, eps) - 0.5 * (1.0 - eps ** 3)) < 1e-12


def _alpha2_gauss_legendre(d, eps, n=512):
    """linstab.alpha2 as it was before its closed forms: the cap and sphere
    masses by an n-node Gauss-Legendre rule in the polar angle."""
    tcap = math.acos(eps)
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * tcap * (x + 1.0)
    num = 0.5 * tcap * np.sum(w * np.cos(t) ** 2 * np.sin(t) ** (d - 2))
    t2 = 0.5 * math.pi * (x + 1.0)
    den = 0.5 * math.pi * np.sum(w * np.sin(t2) ** (d - 2))
    return float(d * num / den)


def test_alpha2_matches_gauss_legendre_reference():
    for d in (2, 3):
        for eps in np.linspace(0.0, 1.0, 41):
            assert abs(alpha2(d, eps) - _alpha2_gauss_legendre(d, eps)) < 1e-15


def test_bound_budget_rejects_other_dimensions():
    with pytest.raises(ValueError):
        alpha2(4, 0.5)
    with pytest.raises(ValueError):
        phi0(10.0, 4)
    with pytest.raises(ValueError):
        bound_budget(10.0, 4)


def test_default_eps_solves_budget_split():
    for d, frozen in [(2, 0.7727548630617058), (3, 0.6299605249474366)]:
        eps = default_eps(d)
        assert abs(alpha2(d, eps) - 0.375) < 1e-10
        assert abs(eps - frozen) < 1e-10
    # d = 3 closed form: (1 - eps^3)/2 = 3/8 gives eps = 4^{-1/3}
    assert abs(default_eps(3) - 0.25 ** (1.0 / 3.0)) < 1e-10


def test_phi0_values():
    assert phi0(1e6, 2) > 0.99
    assert abs(phi0(10.0, 2) - (1.0 - (2.0 / math.pi + 0.5) / math.sqrt(10.0))) < 1e-14
    assert phi0(1.0, 2) == 0.0
    # c_3 = Gamma(3/2)/(sqrt(pi) Gamma(1)) = 1/2
    assert abs(phi0(10.0, 3) - (1.0 - 0.5 * math.pi / 10.0)) < 1e-14
    assert phi0(1.0, 3) == 0.0


def test_bound_budget_fields():
    budget = bound_budget(10.0, 2)
    assert budget.gamma == 10.0 and budget.d == 2
    assert abs(budget.alpha2 - 0.375) < 1e-10
    assert 0.0 < budget.phi0 < 1.0 and 0.0 < budget.phi2 < 1.0
    assert abs(budget.re_c0_max - (1.0 - budget.phi0)) < 1e-15
    assert abs(budget.abs_c1_max - (0.5 / math.sqrt(2.0) + 0.1)) < 1e-15


def test_coefficient_bounds_sampled():
    # zero violations over a small deterministic sample (the full sample is
    # exercised by the acceptance suite)
    rng = np.random.default_rng(1)
    d = 2
    eps = default_eps(d)
    for _ in range(100):
        z = complex(rng.uniform(0.0, 2.0), rng.uniform(-50.0, 50.0))
        kmag = rng.uniform(10.0, 50.0)
        c0, c1, c2 = axis_coefficients(z, kmag, d)
        assert c0.real <= c0_bound(kmag, d) + 1e-12
        assert abs(c1) <= c1_bound(kmag, d) + 1e-12
        assert d * abs(c2) <= d * c2_bound(kmag, d, eps) + 1e-12


# ---------------------------------------------------------------------------
# dispersion coefficients
# ---------------------------------------------------------------------------

def test_dispersion_coefficient_relations():
    # A = Int w (x) w M / den - b (x) J/mu and bbar = b - a J/mu
    mu = 2.5
    L = solve_L(mu, 2)
    J = np.array([L * math.cos(0.4), L * math.sin(0.4)])
    for z, k in [(0.3 + 2.1j, np.array([3.7, -1.2])),
                 (0.0 - 11.0j, np.array([0.0, 10.0]))]:
        coeff = dispersion_coefficients(z, k, mu, J)
        a, b, ww = _dense_kernel_moments(z, k, mu, J)
        assert abs(coeff["a"][0] - a) < 1e-10
        assert np.max(np.abs(coeff["b"][0] - b)) < 1e-10
        assert np.max(np.abs(coeff["A"][0] - (ww - np.outer(b, J) / mu))) < 1e-10
        assert np.max(np.abs(coeff["b_bar"][0] - (b - a * J / mu))) < 1e-10


def test_dispersion_scalar_symbol_disordered():
    # with J = 0 the symbol reduces to 1 - c0 - mu c1^2 / (1 - mu c2)
    rng = np.random.default_rng(3)
    for _ in range(25):
        mu = rng.uniform(0.5, 1.95)
        z = complex(rng.uniform(-0.05, 2.0), rng.uniform(-50.0, 50.0))
        k = rng.normal(size=2) * 7.0
        coeff = dispersion_coefficients(z, k, mu)
        c0, c1, c2 = axis_coefficients(z, float(np.linalg.norm(k)), 2)
        href = 1.0 - c0 - mu * c1 * c1 / (1.0 - mu * c2)
        assert abs(coeff["h"][0] - href) < 1e-10


def test_dispersion_k_zero():
    mu = 1.0
    z = 0.5 + 1.0j
    coeff = dispersion_coefficients(z, np.zeros(2), mu)
    assert abs(coeff["a"][0] - 1.0 / (1.0 + z)) < 1e-12
    assert np.max(np.abs(coeff["A"][0] - 0.5 / (1.0 + z) * np.eye(2))) < 1e-12


def test_dispersion_large_real_part():
    z = 1000.0
    coeff = dispersion_coefficients(z, np.array([10.0, 0.0]), 1.0)
    bound = 1.0 / (1.0 + z)
    assert abs(coeff["a"][0]) <= bound
    assert np.linalg.norm(coeff["b"][0]) <= bound
    assert np.linalg.norm(coeff["A"][0], 2) <= bound * (1.0 + 1e-12)
    assert abs(coeff["h"][0] - 1.0) < 2e-3


def test_dispersion_singular_operator():
    # at k = 0 the operator Id - mu A degenerates along z = mu/2 - 1
    with pytest.raises(SingularOperatorError) as info:
        fl_solve(-0.5, np.zeros(2), 1.0, None, np.ones(64, dtype=complex))
    assert info.value.sigma_min <= 1e-12


def _grid_coefficients(z, k, mu, J):
    """(a, b, A, h) by quadrature of the equilibrium columns on a sphere grid
    that resolves |J| and |k|: the grid path the coefficients once took for
    d = 3, kept as the oracle of the d = 3 axis coefficients."""
    d = k.size
    grid = build_sphere_grid(d, max(auto_node_count(float(np.linalg.norm(J))),
                                    math.ceil(15.0 * np.linalg.norm(k))))
    kern = grid.weights / (1.0 + z + 1j * (grid.nodes @ k))
    M = von_mises(J, grid)
    G = von_mises_gradient(J, grid)
    a = M @ kern
    b = (grid.nodes.T * M) @ kern
    A = np.einsum("ni,jn,n->ij", grid.nodes, G, kern)
    h = 1.0 - a - mu * (G @ kern) @ np.linalg.solve(np.eye(d) - mu * A, b)
    return a, b, A, h


def test_dispersion_d3_grid_path():
    # grid quadrature (d = 3) against the axis reduction at an axis-aligned k
    mu = 1.2
    z = 0.3 + 4.0j
    kmag = 6.0
    a, b, A, h = _grid_coefficients(z, np.array([0.0, 0.0, kmag]), mu,
                                    np.zeros(3))
    c0, c1, c2 = axis_coefficients(z, kmag, 3)
    assert abs(a - c0) < 1e-11
    assert abs(b[2] - c1) < 1e-11
    assert abs(A[2, 2] - c2) < 1e-11
    href = 1.0 - c0 - mu * c1 * c1 / (1.0 - mu * c2)
    assert abs(h - href) < 1e-10


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_lattice_wavenumbers():
    ks = lattice_wavenumbers(10.0, 30.0)
    mags = np.linalg.norm(ks, axis=1)
    assert np.all(mags > 0) and np.all(mags <= 30.0 + 1e-9)
    scaled = ks / 10.0
    assert np.max(np.abs(scaled - np.round(scaled))) < 1e-12
    # half lattice keeps exactly one of each +-k pair
    seen = {tuple(np.round(k, 9)) for k in ks}
    assert not any(tuple(np.round(-k, 9)) in seen for k in ks)
    # 28 nonzero m with |m| <= 3, one of each pair
    assert ks.shape[0] == 14


def test_lattice_without_a_wavenumber_has_two_columns():
    assert lattice_wavenumbers(10.0, 5.0).shape == (0, 2)


def test_dispersion_sweep_names_k_max_below_the_lattice():
    with pytest.raises(ValueError, match="k_max"):
        dispersion_sweep(1.9, 10.0, k_max=5.0)


def _singular_at(monkeypatch, j):
    """Make det(Id - mu A) exactly 0 at the j-th z of every k's batch."""
    det_adjugate = linstab._det_adjugate_2d

    def singular(Mop, bvec):
        det, adjb = det_adjugate(Mop, bvec)
        det[j] = 0.0
        return det, adjb

    monkeypatch.setattr(linstab, "_det_adjugate_2d", singular)


def test_dispersion_sweep_names_a_non_finite_point(monkeypatch):
    # np.argmin returned the NaN's index and NaN < 0.2 is false, so a sweep
    # summary read min_re_h NaN, unflagged
    z = default_z_grid(im_max=1.0)
    _singular_at(monkeypatch, 3)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=re.escape(f"z = {z[3]}, k = (10, 0)")):
        dispersion_sweep(1.9, 10.0, z_values=z, k_vectors=[[10.0, 0.0]])


@pytest.mark.parametrize("fn", [abscissa_candidates, spectral_abscissa])
def test_abscissa_names_k_max_below_the_lattice(fn):
    # it returned the k = 0 rate 0.25 without checking any k
    with pytest.raises(ValueError, match="k_max"):
        fn(1.5, 10.0, 5.0)


def test_default_z_grid():
    zs = default_z_grid(delta=0.05)
    assert np.min(zs.real) >= -0.05 - 1e-12
    assert np.max(zs.real) <= 2.0 + 1e-12
    assert np.max(np.abs(zs.imag)) <= 50.0 + 1e-12


def test_invertibility_sweep_disordered():
    zs = default_z_grid(delta=0.05, im_max=10.0)
    ks = lattice_wavenumbers(10.0, 20.0)
    sweep = dispersion_sweep(1.0, 10.0, J=np.zeros(2), z_values=zs, k_vectors=ks)
    assert sweep.min_sigma > 0.5
    assert sweep.sigma_min.shape == (ks.shape[0], zs.size)
    assert sweep.max_inv_norm == 1.0 / sweep.min_sigma


def test_invertibility_trivial_at_large_real_part():
    sweep = dispersion_sweep(1.0, 10.0, J=np.zeros(2), z_values=[1000.0 + 3.0j],
                             k_vectors=np.array([[10.0, 0.0]]))
    assert sweep.min_sigma > 1.0 - 2.0 / 1001.0


def test_invertibility_refinement_stability():
    ks = lattice_wavenumbers(10.0, 20.0)
    coarse, fine = (dispersion_sweep(1.0, 10.0, J=np.zeros(2), k_vectors=ks,
                                     z_values=default_z_grid(im_max=10.0, step=step))
                    for step in (0.25, 0.125))
    assert abs(fine.min_sigma - coarse.min_sigma) <= 0.05 * coarse.min_sigma


def test_dispersion_sweep_structure():
    sweep = dispersion_sweep(1.0, 10.0, z_values=default_z_grid(im_max=5.0),
                             k_max=10.0)
    assert sweep.re_h.shape == (sweep.k_vectors.shape[0], sweep.z_values.size)
    assert sweep.min_re_h == sweep.re_h.min()
    assert sweep.min_sigma == sweep.sigma_min.min()
    assert sweep.min_re_h > 0.2


# ---------------------------------------------------------------------------
# resolvent solve
# ---------------------------------------------------------------------------

def _dense_resolvent_oracle(z, k, mu, J, f0, grid):
    """Solve the mode problem as one dense linear system in the nodal values:
    (1 + z + i k.w) f = rho_f M + mu J_f . grad M + f0."""
    n = grid.n
    den = 1.0 + z + 1j * (grid.nodes @ k)
    M = von_mises(J, grid)
    G = von_mises_gradient(J, grid)
    K = np.outer(M, grid.weights).astype(complex)
    for i in range(grid.nodes.shape[1]):
        K += mu * np.outer(G[i], grid.weights * grid.nodes[:, i])
    A_full = np.diag(den) - K
    f = np.linalg.solve(A_full, f0)
    rho = complex(grid.weights @ f)
    Jf = (grid.weights * f) @ grid.nodes
    return f, rho, Jf


def test_fl_solve_zero_data():
    grid = build_sphere_grid(2, 128)
    sol = fl_solve(0.3 + 1.0j, np.array([10.0, 0.0]), 1.5, None,
                   np.zeros(grid.n, dtype=complex))
    assert sol.rho_tilde == 0.0
    assert np.all(sol.J_tilde == 0.0)
    assert np.max(np.abs(sol.f_tilde)) == 0.0


def test_fl_solve_residual_and_oracle():
    rng = np.random.default_rng(7)
    mu = 2.5
    L = solve_L(mu, 2)
    J = np.array([L, 0.0])
    grid = build_sphere_grid(2, 256)
    theta = grid.angles
    # band-limited random datum
    f0 = np.zeros(grid.n, dtype=complex)
    for m in range(-6, 7):
        f0 += rng.normal() * np.exp(1j * m * theta) + 1j * rng.normal() * np.cos(m * theta)
    for z, k in [(0.2 + 3.0j, np.array([10.0, 0.0])),
                 (0.1 - 1.5j, np.array([7.0, 7.0]))]:
        sol = fl_solve(z, k, mu, J, f0)
        assert sol.residual < 1e-10
        _, rho_ref, J_ref = _dense_resolvent_oracle(z, k, mu, J, f0, grid)
        assert abs(sol.rho_tilde - rho_ref) < 1e-9 * max(1.0, abs(rho_ref))
        assert np.max(np.abs(sol.J_tilde - J_ref)) < 1e-9


def test_fl_solve_linearity():
    mu = 1.5
    grid = build_sphere_grid(2, 128)
    rng = np.random.default_rng(11)
    g1 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    g2 = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    z, k = 0.4 + 5.0j, np.array([10.0, -10.0])
    s1 = fl_solve(z, k, mu, None, g1)
    s2 = fl_solve(z, k, mu, None, g2)
    s12 = fl_solve(z, k, mu, None, 2.0 * g1 - 0.7j * g2)
    assert abs(s12.rho_tilde - (2.0 * s1.rho_tilde - 0.7j * s2.rho_tilde)) < 1e-12 \
        * max(1.0, abs(s12.rho_tilde))
    assert np.max(np.abs(s12.f_tilde - (2.0 * s1.f_tilde - 0.7j * s2.f_tilde))) < 1e-12


def test_fl_solve_at_conserved_mode():
    # z = 0, k = 0 is the mass pole: the symbol vanishes there
    grid = build_sphere_grid(2, 64)
    with pytest.raises(SingularSymbolError):
        fl_solve(0.0, np.zeros(2), 1.0, None, np.ones(grid.n, dtype=complex))


# ---------------------------------------------------------------------------
# spectral abscissa
# ---------------------------------------------------------------------------

def test_spectral_abscissa_disordered():
    assert abs(spectral_abscissa(1.5, 10.0, k_max=20.0) - 0.25) < 1e-12
    assert abs(spectral_abscissa(1.0, 10.0, k_max=20.0) - 0.5) < 1e-12


def test_spectral_abscissa_ordered():
    rate = spectral_abscissa(2.2, 10.0, k_max=20.0)
    assert abs(rate - (-lambda_J(2.2, 2))) < 1e-9


def test_abscissa_candidates_structure():
    out = abscissa_candidates(1.5, 10.0, k_max=10.0)
    assert out["k0_rates"] == [-1.0, -0.25]
    assert out["rate"] == -max(out["candidates"])
    for r in out["symbol_roots"]:
        assert r.real >= -out["delta"] - 1e-9


def _kernel_sums_row_major(cols, zs, b, shift=0.0, tail=1e-18):
    """The kernel integration of linstab._chunks as it was with an
    (nz, mmax+1) power table, taking nodal columns: the bit-level oracle of
    the z-contiguous table."""
    ncols, n = cols.shape
    a = 1.0 + zs
    ghat = np.fft.fft(cols, axis=1) / n
    half = n // 2
    m = np.arange(1, half)
    phase = np.exp(1j * m * shift)
    sym = np.empty((ncols, half + 1), dtype=complex)
    sym[:, 0] = ghat[:, 0]
    sym[:, 1:half] = ghat[:, 1:half] * phase + ghat[:, n - 1:n - half:-1] / phase
    sym[:, half] = ghat[:, half] * math.cos(half * shift)
    mags = np.abs(sym).max(axis=0)
    scale = max(float(mags.max()), 1e-300)
    keep = np.nonzero(mags > tail * scale)[0]
    mmax = int(keep[-1]) if keep.size else 0
    sym = sym[:, :mmax + 1]
    w = np.sqrt(a * a + b * b)
    rho = -1j * b / (w + a)
    powers = np.empty((zs.size, mmax + 1), dtype=complex)
    powers[:, 0] = 1.0 / w
    for j in range(1, mmax + 1):
        powers[:, j] = powers[:, j - 1] * rho
    return 2.0 * np.pi * powers @ sym.T


@pytest.mark.parametrize("k", [(10.0, 0.0), (10.0, 20.0), (-30.0, 40.0)])
def test_kernel_sums_bit_equal_to_row_major_oracle(k):
    zs = default_z_grid()
    cols = linstab._fourier_columns_2d(np.array([solve_L(2.5, 2), 0.0]))
    ghat = np.fft.fft(cols, axis=1) / cols.shape[1]
    b = math.hypot(*k)
    shift = math.atan2(k[1], k[0])
    got = linstab._integrals(zs, np.array(k), ghat)
    assert got.tobytes() == _kernel_sums_row_major(cols, zs, b, shift).tobytes()


def test_kernel_sums_at_zero_wavenumber():
    # at b = 0 the kernel ratio rho vanishes and only the mean survives
    cols = linstab._fourier_columns_2d(np.array([solve_L(2.5, 2), 0.0]))
    ghat = np.fft.fft(cols, axis=1) / cols.shape[1]
    zs = default_z_grid(im_max=5.0, step=0.5)
    got = linstab._integrals(zs, np.zeros(2), ghat)
    want = 2.0 * np.pi * np.outer(1.0 / (1.0 + zs), ghat[:, 0])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_coefficient_batches_transform_columns_once(monkeypatch):
    calls = []
    fft = np.fft.fft

    def counting(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    mu = 2.3
    J = solve_L(mu, 2) * np.array([0.6, 0.8])
    zs = np.array([0.1 + 1.0j, 0.5 - 2.0j])
    for i in range(100):
        linstab.dispersion_coefficients(zs, (10.0 * (1 + i % 5), 10.0), mu, J)
    assert len(calls) <= 1
    assert not linstab._column_spectrum(tuple(J)).flags.writeable


def _fourier_columns_2d_bessel(J):
    """linstab._fourier_columns_2d as it was before the one column builder:
    the gradient's mean direction c(|J|) J/|J| comes from the Bessel ratio,
    not from quadrature on the grid."""
    L = float(np.linalg.norm(J))
    n = 256
    while n < 8 * L + 64:
        n *= 2
    theta = 2.0 * np.pi * np.arange(n) / n
    w1 = np.cos(theta)
    w2 = np.sin(theta)
    M = von_mises(J, linstab.SphereGrid(2, np.stack([w1, w2], axis=1),
                                        np.full(n, 2.0 * np.pi / n), theta))
    e1, e2 = float(linstab.order_parameter(L, 2)) * J / L if L > 0 else (0.0, 0.0)
    G1 = (w1 - e1) * M
    G2 = (w2 - e2) * M
    return np.stack([M, w1 * M, w2 * M, G1, G2,
                     w1 * G1, w1 * G2, w2 * G1, w2 * G2])


@pytest.mark.parametrize("mu,angle,tol", [(1.5, 0.0, 0.0), (2.2, 0.0, 0.0),
                                          (2.5, 0.7, 1e-15), (3.0, -2.0, 1e-15)])
def test_fourier_columns_match_bessel_ratio_oracle(mu, angle, tol):
    J = solve_L(mu, 2) * np.array([math.cos(angle), math.sin(angle)])
    got = linstab._fourier_columns_2d(J)
    want = _fourier_columns_2d_bessel(J)
    assert got.shape == want.shape
    if tol == 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= tol


def _invertibility_loop(mu, J, z_values, k_vectors, singular_tol=1e-10):
    """The per-k invertibility loop the sweep replaced: it keeps the first
    strict minimum of sigma_min and collects singular points k-major."""
    z_values = np.asarray(z_values, dtype=complex)
    k_vectors = np.atleast_2d(np.asarray(k_vectors, dtype=float))
    J = np.zeros(2) if J is None else np.asarray(J, dtype=float)
    best, arg, bad = math.inf, None, []
    for k in k_vectors:
        sig = linstab.dispersion_coefficients(z_values, k, mu, J)["sigma_min"]
        j = int(np.argmin(sig))
        if sig[j] < best:
            best = float(sig[j])
            arg = (complex(z_values[j]), k.copy())
        for jj in np.nonzero(sig <= singular_tol)[0]:
            bad.append((complex(z_values[jj]), k.copy()))
    return best, arg, bad


@pytest.mark.parametrize("zs,ks,tol,n_singular", [
    # z = -0.5, k = 0 is singular at mu = 1; with tol = 1e-2 the points near
    # it at z + 1e-3 i and k = (0, 1e-3) join, so k-major order is tested
    ([0.3 + 1.0j, -0.5, 0.1 - 2.0j, -0.5 + 1e-3j],
     [[10.0, 0.0], [0.0, 0.0], [10.0, 10.0], [0.0, 1e-3]], 1e-2, 4),
    ([0.3 + 1.0j, -0.5, 0.1 - 2.0j, -0.5 + 1e-3j],
     [[10.0, 0.0], [0.0, 0.0], [10.0, 10.0], [0.0, 1e-3]], 1e-10, 1),
    # sigma_min at k = 0 is tied between z and conj(z): the first one wins
    ([0.2, -0.5 + 0.1j, 1.0, -0.5 - 0.1j], [[10.0, 0.0], [0.0, 0.0]], 1e-10, 0),
])
def test_invertibility_sweep_matches_loop_oracle(zs, ks, tol, n_singular):
    sweep = dispersion_sweep(1.0, 10.0, z_values=zs, k_vectors=ks)
    best, arg, bad = _invertibility_loop(1.0, None, zs, ks, singular_tol=tol)
    assert sweep.min_sigma == best
    z, k = sweep.argmin_sigma
    assert z == arg[0] and np.array_equal(k, arg[1])
    # sigma_min is k-major: its small entries come in the loop's order
    small = np.argwhere(sweep.sigma_min <= tol)
    assert len(small) == len(bad) == n_singular
    for (i, j), (z2, k2) in zip(small, bad):
        assert sweep.z_values[j] == z2 and np.array_equal(sweep.k_vectors[i], k2)


def test_sweeps_check_the_equilibrium_once(monkeypatch):
    calls = []
    check = linstab._check_equilibrium

    def counting(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(linstab, "_check_equilibrium", counting)
    zs = default_z_grid(im_max=2.0, step=0.5)
    sweep = dispersion_sweep(1.5, 10.0, z_values=zs, k_max=30.0)
    assert len(calls) == 1
    assert sweep.k_vectors.shape[0] == 14
    dispersion_sweep(1.5, 10.0, z_values=zs, k_vectors=lattice_wavenumbers(10.0, 30.0))
    assert len(calls) == 2


def test_fl_solve_rejects_3d_wavenumber():
    grid = build_sphere_grid(2, 64)
    with pytest.raises(ValueError):
        fl_solve(0.3, np.array([0.0, 0.0, 10.0]), 1.0, None,
                 np.ones(grid.n, dtype=complex))


def test_dispersion_sweep_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        dispersion_sweep(1.0, 10.0, z_values=default_z_grid(im_max=1.0),
                         k_vectors=[[10.0, 0.0, 0.0]])


@pytest.mark.parametrize("J", [None, np.zeros(3)])
@pytest.mark.parametrize("fn", [
    lambda J: dispersion_coefficients(0.3 + 4.0j, [0.0, 0.0, 6.0], 1.2, J),
    lambda J: dispersion_sweep(1.2, 10.0, J=J, z_values=[0.3 + 4.0j],
                               k_vectors=[[0.0, 0.0, 6.0]]),
], ids=["dispersion_coefficients", "dispersion_sweep"])
def test_3d_wavenumber_is_rejected_before_work(fn, J, monkeypatch):
    # the d = 2 expansion would use only k[:2]
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(linstab, "_integrals", no_work)
    monkeypatch.setattr(linstab, "_column_spectrum", no_work)
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        fn(J)


@pytest.mark.parametrize("mu, gamma, n_D, n_det, rate", [
    (1.5, 10.0, 0, 0, 0.25),
    (2.2, 10.0, 0, 0, 0.17595813801388),
    (2.5, 3.0, 1, 0, -0.05279430195544164),
    (2.2, 1.0, 7, 0, -0.1339805660898834),
    # the det zero sits 0.003 inside the -delta edge (min |det| ~ 7e-4)
    (2.5, 0.5, 10, 1, -0.14040290800340396),
])
def test_abscissa_counts_equal_located_zeros(mu, gamma, n_D, n_det, rate):
    # rates: the damped-Newton seed scan this count replaced
    out = abscissa_candidates(mu, gamma)
    assert abs(out["rate"] - rate) < 1e-9
    J = linstab.project_to_manifold(mu, np.array([1.0, 0.0]))
    totals = {"D": 0, "det": 0}
    for c in out["contours"]:
        for row, name in enumerate(("D", "det")):
            roots = np.array(c["roots"][name], dtype=complex)
            assert roots.size == c["count"][name]
            assert c["min_abs"][name] > 0.0
            totals[name] += roots.size
            if roots.size:
                assert np.all(roots.real >= -out["delta"])
                assert np.all(roots.real <= out["re_max"])
                assert np.all(np.abs(roots.imag) <= c["im_max"])
                assert np.all(np.abs(linstab._symbols(roots, c["k"], mu, J)[row])
                              <= 1e-11)
    assert totals == {"D": n_D, "det": n_det}


def test_abscissa_emits_no_runtime_warning():
    # det vanishes exactly on a Newton iterate here; D and det never divide
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        abscissa_candidates(2.5, 0.5)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("mu", [1.5, 2.5, 3.5])
def test_symbols_are_h_times_det_within_the_majorant(mu):
    J = linstab.project_to_manifold(mu, np.array([1.0, 0.0]))
    p = linstab._majorant(mu, J)
    rng = np.random.default_rng(3)
    for k in ([0.5, 0.0], [3.0, -4.0], [10.0, 20.0]):
        k = np.array(k)
        kmag = float(np.linalg.norm(k))
        zs = rng.uniform(-0.05, 8.0, 200) + 1j * rng.uniform(-kmag - 10.0,
                                                             kmag + 10.0, 200)
        D, det = linstab._symbols(zs, k, mu, J)
        out = linstab.dispersion_coefficients(zs, k, mu, J)
        assert np.allclose(D, out["h"] * out["det"], rtol=1e-12, atol=1e-12)
        assert np.array_equal(det, out["det"])
        # distance from z to the singular segment {-1 + it : |t| <= |k|}
        beta = 1.0 / np.hypot(1.0 + zs.real, np.maximum(np.abs(zs.imag) - kmag, 0.0))
        m = np.arange(p.size)
        bound = np.polyval(p[::-1], beta) - 1.0
        dbound = beta * np.polyval((m * p)[::-1], beta)
        dz = 1e-6
        fprime = (linstab._symbols(zs + dz, k, mu, J)
                  - linstab._symbols(zs - dz, k, mu, J)) / (2 * dz)
        for f, fp in ((D, fprime[0]), (det, fprime[1])):
            assert np.all(np.abs(f - 1.0) <= bound)
            assert np.all(np.abs(fp) <= dbound + 1e-8)


@pytest.mark.parametrize("delta, n_D, n_det", [(0.0470443, 1, 0), (0.0470444, 2, 1)])
def test_abscissa_count_resolves_a_zero_next_to_the_contour(delta, n_D, n_det):
    # det(Id - mu A) at mu = 2.5, k = (1/2, 0) vanishes at
    # z = -0.04704434850 - 0.17666722311i, 5e-8 from either left edge; D = h det
    # shares that zero
    out = abscissa_candidates(2.5, 0.5, k_max=0.5, delta=delta)
    c = out["contours"][0]
    assert np.array_equal(c["k"], [0.5, 0.0])
    assert c["count"] == {"D": n_D, "det": n_det}
    assert 0.0 < c["min_abs"]["det"] < 1e-7


def test_dispersion_sweep_memory_is_bounded_per_z():
    # 520,104 z at one k: the coefficients themselves take a few hundred
    # bytes per z, the (n/2 + 1) x nz power table of one unchunked batch 2 KB
    zs = default_z_grid(step=0.02)
    tracemalloc.start()
    try:
        dispersion_sweep(1.5, 10.0, z_values=zs, k_vectors=[[10.0, 0.0]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * zs.size


# ---------------------------------------------------------------------------
# the sweep: z chunks outermost, one power table per chunk and |k|
# ---------------------------------------------------------------------------

def _sweep_case(mu):
    """A z grid of three chunks, the 14 wavenumbers with |k| <= 30 (six
    lengths), and an equilibrium flux off the axes."""
    J = solve_L(mu, 2) * np.array([0.6, 0.8]) if mu > 2 else np.zeros(2)
    zs, ks = default_z_grid(im_max=30.0), lattice_wavenumbers(10.0, 30.0)
    half = linstab._column_spectrum(tuple(J)).shape[1] // 2
    chunks = -(-zs.size // (linstab._TABLE // (half + 1)))
    assert chunks == 3
    return J, zs, ks, chunks


@pytest.mark.parametrize("mu", [1.9, 2.5])
def test_sweep_is_bit_equal_to_a_loop_of_coefficient_batches(mu):
    J, zs, ks, _ = _sweep_case(mu)
    sweep = dispersion_sweep(mu, 10.0, J=J, z_values=zs, k_vectors=ks)
    for i, k in enumerate(ks):
        out = linstab.dispersion_coefficients(zs, k, mu, J)
        assert sweep.re_h[i].tobytes() == out["h"].real.tobytes()
        assert sweep.sigma_min[i].tobytes() == out["sigma_min"].tobytes()


def test_sweep_builds_one_power_table_per_chunk_and_length(monkeypatch):
    calls = []
    table = linstab._power_table

    def counting(zs, b, half):
        calls.append(b)
        return table(zs, b, half)

    monkeypatch.setattr(linstab, "_power_table", counting)
    J, zs, ks, chunks = _sweep_case(1.9)
    dispersion_sweep(1.9, 10.0, z_values=zs, k_vectors=ks)
    lengths = {float(np.linalg.norm(k)) for k in ks}
    assert len(lengths) == 6 < len(ks)
    assert len(calls) == chunks * len(lengths)
    assert set(calls) == lengths


def test_sweep_names_the_first_non_finite_point_k_major(monkeypatch):
    # det is planted at 0 at two points; the sweep meets (k 9, z 5) first,
    # in its first chunk, but (k 2, z in the last chunk) comes first k-major
    mu = 1.9
    J, zs, ks, _ = _sweep_case(mu)
    planted = [(9, 5), (2, zs.size - 3)]
    marks = [np.eye(2)
             - mu * linstab.dispersion_coefficients(zs, ks[i], mu, J)["A"][j]
             for i, j in planted]
    det_adjugate = linstab._det_adjugate_2d
    hits = []

    def planted_zero(Mop, bvec):
        det, adjb = det_adjugate(Mop, bvec)
        for mark in marks:
            hit = np.all(Mop == mark, axis=(1, 2))
            det[hit] = 0.0
            hits.append(int(hit.sum()))
        return det, adjb

    monkeypatch.setattr(linstab, "_det_adjugate_2d", planted_zero)
    i, j = planted[1]
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError,
            match=re.escape(f"z = {zs[j]}, k = ({ks[i][0]:g}, {ks[i][1]:g})")):
        dispersion_sweep(mu, 10.0, J=J, z_values=zs, k_vectors=ks)
    assert sum(hits) == 2


@pytest.mark.parametrize("z", [-1.0, -1.5 + 2.0j])
def test_dispersion_sweep_rejects_re_z_at_or_left_of_minus_one(z):
    with pytest.raises(ValueError, match="Re z > -1"):
        dispersion_sweep(1.9, 10.0, z_values=[0.5, z], k_vectors=[[10.0, 0.0]])
