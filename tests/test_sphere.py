import math

import numpy as np
import pytest

from vicsekbgk.sphere import (
    SPHERE_AREA,
    auto_node_count,
    axis_integral,
    axis_integral_recursive,
    build_sphere_grid,
    moments,
    partition_function,
    von_mises,
    von_mises_gradient,
)
from vicsekbgk.equilibria import solve_L

from conftest import i0_series, bisect_branch


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_invariants():
    for d, n in [(2, 8), (2, 64), (3, 8), (3, 16)]:
        grid = build_sphere_grid(d, n)
        norms = np.linalg.norm(grid.nodes, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14
        assert np.all(grid.weights > 0)
        assert abs(grid.weights.sum() - SPHERE_AREA[d]) < 1e-12


def test_circle_grid_is_equispaced_trapezoid():
    grid = build_sphere_grid(2, 8)
    assert np.allclose(grid.angles, 2.0 * np.pi * np.arange(8) / 8, atol=1e-15)
    assert np.allclose(grid.weights, 2.0 * np.pi / 8, atol=1e-15)


def test_grid_argument_errors():
    with pytest.raises(ValueError):
        build_sphere_grid(4, 16)
    with pytest.raises(ValueError):
        build_sphere_grid(2, 3)


def test_quadrature_exactness_circle():
    # trig polynomials of degree < n integrate exactly under the trapezoid rule
    grid = build_sphere_grid(2, 64)
    theta = grid.angles
    assert abs(grid.integrate(np.cos(theta) ** 2) - math.pi) < 1e-13
    for deg in (1, 5, 31, 63):
        assert abs(grid.integrate(np.cos(deg * theta))) < 1e-12
    val = grid.integrate(np.cos(3 * theta) ** 2 * np.sin(theta) ** 2)
    assert abs(val - math.pi / 2.0) < 1e-12


def test_quadrature_exactness_sphere():
    grid = build_sphere_grid(3, 16)
    w1 = grid.nodes[:, 0]
    assert abs(grid.integrate(w1 ** 2) - 4.0 * math.pi / 3.0) < 1e-12
    assert abs(grid.integrate(w1 ** 3)) < 1e-12
    assert abs(grid.integrate(grid.nodes[:, 2] ** 4) - 4.0 * math.pi / 5.0) < 1e-12


# ---------------------------------------------------------------------------
# partition function and density
# ---------------------------------------------------------------------------

def test_partition_function_at_zero():
    assert abs(partition_function([0.0, 0.0], build_sphere_grid(2, 64))
               - 2.0 * math.pi) < 1e-12 * 2.0 * math.pi
    assert abs(partition_function([0.0, 0.0, 0.0], build_sphere_grid(3, 16))
               - 4.0 * math.pi) < 1e-12 * 4.0 * math.pi


def test_partition_function_circle_oracle():
    # Z(|J|=1) = 2 pi I0(1) with I0 from the series, not the quadrature
    grid = build_sphere_grid(2, 64)
    expected = 2.0 * math.pi * i0_series(1.0)
    assert abs(partition_function([1.0, 0.0], grid) - expected) < 1e-13 * expected
    assert abs(expected - 2.0 * math.pi * 1.2660658777520083356) < 1e-14


def test_partition_function_rotation_invariance():
    grid = build_sphere_grid(2, 64)
    za = partition_function([0.0, 1.0], grid)
    zb = partition_function([1.0, 0.0], grid)
    assert abs(za - zb) < 1e-13 * zb


def test_von_mises_uniform_at_zero():
    grid = build_sphere_grid(2, 32)
    m = von_mises([0.0, 0.0], grid)
    assert np.allclose(m, 1.0 / (2.0 * math.pi), atol=1e-15)


def test_von_mises_normalization_and_peak():
    for d in (2, 3):
        for jmag in (0.0, 1.0, 5.0, 10.0, 50.0, 100.0):
            grid = build_sphere_grid(d, auto_node_count(jmag))
            J = np.zeros(d)
            J[0] = jmag
            m = von_mises(J, grid)
            assert np.all(m >= 0.0)
            assert abs(grid.integrate(m) - 1.0) < 1e-10
            if jmag > 0:
                assert grid.nodes[np.argmax(m), 0] == grid.nodes[:, 0].max()


def test_von_mises_sup_scaling():
    # max M_J grows like |J|^{(d-1)/2}: one constant covers all sampled |J|
    for d, cap in [(2, 0.6), (3, 0.2)]:
        ratios = []
        for jmag in (1.0, 10.0, 100.0):
            grid = build_sphere_grid(d, auto_node_count(jmag))
            J = np.zeros(d)
            J[0] = jmag
            ratios.append(von_mises(J, grid).max() / (1.0 + jmag ** ((d - 1) / 2.0)))
        c_d = max(ratios)
        assert all(r <= c_d for r in ratios)
        assert c_d < cap


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_at_zero():
    grid = build_sphere_grid(2, 64)
    g = von_mises_gradient([0.0, 0.0], grid)
    assert g.shape == (2, grid.n)
    expected = grid.nodes.T / (2.0 * math.pi)
    assert np.max(np.abs(g - expected)) < 1e-14


def test_gradient_components_integrate_to_zero():
    grid = build_sphere_grid(3, 24)
    g = von_mises_gradient([0.3, -1.2, 0.5], grid)
    for comp in g:
        assert abs(grid.integrate(comp)) < 1e-12


def test_gradient_on_manifold_closed_form():
    # at a branch equilibrium the gradient collapses to (omega - J/mu) M_J
    for d in (2, 3):
        mu = d + 0.5
        L = solve_L(mu, d)
        grid = build_sphere_grid(d, 64)
        J = np.zeros(d)
        J[0] = L
        g = von_mises_gradient(J, grid)
        m = von_mises(J, grid)
        expected = (grid.nodes - J / mu).T * m
        assert np.max(np.abs(g - expected)) < 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    step = 1e-5
    for d in (2, 3):
        grid = build_sphere_grid(d, 48)
        for _ in range(10):
            J = rng.normal(size=d) * 2.0
            g = von_mises_gradient(J, grid)
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                fd = (von_mises(J + e, grid) - von_mises(J - e, grid)) / (2 * step)
                assert np.max(np.abs(g[i] - fd)) < 1e-6


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_of_constant():
    grid = build_sphere_grid(2, 32)
    pair = moments(np.full(grid.n, 0.7), grid)
    assert abs(pair.rho - 0.7 * 2.0 * math.pi) < 1e-13
    assert np.max(np.abs(pair.J)) < 1e-13


def test_moments_of_equilibrium():
    for d in (2, 3):
        mu = d + 0.5
        L = solve_L(mu, d)
        grid = build_sphere_grid(d, 64)
        J = np.zeros(d)
        J[0] = L
        pair = moments(mu * von_mises(J, grid), grid)
        assert abs(pair.rho - mu) < 1e-10
        assert np.max(np.abs(pair.J - J)) < 1e-8


def test_von_mises_batch_matches_single():
    grid = build_sphere_grid(2, 32)
    J = np.array([[[0.0, 0.0], [1.5, -0.3]], [[-2.0, 4.0], [0.2, 0.1]]])
    batch = von_mises(J, grid)
    assert batch.shape == (2, 2, 32)
    for idx in np.ndindex(2, 2):
        assert np.allclose(batch[idx], von_mises(J[idx], grid),
                           rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        von_mises(np.zeros((4, 3)), grid)


def test_moment_length_mismatch():
    grid = build_sphere_grid(2, 32)
    with pytest.raises(ValueError):
        moments(np.ones(31), grid)


def test_second_moment_identities():
    # Int w1^2 M_J = 1 - (d-1)/mu and Int w2^2 M_J = 1/mu on the branch
    for d in (2, 3):
        mu = d + 0.5
        L = bisect_branch(mu, d)
        grid = build_sphere_grid(d, 96)
        J = np.zeros(d)
        J[0] = L
        m = von_mises(J, grid)
        q1 = grid.integrate(grid.nodes[:, 0] ** 2 * m)
        q2 = grid.integrate(grid.nodes[:, 1] ** 2 * m)
        assert abs(q1 - (1.0 - (d - 1) / mu)) < 1e-8
        assert abs(q2 - 1.0 / mu) < 1e-8


def test_rotation_equivariance():
    grid2 = build_sphere_grid(2, 64)
    phi = 0.83
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    J = np.array([1.3, -0.4])
    a = moments(von_mises(R @ J, grid2), grid2)
    b = moments(von_mises(J, grid2), grid2)
    assert abs(a.rho - 1.0) < 1e-10
    assert np.max(np.abs(a.J - R @ b.J)) < 1e-10


# ---------------------------------------------------------------------------
# axis integrals
# ---------------------------------------------------------------------------

def test_axis_integral_base_cases():
    assert abs(axis_integral_recursive(0, 0) - math.pi) < 1e-15
    assert abs(axis_integral_recursive(0, 1) - 2.0) < 1e-15
    assert abs(axis_integral_recursive(2, 0) - math.pi / 2.0) < 1e-14
    assert axis_integral_recursive(1, 4) == 0.0
    assert axis_integral_recursive(3, 1) == 0.0


def test_axis_integral_recursion_vs_quadrature():
    for k in (0, 2, 4):
        for m in range(0, 13):
            q = axis_integral(k, m)
            r = axis_integral_recursive(k, m)
            assert abs(q - r) < 1e-12, (k, m)


def test_axis_integral_identities():
    for m in range(0, 13):
        lhs = axis_integral_recursive(4, m)
        rhs = axis_integral_recursive(2, m) - axis_integral_recursive(2, m + 2)
        assert abs(lhs - rhs) < 1e-14
        lhs2 = axis_integral_recursive(2, m)
        rhs2 = axis_integral_recursive(0, m + 2) / (m + 1)
        assert abs(lhs2 - rhs2) < 1e-14
    for m in range(2, 13):
        lhs3 = axis_integral_recursive(0, m)
        rhs3 = (m - 1) / m * axis_integral_recursive(0, m - 2)
        assert abs(lhs3 - rhs3) < 1e-14


def test_axis_integral_negative_indices():
    with pytest.raises(ValueError):
        axis_integral(-1, 0)
    with pytest.raises(ValueError):
        axis_integral_recursive(0, -2)
