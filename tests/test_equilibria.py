import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from vicsekbgk.equilibria import (
    _I0_A,
    _I0_B,
    _I1_A,
    _I1_B,
    _brentq,
    _c_over_r,
    _i0e_i1e,
    asymptotic_L,
    equilibrium_branch,
    homogeneous_flow,
    order_parameter,
    order_parameter_derivative,
    project_to_manifold,
    solve_L,
)
from vicsekbgk.linstab import alpha2

from conftest import oracle_c, bisect_branch


# ---------------------------------------------------------------------------
# order parameter
# ---------------------------------------------------------------------------

def test_order_parameter_at_zero():
    for d in (2, 3):
        assert order_parameter(0.0, d) == 0.0


def test_order_parameter_slope_at_zero():
    # c'(0) = 1/d via central differences
    step = 1e-6
    for d in (2, 3):
        slope = (order_parameter(step, d) - order_parameter(0.0, d)) / step
        assert abs(slope - 1.0 / d) < 1e-6


def test_order_parameter_frozen_values():
    # series-ratio value on the circle, coth(1) - 1 on the sphere
    assert abs(order_parameter(1.0, 2) - 0.446389965896534507) < 1e-14
    assert abs(order_parameter(1.0, 3) - 0.3130352854993312) < 1e-14


def test_order_parameter_matches_oracle():
    for d in (2, 3):
        for r in (0.1, 0.5, 2.0, 7.0, 30.0):
            assert abs(order_parameter(r, d) - oracle_c(r, d)) < 1e-12


def test_order_parameter_range_and_growth():
    r = np.linspace(0.0, 60.0, 301)
    for d in (2, 3):
        c = order_parameter(r, d)
        assert np.all(c >= 0.0) and np.all(c < 1.0)
        assert np.all(np.diff(c) > 0)
        assert c[-1] > 0.97


def test_order_parameter_rejects_other_dimensions():
    # the circle and the sphere only, as every grid and the CLI
    for d in (1, 4):
        for fn in (order_parameter, order_parameter_derivative):
            for r in (1.0, np.array([0.5, 2.0])):
                with pytest.raises(ValueError, match=r"d in \(2, 3\)"):
                    fn(r, d)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [-1.0, np.array(-1e-300), np.array([0.5, -2.0, 3.0])],
                         ids=["float", "0-d", "array"])
def test_order_parameter_rejects_negative_concentration(r, d):
    for fn in (order_parameter, order_parameter_derivative):
        with pytest.raises(ValueError, match="concentration must be nonnegative"):
            fn(r, d)


def test_ratio_c_over_r_decreasing():
    r = np.linspace(1e-3, 50.0, 400)
    for d in (2, 3):
        ratio = order_parameter(r, d) / r
        assert np.all(np.diff(ratio) < 0)
        assert ratio[-1] < 0.021


def test_order_parameter_derivative_matches_fd():
    step = 1e-6
    for d in (2, 3):
        for r in (0.0, 0.3, 1.0, 4.0, 20.0):
            fd = (order_parameter(r + step, d)
                  - order_parameter(max(r - step, 0.0), d)) / (
                      step if r == 0.0 else 2 * step)
            assert abs(order_parameter_derivative(r, d) - fd) < 2e-6


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------

def test_asymptotic_L_values():
    assert asymptotic_L(2.0, 2) == 0.0
    assert abs(asymptotic_L(2.01, 2) - 0.2) < 1e-13
    assert abs(asymptotic_L(3.5, 3) - math.sqrt(2.5)) < 1e-13


def test_solve_L_below_threshold():
    assert solve_L(1.0, 2) == 0.0
    assert solve_L(2.0, 2) == 0.0
    assert solve_L(3.0, 3) == 0.0


def test_solve_L_residual_and_bound():
    for d in (2, 3):
        for mu in (d + 0.04, d + 0.5, d + 1.0, 2.0 * d):
            L = solve_L(mu, d)
            assert 0.0 < L < mu
            assert abs(mu * order_parameter(L, d) - L) < 1e-12


def test_solve_L_frozen_values():
    # bisection-oracle roots of mu c(L) = L, frozen to full precision
    assert abs(solve_L(2.04, 2) - 0.40133554216217654) < 1e-12
    assert abs(solve_L(2.2, 2) - 0.90945472874164297) < 1e-12
    assert abs(solve_L(2.5, 2) - 1.474269969456859) < 1e-12
    assert abs(solve_L(3.0, 2) - 2.1724761528790586) < 1e-12


def test_solve_L_matches_bisection_oracle():
    for d in (2, 3):
        for mu in (d + 0.1, d + 0.7, d + 2.0):
            assert abs(solve_L(mu, d) - bisect_branch(mu, d)) < 1e-10


def test_long_branch_keeps_the_solve_L_cache_bounded():
    # every mu of a branch is a new key; the cache keeps at most its bound
    bound = solve_L.cache_info().maxsize
    equilibrium_branch(np.linspace(2.0, 4.0, 3 * bound + 1), 2)
    assert solve_L.cache_info().currsize <= bound


def test_solve_L_quadratic_asymptotics():
    d = 2
    gaps = np.array([1e-1, 1e-2, 1e-3])
    errs = np.array([abs(solve_L(d + g, d) ** 2 - (d + 2) * g) for g in gaps])
    K = errs[0] / gaps[0] ** 2
    assert np.all(errs <= K * gaps ** 2 * (1.0 + 1e-9))


def test_branch_monotone():
    for d in (2, 3):
        mus = np.linspace(d + 1e-3, 4.0 * d, 60)
        branch = equilibrium_branch(mus, d)
        assert np.all(np.diff(branch.L) > 0)
        assert branch.residual.max() < 1e-12
        assert np.all(branch.L < branch.mu)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_below_threshold():
    assert np.all(project_to_manifold(1.5, [3.0, 4.0]) == 0.0)
    assert np.all(project_to_manifold(2.0, [1.0, 0.0]) == 0.0)


def test_project_above_threshold():
    mu = 2.5
    out = project_to_manifold(mu, [3.0, 0.0])
    L = solve_L(mu, 2)
    assert abs(out[0] - L) < 1e-14 and out[1] == 0.0
    again = project_to_manifold(mu, out)
    assert np.max(np.abs(again - out)) < 1e-12


def test_project_zero_flux_error():
    with pytest.raises(ValueError):
        project_to_manifold(2.5, [0.0, 0.0])


# ---------------------------------------------------------------------------
# homogeneous flow
# ---------------------------------------------------------------------------

def test_homogeneous_flow_zero_is_fixed():
    traj = homogeneous_flow(2.5, np.zeros(2), t_end=5.0, dt=0.01)
    assert np.all(traj.L == 0.0)


def test_homogeneous_flow_subcritical_decay():
    # linear rate is mu/d - 1 = -1/4, so from L(0) = 1 forty time units
    # buy a factor e^{-10} ~ 5e-5; the 1e-6 threshold needs a small start
    traj = homogeneous_flow(1.5, np.array([1.0, 0.0]), t_end=40.0, dt=0.01)
    assert traj.L[-1] < 1e-4
    assert np.all(np.diff(traj.L) <= 0)
    traj2 = homogeneous_flow(1.5, np.array([0.01, 0.0]), t_end=40.0, dt=0.01)
    assert traj2.L[-1] < 1e-6


def test_homogeneous_flow_supercritical_convergence():
    mu = 2.5
    traj = homogeneous_flow(mu, np.array([0.01, 0.0]), t_end=80.0, dt=0.01)
    assert abs(traj.L[-1] - solve_L(mu, 2)) < 1e-8
    assert np.all(np.diff(traj.L) >= 0)


def test_homogeneous_flow_direction_frozen():
    J0 = np.array([0.6, -0.8])
    traj = homogeneous_flow(2.5, J0, t_end=3.0, dt=0.01)
    assert np.max(np.abs(traj.direction - J0 / np.linalg.norm(J0))) < 1e-15


def test_homogeneous_flow_fourth_order():
    # halving dt shrinks the terminal error by about 2^4
    mu, J0 = 2.5, np.array([0.3, 0.0])
    ref = homogeneous_flow(mu, J0, t_end=4.0, dt=1e-4).L[-1]
    e1 = abs(homogeneous_flow(mu, J0, t_end=4.0, dt=0.2).L[-1] - ref)
    e2 = abs(homogeneous_flow(mu, J0, t_end=4.0, dt=0.1).L[-1] - ref)
    assert 10.0 < e1 / e2 < 22.0


# ---------------------------------------------------------------------------
# Bessel functions: scipy.special's Cephes i0e / i1e, which _i0e_i1e
# replaces in float and array form, is the oracle
# ---------------------------------------------------------------------------

def _assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    mismatch = got[~nan].view(np.int64) != want[~nan].view(np.int64)
    assert not mismatch.any(), (got[~nan][mismatch][:5],
                                want[~nan][mismatch][:5])


def _bessel_points():
    """10^5 seeded points on [0, 20], 10^5 on 10^[-300, 300], and the ends
    and the series cut-off 8 with its two neighbours."""
    rng = np.random.default_rng(20261018)
    return np.concatenate([
        rng.uniform(0.0, 20.0, 100_000),
        10.0 ** rng.uniform(-300.0, 300.0, 100_000),
        [0.0, 5e-324, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0),
         1e308, np.inf, np.nan]])


def _chbevl_real(y, coef):
    """Cephes chbevl in Python floats: each lane of the packed complex
    recurrence in equilibria must return its bits."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0e_i1e_real(x):
    if x <= 8.0:
        y = x / 2.0 - 2.0
        return _chbevl_real(y, _I0_A), _chbevl_real(y, _I1_A) * x
    y, q = 32.0 / x - 2.0, math.sqrt(x)
    return _chbevl_real(y, _I0_B) / q, _chbevl_real(y, _I1_B) / q


def test_i0e_i1e_match_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    x = _bessel_points()
    want0, want1 = special.i0e(x), special.i1e(x)
    got0, got1 = _i0e_i1e(x)
    _assert_same_bits(got0, want0)
    _assert_same_bits(got1, want1)
    pairs = [_i0e_i1e(v) for v in x.tolist()]
    assert all(type(a) is float and type(b) is float for a, b in pairs)
    _assert_same_bits([a for a, _ in pairs], want0)
    _assert_same_bits([b for _, b in pairs], want1)
    # any shape, with both series in one array or only one of them
    for part in (x[-1000:], x[x <= 8.0][:1000], x[x > 8.0][:1000]):
        got0, got1 = _i0e_i1e(part.reshape(40, 25))
        _assert_same_bits(got0.ravel(), special.i0e(part))
        _assert_same_bits(got1.ravel(), special.i1e(part))


def test_scalar_and_array_paths_agree_bit_for_bit():
    x = _bessel_points()
    r = x[(x > 0.0) & np.isfinite(x)]
    c = [order_parameter(v, 2) for v in r.tolist()]
    assert all(type(v) is float for v in c)
    _assert_same_bits(c, order_parameter(r, 2))
    _assert_same_bits([order_parameter(np.float64(v), 2) for v in r[:1000]],
                      c[:1000])
    # the float form against the real recurrence, with no scipy needed
    _assert_same_bits([_i0e_i1e(v) for v in x.tolist()],
                      [_i0e_i1e_real(v) for v in x.tolist()])
    # c(r)/r: the series below 1e-4, i1e / (r i0e) from the float form
    r = np.concatenate([r, [1e-4, np.nextafter(1e-4, 0.0), 0.0]])
    want = [0.5 - v * v / 16.0 if v < 1e-4
            else _i0e_i1e(v)[1] / (v * _i0e_i1e(v)[0]) for v in r.tolist()]
    _assert_same_bits(_c_over_r(r), want)
    _assert_same_bits(_c_over_r(r[:1024].reshape(32, 32)).ravel(), want[:1024])
    # NaN is not negative and not positive: c(NaN) is 0, as before the port
    assert order_parameter(math.nan, 2) == 0.0
    assert np.array_equal(order_parameter(np.array([math.nan, 1.0]), 2),
                          [0.0, order_parameter(1.0, 2)])


def test_import_loads_no_scipy_module():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vicsekbgk, vicsekbgk.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# root finder: scipy.optimize.brentq, which _brentq replaces, is the oracle
# ---------------------------------------------------------------------------

def _recorded(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)
    return wrapped, calls


def _run(solver, f, a, b, **kw):
    """(root or exception type, the x of every f call) of one solve."""
    wrapped, calls = _recorded(f)
    try:
        out = solver(wrapped, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        out = type(exc)
    return out, calls


def _assert_same_as_scipy(f, a, b, **kw):
    optimize = pytest.importorskip("scipy.optimize")
    want, want_calls = _run(optimize.brentq, f, a, b, **kw)
    got, got_calls = _run(_brentq, f, a, b, **kw)
    assert got_calls == want_calls
    if isinstance(want, float):
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    else:
        assert got is want


def test_brentq_matches_scipy_on_the_consistency_relation():
    # solve_L's function and bracket at 241 mu per dimension
    for d in (2, 3):
        for mu in np.linspace(d + 1e-6, d + 24.0, 241):
            mu = float(mu)

            def g(L):
                return mu * order_parameter(L, d) - L
            lo = 0.5 * asymptotic_L(mu, d)
            while g(lo) <= 0.0:
                lo *= 0.5
            _assert_same_as_scipy(g, lo, mu, xtol=1e-15,
                                  rtol=4.0 * np.finfo(float).eps, maxiter=200)


def test_brentq_matches_scipy_on_the_cap_parameter():
    # default_eps's function and bracket
    for d in (2, 3):
        _assert_same_as_scipy(lambda e: alpha2(d, e) - 0.375, 1e-9, 1.0 - 1e-9,
                              xtol=1e-14)


def test_brentq_matches_scipy_on_random_brackets():
    # both bracket orders; scales down to 1e-200, where C's products and
    # quotients underflow; a few runs that stop at maxiter
    shapes = (lambda x: x,
              lambda x: math.sin(x),
              lambda x: x ** 3 + 0.1 * x,
              lambda x: math.expm1(x),
              lambda x: math.atan(50.0 * x),
              lambda x: x * (x - 0.3) * (x + 0.7))
    rng = np.random.default_rng(2024)
    for i in range(1200):
        shape = shapes[i % len(shapes)]
        root = float(rng.uniform(-2.0, 2.0))
        scale = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        if i % 5 == 0:
            scale *= 1e-200
        a = root - float(rng.uniform(1e-3, 3.0))
        b = root + float(rng.uniform(1e-3, 3.0))
        if i % 2:
            a, b = b, a
        xtol = float(10.0 ** rng.uniform(-15.0, -3.0))
        maxiter = 5 if i % 7 == 0 else 100
        _assert_same_as_scipy(lambda x: scale * shape(x - root), a, b,
                              xtol=xtol, maxiter=maxiter)


def test_brentq_error_contract():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: 1e-200 * (x + 2.0), 0.0, 1.0)  # f(a) f(b) underflows
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(lambda x: math.atan(50.0 * (x - 0.3)), 0.0, 1.0, maxiter=3)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0)
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    for f, a, b in ((lambda x: x * x + 1.0, -1.0, 1.0),
                    (lambda x: 1e-200 * (x + 2.0), 0.0, 1.0),
                    (lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0)):
        _assert_same_as_scipy(f, a, b)
    _assert_same_as_scipy(lambda x: math.atan(50.0 * (x - 0.3)), 0.0, 1.0,
                          maxiter=3)


# ---------------------------------------------------------------------------
# limits at infinite concentration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_order_parameter_limits_at_infinity(d):
    # c(inf) = 1 and c'(inf) = 0, scalar and array, with no warning (the
    # suite runs under error::RuntimeWarning); finite entries keep the bits
    # of a call without the infinite one
    assert order_parameter(math.inf, d) == 1.0
    assert order_parameter_derivative(math.inf, d) == 0.0
    assert order_parameter(np.array(np.inf), d) == 1.0
    finite = np.array([0.0, 1e-5, 0.7, 3.0, 40.0])
    r = np.insert(finite, [0, 3, 5], np.inf)
    top = r == np.inf
    for fn, limit in ((order_parameter, 1.0), (order_parameter_derivative, 0.0)):
        out = fn(r, d)
        assert out.shape == r.shape
        assert np.all(out[top] == limit)
        assert np.array_equal(out[~top], fn(finite, d))
        assert np.array_equal(fn(np.full(3, np.inf), d), np.full(3, limit))
