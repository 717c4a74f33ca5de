"""Order parameter, equilibrium branch, and spatially homogeneous flow.

Spatially homogeneous equilibria of the alignment dynamics are rho = mu and
a flux J solving the consistency relation |J| = mu * c(|J|), where

    c(r) = Int_0^pi cos(t) e^{r cos t} sin^{d-2} t dt
           / Int_0^pi e^{r cos t} sin^{d-2} t dt

is the mean resultant length of the von Mises density at concentration r.
Below mu = d only J = 0 solves it; above, a sphere of radius L_mu > 0
bifurcates with L_mu^2 = (d+2)(mu-d) + O((mu-d)^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .sphere import gauss_legendre

__all__ = [
    "order_parameter",
    "order_parameter_derivative",
    "solve_L",
    "asymptotic_L",
    "EquilibriumBranch",
    "equilibrium_branch",
    "project_to_manifold",
    "HomogeneousTrajectory",
    "homogeneous_flow",
]


def _quadrature_stats(r: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(<cos>, <cos^2>) under e^{r cos t} sin^{d-2} t dt, vectorized in r.

    The integrand is rescaled by e^{-r} so arbitrarily large concentrations
    stay in range; node count grows linearly with max r.
    """
    rmax = float(np.max(r, initial=0.0))
    n = max(128, 8 * int(math.ceil(rmax)) + 32)
    x, w = gauss_legendre(n)
    t = 0.5 * np.pi * (x + 1.0)
    ct = np.cos(t)
    base = w * np.sin(t) ** (d - 2)
    e = np.exp(np.multiply.outer(r, ct - 1.0)) * base
    den = e.sum(axis=-1)
    num1 = e @ ct
    num2 = e @ ct**2
    return num1 / den, num2 / den


def order_parameter(r, d: int):
    """The consistency function c(r) for concentration r >= 0.

    Closed forms: I_1(r)/I_0(r) on the circle, the Langevin function
    coth(r) - 1/r on the 2-sphere; stabilized quadrature for d >= 4.
    Vectorized in r; c(0) = 0, c'(0) = 1/d, and c(r) increases to 1.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("concentration must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if d == 2:
        out = np.where(r > 0, special.i1e(r) / special.i0e(r), 0.0)
    elif d == 3:
        small = r < 1e-3
        rs = np.where(small, 1.0, r)
        out = np.where(small,
                       r / 3.0 - r**3 / 45.0 + 2.0 * r**5 / 945.0,
                       1.0 / np.tanh(rs) - 1.0 / rs)
    else:
        out, _ = _quadrature_stats(r, d)
        out = np.where(r > 0, out, 0.0)  # odd integrand, exact zero
    return float(out[0]) if scalar else out


def _c_over_r(r: np.ndarray) -> np.ndarray:
    """c(r)/r on the circle, I1(r)/(r I0(r)), stable as r -> 0."""
    small = r < 1e-4
    rs = np.where(small, 1.0, r)
    return np.where(small, 0.5 - r**2 / 16.0,
                    special.i1e(rs) / (rs * special.i0e(rs)))


def order_parameter_derivative(r, d: int):
    """dc/dr, used by Newton polishing and stability formulas.

    For d=2, c' = 1 - c/r - c^2 (Bessel recurrences); for d=3,
    c' = 1/r^2 - 1/sinh^2 r; generally c' = <cos^2> - <cos>^2 > 0.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("concentration must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if d == 2:
        c = special.i1e(r) / special.i0e(r)
        out = 1.0 - _c_over_r(r) - c**2
    elif d == 3:
        small = r < 1e-2
        big = r > 300.0
        rs = np.where(small | big, 1.0, r)
        out = np.where(small, 1.0 / 3.0 - r**2 / 15.0 + 2.0 * r**4 / 189.0,
                       np.where(big, 1.0 / np.maximum(r, 1.0) ** 2,
                                1.0 / rs**2 - 1.0 / np.sinh(rs) ** 2))
    else:
        m1, m2 = _quadrature_stats(r, d)
        out = m2 - m1**2
    return float(out[0]) if scalar else out


def _brentq(f, a: float, b: float, xtol: float = 2e-12,
            rtol: float = 4.0 * np.finfo(float).eps, maxiter: int = 100) -> float:
    """Root of f in the sign-changing bracket [a, b] by Brent's method
    (Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq: the same bracket swaps,
    inverse-quadratic / secant steps and stopping test |xblk - xcur|/2 <
    (xtol + rtol |xcur|)/2, in the same order of operations, so it returns
    the same double after the same calls of f.  An exact zero at an end is
    returned; ends of one sign or a NaN value raise ValueError, and no
    convergence within maxiter iterations raises RuntimeError.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    def neg(v: float) -> bool:
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if neg(fpre) == neg(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and neg(fpre) != neg(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # den underflows to 0 for tiny f; the inf or NaN that C
                # gets then fails the short-step test below, as inf does
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den \
                    else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def asymptotic_L(mu: float, d: int) -> float:
    """Leading-order branch magnitude sqrt((d+2)(mu-d)) near threshold."""
    if mu <= d:
        return 0.0
    return math.sqrt((d + 2.0) * (mu - d))


@lru_cache(maxsize=None)
def solve_L(mu: float, d: int, tol: float = 1e-12) -> float:
    """Positive root of mu c(L) = L (0 for mu <= d).

    Brackets with [asymptotic_L/2, mu] (c < 1 forces the root below mu),
    solves by Brent's method (_brentq, bit-identical to scipy's brentq),
    then Newton-polishes until the residual |mu c(L) - L| drops below tol.
    Results are cached.
    """
    mu = float(mu)
    if mu <= d:
        return 0.0

    def g(L: float) -> float:
        return mu * order_parameter(L, d) - L

    lo = 0.5 * asymptotic_L(mu, d)
    for _ in range(200):
        if g(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise RuntimeError(f"failed to bracket the branch point for mu={mu}, d={d}")
    hi = mu
    L = _brentq(g, lo, hi, xtol=1e-15, maxiter=200)
    for _ in range(20):
        res = g(L)
        if abs(res) <= tol:
            return float(L)
        L -= res / (mu * order_parameter_derivative(L, d) - 1.0)
    raise RuntimeError(
        f"Newton polish did not reach residual {tol} for mu={mu}, d={d}")


@dataclass(frozen=True)
class EquilibriumBranch:
    """Sampled bifurcation branch: arrays of mu, L_mu, and residuals."""

    d: int
    mu: np.ndarray
    L: np.ndarray
    residual: np.ndarray


def equilibrium_branch(mu_values, d: int, tol: float = 1e-12) -> EquilibriumBranch:
    """Solve the consistency relation along a mu sweep."""
    mu_values = np.asarray(mu_values, dtype=float)
    L = np.array([solve_L(float(m), d, tol) for m in mu_values])
    residual = np.abs(mu_values * order_parameter(L, d) - L)
    return EquilibriumBranch(d=d, mu=mu_values.copy(), L=L, residual=residual)


def project_to_manifold(mu: float, J_raw) -> np.ndarray:
    """Closest equilibrium flux to J_raw: 0 for mu <= d, else L_mu * J_raw/|J_raw|."""
    J_raw = np.asarray(J_raw, dtype=float)
    d = J_raw.size
    if mu <= d:
        return np.zeros(d)
    mag = float(np.linalg.norm(J_raw))
    if mag == 0.0:
        raise ValueError("cannot project the zero flux above threshold: "
                         "no distinguished direction")
    return solve_L(float(mu), d) * J_raw / mag


@dataclass(frozen=True)
class HomogeneousTrajectory:
    """Magnitude trajectory of the space-free flux ODE dL/dt = mu c(L) - L.

    The flux direction is a constant of motion, stored once; the trajectory
    is identically zero when J0 = 0.
    """

    t: np.ndarray
    L: np.ndarray
    direction: np.ndarray
    mu: float


def homogeneous_flow(mu: float, J0, t_end: float, dt: float = 1e-2) -> HomogeneousTrajectory:
    """Integrate dL/dt = mu c(L) - L by classical RK4 with fixed direction.

    Args:
        mu: mean density (bifurcation parameter).
        J0: initial flux vector; |J0| seeds L and J0/|J0| is frozen.
        t_end: final time (last step is shortened to land exactly).
        dt: RK4 step.
    """
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    J0 = np.asarray(J0, dtype=float)
    d = J0.size
    L = float(np.linalg.norm(J0))
    direction = J0 / L if L > 0 else np.zeros(d)

    def f(x: float) -> float:
        return mu * order_parameter(x, d) - x

    ts = [0.0]
    Ls = [L]
    t = 0.0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        k1 = f(L)
        k2 = f(L + 0.5 * h * k1)
        k3 = f(L + 0.5 * h * k2)
        k4 = f(L + h * k3)
        L = max(L + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
        t += h
        ts.append(t)
        Ls.append(L)
    return HomogeneousTrajectory(t=np.array(ts), L=np.array(Ls),
                                 direction=direction, mu=float(mu))
