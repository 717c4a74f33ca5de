"""Order parameter, equilibrium branch, and spatially homogeneous flow.

Spatially homogeneous equilibria of the alignment dynamics are rho = mu and
a flux J solving the consistency relation |J| = mu * c(|J|), where

    c(r) = Int_0^pi cos(t) e^{r cos t} sin^{d-2} t dt
           / Int_0^pi e^{r cos t} sin^{d-2} t dt

is the mean resultant length of the von Mises density at concentration r.
Below mu = d only J = 0 solves it; above, a sphere of radius L_mu > 0
bifurcates with L_mu^2 = (d+2)(mu-d) + O((mu-d)^2).

On the circle c(r) = I1(r)/I0(r), from the exponentially scaled Bessel
functions i0e and i1e of Cephes (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989, files i0.c, i1.c and chbevl.c), ported here
with the same coefficients and order of operations as one recurrence for
floats and arrays, so they return the bits scipy.special.i0e / i1e return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


# Cephes Chebyshev coefficients: exp(-x) I_n(x) on [0, 8] in y = x/2 - 2
# (the "A" tables) and sqrt(x) exp(-x) I_n(x) on (8, inf) in y = 32/x - 2
# (the "B" tables), highest order first.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I1_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I1_B = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)


# The i0 (real part) and i1 (imaginary part) series of one range as complex
# coefficients; a leading zero term pads the one-term-shorter i1 "A" table.
_PACKED_A = tuple(complex(a, b) for a, b in zip(_I0_A, (0.0,) + _I1_A))
_PACKED_B = tuple(complex(a, b) for a, b in zip(_I0_B, _I1_B))


def _chbevl(y, coef: tuple):
    """Cephes chbevl: the packed series at y, a Python complex or a complex
    array, by Clenshaw's recurrence b0 = y b1 - b2 + c.  y has a zero
    imaginary part, so the cross terms 0 * b1 are exact zeros (b1 stays
    finite) and each lane rounds as the real recurrence does."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = y * b1
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def _range_a(x):
    """(i0e, i1e) of a float or array x <= 8."""
    s = _chbevl(x / 2.0 - 2.0 + 0j, _PACKED_A)
    return s.real, s.imag * x


def _range_b(x, q):
    """(i0e, i1e) of a float or array x > 8 (or NaN) with q = sqrt(x)."""
    s = _chbevl(32.0 / x - 2.0 + 0j, _PACKED_B)
    return s.real / q, s.imag / q


def _i0e_i1e(x):
    """(i0e(x), i1e(x)) for x >= 0 (NaN gives NaN): two floats for a float
    x, two arrays of x's shape for an array."""
    if isinstance(x, float):
        return _range_a(x) if x <= 8.0 else _range_b(x, math.sqrt(x))
    shape = x.shape
    x = x.ravel()
    low = x <= 8.0
    if low.all():
        i0, i1 = _range_a(x)
        return i0.reshape(shape), i1.reshape(shape)
    i0, i1 = np.empty_like(x), np.empty_like(x)
    if low.any():
        i0[low], i1[low] = _range_a(x[low])
    high = ~low
    xb = x[high]
    i0[high], i1[high] = _range_b(xb, np.sqrt(xb))
    return i0.reshape(shape), i1.reshape(shape)


def _concentration_policy(values, r, d: int, limit: float):
    """values(r, d) under the argument rules c and c' share: d in (2, 3),
    r >= 0, the limit at r = +inf, and a float for a 0-d r.  values takes
    a 1-d array without +inf."""
    if d not in (2, 3):
        raise ValueError("c(r) is implemented for d in (2, 3)")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("concentration must be nonnegative")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r == np.inf):
        out = np.full(r.shape, limit)
        rest = r != np.inf
        out[rest] = values(r[rest], d)
    else:
        out = values(r, d)
    return float(out[0]) if scalar else out


def _c_values(r: np.ndarray, d: int) -> np.ndarray:
    """c(r) on a 1-d array of r >= 0 without +inf."""
    if d == 2:
        i0, i1 = _i0e_i1e(r)
        return np.where(r > 0, i1 / i0, 0.0)
    small = r < 1e-3
    rs = np.where(small, 1.0, r)
    return np.where(small, r / 3.0 - r**3 / 45.0 + 2.0 * r**5 / 945.0,
                    1.0 / np.tanh(rs) - 1.0 / rs)


def order_parameter(r, d: int):
    """The consistency function c(r) for concentration r >= 0, d in (2, 3).

    Closed forms: I_1(r)/I_0(r) on the circle, the Langevin function
    coth(r) - 1/r on the 2-sphere.  Vectorized in r; c(0) = 0,
    c'(0) = 1/d, and c(r) increases to c(inf) = 1.
    """
    if d == 2 and isinstance(r, float) and 0.0 < r < math.inf:
        i0, i1 = _i0e_i1e(float(r))  # the root finders' and RK4's calls
        return i1 / i0
    return _concentration_policy(_c_values, r, d, 1.0)


def _c_over_r(r: np.ndarray) -> np.ndarray:
    """c(r)/r on the circle, I1(r)/(r I0(r)), stable as r -> 0."""
    small = r < 1e-4
    rs = np.where(small, 1.0, r)
    i0, i1 = _i0e_i1e(rs)
    out = i1 / (rs * i0)
    if small.any():
        out[small] = 0.5 - r[small] ** 2 / 16.0
    return out


def _c_prime_values(r: np.ndarray, d: int) -> np.ndarray:
    """c'(r) on a 1-d array of r >= 0 without +inf."""
    if d == 2:
        i0, i1 = _i0e_i1e(r)
        return 1.0 - _c_over_r(r) - (i1 / i0)**2
    small = r < 1e-2
    big = r > 300.0
    rs = np.where(small | big, 1.0, r)
    return np.where(small, 1.0 / 3.0 - r**2 / 15.0 + 2.0 * r**4 / 189.0,
                    np.where(big, 1.0 / np.maximum(r, 1.0) ** 2,
                             1.0 / rs**2 - 1.0 / np.sinh(rs) ** 2))


def order_parameter_derivative(r, d: int):
    """dc/dr for d in (2, 3), used by Newton polishing and stability formulas.

    For d=2, c' = 1 - c/r - c^2 (Bessel recurrences); for d=3,
    c' = 1/r^2 - 1/sinh^2 r; c' > 0 and c'(inf) = 0.
    """
    return _concentration_policy(_c_prime_values, r, d, 0.0)


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


@lru_cache(maxsize=128)
def solve_L(mu: float, d: int, tol: float = 1e-12) -> float:
    """Positive root of mu c(L) = L (0 for mu <= d).

    Brackets with [asymptotic_L/2, mu] (c < 1 forces the root below mu),
    solves by Brent's method (_brentq, bit-identical to scipy's brentq),
    then Newton-polishes until the residual |mu c(L) - L| drops below tol.
    The last 128 results are cached: more than the 101 mu of the default
    branch, while a longer sweep keeps only its last 128.
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
