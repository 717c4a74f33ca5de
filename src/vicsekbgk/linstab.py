"""Linear stability machinery: flux relaxation, dispersion relation, bounds.

Linearizing the alignment dynamics at an equilibrium (mu, J) and taking a
Fourier-Laplace transform in (x, t) reduces the spectral problem to a d+1
dimensional linear system for the density and flux amplitudes (rho~, J~):

    J~   = b rho~ + mu A J~ + r_J
    rho~ = a rho~ + mu bbar . J~ + r_rho

with coefficients given by sphere integrals of the von Mises density against
the resolvent kernel 1/(1 + z + i k.omega).  Eliminating J~ gives the scalar
dispersion function

    h(z, k) = 1 - a - mu bbar^T (Id - mu A)^{-1} b,

whose zeros (together with the zeros of det(Id - mu A) and the k = 0 moment
rates) control the decay of the linearized semigroup.

For d = 2 all the coefficient integrals are evaluated exactly: the kernel has
the angular Fourier series sum_m S_m e^{im phi} with S_m = rho^|m| / w,
w = sqrt((1+z)^2 + |k|^2), rho = -i|k|/(w + 1 + z), |rho| < 1, and the von
Mises factors have superexponentially decaying Fourier coefficients, so the
integrals are short geometric contractions instead of quadratures whose node
count would have to grow like |k|.  For d = 3 grid quadrature is used with a
node count scaled to |k|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import optimize

from .equilibria import order_parameter, solve_L
from .sphere import SphereGrid, auto_node_count, build_sphere_grid, \
    gauss_legendre, von_mises, von_mises_gradient

__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_KAPPA",
    "DEFAULT_GAMMA_MIN",
    "SingularOperatorError",
    "SingularSymbolError",
    "flux_relaxation_matrix",
    "lambda_J",
    "axis_coefficients",
    "DispersionCoefficients",
    "dispersion_coefficients",
    "phi0",
    "phi2",
    "alpha2",
    "default_eps",
    "BoundBudget",
    "bound_budget",
    "c0_bound",
    "c1_bound",
    "c2_bound",
    "lattice_wavenumbers",
    "default_z_grid",
    "SweepResult",
    "dispersion_sweep",
    "InvertibilityReport",
    "invertibility_sweep",
    "FLSolution",
    "fl_solve",
    "spectral_abscissa",
    "abscissa_candidates",
]

# stability window constants: the uniform Re h >= 1/5 budget is proved for
# gamma >= 10, mu <= d + kappa, Re z >= -delta
DEFAULT_DELTA = 0.05
DEFAULT_KAPPA = 0.05
DEFAULT_GAMMA_MIN = 10.0


class SingularOperatorError(ArithmeticError):
    """Id - mu A is numerically singular at the requested (z, k)."""

    def __init__(self, message: str, sigma_min: float = float("nan"),
                 z: complex = None, k=None):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.z = z
        self.k = k


class SingularSymbolError(ArithmeticError):
    """h(z, k) = 0: the requested point is a dispersion root."""

    def __init__(self, message: str, z: complex = None, k=None):
        super().__init__(message)
        self.z = z
        self.k = k


def _check_equilibrium(mu: float, J, d: int) -> np.ndarray:
    """Validate that (mu, J) solves the consistency relation."""
    J = np.zeros(d) if J is None else np.asarray(J, dtype=float)
    if J.shape != (d,):
        raise ValueError(f"flux must have shape ({d},), got {J.shape}")
    jmag = float(np.linalg.norm(J))
    res = abs(mu * order_parameter(jmag, d) - jmag)
    if res > 1e-8:
        raise ValueError(
            f"(mu, J) is not an equilibrium: |mu c(|J|) - |J|| = {res:.3e}")
    return J


def flux_relaxation_matrix(mu: float, J=None, grid: SphereGrid | None = None,
                           d: int = 2) -> np.ndarray:
    """The d x d flux relaxation matrix C = mu Int omega x grad_J M_J - Id.

    C is symmetric: C = mu Int omega x omega M_J - J x J / mu - Id.  At J = 0
    it is (mu/d - 1) Id; on the bifurcated branch it annihilates the
    directions perpendicular to J and has the eigenvalue
    mu - d - |J|^2/mu along J.

    Args:
        mu: mean density.
        J: equilibrium flux (defaults to 0); must satisfy the consistency
           relation to 1e-8.
        grid: quadrature grid; defaults to one resolving concentration |J|.
        d: dimension used when both J and grid are omitted.
    """
    if grid is not None:
        d = grid.d
    elif J is not None:
        d = np.asarray(J).size
    J = _check_equilibrium(mu, J, d)
    if grid is None:
        grid = build_sphere_grid(d, auto_node_count(float(np.linalg.norm(J))))
    G = von_mises_gradient(J, grid)
    C = mu * (grid.nodes.T * grid.weights) @ G.T - np.eye(d)
    return C


def lambda_J(mu: float, d: int) -> float:
    """Relaxation eigenvalue mu - d - L_mu^2/mu along the flux (mu > d).

    Negative on the branch, ~ -2(mu/d - 1) near threshold.
    """
    if mu <= d:
        raise ValueError("lambda_J is defined on the bifurcated branch mu > d")
    L = solve_L(mu, d)
    return mu - d - L * L / mu


# ---------------------------------------------------------------------------
# axis coefficients c_j(z, |k|) = Int omega_1^j M_0 / (1 + z + i|k| omega_1)
# ---------------------------------------------------------------------------

def axis_coefficients(z, kmag: float, d: int):
    """(c0, c1, c2) in closed form, vectorized over z.

    For d = 2 the angular integrals reduce to 1/w with w = sqrt(a^2 + b^2)
    (principal branch; a = 1 + z has positive real part so no branch is
    crossed); for d = 3 they reduce to logarithms.  Near b = 0 the closed
    forms cancel catastrophically, so a short series in (b/a)^2 takes over.

    Args:
        z: complex scalar or array with Re z > -1.
        kmag: |k| >= 0.
        d: 2 or 3.
    """
    if d not in (2, 3):
        raise ValueError("axis coefficients implemented for d in (2, 3)")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    a = 1.0 + z
    if np.any(a.real <= 0):
        raise ValueError("need Re z > -1")
    b = float(kmag)
    if b < 0:
        raise ValueError("kmag must be nonnegative")
    if b == 0.0:
        c0 = 1.0 / a
        c1 = np.zeros_like(a)
        c2 = 1.0 / (d * a)
    elif d == 2:
        # the closed form loses ~|a/b|^2 eps to cancellation, the series
        # truncates at O((b/a)^10); they cross near b/|a| = 3e-2
        small = np.abs(a) * 3e-2 > b
        asafe = np.where(small, a, 1.0)
        t = (b / asafe) ** 2
        w = np.sqrt(a * a + b * b)
        c0 = np.where(small,
                      (1.0 - t * (0.5 - t * (0.375 - t * (0.3125 - t * 0.2734375))))
                      / asafe, 1.0 / w)
        one_minus_ac0 = np.where(
            small, t * (0.5 - t * (0.375 - t * (0.3125 - t * 0.2734375))),
            1.0 - a * c0)
        c1 = one_minus_ac0 / (1j * b)
        c2 = (a / b**2) * one_minus_ac0
    else:
        small = np.abs(a) * 3e-2 > b
        asafe = np.where(small, a, 1.0)
        s = (b / asafe) ** 2
        ib = 1j * b
        I0 = np.log((a + ib) / (a - ib)) / ib
        even = 1.0 / 3.0 - s * (0.2 - s * (1.0 / 7.0 - s * (1.0 / 9.0 - s / 11.0)))
        c0 = np.where(small,
                      (1.0 - s * (1.0 / 3.0 - s * (0.2 - s * (1.0 / 7.0 - s / 9.0))))
                      / asafe, I0 / 2.0)
        c1 = np.where(small, -(ib / asafe**2) * even,
                      (2.0 - a * I0) / (2.0 * ib))
        c2 = np.where(small, even / asafe,
                      -(a / ib) * (2.0 - a * I0) / (2.0 * ib))
    if scalar:
        return complex(c0[0]), complex(c1[0]), complex(c2[0])
    return c0, c1, c2


# ---------------------------------------------------------------------------
# dispersion coefficients (a, b, bbar, A, h) at general (z, k, mu, J)
# ---------------------------------------------------------------------------

def _fourier_columns_2d(J: np.ndarray, n: int | None = None):
    """Integrand columns on the uniform circle grid theta_i = 2 pi i / n.

    Returns cols with rows (M, w1 M, w2 M, G1, G2, w1 G1, w1 G2, w2 G1,
    w2 G2) where G = grad_J M at the equilibrium.
    """
    L = float(np.linalg.norm(J))
    if n is None:
        n = 256
        while n < 8 * L + 64:
            n *= 2
    theta = 2.0 * np.pi * np.arange(n) / n
    w1 = np.cos(theta)
    w2 = np.sin(theta)
    M = von_mises(J, SphereGrid(2, np.stack([w1, w2], axis=1),
                                np.full(n, 2.0 * np.pi / n), theta))
    e1, e2 = float(order_parameter(L, 2)) * J / L if L > 0 else (0.0, 0.0)
    G1 = (w1 - e1) * M
    G2 = (w2 - e2) * M
    return np.stack([M, w1 * M, w2 * M, G1, G2,
                     w1 * G1, w1 * G2, w2 * G1, w2 * G2])


@lru_cache(maxsize=8)
def _column_spectrum(J: tuple) -> np.ndarray:
    """Read-only discrete Fourier coefficients fft(cols) / n of the
    equilibrium columns ``_fourier_columns_2d``.

    They depend on the equilibrium flux only, while a sweep or the abscissa
    search asks for them once per (z batch, k): one ``spectral_abscissa``
    makes ~3,000 such requests.
    """
    cols = _fourier_columns_2d(np.array(J, dtype=float))
    ghat = np.fft.fft(cols, axis=1) / cols.shape[1]
    ghat.flags.writeable = False
    return ghat


def _kernel_sums(ghat: np.ndarray, zs: np.ndarray, b: float, shift: float = 0.0,
                 tail: float = 1e-18) -> np.ndarray:
    """Int g(theta) / (a + i b cos(theta - shift)) dtheta for each row g.

    ghat holds the discrete Fourier coefficients fft(g) / n of nodal values
    of g on the uniform n-point circle grid (g possibly complex); zs is the
    batch of z values (a = 1 + z).  Substituting
    phi = theta - shift rotates g's Fourier coefficients by e^{im shift},
    after which the kernel contributes the geometric factors
    S_m = rho^|m| / w with w = sqrt(a^2 + b^2), rho = -i b / (w + a):

        Int g K = 2 pi [ g_0 S_0 + sum_{m>=1} (g_m e^{im shift}
                                               + g_{-m} e^{-im shift}) S_m ].

    Returns shape (nz, ncols).  Exact up to the trigonometric interpolation
    of g, i.e. machine precision for every b once g is resolved.
    """
    ncols, n = ghat.shape
    a = 1.0 + zs
    if b == 0.0:
        return 2.0 * np.pi * np.outer(1.0 / a, ghat[:, 0])
    half = n // 2
    m = np.arange(1, half)
    phase = np.exp(1j * m * shift)
    sym = np.empty((ncols, half + 1), dtype=complex)
    sym[:, 0] = ghat[:, 0]
    sym[:, 1:half] = ghat[:, 1:half] * phase + ghat[:, n - 1:n - half:-1] / phase
    # Nyquist coefficient split symmetrically between e^{+-i(n/2)theta}
    sym[:, half] = ghat[:, half] * math.cos(half * shift)
    # meant to drop the tail where every column is negligible; FFT round-off
    # (~1e-17 of the largest coefficient) stays above tail * scale, so in
    # practice mmax is n/2 and nothing is dropped
    mags = np.abs(sym).max(axis=0)
    scale = max(float(mags.max()), 1e-300)
    keep = np.nonzero(mags > tail * scale)[0]
    mmax = int(keep[-1]) if keep.size else 0
    sym = sym[:, :mmax + 1]
    w = np.sqrt(a * a + b * b)
    rho = -1j * b / (w + a)          # cancellation-free; |rho| < 1 for Re a > 0
    # (mmax+1, nz): each power of rho is one contiguous row
    powers = np.empty((mmax + 1, zs.size), dtype=complex)
    powers[0] = 1.0 / w
    for j in range(1, mmax + 1):
        powers[j] = powers[j - 1] * rho
    return 2.0 * np.pi * powers.T @ sym.T


def _batch_2d(zs: np.ndarray, k, mu: float, J: np.ndarray) -> dict:
    """Coefficient batch for d = 2 via the exact kernel expansion."""
    k = np.asarray(k, dtype=float)
    b = float(np.linalg.norm(k))
    alpha = math.atan2(k[1], k[0]) if b > 0 else 0.0
    T = _kernel_sums(_column_spectrum(tuple(map(float, J))), zs, b, shift=alpha)
    return _assemble(zs, k, mu, T[:, 0], T[:, 1:3], T[:, 3:5],
                     T[:, 5:9].reshape(-1, 2, 2))


def _batch_grid(zs: np.ndarray, k, mu: float, J: np.ndarray,
                grid: SphereGrid, chunk: int = 128) -> dict:
    """Coefficient batch by direct grid quadrature (the d = 3 path)."""
    k = np.asarray(k, dtype=float)
    d = grid.d
    M = von_mises(J, grid)
    G = von_mises_gradient(J, grid)
    cols = np.empty((1 + 2 * d + d * d, grid.n))
    cols[0] = M
    for i in range(d):
        cols[1 + i] = grid.nodes[:, i] * M
    for i in range(d):
        cols[1 + d + i] = G[i]
    for i in range(d):
        for j in range(d):
            cols[1 + 2 * d + d * i + j] = grid.nodes[:, i] * G[j]
    wcols = cols * grid.weights
    komega = grid.nodes @ k
    T = np.empty((zs.size, wcols.shape[0]), dtype=complex)
    for start in range(0, zs.size, chunk):
        zz = zs[start:start + chunk]
        R = 1.0 / (1.0 + zz[:, None] + 1j * komega[None, :])
        T[start:start + chunk] = R @ wcols.T
    a = T[:, 0]
    bvec = T[:, 1:1 + d]
    bbar = T[:, 1 + d:1 + 2 * d]
    A = T[:, 1 + 2 * d:].reshape(-1, d, d)
    return _assemble(zs, k, mu, a, bvec, bbar, A)


def _assemble(zs, k, mu, a, bvec, bbar, A) -> dict:
    """Eliminate J~ and package (h, det, sigma_min) alongside coefficients."""
    d = bvec.shape[1]
    eye = np.eye(d)
    Mop = eye[None, :, :] - mu * A
    if d == 2:
        det = Mop[:, 0, 0] * Mop[:, 1, 1] - Mop[:, 0, 1] * Mop[:, 1, 0]
        # X = (Id - mu A)^{-1} b via the 2x2 adjugate
        X = np.empty_like(bvec)
        X[:, 0] = (Mop[:, 1, 1] * bvec[:, 0] - Mop[:, 0, 1] * bvec[:, 1]) / det
        X[:, 1] = (-Mop[:, 1, 0] * bvec[:, 0] + Mop[:, 0, 0] * bvec[:, 1]) / det
        frob2 = np.abs(Mop).reshape(-1, 4) ** 2
        Tr = frob2.sum(axis=1)
        D = np.abs(det) ** 2
        disc = np.sqrt(np.maximum(Tr * Tr - 4.0 * D, 0.0))
        sigma_min = np.sqrt(2.0 * D / (Tr + disc))
    else:
        det = np.linalg.det(Mop)
        X = np.linalg.solve(Mop, bvec[..., None])[..., 0]
        sigma_min = np.linalg.svd(Mop, compute_uv=False)[:, -1]
    h = 1.0 - a - mu * np.einsum("ij,ij->i", bbar, X)
    return {"z": zs, "k": np.asarray(k, dtype=float), "mu": mu,
            "a": a, "b": bvec, "b_bar": bbar, "A": A,
            "h": h, "det": det, "sigma_min": sigma_min}


def _coefficient_batch(zs, k, mu: float, J=None, grid: SphereGrid | None = None,
                       d: int | None = None) -> dict:
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.real <= -1.0):
        raise ValueError("need Re z > -1")
    k = np.asarray(k, dtype=float)
    if d is None:
        d = grid.d if grid is not None else k.size
    if k.shape != (d,):
        raise ValueError(f"wavenumber must have shape ({d},)")
    J = _check_equilibrium(mu, J, d)
    if d == 2 and grid is None:
        return _batch_2d(zs, k, mu, J)
    if grid is None:
        n = max(auto_node_count(float(np.linalg.norm(J))),
                int(math.ceil(15.0 * np.linalg.norm(k))))
        grid = build_sphere_grid(d, n)
    return _batch_grid(zs, k, mu, J, grid)


@dataclass(frozen=True)
class DispersionCoefficients:
    """Fourier-Laplace coefficients of the moment system at one (z, k).

    h is the scalar dispersion function; sigma_min the smallest singular
    value of Id - mu A (positive iff the flux block is invertible).
    """

    z: complex
    k: np.ndarray
    mu: float
    a: complex
    b: np.ndarray
    b_bar: np.ndarray
    A: np.ndarray
    h: complex
    sigma_min: float


def dispersion_coefficients(z: complex, k, mu: float, J=None,
                            grid: SphereGrid | None = None) -> DispersionCoefficients:
    """Evaluate (a, b, bbar, A, h) at a single (z, k).

    Raises SingularOperatorError when Id - mu A is numerically singular
    (the elimination of J~ is then meaningless).
    """
    out = _coefficient_batch(np.array([z]), k, mu, J, grid)
    sigma = float(out["sigma_min"][0])
    if not sigma > 1e-12:
        raise SingularOperatorError(
            f"Id - mu A singular at z={z}, k={np.asarray(k)}: "
            f"sigma_min={sigma:.3e}", sigma_min=sigma, z=complex(z),
            k=np.asarray(k, dtype=float))
    return DispersionCoefficients(
        z=complex(z), k=np.asarray(k, dtype=float), mu=float(mu),
        a=complex(out["a"][0]), b=out["b"][0].copy(), b_bar=out["b_bar"][0].copy(),
        A=out["A"][0].copy(), h=complex(out["h"][0]), sigma_min=sigma)


# ---------------------------------------------------------------------------
# explicit bound budget for the axis coefficients
# ---------------------------------------------------------------------------

def phi2(u) -> float:
    """Damping profile 1 - (1 + u^2)^{-1/2}; increasing, in [0, 1)."""
    u = np.asarray(u, dtype=float)
    out = 1.0 - 1.0 / np.sqrt(1.0 + u * u)
    return float(out) if out.ndim == 0 else out


def alpha2(d: int, eps: float, n: int = 512) -> float:
    """Mass of omega_1^2 M_0 on {|omega_1| >= eps}, scaled by d.

    alpha2(d, 0) = 1/2 (the full second moment times d is 1) and
    alpha2(d, 1) = 0; strictly decreasing in eps.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if d < 2:
        raise ValueError("d must be >= 2")
    # the cap {omega_1 >= eps} is the polar range [0, arccos eps]
    tcap = math.acos(eps)
    x, w = gauss_legendre(n)
    t = 0.5 * tcap * (x + 1.0)
    num = 0.5 * tcap * np.sum(w * np.cos(t) ** 2 * np.sin(t) ** (d - 2))
    t2 = 0.5 * math.pi * (x + 1.0)
    den = 0.5 * math.pi * np.sum(w * np.sin(t2) ** (d - 2))
    return float(d * num / den)


@lru_cache(maxsize=None)
def default_eps(d: int) -> float:
    """The cap parameter solving alpha2(d, eps) = 3/8 (the budget split that
    yields the uniform 1/5 lower bound on Re h)."""
    return float(optimize.brentq(lambda e: alpha2(d, e) - 0.375,
                                 1e-9, 1.0 - 1e-9, xtol=1e-14))


def _cd(d: int) -> float:
    """|S^{d-2}| / |S^{d-1}| (the sup of the first-coordinate marginal)."""
    return math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))


def phi0(gamma: float, d: int) -> float:
    """Uniform gap in the c0 bound Re c0 <= 1 - phi0(|k|, d).

    For d >= 3 the marginal of M_0 is bounded, giving
    phi0 = max(0, 1 - c_d pi / gamma); on the circle the marginal has
    endpoint singularities and splitting the angle at distance 1/sqrt(|k|)
    from {k.omega = 0} gives phi0 = max(0, 1 - (2/pi + 1/2)/sqrt(gamma)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if d == 2:
        return max(0.0, 1.0 - (2.0 / math.pi + 0.5) / math.sqrt(gamma))
    return max(0.0, 1.0 - _cd(d) * math.pi / gamma)


def c0_bound(kmag: float, d: int) -> float:
    """Upper bound for Re c0 at |k| = kmag."""
    return 1.0 - phi0(kmag, d)


def c1_bound(kmag: float, d: int) -> float:
    """Upper bound for |c1|: 1/(2 sqrt d) + 1/|k|."""
    if kmag <= 0:
        raise ValueError("kmag must be positive")
    return 1.0 / (2.0 * math.sqrt(d)) + 1.0 / kmag


def c2_bound(kmag: float, d: int, eps: float | None = None) -> float:
    """Upper bound for |c2|: (1 - alpha2(d, eps) phi2(eps |k|)) / d."""
    if kmag <= 0:
        raise ValueError("kmag must be positive")
    if eps is None:
        eps = default_eps(d)
    return (1.0 - alpha2(d, eps) * phi2(eps * kmag)) / d


@dataclass(frozen=True)
class BoundBudget:
    """The three axis-coefficient bounds evaluated at the worst case |k| = gamma.

    All three hold for every Re z >= 0 and every |k| >= gamma, and they
    degrade monotonically as |k| decreases, so the values stored here are the
    uniform budget over the whole lattice.
    """

    gamma: float
    d: int
    eps: float
    alpha2: float
    phi0: float
    phi2: float
    re_c0_max: float
    abs_c1_max: float
    abs_c2_max: float


def bound_budget(gamma: float, d: int, eps: float | None = None) -> BoundBudget:
    """Assemble the explicit bound budget at minimal wavenumber gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if eps is None:
        eps = default_eps(d)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    a2 = alpha2(d, eps)
    return BoundBudget(gamma=float(gamma), d=d, eps=float(eps), alpha2=a2,
                       phi0=phi0(gamma, d), phi2=phi2(eps * gamma),
                       re_c0_max=c0_bound(gamma, d),
                       abs_c1_max=c1_bound(gamma, d),
                       abs_c2_max=c2_bound(gamma, d, eps))


# ---------------------------------------------------------------------------
# sweeps over the (z, k) region
# ---------------------------------------------------------------------------

def lattice_wavenumbers(gamma: float, k_max: float, half: bool = True) -> np.ndarray:
    """Nonzero wavenumbers k = gamma m, m integer, 0 < |k| <= k_max.

    With half=True only one of each +-k pair is kept: the coefficients at -k
    are the complex conjugates of those at conj(z), so any sweep whose z grid
    is symmetric about the real axis loses nothing.
    """
    if gamma <= 0 or k_max <= 0:
        raise ValueError("gamma and k_max must be positive")
    mmax = int(math.floor(k_max / gamma))
    out = []
    for m2 in range(-mmax, mmax + 1):
        for m1 in range(-mmax, mmax + 1):
            if m1 == 0 and m2 == 0:
                continue
            if half and (m2 < 0 or (m2 == 0 and m1 < 0)):
                continue
            if math.hypot(m1, m2) * gamma <= k_max + 1e-9:
                out.append((gamma * m1, gamma * m2))
    return np.array(out, dtype=float)


def default_z_grid(delta: float = DEFAULT_DELTA, re_max: float = 2.0,
                   im_max: float = 50.0, step: float = 0.25) -> np.ndarray:
    """Rectangle Re z in [-delta, re_max], |Im z| <= im_max, spacing step."""
    re = np.arange(-delta, re_max + 1e-12, step)
    if re[-1] < re_max - 1e-12:
        re = np.append(re, re_max)
    im = np.arange(-im_max, im_max + 1e-12, step)
    if im[-1] < im_max - 1e-12:
        im = np.append(im, im_max)
    return (re[:, None] + 1j * im[None, :]).ravel()


@dataclass
class SweepResult:
    """Re h and sigma_min over a (z, k) product sweep."""

    mu: float
    gamma: float
    d: int
    z_values: np.ndarray          # (nz,)
    k_vectors: np.ndarray         # (nk, d)
    re_h: np.ndarray              # (nk, nz)
    sigma_min: np.ndarray         # (nk, nz)
    min_re_h: float
    min_sigma: float
    max_inv_norm: float
    argmin_h: tuple
    argmin_sigma: tuple


def dispersion_sweep(mu: float, gamma: float, d: int = 2, *, J=None,
                     z_values=None, k_vectors=None, k_max: float | None = None,
                     delta: float = DEFAULT_DELTA,
                     grid: SphereGrid | None = None) -> SweepResult:
    """Evaluate h and sigma_min(Id - mu A) over the standard region.

    Defaults reproduce the certification sweep: z on the step-0.25 rectangle
    [-delta, 2] x [-50i, 50i], k on the half lattice 0 < |k| <= 5 gamma.
    """
    if z_values is None:
        z_values = default_z_grid(delta=delta)
    z_values = np.asarray(z_values, dtype=complex)
    if k_vectors is None:
        k_vectors = lattice_wavenumbers(gamma, 5.0 * gamma if k_max is None else k_max)
    k_vectors = np.asarray(k_vectors, dtype=float)
    nk = k_vectors.shape[0]
    re_h = np.empty((nk, z_values.size))
    sig = np.empty((nk, z_values.size))
    for i in range(nk):
        out = _coefficient_batch(z_values, k_vectors[i], mu, J, grid, d=d)
        re_h[i] = out["h"].real
        sig[i] = out["sigma_min"]
    ih = np.unravel_index(np.argmin(re_h), re_h.shape)
    isg = np.unravel_index(np.argmin(sig), sig.shape)
    return SweepResult(
        mu=float(mu), gamma=float(gamma), d=d, z_values=z_values,
        k_vectors=k_vectors, re_h=re_h, sigma_min=sig,
        min_re_h=float(re_h[ih]), min_sigma=float(sig[isg]),
        max_inv_norm=float(1.0 / sig[isg]),
        argmin_h=(complex(z_values[ih[1]]), k_vectors[ih[0]].copy()),
        argmin_sigma=(complex(z_values[isg[1]]), k_vectors[isg[0]].copy()))


@dataclass(frozen=True)
class InvertibilityReport:
    """Smallest singular value of Id - mu A over a sweep."""

    mu: float
    d: int
    n_points: int
    min_singular: float
    max_inv_norm: float
    argmin: tuple
    singular_points: tuple

    @property
    def invertible(self) -> bool:
        return self.min_singular > 0.0 and not self.singular_points


def invertibility_sweep(mu: float, J, z_values, k_vectors,
                        grid: SphereGrid | None = None,
                        singular_tol: float = 1e-10) -> InvertibilityReport:
    """Check Id - mu A over a (z, k) product set.

    Points with sigma_min <= singular_tol are collected as singular.
    """
    z_values = np.asarray(z_values, dtype=complex)
    k_vectors = np.atleast_2d(np.asarray(k_vectors, dtype=float))
    d = k_vectors.shape[1]
    best = math.inf
    arg = None
    bad = []
    for k in k_vectors:
        out = _coefficient_batch(z_values, k, mu, J, grid, d=d)
        sig = out["sigma_min"]
        j = int(np.argmin(sig))
        if sig[j] < best:
            best = float(sig[j])
            arg = (complex(z_values[j]), k.copy())
        for jj in np.nonzero(sig <= singular_tol)[0]:
            bad.append((complex(z_values[jj]), k.copy()))
    return InvertibilityReport(mu=float(mu), d=d,
                               n_points=int(z_values.size * k_vectors.shape[0]),
                               min_singular=best, max_inv_norm=1.0 / best,
                               argmin=arg, singular_points=tuple(bad))


# ---------------------------------------------------------------------------
# Fourier-Laplace solve at a single mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FLSolution:
    """Transformed moments and closure at one (z, k)."""

    z: complex
    k: np.ndarray
    rho_tilde: complex
    J_tilde: np.ndarray
    f_tilde: np.ndarray
    residual: float


def fl_solve(z: complex, k, mu: float, J=None, f0_hat=None,
             grid: SphereGrid | None = None) -> FLSolution:
    """Solve the transformed moment system for data f0_hat on the grid.

    Args:
        z: Laplace variable, Re z > -1, away from dispersion roots.
        k: wavenumber vector.
        mu, J: background equilibrium.
        f0_hat: complex nodal values of the transformed initial datum.
        grid: sphere grid carrying f0_hat; defaults to a uniform circle grid
            matching len(f0_hat) for d = 2.

    Raises SingularSymbolError when h(z, k) = 0 (z is a dispersion root) and
    SingularOperatorError when Id - mu A is singular.

    The returned moments are exact (independent of the grid resolution for
    d = 2); the nodal values f_tilde are pointwise exact as well, but
    quadrature of f_tilde on the same grid converges only like the resolvent
    tail |k|/( |k| + 1 + Re z ) to the power n/2, so recovering moments from
    f_tilde at large |k| needs a finer grid than representing the datum does.
    """
    k = np.asarray(k, dtype=float)
    d = k.size
    f0_hat = np.asarray(f0_hat, dtype=complex)
    if grid is None:
        if d != 2:
            raise ValueError("an explicit grid is required for d != 2")
        grid = build_sphere_grid(2, f0_hat.size)
    if f0_hat.shape != (grid.n,):
        raise ValueError("f0_hat must be nodal data on the grid")
    J = _check_equilibrium(mu, J, d)

    zs = np.array([z], dtype=complex)
    if d == 2:
        if grid.angles is None:
            raise ValueError("d = 2 requires a uniform circle grid")
        out = _batch_2d(zs, k, mu, J)
        b = float(np.linalg.norm(k))
        alpha = math.atan2(k[1], k[0]) if b > 0 else 0.0
        rcols = np.stack([f0_hat, grid.nodes[:, 0] * f0_hat,
                          grid.nodes[:, 1] * f0_hat])
        # nodal data enters through its discrete Fourier coefficients, i.e.
        # the exact integral of its trigonometric interpolant
        rhat = np.fft.fft(rcols, axis=1) / grid.n
        R = _kernel_sums(rhat, zs, b, shift=alpha)[0]
        r_rho, r_J = complex(R[0]), np.array(R[1:3])
    else:
        out = _batch_grid(zs, k, mu, J, grid)
        den_nodes = 1.0 + z + 1j * (grid.nodes @ k)
        wf = grid.weights * f0_hat / den_nodes
        r_rho = complex(wf.sum())
        r_J = wf @ grid.nodes
    a = complex(out["a"][0])
    bvec = out["b"][0]
    bbar = out["b_bar"][0]
    A = out["A"][0]
    h = complex(out["h"][0])
    sigma = float(out["sigma_min"][0])
    if not sigma > 1e-12:
        raise SingularOperatorError(
            f"Id - mu A singular: sigma_min={sigma:.3e}",
            sigma_min=sigma, z=complex(z), k=k)
    if abs(h) < 1e-10:
        raise SingularSymbolError(
            f"h(z, k) = {h:.3e}: z is a dispersion root", z=complex(z), k=k)

    Mop = np.eye(d) - mu * A
    rho_t = complex((r_rho + mu * bbar @ np.linalg.solve(Mop, r_J)) / h)
    J_t = np.linalg.solve(Mop, bvec * rho_t + r_J)

    den_nodes = 1.0 + z + 1j * (grid.nodes @ k)
    Mvals = von_mises(J, grid)
    G = von_mises_gradient(J, grid)
    f_t = (rho_t * Mvals + mu * (J_t @ G) + f0_hat) / den_nodes

    res_J = np.linalg.norm(J_t - (bvec * rho_t + mu * A @ J_t + r_J))
    res_rho = abs(rho_t - (a * rho_t + mu * bbar @ J_t + r_rho))
    scale = max(1.0, abs(rho_t), float(np.linalg.norm(J_t)))
    return FLSolution(z=complex(z), k=k, rho_tilde=rho_t, J_tilde=J_t,
                      f_tilde=f_t, residual=float(max(res_J, res_rho) / scale))


# ---------------------------------------------------------------------------
# spectral abscissa prediction
# ---------------------------------------------------------------------------

def _newton_roots(fun, seeds: np.ndarray, *, kmag: float, delta: float,
                  tol: float = 1e-11, maxiter: int = 40) -> np.ndarray:
    """Damped Newton iteration from a batch of seeds; deduplicated roots."""
    z = seeds.astype(complex)
    re_lo, re_hi = -0.9, 2.5
    im_hi = kmag + 5.0
    for _ in range(maxiter):
        inb = (z.real > re_lo) & (z.real < re_hi) & (np.abs(z.imag) < im_hi)
        z = z[inb]
        if z.size == 0:
            break
        f = fun(z)
        done = np.abs(f) <= tol
        dz = 1e-6 * (1.0 + np.abs(z))
        fp = (fun(z + dz) - fun(z - dz)) / (2.0 * dz)
        fp = np.where(np.abs(fp) < 1e-300, 1e-300, fp)
        step = f / fp
        mag = np.abs(step)
        step = np.where(mag > 0.5, step * (0.5 / np.maximum(mag, 1e-300)), step)
        z = np.where(done, z, z - step)
        if done.all():
            break
    z = z[(z.real > re_lo) & (z.real < re_hi) & (np.abs(z.imag) < im_hi)]
    f = fun(z) if z.size else np.zeros(0, dtype=complex)
    good = z[(np.abs(f) <= tol) & (z.real >= -delta - 1e-9)]
    if good.size == 0:
        return good
    roots: list[complex] = []
    for r in sorted(good, key=lambda c: (c.real, c.imag)):
        if all(abs(r - s) > 1e-6 for s in roots):
            roots.append(complex(r))
    return np.array(roots)


def abscissa_candidates(mu: float, gamma: float, d: int = 2,
                        k_max: float | None = None, *,
                        delta: float = DEFAULT_DELTA,
                        grid: SphereGrid | None = None) -> dict:
    """Decay-rate candidates of the linearized dynamics.

    k = 0: the nonzero eigenvalues of the flux relaxation matrix (for mu > d
    the zero eigenvalues along J-perp are conserved directions, not decay
    rates) and the -1 relaxation of the moment-free remainder.  k != 0: real
    parts of the roots of h and of det(Id - mu A) found right of -delta by
    Newton iteration from a coarse seed rectangle.
    """
    if k_max is None:
        k_max = 3.0 * gamma
    cands: list[float] = [-1.0]
    if mu > d:
        cands.append(lambda_J(mu, d))
        J = solve_L(mu, d) * np.eye(d)[0]
    else:
        cands.append(mu / d - 1.0)
        J = np.zeros(d)
    roots: list[complex] = []
    for k in lattice_wavenumbers(gamma, k_max):
        kmag = float(np.linalg.norm(k))
        re = np.arange(-delta, 0.5 + 1e-9, 0.25)
        im = np.arange(-(kmag + 2.0), kmag + 2.0 + 1e-9, 0.25)
        seeds = (re[:, None] + 1j * im[None, :]).ravel()
        for key in ("h", "det"):
            fun = lambda zz, key=key: _coefficient_batch(zz, k, mu, J, grid, d=d)[key]
            found = _newton_roots(fun, seeds, kmag=kmag, delta=delta)
            roots.extend(complex(r) for r in found)
    cands.extend(r.real for r in roots)
    return {"mu": float(mu), "gamma": float(gamma), "d": d, "k_max": float(k_max),
            "delta": float(delta), "k0_rates": cands[:2], "symbol_roots": roots,
            "candidates": cands, "rate": -max(cands)}


def spectral_abscissa(mu: float, gamma: float, d: int = 2,
                      k_max: float | None = None, *,
                      delta: float = DEFAULT_DELTA,
                      grid: SphereGrid | None = None) -> float:
    """Predicted slowest decay rate -max Re of the candidate spectrum."""
    return float(abscissa_candidates(mu, gamma, d, k_max, delta=delta,
                                     grid=grid)["rate"])
