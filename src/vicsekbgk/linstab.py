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

The dispersion coefficients are computed for d = 2, the torus of the solver
and of every sweep.  Each runs through one path, ``_chunks``: the
equilibrium columns (M, omega_i M, grad_J M, omega_i grad_J M) are built by
one function on the circle and integrated against the kernel exactly: the
kernel has the angular Fourier series sum_m S_m e^{im phi} with
S_m = rho^|m| / w, w = sqrt((1+z)^2 + |k|^2), rho = -i|k|/(w + 1 + z),
|rho| < 1, and the von Mises factors have superexponentially decaying
Fourier coefficients, so the integrals are short geometric contractions
instead of quadratures whose node count would have to grow like |k|.  z is
taken in chunks of a ~2 MB table of powers of rho, one per chunk and |k|.
The axis coefficients and the bound budget also take d = 3.

The spectral abscissa (d = 2) counts before it locates.  Multiplying h by
det gives the division-free D = (1 - a) det - mu bbar^T adj(Id - mu A) b,
whose zeros together with those of det are the zeros of h and det.  Both
are analytic in Re z > -1 and tend to 1 like the coefficients,
O(1/|1 + z|), so bounds on the coefficients give a rectangle right of
-delta outside which neither vanishes.  The argument principle counts the
zeros inside, on a contour refined until a derivative bound certifies each
step; Newton then locates exactly that many (Delves & Lyness, Math. Comp.
21 (1967) 543; Kravanja & Van Barel, LNM 1727 (2000)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equilibria import _brentq, order_parameter, project_to_manifold, solve_L
from .sphere import SphereGrid, auto_node_count, build_sphere_grid, \
    von_mises, von_mises_gradient

__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_KAPPA",
    "DEFAULT_GAMMA_MIN",
    "SingularOperatorError",
    "SingularSymbolError",
    "flux_relaxation_matrix",
    "lambda_J",
    "axis_coefficients",
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

    For d = 2, with a = 1 + z, b = |k| and w = sqrt((a + ib)(a - ib))
    (principal branch; Re w > 0 as Re a > 0), they are c0 = 1/w,
    c1 = -ib / (w (w + a)) and c2 = a / (w (w + a)), by
    1 - a/w = b^2 / (w (w + a)): nothing cancels at any b >= 0.  For d = 3
    they reduce to logarithms, which cancel catastrophically near b = 0, so
    there a short series in (b/a)^2 takes over.

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
    if d == 2:
        # a^2 + b^2 would cancel where a is close to +-ib; the product does not
        w = np.sqrt((a + 1j * b) * (a - 1j * b))
        c0 = 1.0 / w
        q = c0 / (w + a)
        c1 = -1j * b * q
        c2 = a * q
    elif b == 0.0:
        c0 = 1.0 / a
        c1 = np.zeros_like(a)
        c2 = 1.0 / (3.0 * a)
    else:
        # the closed form loses ~|a/b|^2 eps to cancellation, the series
        # truncates at O((b/a)^10); they cross near b/|a| = 3e-2
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

def _fourier_columns_2d(J: np.ndarray) -> np.ndarray:
    """The integrands of the coefficients on the uniform circle grid of
    n = 2^j >= 256 nodes, with n >= 8|J| + 64 so that M_J is resolved.

    Returns the (9, n) rows (M, w_i M, G_i, w_i G_j), i-major, where M = M_J
    and G = grad_J M_J at the equilibrium flux J.
    """
    n = 256
    while n < 8 * float(np.linalg.norm(J)) + 64:
        n *= 2
    grid = build_sphere_grid(2, n)
    M = von_mises(J, grid)
    G = von_mises_gradient(J, grid)
    w = grid.nodes.T
    return np.concatenate([M[None], w * M, G, (w[:, None] * G[None]).reshape(-1, n)])


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


def _symmetrized(ghat: np.ndarray, shift: float) -> np.ndarray:
    """The right factor of ``_chunks``' GEMM: g_0, g_m e^{im shift} +
    g_{-m} e^{-im shift}, and g_{n/2} split between e^{+-i(n/2)theta}."""
    ncols, n = ghat.shape
    half = n // 2
    phase = np.exp(1j * np.arange(1, half) * shift)
    sym = np.empty((ncols, half + 1), dtype=complex)
    sym[:, 0] = ghat[:, 0]
    sym[:, 1:half] = ghat[:, 1:half] * phase + ghat[:, n - 1:n - half:-1] / phase
    sym[:, half] = ghat[:, half] * math.cos(half * shift)
    return sym.T


def _power_table(zs: np.ndarray, b: float, half: int) -> np.ndarray:
    """The left factor of ``_chunks``' GEMM, transposed: row m is 2 pi S_m,
    each power of rho one contiguous row, formed in place."""
    a = 1.0 + zs
    w = np.sqrt(a * a + b * b)
    rho = -1j * b / (w + a)          # cancellation-free; |rho| < 1 for Re a > 0
    powers = np.empty((half + 1, zs.size), dtype=complex)
    powers[0] = 1.0 / w
    for j in range(1, half + 1):
        np.multiply(powers[j - 1], rho, out=powers[j])
    powers *= 2.0 * np.pi            # in place, so a call holds one table
    return powers


# complex entries of the power table one z chunk builds (~2 MB)
_TABLE = 1 << 17


def _chunks(zs: np.ndarray, k: np.ndarray, ghat: np.ndarray):
    """For each row k[i], yield (i, z slice, T) with T[j, c] the integral
    Int g_c(theta) / (1 + z_j + i k[i].omega) dtheta, z_j in the slice.

    ghat holds the discrete Fourier coefficients fft(g) / n of nodal values
    of g (possibly complex) on the uniform n-point circle grid.  With a = 1 + z, b = |k| and
    shift the angle of k, substituting phi = theta - shift rotates g's
    Fourier coefficients by e^{im shift}, after which the kernel contributes
    S_m = rho^|m| / w, w = sqrt(a^2 + b^2), rho = -i b / (w + a):

        Int g K = 2 pi [ g_0 S_0 + sum_{m>=1} (g_m e^{im shift}
                                               + g_{-m} e^{-im shift}) S_m ],

    a GEMM of the powers (``_power_table``, |k| only) with the symmetrized
    g (``_symmetrized``); exact up to the trigonometric interpolation of g.
    z comes in chunks of at most _TABLE table entries, outermost, and each
    chunk builds one power table per distinct |k|, which the k of that
    length share."""
    half = ghat.shape[1] // 2
    lengths = {}
    for i, kv in enumerate(k):
        lengths.setdefault(float(np.linalg.norm(kv)), []).append(i)
    chunk = max(1, _TABLE // (half + 1))
    for start in range(0, zs.size, chunk):
        part = slice(start, start + chunk)
        for kmag, members in lengths.items():
            powers = _power_table(zs[part], kmag, half).T
            for i in members:
                yield i, part, powers @ _symmetrized(ghat, math.atan2(k[i, 1], k[i, 0]))


def _integrals(zs: np.ndarray, k: np.ndarray, ghat: np.ndarray) -> np.ndarray:
    """``_chunks`` at a batch of z for one k: the rows of ghat integrated
    against the kernel, one row per z."""
    T = np.empty((zs.size, ghat.shape[0]), dtype=complex)
    for _, part, chunk in _chunks(zs, k[None], ghat):
        T[part] = chunk
    return T


def _split(T: np.ndarray):
    """(a, b, bbar, A) from the integrated columns T (rows of
    ``_fourier_columns_2d``, one row of T per z)."""
    return T[:, 0], T[:, 1:3], T[:, 3:5], T[:, 5:].reshape(-1, 2, 2)


def _det_adjugate_2d(Mop: np.ndarray, bvec: np.ndarray):
    """det(Mop) and adj(Mop) b for a batch of 2 x 2 matrices."""
    det = Mop[:, 0, 0] * Mop[:, 1, 1] - Mop[:, 0, 1] * Mop[:, 1, 0]
    adjb = np.empty_like(bvec)
    adjb[:, 0] = Mop[:, 1, 1] * bvec[:, 0] - Mop[:, 0, 1] * bvec[:, 1]
    adjb[:, 1] = -Mop[:, 1, 0] * bvec[:, 0] + Mop[:, 0, 0] * bvec[:, 1]
    return det, adjb


def _assemble(T: np.ndarray, mu: float) -> dict:
    """Split the integrated columns T into (a, b, bbar, A), eliminate J~ and
    add (h, det, sigma_min)."""
    a, bvec, bbar, A = _split(T)
    Mop = np.eye(2)[None, :, :] - mu * A
    # X = (Id - mu A)^{-1} b via the 2x2 adjugate
    det, X = _det_adjugate_2d(Mop, bvec)
    X /= det[:, None]
    frob2 = np.abs(Mop).reshape(-1, 4) ** 2
    Tr = frob2.sum(axis=1)
    D = np.abs(det) ** 2
    disc = np.sqrt(np.maximum(Tr * Tr - 4.0 * D, 0.0))
    sigma_min = np.sqrt(2.0 * D / (Tr + disc))
    h = 1.0 - a - mu * np.einsum("ij,ij->i", bbar, X)
    return {"a": a, "b": bvec, "b_bar": bbar, "A": A,
            "h": h, "det": det, "sigma_min": sigma_min}


def dispersion_coefficients(zs, k, mu: float, J=None) -> dict:
    """(a, b, b_bar, A), h, det and sigma_min at a batch of z for one k of
    shape (2,), one row per z; a scalar z is a batch of one.

    det = det(Id - mu A) and sigma_min, the smallest singular value of
    Id - mu A, are positive iff the flux block is invertible; where they
    vanish h is not finite.  J is the equilibrium flux (None for J = 0),
    checked by ``_check_equilibrium``.
    """
    J = _check_equilibrium(mu, J, 2)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs.real <= -1.0):
        raise ValueError("need Re z > -1")
    k = np.asarray(k, dtype=float)
    if k.shape != (2,):
        raise ValueError(f"wavenumber must have shape (2,), got {k.shape}")
    return _assemble(_integrals(zs, k, _column_spectrum(tuple(map(float, J)))), mu)


# ---------------------------------------------------------------------------
# explicit bound budget for the axis coefficients
# ---------------------------------------------------------------------------

def phi2(u) -> float:
    """Damping profile 1 - (1 + u^2)^{-1/2}; increasing, in [0, 1)."""
    u = np.asarray(u, dtype=float)
    out = 1.0 - 1.0 / np.sqrt(1.0 + u * u)
    return float(out) if out.ndim == 0 else out


def alpha2(d: int, eps: float) -> float:
    """Mass of omega_1^2 M_0 on the cap {omega_1 >= eps}, scaled by d.

    In closed form (arccos eps + eps sqrt(1 - eps^2)) / pi for d = 2 and
    (1 - eps^3) / 2 for d = 3.  alpha2(d, 0) = 1/2 (the full second moment
    times d is 1) and alpha2(d, 1) = 0; strictly decreasing in eps.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if d == 2:
        return (math.acos(eps) + eps * math.sqrt(1.0 - eps * eps)) / math.pi
    if d == 3:
        return 0.5 * (1.0 - eps ** 3)
    raise ValueError("alpha2 is implemented for d in (2, 3)")


@lru_cache(maxsize=None)
def default_eps(d: int) -> float:
    """The cap parameter solving alpha2(d, eps) = 3/8 (the budget split that
    yields the uniform 1/5 lower bound on Re h), by Brent's method on
    (1e-9, 1 - 1e-9) (equilibria._brentq, bit-identical to scipy's brentq)."""
    return _brentq(lambda e: alpha2(d, e) - 0.375, 1e-9, 1.0 - 1e-9,
                   xtol=1e-14)


def phi0(gamma: float, d: int) -> float:
    """Uniform gap in the c0 bound Re c0 <= 1 - phi0(|k|, d).

    For d = 3 the marginal of M_0 is bounded by c_3 = |S^1| / |S^2| = 1/2,
    giving phi0 = max(0, 1 - pi / (2 gamma)); on the circle the marginal has
    endpoint singularities and splitting the angle at distance 1/sqrt(|k|)
    from {k.omega = 0} gives phi0 = max(0, 1 - (2/pi + 1/2)/sqrt(gamma)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if d == 2:
        return max(0.0, 1.0 - (2.0 / math.pi + 0.5) / math.sqrt(gamma))
    if d == 3:
        return max(0.0, 1.0 - 0.5 * math.pi / gamma)
    raise ValueError("phi0 is implemented for d in (2, 3)")


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

def _row_extents(gamma: float, k_max: float):
    """For each row m2 = 0, 1, ..., floor(k_max / gamma) of the lattice, the
    largest m1 >= 0 with |(m1, m2)| gamma <= k_max (+ 1e-9), or -1 when
    there is none; the test is monotone in |m1|."""
    ratio = k_max / gamma
    mmax = int(math.floor(ratio))

    def inside(m1: int, m2: int) -> bool:
        return math.hypot(m1, m2) * gamma <= k_max + 1e-9

    for m2 in range(mmax + 1):
        m1 = min(mmax, int(math.sqrt((ratio - m2) * (ratio + m2))))
        while m1 < mmax and inside(m1 + 1, m2):
            m1 += 1
        while m1 >= 0 and not inside(m1, m2):
            m1 -= 1
        yield m1


def _lattice_extent(gamma: float, k_max: float, limit: int) -> tuple[int, float]:
    """(len, sum of |k|) of lattice_wavenumbers(gamma, k_max) from the row
    extents, one numpy pass per row, without building the lattice; once the
    count passes limit it stops, with the sums of the rows walked so far."""
    # the m2 = 0 row alone holds floor(k_max / gamma) wavenumbers
    if k_max / gamma > limit:
        return limit + 1, 0.0
    count, total = 0, 0.0
    for m2, e in enumerate(_row_extents(gamma, k_max)):
        # the half lattice keeps m1 > 0 on the row m2 = 0, every m1 above it
        count += max(2 * e + 1, 0) if m2 else e
        total += float(np.hypot(np.arange(-e if m2 else 1, e + 1), m2).sum())
        if count > limit:
            break
    return count, gamma * total


def lattice_wavenumbers(gamma: float, k_max: float) -> np.ndarray:
    """Nonzero wavenumbers k = gamma m, m integer, 0 < |k| <= k_max, one of
    each +-k pair: the coefficients at -k are the complex conjugates of
    those at conj(z), so any sweep whose z grid is symmetric about the real
    axis loses nothing.  Row by row in m2 >= 0, m1 ascending, each row as
    wide as ``_row_extents``, which ``_lattice_extent`` counts.
    """
    if gamma <= 0 or k_max <= 0:
        raise ValueError("gamma and k_max must be positive")
    m = [(m1, m2) for m2, e in enumerate(_row_extents(gamma, k_max))
         for m1 in range(-e if m2 else 1, e + 1)]
    return gamma * np.array(m, dtype=float).reshape(-1, 2)


def _nonempty_lattice(gamma: float, k_max: float) -> np.ndarray:
    """lattice_wavenumbers(gamma, k_max), which must hold a wavenumber."""
    k = lattice_wavenumbers(gamma, k_max)
    if not len(k):
        raise ValueError(f"k_max = {k_max} holds no wavenumber: the shortest "
                         f"is gamma = {gamma}")
    return k


def _axis_size(lo: float, hi: float, step: float, limit: int) -> int:
    """Length of one axis of default_z_grid, np.arange(lo, hi + 1e-12, step)
    (entry i >= 2 is lo + i ((lo + step) - lo)) plus hi when the last entry
    falls short; any size above limit is returned as limit + 1."""
    n = (hi + 1e-12 - lo) / step
    if not n <= limit:
        return limit + 1
    n = math.ceil(n)
    last = lo + step if n == 2 else lo + (n - 1) * ((lo + step) - lo)
    return n + (last < hi - 1e-12)


def default_z_grid(delta: float = DEFAULT_DELTA, re_max: float = 2.0,
                   im_max: float = 50.0, step: float = 0.25) -> np.ndarray:
    """Rectangle Re z in [-delta, re_max], |Im z| <= im_max, spacing step.

    Each axis is np.arange(lo, hi + 1e-12, step), then hi if ``_axis_size``
    counts it."""
    def axis(lo: float, hi: float) -> np.ndarray:
        size = _axis_size(lo, hi, step, math.inf)
        return np.append(np.arange(lo, hi + 1e-12, step), hi)[:size]

    re, im = axis(-delta, re_max), axis(-im_max, im_max)
    return (re[:, None] + 1j * im[None, :]).ravel()


@dataclass
class SweepResult:
    """Re h and sigma_min over a (z, k) product sweep."""

    mu: float
    gamma: float
    z_values: np.ndarray          # (nz,)
    k_vectors: np.ndarray         # (nk, 2)
    re_h: np.ndarray              # (nk, nz)
    sigma_min: np.ndarray         # (nk, nz)
    min_re_h: float
    min_sigma: float
    max_inv_norm: float
    argmin_h: tuple
    argmin_sigma: tuple


def dispersion_sweep(mu: float, gamma: float, *, J=None, z_values=None,
                     k_vectors=None, k_max: float | None = None) -> SweepResult:
    """Evaluate h and sigma_min(Id - mu A) over the product of the z values
    and the wavenumbers (rows of shape (2,)); re_h and sigma_min are k-major.

    Defaults reproduce the certification sweep: z on the step-0.25 rectangle
    [-DEFAULT_DELTA, 2] x [-50i, 50i] (``default_z_grid()``), k on the half
    lattice 0 < |k| <= 5 gamma.
    Each z chunk builds one power table per |k| (``_chunks``).  Raises
    FloatingPointError naming the first (z, k), k-major, where h or
    sigma_min is not finite (an exact zero of det(Id - mu A), say).
    """
    if z_values is None:
        z_values = default_z_grid()
    if k_vectors is None:
        k_vectors = _nonempty_lattice(
            gamma, 5.0 * gamma if k_max is None else k_max)
    if np.shape(k_vectors)[-1:] != (2,):
        raise ValueError(f"wavenumbers must have shape (2,), got "
                         f"{np.shape(k_vectors)}")
    z = np.atleast_1d(np.asarray(z_values, dtype=complex))
    if np.any(z.real <= -1.0):
        raise ValueError("need Re z > -1")
    k = np.atleast_2d(np.asarray(k_vectors, dtype=float))
    re_h = np.empty((k.shape[0], z.size))
    sig = np.empty_like(re_h)
    bad = np.zeros(re_h.shape, dtype=bool)
    J = _check_equilibrium(mu, J, 2)
    for i, part, T in _chunks(z, k, _column_spectrum(tuple(map(float, J)))):
        out = _assemble(T, mu)
        re_h[i, part] = out["h"].real
        sig[i, part] = out["sigma_min"]
        bad[i, part] = ~(np.isfinite(out["h"]) & np.isfinite(out["sigma_min"]))
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise FloatingPointError(f"non-finite h or sigma_min at z = {z[j]}, "
                                 f"k = ({k[i, 0]:g}, {k[i, 1]:g})")
    ih = np.unravel_index(np.argmin(re_h), re_h.shape)
    isg = np.unravel_index(np.argmin(sig), sig.shape)
    return SweepResult(
        mu=float(mu), gamma=float(gamma), z_values=z, k_vectors=k,
        re_h=re_h, sigma_min=sig,
        min_re_h=float(re_h[ih]), min_sigma=float(sig[isg]),
        max_inv_norm=float(1.0 / sig[isg]),
        argmin_h=(complex(z[ih[1]]), k[ih[0]].copy()),
        argmin_sigma=(complex(z[isg[1]]), k[isg[0]].copy()))


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


def fl_solve(z: complex, k, mu: float, J, f0_hat) -> FLSolution:
    """Solve the transformed moment system for data f0_hat on the circle.

    Args:
        z: Laplace variable, Re z > -1, away from dispersion roots.
        k: wavenumber vector of shape (2,); only d = 2 is implemented.
        mu, J: background equilibrium; J None is the uniform state J = 0.
        f0_hat: complex nodal values of the transformed initial datum on
            the uniform circle grid of len(f0_hat) nodes.

    Raises SingularOperatorError when Id - mu A is singular (sigma_min <=
    1e-12) and SingularSymbolError when h(z, k) = 0 (z is a dispersion root).

    The returned moments are exact (independent of the grid resolution); the
    nodal values f_tilde are pointwise exact as well, but quadrature of
    f_tilde on the same grid converges only like the resolvent
    tail |k|/( |k| + 1 + Re z ) to the power n/2, so recovering moments from
    f_tilde at large |k| needs a finer grid than representing the datum does.
    """
    k = np.asarray(k, dtype=float)
    f0_hat = np.asarray(f0_hat, dtype=complex)
    if f0_hat.ndim != 1:
        raise ValueError("f0_hat must be nodal data on a circle grid")
    grid = build_sphere_grid(2, f0_hat.size)
    J = _check_equilibrium(mu, J, 2)
    co = dispersion_coefficients(z, k, mu, J)
    sigma = float(co["sigma_min"][0])
    if not sigma > 1e-12:
        raise SingularOperatorError(
            f"Id - mu A singular at z={z}, k={k}: sigma_min={sigma:.3e}",
            sigma_min=sigma, z=complex(z), k=k)
    a, bvec, bbar, A = (co[name][0] for name in ("a", "b", "b_bar", "A"))
    h = complex(co["h"][0])
    if abs(h) < 1e-10:
        raise SingularSymbolError(
            f"h(z, k) = {h:.3e}: z is a dispersion root", z=complex(z), k=k)
    rcols = np.stack([f0_hat, grid.nodes[:, 0] * f0_hat,
                      grid.nodes[:, 1] * f0_hat])
    # nodal data enters through its discrete Fourier coefficients, i.e. the
    # exact integral of its trigonometric interpolant
    rhat = np.fft.fft(rcols, axis=1) / grid.n
    R = _integrals(np.array([z], dtype=complex), k, rhat)[0]
    r_rho, r_J = complex(R[0]), np.array(R[1:3])

    # eliminate J~ = (Id - mu A)^{-1} (b rho~ + r_J) by the 2x2 adjugate
    Mop = (np.eye(2) - mu * A)[None]
    det, adj_r = _det_adjugate_2d(Mop, r_J[None])
    rho_t = complex((r_rho + mu * bbar @ (adj_r[0] / det[0])) / h)
    _, adj_J = _det_adjugate_2d(Mop, (bvec * rho_t + r_J)[None])
    J_t = adj_J[0] / det[0]

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

# the two counted functions, in the row order of ``_symbols``
_SYMBOLS = ("D", "det")


def _symbols(zs: np.ndarray, k: np.ndarray, mu: float,
             J: np.ndarray) -> np.ndarray:
    """(D, det) at a batch of z for one k (d = 2), shape (2, nz).

    det = det(Id - mu A) and D = (1 - a) det - mu bbar^T adj(Id - mu A) b
    = h det.  Neither divides, so both stay finite where det = 0.
    """
    ghat = _column_spectrum(tuple(map(float, J)))
    a, bvec, bbar, A = _split(_integrals(zs, k, ghat))
    det, adjb = _det_adjugate_2d(np.eye(2)[None] - mu * A, bvec)
    return np.stack([(1.0 - a) * det - mu * np.einsum("ij,ij->i", bbar, adjb),
                     det])


def _majorant(mu: float, J: np.ndarray) -> np.ndarray:
    """Coefficients p (p_0 = 1, p_m >= 0) of a polynomial with
    |f - 1| <= sum_{m>=1} p_m beta^m and |f'| <= sum_m m p_m beta^(m+1)
    for f = D and f = det, where beta = 1/ell and ell is any lower bound of
    |1 + z + i k.omega| over the circle.

    Each coefficient is Int g / (1 + z + i k.omega) for a column g, so it is
    at most ||g||_1 beta and its z-derivative at most ||g||_1 beta^2; D and
    det are polynomials in the coefficients with constant term 1.  The L1
    norms are trapezoid sums of |g| (error O(n^-2) at the kinks of |g|),
    raised by 1% to cover that.
    """
    cols = _fourier_columns_2d(J)
    norm = 1.01 * (2.0 * np.pi / cols.shape[1]) * np.abs(cols).sum(axis=1)
    na, u, t, s = norm[0], norm[1:3], norm[3:5], norm[5:9]
    poly = np.polynomial.polynomial
    pdet = [1.0, mu * (s[0] + s[3]), mu * mu * (s[0] * s[3] + s[1] * s[2])]
    # bbar^T adj(Id - mu A) b, adj = [[1 - mu A11, mu A01], [mu A10, 1 - mu A00]]
    cross = [0.0, 0.0, mu * (t[0] * u[0] + t[1] * u[1]),
             mu * mu * (t[0] * (s[3] * u[0] + s[1] * u[1])
                        + t[1] * (s[2] * u[0] + s[0] * u[1]))]
    return poly.polyadd(poly.polymul([1.0, na], pdet), cross)


def _count_zeros(mu: float, k: np.ndarray, J: np.ndarray, p: np.ndarray,
                 box: tuple) -> tuple:
    """Zeros of D and det inside the rectangle box = (re_lo, re_hi, im_hi)
    by the argument principle.

    Samples both functions on the rectangle's boundary and bisects each
    segment until, for both, (i) L h / 2 < min |f| at its ends, with h its
    length and L the derivative bound of ``_majorant`` at the segment's
    distance from the kernel's singular segment, so that f has no zero on the
    segment and turns by less than pi across it, and (ii) the sampled angle
    increment is below pi/4.  The winding numbers are then exact.

    Returns (counts, min |f| on the contour, number of contour points).
    Raises RuntimeError when a zero lies on the contour to within 1e-12.
    """
    re_lo, re_hi, im_hi = box
    kmag = float(np.linalg.norm(k))
    dp = np.arange(1, p.size) * p[1:]       # L(beta) = beta^2 sum m p_m beta^(m-1)
    corners = [complex(re_lo, -im_hi), complex(re_hi, -im_hi),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    z = np.concatenate([c0 + (c1 - c0) * np.arange(m) / m
                        for c0, c1 in zip(corners, corners[1:] + corners[:1])
                        for m in [max(1, math.ceil(2.0 * abs(c1 - c0)))]])
    f = _symbols(z, k, mu, J)
    while True:
        z1, f1 = np.roll(z, -1), np.roll(f, -1, axis=1)
        h = np.abs(z1 - z)
        # the sides are axis-parallel, so the point of a segment closest to
        # the singular segment {-1 + it : |t| <= |k|} is found from its ends
        x = np.minimum(z.real, z1.real)
        y = np.where(z.imag * z1.imag <= 0.0, 0.0,
                     np.minimum(np.abs(z.imag), np.abs(z1.imag)))
        beta = 1.0 / np.hypot(1.0 + x, np.maximum(y - kmag, 0.0))
        lip = beta * beta * np.polynomial.polynomial.polyval(beta, dp)
        fmin = np.minimum(np.abs(f), np.abs(f1)).min(axis=0)
        turn = np.angle(f1 * f.conj())
        bad = np.nonzero((0.5 * lip * h >= fmin)
                         | (np.abs(turn).max(axis=0) >= 0.25 * np.pi))[0]
        if bad.size == 0:
            break
        if np.any(h[bad] < 1e-12):
            j = bad[np.argmin(h[bad])]
            raise RuntimeError(f"a zero of D or det lies on the contour near "
                               f"z = {complex(z[j]):.6g}, k = {k}")
        zm = 0.5 * (z[bad] + z1[bad])
        z = np.insert(z, bad + 1, zm)
        f = np.insert(f, bad + 1, _symbols(zm, k, mu, J), axis=1)
    wind = turn.sum(axis=1) / (2.0 * np.pi)
    return np.rint(wind).astype(int), np.abs(f).min(axis=1), z.size


def _deflation(z: np.ndarray, roots: list) -> np.ndarray:
    """prod_j (z - roots_j): dividing by it removes the known zeros."""
    return np.prod(z[None, :] - np.array(roots, dtype=complex)[:, None], axis=0)


def _newton(fun, z: np.ndarray, box: tuple, roots: list, tol: float = 1e-11,
            maxiter: int = 40) -> np.ndarray:
    """Damped Newton iteration on fun deflated by roots, from a batch of
    seeds, kept inside box; returns the iterates with |fun| <= tol."""
    re_lo, re_hi, im_hi = box
    for _ in range(maxiter):
        dz = 1e-6 * (1.0 + np.abs(z))
        zz = np.concatenate([z, z + dz, z - dz])
        f = fun(zz)
        done = np.abs(f[:z.size]) <= tol
        if done.all():
            break
        g, gplus, gminus = (f / _deflation(zz, roots)).reshape(3, -1)
        gp = (gplus - gminus) / (2.0 * dz)
        gp = np.where(np.abs(gp) < 1e-300, 1e-300, gp)
        step = g / gp
        mag = np.abs(step)
        step = np.where(mag > 0.5, step * (0.5 / np.maximum(mag, 1e-300)), step)
        z = np.where(done, z, z - step)
        z = np.clip(z.real, re_lo, re_hi) + 1j * np.clip(z.imag, -im_hi, im_hi)
    return z[np.abs(fun(z)) <= tol]


def _locate(fun, count: int, box: tuple) -> list:
    """The count distinct zeros of fun inside box = (re_lo, re_hi, im_hi).

    By the minimum modulus principle the local minima of |f| on a grid over
    the box sit near zeros.  Each round seeds Newton at the local minima of
    f deflated by the zeros already found, so that it converges to new
    ones; a round that finds none halves the grid spacing, from 1/4 down to
    1/32.  Raises RuntimeError when the count is not reached.
    """
    re_lo, re_hi, im_hi = box
    roots: list[complex] = []
    new, step = 0, 0.25
    while len(roots) < count:
        if new == 0:                 # the first round, or a fruitless one
            if step < 1.0 / 32.0:
                break
            re = np.linspace(re_lo, re_hi, 2 + math.ceil((re_hi - re_lo) / step))
            im = np.linspace(-im_hi, im_hi, 2 + math.ceil(2.0 * im_hi / step))
            scan = (re[:, None] + 1j * im[None, :]).ravel()
            fscan = fun(scan)
            step /= 2.0
        g = np.abs(fscan / _deflation(scan, roots)).reshape(re.size, im.size)
        pad = np.pad(g, 1, constant_values=np.inf)
        minima = np.ones(g.shape, dtype=bool)
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
            minima &= g <= pad[i:i + g.shape[0], j:j + g.shape[1]]
        seeds = scan[minima.ravel()][np.argsort(g[minima])]
        new = 0
        for r in _newton(fun, seeds, box, roots):
            if all(abs(r - s) > 1e-6 for s in roots):
                roots.append(complex(r))
                new += 1
    if len(roots) != count:
        raise RuntimeError(f"located {len(roots)} of {count} counted zeros")
    return roots


def abscissa_candidates(mu: float, gamma: float, k_max: float | None = None, *,
                        delta: float = DEFAULT_DELTA) -> dict:
    """Decay-rate candidates of the linearized dynamics.

    k = 0: the nonzero eigenvalues of the flux relaxation matrix (for mu > 2
    the zero eigenvalues along J-perp are conserved directions, not decay
    rates) and the -1 relaxation of the moment-free remainder.

    k != 0 (the half lattice up to k_max): real parts of the zeros of h and
    of det(Id - mu A) with Re z >= -delta.  They are the zeros of the
    division-free D = h det = (1 - a) det - mu bbar^T adj(Id - mu A) b and
    of det, both analytic in Re z > -1 and tending to 1 as |a|, |b|,
    |A| = O(1/|1 + z|).  For each k:

    1. count: ``_majorant`` bounds |f - 1| <= 1/2 outside the rectangle
       Re z in [-delta, ell - 1], |Im z| <= |k| + ell, so every zero right of
       -delta lies inside it; ``_count_zeros`` counts them by the argument
       principle on a contour refined until each step is certified;
    2. locate: ``_locate`` finds exactly that many distinct zeros by Newton
       from a coarse scan of the rectangle (no work when the count is 0).

    Returns the k = 0 rates, the located zeros ("symbol_roots"), all
    candidates, the rate -max(candidates), and per k ("contours") the zero
    counts, the located zeros and min |f| on the contour of D and det.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if k_max is None:
        k_max = 3.0 * gamma
    cands: list[float] = [-1.0, lambda_J(mu, 2) if mu > 2 else mu / 2 - 1.0]
    J = project_to_manifold(mu, np.array([1.0, 0.0]))
    p = _majorant(mu, J)
    # |f - 1| <= 1/2 wherever z is at least ell from the singular segment
    # {-1 + it : |t| <= |k|}, 1/ell the one positive root of p - 3/2 (its
    # coefficients change sign once); so every zero right of -delta is in box
    poly = np.polynomial.polynomial
    r = poly.polyroots(poly.polysub(p, [1.5]))
    ell = 1.0 / float(r.real[(r.imag == 0.0) & (r.real > 0.0)][0])
    re_max = max(ell - 1.0, 0.0)
    roots: list[complex] = []
    contours = []
    for k in _nonempty_lattice(gamma, k_max):
        box = (-delta, re_max, float(np.linalg.norm(k)) + ell)
        counts, margins, npts = _count_zeros(mu, k, J, p, box)
        found = {name: [] for name in _SYMBOLS}
        for i, name in enumerate(_SYMBOLS):
            if counts[i]:
                found[name] = _locate(lambda zz, i=i: _symbols(zz, k, mu, J)[i],
                                      int(counts[i]), box)
                roots.extend(found[name])
        contours.append({
            "k": k, "im_max": box[2], "points": npts,
            "count": dict(zip(_SYMBOLS, map(int, counts))),
            "min_abs": dict(zip(_SYMBOLS, map(float, margins))),
            "roots": found})
    cands.extend(r.real for r in roots)
    return {"mu": float(mu), "gamma": float(gamma), "k_max": float(k_max),
            "delta": float(delta), "re_max": re_max,
            "k0_rates": cands[:2], "symbol_roots": roots, "contours": contours,
            "candidates": cands, "rate": -max(cands)}


def spectral_abscissa(mu: float, gamma: float, k_max: float | None = None, *,
                      delta: float = DEFAULT_DELTA) -> float:
    """Predicted slowest decay rate -max Re of the candidate spectrum."""
    return float(abscissa_candidates(mu, gamma, k_max, delta=delta)["rate"])
