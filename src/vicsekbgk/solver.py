"""Spectral phase-space solver on the periodic square with Strang splitting.

The density F(x, theta) on [0, 2pi)^2 x S^1 is sampled on an
(nx, nx, ntheta) tensor grid, but between samples the solver keeps its
spatial half-spectrum: the rfft2 of the nodal values over the two x axes, an
(nx, nx//2 + 1, ntheta) complex array.  One step of size dt is

    collision(dt/2) -> free transport(dt) -> collision(dt/2).

Free transport multiplies each spatial Fourier mode m by
P(m) = exp(-i gamma (m . omega) dt) exactly.  On the half-spectrum the table
is symmetrized, P_half(m) = (P(m) + conj P(-m mod nx)) / 2, which equals P(m)
except on the Nyquist row, column and corner; there it keeps the part of the
multiplier that maps real fields to real fields, so the half-spectrum stays
the transform of a real field without any projection.

The collision substep applies the exact relaxation

    F <- e^{-h} F + (1 - e^{-h}) rho_F M_{J*},

with the von Mises parameter J* advanced to the substep midpoint by an Euler
predictor of the flux ODE dJ/dt = rho c(|J|) J/|J| - J (so the full splitting
is second order in dt).  The angular moments (rho, J) commute with the spatial
transform, so they are taken on the spectrum: one real GEMM of its float view
(the (Re, Im) pairs of each cell as one row) with a (2 ntheta, 6) moment
matrix.  Only those three 2-D fields are transformed back; the von Mises
target is built in physical space and sent forward by two real DFT GEMMs
over the modes the 2/3 rule (Orszag 1971) keeps, or all modes when
dealiasing is off.  A nonlinear step makes no 3-D FFT.  Three right-hand
sides are supported:

* "nonlinear":    the alignment dynamics themselves;
* "linearized":   the dynamics linearized at an equilibrium (mu, J_eq); the
                  stored field is the perturbation f with Int Int f = 0.  The
                  collision substep is one fixed map, e^{-h} Id plus a rank-3
                  term (rho, J) -> (rho, J) . V.  It acts pointwise in x, so
                  it applies to the spectrum as two real GEMMs, and a step
                  needs no FFT.  `_linear_steps` merges each step's closing
                  collision with the next step's opening one;
* "regularized":  nonlinear dynamics with the flux clamped,
                  J* -> (J*/|J*|) min(|J*|, 1/eps_reg).

Nodal values are formed with one irfft2 only at sample times; of the
diagnostics only entropy and the density extremes read them.  Every rule on
a SolverConfig is stated once, in `validate`.

Normalization: fields are normalized so the *mean* density
(2pi)^{-2} Int Int F dx domega equals mu; the equilibrium field is then
exactly mu M_{J_eq} and mu is the local mean density appearing in every
bifurcation formula.  The diagnostics `mass` column reports that mean.

Conservation properties of the discretization (all to round-off): the grid
normalization of M_{J*} makes the collision preserve the cell density
pointwise, transport preserves every angular moment of the spatial mean, and
in linearized mode the component of the mean flux perpendicular to J_eq is
conserved while the L^2 norm is nonincreasing for mu <= d.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat

import numpy as np

from .equilibria import _c_over_r, project_to_manifold, solve_L
from .linstab import flux_relaxation_matrix
from .sphere import (SphereGrid, build_sphere_grid, moments, von_mises,
                     von_mises_gradient)

__all__ = [
    "InitSpec",
    "SolverConfig",
    "SolverAbort",
    "DiagnosticsSeries",
    "RunResult",
    "EntropyFit",
    "validate",
    "init_field",
    "step",
    "run",
    "regularized_flux",
    "diagnostics",
    "dist_to_manifold",
    "entropy_functional",
    "fit_decay_rate",
    "fit_entropy_growth",
    "DIAGNOSTICS_HEADER",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "write_snapshot",
    "read_snapshot",
]

MODES = ("nonlinear", "linearized", "regularized")
RECIPES = ("mode-bump", "random-smooth", "large-blob")


@dataclass(frozen=True)
class InitSpec:
    """Initial condition recipe.

    mode-bump:     equilibrium times (1 + amplitude cos(m . x)) with integer
                   torus mode m = mode_k (physical wavenumber gamma * m); in
                   linearized mode the bump itself is the perturbation.
    random-smooth: equilibrium times (1 + amplitude g) with g a fixed-seed
                   random low-mode trigonometric polynomial, |g| <= 1.
    large-blob:    an x-localized positive bump with anisotropic angular
                   profile (free parameter width), for entropy experiments.

    amplitude = 0 reproduces the exact equilibrium.
    """

    recipe: str = "mode-bump"
    amplitude: float = 0.0
    mode_k: tuple[int, int] = (1, 0)
    width: float = 0.7

    def __post_init__(self):
        # configs arrive from JSON with lists; keep the spec hashable
        if np.iterable(self.mode_k):
            object.__setattr__(self, "mode_k", tuple(self.mode_k))


@dataclass(frozen=True)
class SolverConfig:
    """Full specification of a solver run (hashable, reusable)."""

    mu: float
    mode: str = "nonlinear"
    gamma: float = 10.0
    nx: int = 32
    ntheta: int = 64
    dt: float = 0.01
    t_end: float = 10.0
    eps_reg: float | None = None
    jeq_angle: float = 0.0
    init: InitSpec = field(default_factory=InitSpec)
    snapshot_every: int = 50
    seed: int = 0
    keep_snapshots: bool = False
    dealias: bool = True


class SolverAbort(RuntimeError):
    """Raised when the state stops being finite; carries the failure time
    and the last good diagnostics row (a dict, or None)."""

    def __init__(self, t: float, last_good_row: dict | None = None):
        super().__init__(f"non-finite state at t = {t:.6g}")
        self.t = t
        self.last_good_row = last_good_row


def _require(ok: bool, key: str, what: str) -> None:
    if not ok:
        raise ValueError(f"invalid value for {key}: {what}")


def _num_steps(config: SolverConfig) -> int:
    return int(round(config.t_end / config.dt))


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def validate(config: SolverConfig) -> None:
    """Check every rule on the fields of a SolverConfig and its InitSpec.

    This is the one place those rules are stated: init_field and run call
    it, and the command line calls it before any computation.  Raises
    ValueError naming the offending field.  Whether the initial field is
    nonnegative depends on the data and is checked by init_field.
    """
    spec = config.init
    _require(config.mode in MODES, "mode", "must be " + ", ".join(MODES))
    _require(spec.recipe in RECIPES, "init.recipe", "must be " + ", ".join(RECIPES))
    _require(config.mu > 0, "mu", "must be > 0")
    _require(config.gamma > 0, "gamma", "must be > 0")
    _require(_is_int(config.nx) and config.nx >= 4 and config.nx % 2 == 0,
             "nx", "must be an even integer >= 4")
    _require(_is_int(config.ntheta) and config.ntheta >= 8
             and config.ntheta % 2 == 0, "ntheta", "must be an even integer >= 8")
    _require(config.dt > 0, "dt", "must be > 0")
    _require(config.t_end > 0, "t_end", "must be > 0")
    n = _num_steps(config) if math.isfinite(config.t_end / config.dt) else 0
    _require(n >= 1 and abs(n * config.dt - config.t_end)
             <= 1e-9 * max(1.0, config.t_end),
             "t_end", "must be a positive integer multiple of dt")
    if config.mode == "regularized":
        _require(config.eps_reg is not None and config.eps_reg > 0, "eps_reg",
                 "must be > 0 in regularized mode")
    else:
        _require(config.eps_reg is None, "eps_reg",
                 "must be null outside regularized mode, which alone reads it")
    _require(_is_int(config.snapshot_every) and config.snapshot_every >= 1,
             "snapshot_every", "must be a positive integer")
    _require(_is_int(config.seed) and config.seed >= 0, "seed",
             "must be an integer >= 0")
    _require(spec.amplitude >= 0, "init.amplitude", "must be >= 0")
    _require(spec.width > 0, "init.width", "must be > 0")
    _require(isinstance(spec.mode_k, tuple) and len(spec.mode_k) == 2
             and all(_is_int(v) for v in spec.mode_k),
             "init.mode_k", "must be a pair of integers")
    if config.mode == "linearized":
        _require(spec.recipe != "large-blob", "init.recipe",
                 "large-blob is not a perturbation recipe")
        _require(spec.recipe != "mode-bump" or spec.mode_k != (0, 0),
                 "init.mode_k", "linearized mode-bump needs a nonzero spatial mode")


def _equilibrium_flux(mu: float, angle: float) -> np.ndarray:
    """The background flux J_eq: zero for mu <= 2, on-branch otherwise."""
    return project_to_manifold(mu, np.array([math.cos(angle), math.sin(angle)]))


def _half_phase(nx: int, gamma: float, dt: float, grid: SphereGrid) -> np.ndarray:
    """Transport multiplier exp(-i gamma dt m . omega) on the rfft2
    half-spectrum, symmetrized as (P(m) + conj P(-m mod nx)) / 2 so that it
    maps the spectra of real fields to spectra of real fields."""
    m = np.fft.fftfreq(nx, d=1.0 / nx)
    neg = np.where(np.abs(m) == nx // 2, m, -m)   # frequency of -m mod nx
    half = slice(0, nx // 2 + 1)

    def table(m1, m2):
        return np.exp(-1j * gamma * dt * (
            np.multiply.outer(m1, grid.nodes[:, 0])[:, None, :]
            + np.multiply.outer(m2, grid.nodes[:, 1])[None, :, :]))

    return 0.5 * (table(m, m[half]) + np.conj(table(neg, neg[half])))


def _interleave(A: np.ndarray) -> np.ndarray:
    """The real matrix that applies A to the (Re, Im) pairs of a complex
    vector's float view: A on the even and on the odd rows and columns."""
    out = np.zeros((2 * A.shape[0], 2 * A.shape[1]))
    out[0::2, 0::2] = A
    out[1::2, 1::2] = A
    return out


def _float_rows(S: np.ndarray) -> np.ndarray:
    """The float view of the half-spectrum S, one row of 2 ntheta interleaved
    (Re, Im) values per cell; a copy only if S is not C-contiguous."""
    return np.ascontiguousarray(S).view(float).reshape(-1, 2 * S.shape[-1])


class _Workspace:
    """Precomputed grid and operator data shared by all steps of one
    (grid, operator, dt) combination.  Both collisions span h = dt/2 and
    read the moments (rho, J) off the spectrum's float rows as rows @ W2,
    with the (2 ntheta, 6) W2 the grid's moment weights interleaved over
    (Re, Im).
    The linearized one is S -> e^{-h} S + (rho, J) . V, with the (3, ntheta)
    V = (1 - e^{-h}) T^T [M_eq; mu grad_J M_eq] and T = Id + (h/2)
    [[0, 0], [J_eq/mu, C]] the Euler predictor of (rho, J); it is stored
    interleaved the same way, as the (6, 2 ntheta) V2.  Two linearized
    collisions in a row are one map of the same form, S -> e^{-2h} S +
    (rho, J) . V2pair, with V2pair = 2 e^{-h} V2 + (V2 @ W2) @ V2.  The
    nonlinear target goes forward by two real DFT GEMMs, D = [cos; -sin]
    along x2 and G = [[C, -S], [S, C]] along x1, over the kept modes |m1|,
    m2 < lo only.  At O(nx^3 ntheta) they beat rfft2 up to nx ~ 128, not
    near 256.  Their scratch buffers live here, so `step` is not reentrant."""

    def __init__(self, nx: int, ntheta: int, gamma: float, dt: float,
                 mu: float, mode: str, eps_reg: float | None,
                 jeq_angle: float, dealias: bool):
        self.grid = build_sphere_grid(2, ntheta)
        self.wtheta = 2.0 * math.pi / ntheta
        self.W2 = _interleave(self.grid.moment_weights.T)
        self.shape = (nx, nx)
        self.phase = _half_phase(nx, gamma, dt, self.grid)
        if mode != "linearized":  # DFT tables from the phases m x mod nx
            p = np.multiply.outer(np.arange(nx), np.arange(nx)) % nx
            c, s = np.cos(2 * math.pi * p / nx), -np.sin(2 * math.pi * p / nx)
            c, s = (np.where(4 * p % nx, a, np.rint(a)) for a in (c, s))
            self.lo = (nx // 3 if dealias else nx // 2) + 1
            rows = np.r_[0:self.lo, max(self.lo, nx + 1 - self.lo):nx]
            self.D = np.vstack([c[:self.lo], s[:self.lo]])
            self.G = np.stack([np.vstack([c[rows], s[rows]]), np.vstack(
                [-s[rows], c[rows]])], axis=-1).reshape(2 * rows.size, -1)
            self.mom = np.empty((nx * (nx // 2 + 1), 6))
            self.E = np.empty((nx, nx, ntheta))
            self.Y = np.empty((nx, 2 * self.lo, ntheta))
            self.Z = np.empty((2 * rows.size, self.lo * ntheta))
        self.h = 0.5 * dt
        self.decay = math.exp(-self.h)
        self.eps_reg = eps_reg
        Jeq = _equilibrium_flux(mu, jeq_angle)
        self.Meq = von_mises(Jeq, self.grid)
        if mode == "linearized":
            R = np.zeros((3, 3))
            R[1:, 0] = Jeq / mu
            R[1:, 1:] = flux_relaxation_matrix(mu, Jeq, self.grid)
            T = np.eye(3) + 0.5 * self.h * R
            B = np.vstack([self.Meq, mu * von_mises_gradient(Jeq, self.grid)])
            self.V2 = _interleave((1.0 - self.decay) * (T.T @ B))
            self.V2pair = 2.0 * self.decay * self.V2 + (self.V2 @ self.W2) @ self.V2
            self.decay2 = self.decay * self.decay


# a process steps one grid and operator at a time, and a workspace can hold
# hundreds of MB (213 MB nonlinear at 256^2 x 128), so only the last is kept
_workspace = lru_cache(maxsize=1)(_Workspace)


def _workspace_of(config: SolverConfig) -> _Workspace:
    """The cached workspace of config's grid, operator and step size; run
    controls (t_end, init, seed, sampling) do not enter the key."""
    return _workspace(config.nx, config.ntheta, config.gamma, config.dt,
                      config.mu, config.mode, config.eps_reg, config.jeq_angle,
                      config.dealias)


def regularized_flux(J: np.ndarray, eps: float) -> np.ndarray:
    """Clamp |J| at 1/eps keeping the direction: (J/|J|) min(|J|, 1/eps)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    J = np.asarray(J, dtype=float)
    if eps == 0:
        return J.copy()
    mag = np.linalg.norm(J, axis=-1, keepdims=True)
    fac = np.where(mag > 1.0 / eps, (1.0 / eps) / np.where(mag > 0, mag, 1.0), 1.0)
    return J * fac


def _collide(S: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """Exact relaxation over the half-step span ws.h (nonlinear/regularized),
    on the half-spectrum S, into out (new if None; S itself is allowed)."""
    m = np.matmul(_float_rows(S), ws.W2, out=ws.mom).view(complex)
    m = m.T.reshape((3,) + S.shape[:-1])
    rho, Jx, Jy = np.fft.irfft2(m, s=ws.shape, axes=(1, 2))
    r = np.hypot(Jx, Jy)
    sfac = rho * _c_over_r(r) - 1.0
    Js = np.stack([Jx + 0.5 * ws.h * sfac * Jx, Jy + 0.5 * ws.h * sfac * Jy],
                  axis=-1)
    if ws.eps_reg is not None:
        Js = regularized_flux(Js, ws.eps_reg)
    E = von_mises(Js, ws.grid, out=ws.E)
    E *= ((1.0 - ws.decay) * rho)[..., None]
    Y = np.matmul(ws.D, E, out=ws.Y).reshape(2 * ws.shape[0], -1)
    Z = np.matmul(ws.G, Y, out=ws.Z).reshape(2, -1, ws.lo, E.shape[-1])
    out = np.multiply(S, ws.decay, out=out, order="C")
    for part, Zp in zip((out.real, out.imag), Z):
        part[:ws.lo, :ws.lo] += Zp[:ws.lo]
        part[ws.lo - Zp.shape[0]:, :ws.lo] += Zp[ws.lo:]
    return out


def _rank3(R: np.ndarray, W2: np.ndarray, V: np.ndarray, decay: float,
           M: np.ndarray | None = None, T: np.ndarray | None = None) -> np.ndarray:
    """R <- decay R + (R @ W2) @ V in place on float rows R, with no scaling
    pass at decay 1 and M, T optional scratch for the products; returns R."""
    T = np.matmul(np.matmul(R, W2, out=M), V, out=T)
    if decay != 1.0:
        R *= decay
    R += T
    return R


def _linear_steps(S: np.ndarray, ws: _Workspace, start: int, end: int,
                  pair: tuple | None = None) -> int | None:
    """Advance the C-contiguous linearized half-spectrum S in place through
    steps start + 1, ..., end; return the first whose state is not finite,
    or None.  C, the workspace's rank-3 map, acts cell by cell: two real
    GEMMs on the float rows.  Between a step's transport P and its closing
    C the state is U = P C S.  The maps are the first step's C, then P; one
    merged pair U <- P (C C U) per further step; the closing C: end - start
    + 1 maps.  Map j reads the moments of step start + j's state (step 1's
    for the initial state), where every theta entry has the weight
    2pi/ntheta > 0.  pair = (V2pair / decay2, decay2 phase, M, T) is the
    merged pair's map and transport, which carries its decay e^{-2h}, and
    the products' scratch; `_samples` builds it once, `step` needs none."""
    R = _float_rows(S)
    V, P, M, T = pair or (None, None, np.empty((R.shape[0], 6)), np.empty_like(R))
    merged = repeat((V, 1.0, P), end - start - 1)
    maps = chain([(ws.V2, ws.decay, ws.phase)], merged, [(ws.V2, ws.decay, None)])
    for j, (V, decay, P) in enumerate(maps):
        _rank3(R, ws.W2, V, decay, M, T)
        if not np.isfinite(M).all():
            return max(start + j, 1)
        if P is not None:
            S *= P
    return None


def step(S: np.ndarray, config: SolverConfig) -> np.ndarray:
    """One Strang step, collision(dt/2), transport(dt), collision(dt/2), with
    dt = config.dt, of the half-spectrum state S = rfft2(F, axes=(0, 1));
    returns the new half-spectrum and leaves S untouched."""
    ws = _workspace_of(config)
    if config.mode == "linearized":
        S = S.copy()
        _linear_steps(S, ws, 0, 1)
        return S
    S = _collide(S, ws)
    S *= ws.phase
    return _collide(S, ws, out=S)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _random_smooth(nx: int, theta: np.ndarray, seed: int) -> np.ndarray:
    """Fixed-seed random trigonometric polynomial with sup norm 1: the sum of
    amp cos(m1 x1 + m2 x2 + j theta + pha) over |m1|, |m2| <= 2, |j| <= 3,
    with (amp, pha) drawn in (m1, m2, j) order, evaluated as the real part
    of one contraction of 1-D complex exponential tables."""
    rng = np.random.default_rng(seed)
    coef = np.empty((5, 5, 7), dtype=complex)
    for idx in np.ndindex(coef.shape):
        amp = rng.normal()
        coef[idx] = amp * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    x = 2.0 * math.pi * np.arange(nx) / nx
    ex = np.exp(1j * np.multiply.outer(np.arange(-2, 3), x))
    eth = np.exp(1j * np.multiply.outer(np.arange(-3, 4), theta))
    g = np.einsum("abc,ax,by,cz->xyz", coef, ex, ex, eth, optimize=True).real
    return g / np.max(np.abs(g))


def init_field(config: SolverConfig) -> np.ndarray:
    """The (nx, nx, ntheta) nodal values of a run's initial field; every
    recipe is rescaled so the mean density is exactly mu (mean zero, for
    linearized perturbations)."""
    validate(config)
    ws = _workspace_of(config)
    nx, ntheta = config.nx, config.ntheta
    spec = config.init
    x = 2.0 * math.pi * np.arange(nx) / nx
    base = np.broadcast_to(config.mu * ws.Meq, (nx, nx, ntheta)).copy()

    if spec.recipe == "large-blob":
        kappa = 1.0 / spec.width**2
        bx = np.exp(kappa * (np.cos(x - math.pi) - 1.0))
        ang = (1.0 + 0.5 * ws.grid.nodes[:, 0]) / (2.0 * math.pi)
        values = bx[:, None, None] * bx[None, :, None] * ang[None, None, :]
    else:  # a perturbation g of sup norm 1 on the equilibrium
        if spec.recipe == "mode-bump":
            m1, m2 = spec.mode_k
            g = np.cos(m1 * x[:, None, None] + m2 * x[None, :, None])
        else:  # random-smooth
            g = _random_smooth(nx, ws.grid.angles, config.seed)
        if config.mode == "linearized":
            values = spec.amplitude * g * base
        else:
            values = base * (1.0 + spec.amplitude * g)

    mean = values.sum() * ws.wtheta / (nx * nx)
    if config.mode == "linearized":
        # remove the mean computed with the run's own quadrature, so the
        # conserved total stays zero to round-off for all times
        values = values - mean / (2.0 * math.pi)
    else:
        if values.min() < 0.0:
            raise ValueError("initial field is negative; reduce the amplitude")
        if mean <= 0.0:
            raise ValueError("initial field has no mass")
        values = values * (config.mu / mean)
    return np.ascontiguousarray(values)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

_COLUMNS = ("t", "mass", "jbar_x", "jbar_y", "l2", "entropy", "dist",
            "rho_min", "rho_max")

DIAGNOSTICS_HEADER = ",".join(_COLUMNS)


@dataclass
class DiagnosticsSeries:
    """Columnar diagnostics history of a run."""

    t: np.ndarray
    mass: np.ndarray
    jbar_x: np.ndarray
    jbar_y: np.ndarray
    l2: np.ndarray
    entropy: np.ndarray
    dist: np.ndarray
    rho_min: np.ndarray
    rho_max: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[dict]) -> "DiagnosticsSeries":
        return cls(**{c: np.array([r[c] for r in rows]) for c in _COLUMNS})

    def __len__(self) -> int:
        return self.t.size


def _spectral_sums(S: np.ndarray) -> tuple[np.ndarray, float]:
    """(Fbar, osc) of the real field F whose rfft2 half-spectrum is S: Fbar =
    Re S[0, 0] / nx^2 and, by Parseval, osc = sum of (F - Fbar)^2 = sum over
    m != 0 of mult |S_m|^2 / nx^2, mult 1 on the m2 = 0 and Nyquist columns
    and 2 on the others (each stands for a conjugate pair)."""
    nx = S.shape[0]
    R = _float_rows(S)
    p = np.einsum("ij,ij->i", R, R).reshape(nx, -1)
    p[0, 0] = 0.0
    p[:, 1:nx // 2] *= 2.0
    return S[0, 0].real / nx**2, float(p.sum()) / nx**2


def entropy_functional(values: np.ndarray) -> float:
    """Int (1/e + F log F) dx domega of the (nx, nx, ntheta) nodal values of
    F, with F log F extended by 0 at F <= 0."""
    nx, _, ntheta = values.shape
    dvol = (2.0 * math.pi / nx) ** 2 * (2.0 * math.pi / ntheta)
    logv = np.zeros_like(values)
    np.log(values, out=logv, where=values > 0.0)
    return float(values.ravel() @ logv.ravel()) * dvol + (2.0 * math.pi) ** 3 / math.e


def dist_to_manifold(values: np.ndarray, grid: SphereGrid, mu: float, *,
                     sums=None) -> float:
    """L^2(dx dtheta) distance from the field F with nodal values `values`
    on the circle grid `grid` to the equilibrium family {mu M_J}.

    For mu <= 2 the family is the single uniform state.  Above threshold the
    squared distance to mu M_phi (direction phi, |J| = L(mu)) splits as

        ||F - Fbar||^2 + (2pi)^2 ||Fbar - mu M_phi||^2_theta,

    with Fbar(theta) the spatial mean of F.  Both come from the sums
    (Fbar, osc) of S = rfft2(F) (_spectral_sums, which `diagnostics`
    passes): Fbar = Re S[0, 0] / nx^2, and by Parseval ||F - Fbar||^2 is
    osc dx^2 wq, osc the sum over m != 0 of mult |S_m|^2 / nx^2 (mult 1 on
    the m2 = 0 and Nyquist columns, 2 elsewhere).  Both are sums of squares,
    so a distance far below ||F|| keeps its digits.  The direction
    minimizing the theta-only term is found by a coarse circular scan, seeded
    by the mean flux direction, refined by golden-section search to 1e-12.
    """
    Fbar, osc = sums or _spectral_sums(np.fft.rfft2(values, axes=(0, 1)))
    wq = 2.0 * math.pi / grid.n
    spread2 = osc * (2.0 * math.pi / values.shape[0]) ** 2 * wq
    area2 = (2.0 * math.pi) ** 2
    if mu <= 2.0:
        return math.sqrt(spread2 + area2 * float(
            np.sum((Fbar - mu / (2.0 * math.pi)) ** 2)) * wq)
    L = solve_L(mu, 2)

    def gap(phi):
        """Squared theta-distance to mu M_phi, for one phi or an array."""
        m = von_mises(L * np.array([np.cos(phi), np.sin(phi)]).T, grid)
        return np.sum((Fbar - mu * m) ** 2, axis=-1) * wq

    jbar = moments(Fbar, grid)[1]
    seed = math.atan2(jbar[1], jbar[0]) if np.linalg.norm(jbar) > 0 else 0.0
    scan = seed + np.linspace(-math.pi, math.pi, 33)[:-1]
    best = int(np.argmin(gap(scan)))
    lo = scan[best] - 2.0 * math.pi / 32
    hi = scan[best] + 2.0 * math.pi / 32
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = gap(c), gap(d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = gap(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = gap(d)
    return math.sqrt(spread2 + area2 * min(fc, fd))


def diagnostics(values: np.ndarray, grid: SphereGrid, mu: float, *,
                sums=None, background=None) -> dict:
    """Diagnostics of a physical field F, given by its (nx, nx, ntheta)
    nodal values on the circle grid `grid`: mean mass/flux, L^2 norm,
    entropy, distance to the equilibrium family, density extremes.

    All but entropy and the density extremes come from the sums (Fbar, osc)
    of F's half-spectrum (_spectral_sums; `run` passes those of its state):
    mass and flux are the moments of Fbar, l2^2 = (nx^2 |Fbar|^2 + osc) dx^2
    wq by Parseval.  With `background`, an (ntheta,) uniform field, F is a
    perturbation: mass, flux and l2 are F's, the rest background + F's."""
    Fbar, osc = sums or _spectral_sums(np.fft.rfft2(values, axes=(0, 1)))
    nx = values.shape[0]
    mass, (jx, jy) = moments(Fbar, grid)
    dvol = (2.0 * math.pi / nx) ** 2 * 2.0 * math.pi / grid.n
    l2 = math.sqrt((nx * nx * float(Fbar @ Fbar) + osc) * dvol)
    if background is not None:
        values, Fbar = background + values, background + Fbar
    rho = values.reshape(-1, grid.n) @ grid.weights
    return {"mass": float(mass), "jbar_x": float(jx), "jbar_y": float(jy),
            "l2": l2, "entropy": entropy_functional(values),
            "dist": dist_to_manifold(values, grid, mu, sums=(Fbar, osc)),
            "rho_min": float(rho.min()), "rho_max": float(rho.max())}


@dataclass
class RunResult:
    """Output bundle of run(): diagnostics plus retained field snapshots."""

    config: SolverConfig
    series: DiagnosticsSeries
    snapshots: list  # [(t, values array), ...]


def _samples(config: SolverConfig, ws: _Workspace):
    """Yield (t, S, values) at t = 0, every snapshot_every steps and at the
    last step: the half-spectrum state, which the next segment may advance
    in place, and its nodal values.  Nonlinear and regularized runs call
    `step` once per step, a linearized run `_linear_steps` once per segment:
    n + s rank-3 maps for n steps and s samples.  Raises SolverAbort(t) at
    the first step t whose state is not finite."""
    values = init_field(config)
    S = np.fft.rfft2(values, axes=(0, 1))
    yield 0.0, S, values
    nsteps, every = _num_steps(config), config.snapshot_every
    ends = (0, *range(every, nsteps, every), nsteps)
    linear = config.mode == "linearized"
    if linear:  # S's own float rows, which _linear_steps advances in place
        R = _float_rows(S)
        pair = (ws.V2pair / ws.decay2, ws.decay2 * ws.phase,
                np.empty((R.shape[0], 6)), np.empty_like(R))
    for start, end in zip(ends, ends[1:]):
        if linear:
            bad = _linear_steps(S, ws, start, end, pair)
        else:
            for bad in range(start + 1, end + 1):
                S = step(S, config)
                if not np.isfinite(S.view(float)).all():  # both parts, as floats
                    break
            else:
                bad = None
        if bad is not None:
            raise SolverAbort(bad * config.dt)
        yield end * config.dt, S, np.fft.irfft2(S, s=ws.shape, axes=(0, 1))


def run(config: SolverConfig) -> RunResult:
    """Integrate the configured problem from t = 0 to t_end, with a
    diagnostics row at each sample of `_samples`: t = 0, every
    snapshot_every steps and the final step.  Snapshots of the field are
    kept at the same cadence when keep_snapshots is set, otherwise only
    first and last.  Raises SolverAbort (with the failure time and the last
    sampled row) as soon as the state stops being finite."""
    validate(config)
    ws = _workspace_of(config)
    background = config.mu * ws.Meq if config.mode == "linearized" else None
    rows, snaps = [], []
    try:
        for t, S, values in _samples(config, ws):
            row = diagnostics(values, ws.grid, config.mu, sums=_spectral_sums(S),
                              background=background)
            rows.append({**row, "t": float(t)})
            del S   # a nonlinear step makes a new state; keep no stale one
            if config.keep_snapshots or not snaps:
                snaps.append((t, values))
    except SolverAbort as exc:
        exc.last_good_row = rows[-1]
        raise
    if not config.keep_snapshots:
        snaps.append((t, values))
    return RunResult(config=config, series=DiagnosticsSeries.from_rows(rows),
                     snapshots=snaps)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def fit_decay_rate(series: DiagnosticsSeries, t_min: float, t_max: float,
                   column: str = "dist") -> tuple[float, float]:
    """Least-squares exponential rate of a diagnostics column on a window.

    Fits log(column) ~ a - rate * t over t in [t_min, t_max]; rows whose
    value is below 1e3 machine epsilons are dropped (they sit on the noise
    floor).  Returns (rate, r2); a constant column gives rate 0, r2 = 1.
    """
    if column not in _COLUMNS or column == "t":
        raise ValueError(f"unknown column {column!r}")
    t = series.t
    y = getattr(series, column)
    floor = 1e3 * np.finfo(float).eps
    mask = (t >= t_min) & (t <= t_max) & (y > floor)
    if mask.sum() < 3:
        raise ValueError("fewer than 3 usable points in the fit window")
    tt, yy = t[mask], np.log(y[mask])
    slope, intercept = np.polyfit(tt, yy, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((yy - pred) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r2)


@dataclass(frozen=True)
class EntropyFit:
    """Certificate E(t) <= C (1 + e^{c t}) for an entropy history."""

    c: float
    C: float
    max_violation: float


def fit_entropy_growth(series: DiagnosticsSeries) -> EntropyFit:
    """Smallest-at-the-end exponential envelope of the entropy history.

    For each c on a log grid (with c = 0 included), the smallest admissible
    prefactor is C(c) = max_t E(t)/(1 + e^{ct}); among those certificates the
    one minimizing the terminal bound C(c)(1 + e^{c t_end}) is returned (ties
    toward smaller c).  max_violation = max_t [E(t) - C(1 + e^{ct})] <= 0 by
    construction; it is reported as computed.
    """
    t = series.t
    E = series.entropy
    if not np.all(np.isfinite(E)):
        raise ValueError("entropy history contains non-finite values")
    cs = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 61)])
    best = None
    for c in cs:
        den = 1.0 + np.exp(c * t)
        C = float(np.max(E / den)) * (1.0 + 1e-12)
        terminal = C * (1.0 + math.exp(c * t[-1]))
        if best is None or terminal < best[0] - 1e-12 * abs(best[0]):
            best = (terminal, float(c), C)
    _, c, C = best
    viol = float(np.max(E - C * (1.0 + np.exp(c * t))))
    return EntropyFit(c=c, C=C, max_violation=viol)


# ---------------------------------------------------------------------------
# on-disk formats
# ---------------------------------------------------------------------------

# rows of a block of _write_csv; bytes of a field: "%.17g" and a comma
_CSV_BLOCK, _CSV_FIELD = 4096, 25


def _fixed_width(values: np.ndarray) -> np.ndarray:
    """A byte matrix of the fields "%.17g," of a 1-D float array, padded
    with spaces to _CSV_FIELD bytes; one %-operation per block."""
    parts = (values[i:i + _CSV_BLOCK].tolist() for i in range(0, values.size, _CSV_BLOCK))
    text = b"".join(b"%-24.17g," * len(part) % tuple(part) for part in parts)
    return np.frombuffer(text, np.uint8).reshape(-1, _CSV_FIELD)


def _distinct_keys(column: np.ndarray):
    """The sorted distinct float64 bits of ``column`` as int64 keys (-0.0
    and 0.0, NaNs of different bits, stay apart; a broadcast axis is read
    once), or None if more than half its values are distinct or it fits in
    one block.  The sort stands in for np.unique, which imports numpy.ma."""
    if column.size <= _CSV_BLOCK:
        return None
    base = column[tuple(slice(0, 1) if s == 0 else slice(None) for s in column.strides)]
    keys = np.sort(base.view(np.int64), axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return None if keys.size > column.size // 2 else keys


def _write_csv(path, header: str, columns) -> None:
    """Write a table given as columns of one size, each read in C order:
    the header, then one line per row of floats at 17 significant digits
    (round-trip exact), \\n endings; every CSV of the package.  A block of
    rows is a byte matrix of fixed-width fields, written without padding.
    A column with repeats (_distinct_keys), as all of the dispersion
    table's, has each distinct value formatted once and looked up."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len({c.size for c in cols}) != 1:
        raise ValueError("CSV columns must be arrays of one length")
    keys = [_distinct_keys(c) for c in cols]
    texts = [None if k is None else _fixed_width(k.view(float)) for k in keys]
    cells = np.empty((min(cols[0].size, _CSV_BLOCK), len(cols), _CSV_FIELD), np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, cols[0].size, _CSV_BLOCK):
            block = cells[:cols[0].size - start]
            for j, (col, k, text) in enumerate(zip(cols, keys, texts)):
                values = col.flat[start:start + len(block)]
                block[:, j] = (_fixed_width(values) if k is None else
                               text[np.searchsorted(k, values.view(np.int64))])
            block[:, -1, -1] = ord("\n")      # the row's last comma
            fh.write(block.tobytes().translate(None, b" "))


def write_diagnostics_csv(path, series: DiagnosticsSeries) -> None:
    """Write the diagnostics table (exact header, 17-digit floats, \\n
    endings)."""
    _write_csv(path, DIAGNOSTICS_HEADER, [getattr(series, c) for c in _COLUMNS])


def read_diagnostics_csv(path) -> DiagnosticsSeries:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != DIAGNOSTICS_HEADER:
            raise ValueError(f"unexpected diagnostics header: {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.zeros((0, len(_COLUMNS)))
    return DiagnosticsSeries(**{c: data[:, i] for i, c in enumerate(_COLUMNS)})


def write_snapshot(basepath, values: np.ndarray, *, gamma: float, mu: float,
                   t: float, mode: str) -> tuple[str, str]:
    """Write one field snapshot: raw little-endian float64 (x1, x2, theta in
    row-major order) plus a JSON sidecar with the grid geometry, at basepath
    (the path without extension); returns (raw_path, json_path)."""
    base = os.fspath(basepath)
    raw_path, json_path = base + ".f64", base + ".json"
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(raw_path, "wb") as fh:
        fh.write(arr.tobytes(order="C"))
    meta = {"nx": int(values.shape[0]), "ntheta": int(values.shape[2]),
            "gamma": float(gamma), "mu": float(mu), "t": float(t),
            "mode": str(mode)}
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return raw_path, json_path


def read_snapshot(basepath) -> tuple[np.ndarray, dict]:
    """Read back a (values, metadata) snapshot pair written by write_snapshot."""
    base = os.fspath(basepath)
    with open(base + ".json", "r") as fh:
        meta = json.load(fh)
    nx, ntheta = int(meta["nx"]), int(meta["ntheta"])
    raw = np.fromfile(base + ".f64", dtype="<f8")
    if raw.size != nx * nx * ntheta:
        raise ValueError("snapshot payload does not match its metadata")
    return raw.reshape(nx, nx, ntheta).astype(float), meta
