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
target is built in physical space and transformed forward once, with the
2/3-rule mask (Orszag 1971) multiplied in when dealiasing is on.  A
nonlinear step therefore costs two 3-D real FFTs.  Three right-hand sides
are supported:

* "nonlinear":    the alignment dynamics themselves;
* "linearized":   the dynamics linearized at an equilibrium (mu, J_eq); the
                  stored field is the perturbation f with Int Int f = 0.  The
                  collision substep is one fixed map, e^{-h} Id plus a rank-3
                  term (rho, J) -> (rho, J) . V, built once per (grid,
                  operator, dt).  It acts pointwise in x, so it applies to
                  the spectrum directly: the moment GEMM, then a second real
                  GEMM that expands (rho, J) back over the float view.  A
                  step needs no FFT at all.  Two such maps compose to one of
                  the same form, e^{-2h} Id plus a rank-3 term, so `run`
                  applies each step's closing collision and the next step's
                  opening one as a single merged pair between samples;
* "regularized":  nonlinear dynamics with the flux clamped,
                  J* -> (J*/|J*|) min(|J*|, 1/eps_reg).

Nodal values are formed with one irfft2 only at diagnostics and snapshot
times; `init_field`, the diagnostics and the snapshots all see nodal fields.

Every rule on the fields of a SolverConfig and its InitSpec is stated once,
in `validate`.  It runs when the config is used (`init_field`, `run`), not
when it is built, and the command line calls it before computing anything.

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

import numpy as np

from .equilibria import _c_over_r, project_to_manifold, solve_L
from .linstab import flux_relaxation_matrix
from .sphere import SphereGrid, build_sphere_grid, von_mises, von_mises_gradient

__all__ = [
    "InitSpec",
    "SolverConfig",
    "PhaseField",
    "SolverAbort",
    "DiagnosticsSeries",
    "RunResult",
    "EntropyFit",
    "validate",
    "init_field",
    "step",
    "run",
    "regularized_flux",
    "field_moments",
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


@dataclass
class PhaseField:
    """Nodal phase-space density on the (x1, x2, theta) tensor grid."""

    values: np.ndarray
    gamma: float
    grid: SphereGrid

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ntheta(self) -> int:
        return self.values.shape[2]

    def copy(self) -> "PhaseField":
        return PhaseField(self.values.copy(), self.gamma, self.grid)


class SolverAbort(RuntimeError):
    """Raised when the state stops being finite; carries the failure time."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t = {t:.6g}")
        self.t = t


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


def _moment_weights(grid: SphereGrid) -> np.ndarray:
    """Quadrature weights of (rho, J_x, J_y) as the rows of a (3, n) array."""
    return grid.weights * np.vstack([np.ones(grid.n), grid.nodes.T])


def _moments(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Angular moments (rho, J_x, J_y) over the last (theta) axis of nodal
    values, stacked on a new first axis.  The steps read the moments of the
    spectrum through the workspace's W2."""
    flat = values.reshape(-1, values.shape[-1])
    return (weights @ flat.T).reshape((3,) + values.shape[:-1])


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
    vector's float view: A on the even rows and columns, A again on the odd
    ones, zero elsewhere."""
    out = np.zeros((2 * A.shape[0], 2 * A.shape[1]))
    out[0::2, 0::2] = A
    out[1::2, 1::2] = A
    return out


def _float_rows(S: np.ndarray) -> np.ndarray:
    """The float view of the half-spectrum S, one row of 2 ntheta
    interleaved (Re, Im) values per cell; a copy only if S is not
    C-contiguous."""
    return np.ascontiguousarray(S).view(float).reshape(-1, 2 * S.shape[-1])


class _Workspace:
    """Precomputed grid and operator data shared by all steps of one
    (grid, operator, dt) combination.  Both collisions span h = dt/2 and
    read the moments (rho, J) off the spectrum's float rows as rows @ W2,
    with the (2 ntheta, 6) W2 the moment weights interleaved over (Re, Im).
    The linearized one is S -> e^{-h} S + (rho, J) . V, with the (3, ntheta)
    V = (1 - e^{-h}) T^T [M_eq; mu grad_J M_eq] and T = Id + (h/2)
    [[0, 0], [J_eq/mu, C]] the Euler predictor of (rho, J); it is stored
    interleaved the same way, as the (6, 2 ntheta) V2.  Two linearized
    collisions in a row are one map of the same form, S -> e^{-2h} S +
    (rho, J) . V2pair, with V2pair = 2 e^{-h} V2 + (V2 @ W2) @ V2."""

    def __init__(self, nx: int, ntheta: int, gamma: float, dt: float,
                 mu: float, mode: str, eps_reg: float | None,
                 jeq_angle: float, dealias: bool):
        self.grid = build_sphere_grid(2, ntheta)
        self.wtheta = 2.0 * math.pi / ntheta
        self.W2 = _interleave(_moment_weights(self.grid).T)
        self.shape = (nx, nx)
        self.phase = _half_phase(nx, gamma, dt, self.grid)
        self.keep = None
        if dealias and mode != "linearized":
            m = np.abs(np.fft.fftfreq(nx, d=1.0 / nx))
            cut = nx // 3
            self.keep = ((m[:, None] <= cut)
                         & (m[None, : nx // 2 + 1] <= cut))[..., None]
        self.h = 0.5 * dt
        self.decay = math.exp(-self.h)
        self.eps_reg = eps_reg if mode == "regularized" else None
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


_workspace = lru_cache(maxsize=8)(_Workspace)


def _workspace_of(config: SolverConfig, dt: float) -> _Workspace:
    """The cached workspace of config's grid and operator at step size dt;
    run controls (t_end, init, seed, sampling) do not enter the key."""
    return _workspace(config.nx, config.ntheta, config.gamma, dt, config.mu,
                      config.mode, config.eps_reg, config.jeq_angle,
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


def _collide(S: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Exact relaxation over the half-step span ws.h (nonlinear/regularized),
    on the half-spectrum S."""
    m = (_float_rows(S) @ ws.W2).view(complex).T.reshape((3,) + S.shape[:-1])
    rho, Jx, Jy = np.fft.irfft2(m, s=ws.shape, axes=(1, 2))
    r = np.hypot(Jx, Jy)
    sfac = rho * _c_over_r(r) - 1.0
    Js = np.stack([Jx + 0.5 * ws.h * sfac * Jx, Jy + 0.5 * ws.h * sfac * Jy],
                  axis=-1)
    if ws.eps_reg is not None:
        Js = regularized_flux(Js, ws.eps_reg)
    E = von_mises(Js, ws.grid)
    E *= rho[..., None]
    target = np.fft.rfft2(E, axes=(0, 1))
    decay = ws.decay
    target *= (1.0 - decay) if ws.keep is None else (1.0 - decay) * ws.keep
    target += decay * S
    return target


def _rank3(R: np.ndarray, W2: np.ndarray, V: np.ndarray, decay: float,
           M: np.ndarray | None = None, T: np.ndarray | None = None) -> np.ndarray:
    """R <- decay R + (R @ W2) @ V in place on float rows R, with M and T
    optional scratch for the moments and the rank-3 term; returns R."""
    T = np.matmul(np.matmul(R, W2, out=M), V, out=T)
    R *= decay
    R += T
    return R


def _collide_linear(S: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Exact relaxation of the linearized collision over the half-step span:
    the workspace's rank-3 map.  It is linear and acts cell by cell, so it
    applies to the spectrum's float rows as is: two real GEMMs."""
    R = _rank3(_float_rows(S).copy(), ws.W2, ws.V2, ws.decay)
    return R.view(complex).reshape(S.shape)


def step(S: np.ndarray, dt: float, config: SolverConfig) -> np.ndarray:
    """One Strang step, collision(dt/2), transport(dt), collision(dt/2), of
    the half-spectrum state S = rfft2(F.values, axes=(0, 1)); returns the new
    half-spectrum and leaves S untouched."""
    ws = _workspace_of(config, dt)
    collide = _collide_linear if config.mode == "linearized" else _collide
    S = collide(S, ws)
    S *= ws.phase
    return collide(S, ws)


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


def init_field(config: SolverConfig) -> PhaseField:
    """Build the initial field of a run; every recipe is rescaled so the
    mean density is exactly mu (mean zero, for linearized perturbations)."""
    validate(config)
    ws = _workspace_of(config, config.dt)
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
    return PhaseField(np.ascontiguousarray(values), config.gamma, ws.grid)


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


def field_moments(F: PhaseField) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise density rho(x) and flux J(x): angular moments of F."""
    rho, Jx, Jy = _moments(F.values, _moment_weights(F.grid))
    return rho, np.stack([Jx, Jy], axis=-1)


def entropy_functional(F: PhaseField) -> float:
    """Int (1/e + F log F) dx domega, with F log F extended by 0 at F <= 0."""
    v = F.values
    dvol = (2.0 * math.pi / F.nx) ** 2 * (2.0 * math.pi / F.ntheta)
    pos = v > 0.0
    s = float(np.sum(np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)) * dvol)
    return s + (2.0 * math.pi) ** 3 / math.e


def dist_to_manifold(F: PhaseField, mu: float) -> float:
    """L^2(dx dtheta) distance from F to the equilibrium family {mu M_J}.

    For mu <= 2 the family is the single uniform state.  Above threshold the
    squared distance to mu M_phi (direction phi, |J| = L(mu)) splits as

        ||F - Fbar||^2 + (2pi)^2 ||Fbar - mu M_phi||^2_theta,

    with Fbar(theta) the spatial mean of F.  Both terms are sums of squared
    differences, so a distance far below ||F|| keeps its digits.  The
    direction minimizing the theta-only term is located by a coarse circular
    scan refined with golden-section search (absolute tolerance 1e-12); the
    search is seeded by, and in practice agrees with, the direction of the
    mean flux of F.
    """
    grid = F.grid
    wq = 2.0 * math.pi / F.ntheta
    dx2 = (2.0 * math.pi / F.nx) ** 2
    if mu <= 2.0:
        m0 = np.full(F.ntheta, 1.0 / (2.0 * math.pi))
        diff2 = float(np.sum((F.values - mu * m0) ** 2)) * dx2 * wq
        return math.sqrt(max(diff2, 0.0))
    L = solve_L(mu, 2)
    Fbar = F.values.mean(axis=(0, 1))
    spread2 = float(np.sum((F.values - Fbar) ** 2)) * dx2 * wq
    area2 = (2.0 * math.pi) ** 2

    def gap(phi):
        """Squared theta-distance to mu M_phi, for one phi or an array."""
        m = von_mises(L * np.array([np.cos(phi), np.sin(phi)]).T, grid)
        return np.sum((Fbar - mu * m) ** 2, axis=-1) * wq

    jbar = _moments(Fbar, _moment_weights(grid))[1:]
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


def diagnostics(F: PhaseField, mu: float) -> dict:
    """Diagnostics of a physical field: mean mass/flux, L^2 norm, entropy,
    distance to the equilibrium family, density extremes."""
    rho, J = field_moments(F)
    dx2 = (2.0 * math.pi / F.nx) ** 2
    wq = 2.0 * math.pi / F.ntheta
    jbar = J.mean(axis=(0, 1))
    return {
        "mass": float(rho.mean()),
        "jbar_x": float(jbar[0]),
        "jbar_y": float(jbar[1]),
        "l2": float(math.sqrt(np.sum(F.values**2) * dx2 * wq)),
        "entropy": entropy_functional(F),
        "dist": dist_to_manifold(F, mu),
        "rho_min": float(rho.min()),
        "rho_max": float(rho.max()),
    }


def _diagnostics_row(F: PhaseField, t: float, config: SolverConfig,
                     ws: _Workspace) -> dict:
    if config.mode == "linearized":
        phys = PhaseField(config.mu * ws.Meq + F.values, F.gamma, F.grid)
        row = diagnostics(phys, config.mu)
        rho, J = field_moments(F)
        jbar = J.mean(axis=(0, 1))
        row["mass"] = float(rho.mean())
        row["jbar_x"], row["jbar_y"] = float(jbar[0]), float(jbar[1])
        row["l2"] = float(math.sqrt(
            np.sum(F.values**2) * (2.0 * math.pi / F.nx) ** 2
            * 2.0 * math.pi / F.ntheta))
    else:
        row = diagnostics(F, config.mu)
    row["t"] = float(t)
    return row


@dataclass
class RunResult:
    """Output bundle of run(): diagnostics plus retained field snapshots."""

    config: SolverConfig
    series: DiagnosticsSeries
    snapshots: list  # [(t, values array), ...]


def run(config: SolverConfig) -> RunResult:
    """Integrate the configured problem from t = 0 to t_end.

    Diagnostics are sampled at t = 0, every snapshot_every steps, and at the
    final step.  Snapshots of the field are retained at the same cadence when
    keep_snapshots is set, otherwise only first and last.  Steps act on the
    half-spectrum state; nodal values are formed only at those sample times.
    Raises SolverAbort (with the failure time) as soon as the state stops
    being finite.

    Nonlinear and regularized runs call `step`.  A linearized run keeps, in
    place, the state U = P C S after a step's transport P and before its
    closing collision C, so a step with no sample is one merged pair,
    U <- P (C C U), and a sample takes S = C U, then continues with
    U <- P C S: n steps with s samples apply n + s rank-3 maps, not 2 n.
    """
    validate(config)
    nsteps = _num_steps(config)
    ws = _workspace_of(config, config.dt)
    F = init_field(config)
    rows = [_diagnostics_row(F, 0.0, config, ws)]
    snaps = [(0.0, F.values)]
    S = np.fft.rfft2(F.values, axes=(0, 1))
    linear = config.mode == "linearized"
    if linear:  # S's own float rows, which the loop advances in place
        R = _float_rows(S)
        M, T = np.empty((R.shape[0], ws.W2.shape[1])), np.empty_like(R)
    sample = True  # t = 0
    for i in range(1, nsteps + 1):
        if not linear:
            S = step(S, config.dt, config)
        else:  # U <- P C S after a sample, U <- P C C U otherwise
            V, decay = (ws.V2, ws.decay) if sample else (ws.V2pair, ws.decay2)
            _rank3(R, ws.W2, V, decay, M, T)
            S *= ws.phase
        sample = i % config.snapshot_every == 0 or i == nsteps
        if linear and sample:  # the Strang state S = C U
            _rank3(R, ws.W2, ws.V2, ws.decay, M, T)
        t = i * config.dt
        if not np.isfinite(S.view(float)).all():  # both parts, as floats
            raise SolverAbort(t)
        if sample:
            F = PhaseField(np.fft.irfft2(S, s=ws.shape, axes=(0, 1)),
                           F.gamma, F.grid)
            rows.append(_diagnostics_row(F, t, config, ws))
            if config.keep_snapshots:
                snaps.append((t, F.values))
    if not config.keep_snapshots:
        snaps.append((nsteps * config.dt, F.values))
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

# rows formatted by one %-operation of _write_csv, and the most distinct
# values a column may hold to be formatted once per value
_CSV_BLOCK = 4096


def _distinct_keys(column: np.ndarray):
    """The sorted distinct float64 bit patterns of ``column`` as int64 keys
    (so -0.0 and 0.0, and NaNs of different bits, stay apart), or None if
    there are more than _CSV_BLOCK of them or more than half as many as
    rows, or if the column fits in one block: then formatting each value
    once saves too little to pay for the sort and the lookup.  Sorting the
    bit view stands in for np.unique, whose first call imports numpy.ma."""
    if column.size <= _CSV_BLOCK:
        return None
    keys = np.sort(column.view(np.int64))
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if np.count_nonzero(new) > min(_CSV_BLOCK, keys.size // 2):
        return None
    return keys[new]


def _write_csv(path, header: str, columns) -> None:
    """Write a table given as equal-length 1-D columns: the header line,
    then one line per row of floats at 17 significant digits (round-trip
    exact), \\n line endings.  Every CSV of the package goes through here.

    A column longer than one block with at most _CSV_BLOCK distinct values,
    each repeated twice on average (such as the tiled z and repeated k of
    the dispersion table), has each distinct value formatted once; its rows take those
    strings by a binary search of their bit patterns.  The other columns
    are formatted as they are written.  Each block of _CSV_BLOCK rows is one
    %-operation over a flat list of the block's fields, so the writer holds
    one block of strings plus the formatted distinct values at a time, and
    never a copy of the table."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
        raise ValueError("CSV columns must be 1-D arrays of one length")
    ncols, nrows = len(cols), cols[0].size
    keys = [_distinct_keys(c) for c in cols]
    # the formatted distinct values, in key order
    texts = [None if k is None else
             np.array(("%.17g " * k.size % tuple(k.view(float).tolist())).split(),
                      dtype=object)
             for k in keys]
    line = ",".join("%.17g" if k is None else "%s" for k in keys) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, nrows, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, nrows)
            fields = [None] * ((stop - start) * ncols)
            for j, (col, k, text) in enumerate(zip(cols, keys, texts)):
                values = col[start:stop]
                fields[j::ncols] = (values.tolist() if k is None else
                                    text[np.searchsorted(k, values.view(np.int64))].tolist())
            fh.write((line * (stop - start)) % tuple(fields))


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
    row-major order) plus a JSON sidecar with the grid geometry.

    basepath is the path without extension; returns (raw_path, json_path).
    """
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
