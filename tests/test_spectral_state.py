"""The half-spectrum Strang step against a nodal reference implementation.

`nodal_step` is the solver's earlier formulation, kept here as an oracle: the
state is the (nx, nx, ntheta) array of nodal values, transport is a complex
fft2 / phase / ifft2 round trip whose real part is kept, and dealiasing is a
separate fft2 / ifft2 round trip of the von Mises target.  It is built from
the public sphere and linstab functions, not from the solver's workspace.
"""
import math

import numpy as np
import pytest
from scipy import special

import vicsekbgk.solver as solver
from vicsekbgk.equilibria import solve_L
from vicsekbgk.linstab import flux_relaxation_matrix
from vicsekbgk.solver import InitSpec, SolverConfig, run, step
from vicsekbgk.sphere import build_sphere_grid, moments, von_mises, von_mises_gradient


class NodalReference:
    """Nodal Strang step of one configuration."""

    def __init__(self, config: SolverConfig):
        nx, ntheta, dt = config.nx, config.ntheta, config.dt
        self.config = config
        self.grid = build_sphere_grid(2, ntheta)
        theta = self.grid.angles
        self.cos, self.sin = np.cos(theta), np.sin(theta)
        self.wq = 2.0 * math.pi / ntheta
        m = np.fft.fftfreq(nx, d=1.0 / nx)
        karg = np.multiply.outer(m, self.cos)[:, None, :] \
            + np.multiply.outer(m, self.sin)[None, :, :]
        self.phase = np.exp(-1j * config.gamma * dt * karg)
        cut = nx // 3
        self.dealias_mask = (np.abs(m)[:, None] > cut) | (np.abs(m)[None, :] > cut)
        self.dealias = config.dealias and config.mode != "linearized"
        mu = config.mu
        if mu > 2.0:
            a = config.jeq_angle
            self.Jeq = solve_L(mu, 2) * np.array([math.cos(a), math.sin(a)])
        else:
            self.Jeq = np.zeros(2)
        self.Meq = von_mises(self.Jeq, self.grid)
        self.G = von_mises_gradient(self.Jeq, self.grid)
        self.C = flux_relaxation_matrix(mu, self.Jeq, self.grid)

    def moments(self, v):
        return (v.sum(axis=2) * self.wq, v @ (self.cos * self.wq),
                v @ (self.sin * self.wq))

    def collide(self, v, h):
        rho, Jx, Jy = self.moments(v)
        r = np.hypot(Jx, Jy)
        rs = np.where(r < 1e-6, 1.0, r)
        c_over_r = np.where(r < 1e-6, 0.5 - r * r / 16.0,
                            special.i1e(rs) / (rs * special.i0e(rs)))
        sfac = rho * c_over_r - 1.0
        Jsx = Jx + 0.5 * h * sfac * Jx
        Jsy = Jy + 0.5 * h * sfac * Jy
        if self.config.mode == "regularized":
            cap = 1.0 / self.config.eps_reg
            rs = np.hypot(Jsx, Jsy)
            shrink = np.where(rs > cap, cap / np.where(rs > 0, rs, 1.0), 1.0)
            Jsx, Jsy = Jsx * shrink, Jsy * shrink
        rs = np.hypot(Jsx, Jsy)
        E = np.exp(Jsx[..., None] * self.cos + Jsy[..., None] * self.sin
                   - rs[..., None])
        target = (rho / (E.sum(axis=2) * self.wq))[..., None] * E
        if self.dealias:
            spec = np.fft.fft2(target, axes=(0, 1))
            spec[self.dealias_mask] = 0.0
            target = np.fft.ifft2(spec, axes=(0, 1)).real
        return math.exp(-h) * v + (1.0 - math.exp(-h)) * target

    def collide_linear(self, v, h):
        rho, Jx, Jy = self.moments(v)
        C, mu = self.C, self.config.mu
        rx = rho * self.Jeq[0] / mu + C[0, 0] * Jx + C[0, 1] * Jy
        ry = rho * self.Jeq[1] / mu + C[1, 0] * Jx + C[1, 1] * Jy
        Jsx = Jx + 0.5 * h * rx
        Jsy = Jy + 0.5 * h * ry
        target = rho[..., None] * self.Meq \
            + mu * (Jsx[..., None] * self.G[0] + Jsy[..., None] * self.G[1])
        return math.exp(-h) * v + (1.0 - math.exp(-h)) * target

    def step(self, v):
        collide = (self.collide_linear if self.config.mode == "linearized"
                   else self.collide)
        h = 0.5 * self.config.dt
        v = collide(v, h)
        spec = np.fft.fft2(v, axes=(0, 1))
        spec *= self.phase
        v = np.fft.ifft2(spec, axes=(0, 1)).real
        return collide(v, h)


def _nyquist_field(config: SolverConfig) -> np.ndarray:
    """A positive field (a zero-mean one in linearized mode) with energy in
    the Nyquist row, column and corner, plus full-spectrum noise."""
    nx, ntheta = config.nx, config.ntheta
    grid = build_sphere_grid(2, ntheta)
    theta = grid.angles
    sign = (-1.0) ** np.arange(nx)
    g = (sign[:, None, None] * (1.0 + 0.5 * np.cos(theta))
         + sign[None, :, None] * (1.0 + 0.5 * np.sin(theta))
         + (sign[:, None] * sign[None, :])[..., None] * 0.5 * np.cos(2 * theta))
    mu = config.mu
    a = config.jeq_angle
    L = solve_L(mu, 2) if mu > 2.0 else 0.0
    Meq = von_mises(L * np.array([math.cos(a), math.sin(a)]), grid)
    rng = np.random.default_rng(5)
    values = mu * Meq * (1.0 + 0.2 * g) + 0.05 * rng.random((nx, nx, ntheta))
    if config.mode == "linearized":
        values = values - values.mean()
    return values


# nx = 16 keeps the bare ids; at nx = 6 the 2/3 rule keeps 3 low rows and 2
# high ones, and nx = 4 is the smallest grid
CASES = [pytest.param(mode, dealias, nx,
                      id=f"{mode}-{dealias}" + ("" if nx == 16 else f"-nx{nx}"))
         for nx in (16, 4, 6)
         for mode in ("nonlinear", "linearized", "regularized")
         for dealias in (True, False)]


@pytest.mark.parametrize("mode,dealias,nx", CASES)
def test_run_matches_nodal_reference(monkeypatch, mode, dealias, nx):
    nsteps = 50
    cfg = SolverConfig(mu=2.5, mode=mode, nx=nx, ntheta=32, dt=0.01,
                       t_end=nsteps * 0.01, jeq_angle=0.4, dealias=dealias,
                       eps_reg=1.0 if mode == "regularized" else None)
    values = _nyquist_field(cfg)
    monkeypatch.setattr(solver, "init_field", lambda config: values)
    spectral = run(cfg).snapshots[-1][1]

    ref = NodalReference(cfg)
    v = values
    for _ in range(nsteps):
        v = ref.step(v)
    err = np.max(np.abs(spectral - v)) / np.max(np.abs(v))
    assert err <= 1e-12


def test_nyquist_field_has_nyquist_content():
    cfg = SolverConfig(mu=2.5, nx=16, ntheta=32)
    spec = np.fft.fft2(_nyquist_field(cfg), axes=(0, 1))
    n = cfg.nx // 2
    for row, col in ((n, 0), (0, n), (n, n)):
        assert np.max(np.abs(spec[row, col])) > 1.0


# ---------------------------------------------------------------------------
# transform counts of one step and of a run
# ---------------------------------------------------------------------------

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _record_transforms(monkeypatch):
    """The list that (name, input shape) of every numpy.fft call from now
    on is appended to."""
    calls = []
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)

        def counted(a, *args, _name=name, _fn=fn, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _count_transforms(monkeypatch, cfg):
    S = np.fft.rfft2(_nyquist_field(cfg), axes=(0, 1))
    step(S, cfg)        # build the workspace outside the count
    calls = _record_transforms(monkeypatch)
    step(S, cfg)
    return calls


@pytest.mark.parametrize("mode", ["nonlinear", "regularized"])
def test_nonlinear_step_transforms_only_the_moments(monkeypatch, mode):
    # the collision target goes forward by two DFT GEMMs, so the only
    # transforms are the inverse ones of the stacked 2-D moments (rho, J)
    cfg = SolverConfig(mu=2.5, mode=mode, nx=16, ntheta=32, dt=0.01,
                       dealias=True,
                       eps_reg=1.0 if mode == "regularized" else None)
    calls = _count_transforms(monkeypatch, cfg)
    assert calls == [("irfft2", (3, 16, 9))] * 2


def test_linearized_step_needs_no_transform(monkeypatch):
    cfg = SolverConfig(mu=2.5, mode="linearized", nx=16, ntheta=32, dt=0.01,
                       init=InitSpec(recipe="random-smooth"))
    assert _count_transforms(monkeypatch, cfg) == []


def test_linearized_run_transforms_once_per_sample(monkeypatch):
    # the initial rfft2, then one irfft2 per sample: the diagnostics read
    # the spectrum the run holds, with no forward transform of a sample
    cfg = SolverConfig(mu=2.5, mode="linearized", nx=16, ntheta=32, dt=0.01,
                       t_end=0.23, snapshot_every=5, jeq_angle=0.4,
                       init=InitSpec(recipe="random-smooth", amplitude=0.5))
    solver.init_field(cfg)      # build the workspace outside the count
    calls = _record_transforms(monkeypatch)
    nsamples = len(run(cfg).series) - 1
    assert nsamples == 5
    assert calls == [("rfft2", (16, 16, 32))] + [("irfft2", (16, 9, 32))] * nsamples


# ---------------------------------------------------------------------------
# the collisions on the spectrum's float view
# ---------------------------------------------------------------------------

def _config_and_spectrum(mode, dt=0.01):
    cfg = SolverConfig(mu=2.5, mode=mode, nx=16, ntheta=32, dt=dt,
                       jeq_angle=0.4,
                       eps_reg=1.0 if mode == "regularized" else None)
    return cfg, np.fft.rfft2(_nyquist_field(cfg), axes=(0, 1))


def test_collide_linear_matches_complex_moment_oracle():
    # the complex-moment formula the two real GEMMs replaced, at a long
    # half-step so that the rank-3 term is not small beside e^{-h} S
    cfg, S = _config_and_spectrum("linearized", dt=0.5)
    ws = solver._workspace_of(cfg)
    assert np.abs(S.imag).max() > 0.1
    V = ws.V2[0::2, 0::2]
    rho, J = moments(S, ws.grid)
    oracle = ws.decay * S + np.concatenate([rho[..., None], J], axis=-1) @ V
    out = solver._collide_linear(S, ws)
    eps = np.finfo(float).eps
    assert out.shape == S.shape and out.dtype == S.dtype
    assert np.max(np.abs(out - oracle)) <= 4 * eps * np.max(np.abs(oracle))


@pytest.mark.parametrize("mode", ["nonlinear", "regularized"])
def test_collide_reads_spectral_moments_of_complex_oracle(monkeypatch, mode):
    cfg, S = _config_and_spectrum(mode)
    ws = solver._workspace_of(cfg)
    seen = []
    irfft2 = np.fft.irfft2

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return irfft2(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft2", spy)
    solver._collide(S, ws)
    rho, J = moments(S, ws.grid)
    oracle = np.concatenate([rho[None], np.moveaxis(J, -1, 0)])
    eps = np.finfo(float).eps
    [spectral] = seen
    assert spectral.shape == oracle.shape == (3, 16, 9)
    assert np.max(np.abs(spectral - oracle)) <= 4 * eps * np.max(np.abs(oracle))


@pytest.mark.parametrize("mode", ["nonlinear", "linearized", "regularized"])
def test_step_accepts_fortran_ordered_spectrum(mode):
    cfg, S = _config_and_spectrum(mode)
    SF = np.asfortranarray(S)
    assert not SF.flags.c_contiguous
    before = SF.copy(order="K")
    out = step(SF, cfg)
    assert np.array_equal(out.view(float), step(S, cfg).view(float))
    assert np.array_equal(SF, before) and SF.flags.f_contiguous
