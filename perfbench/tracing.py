"""Spans recorded from outside the package, and the per-layer metrics
derived from them.

Tracing replaces module attributes that the package looks up at call time
(``vicsekbgk.cli.run``, ``vicsekbgk.solver.step``, ``numpy.fft.fft2``, ...)
with wrappers that record a span: name, start, end, parent span and an
optional work figure (bytes for FFTs, points for sweeps).  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer numbers of one
process.
"""
from __future__ import annotations

import functools
import importlib
from time import perf_counter

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, attribute, span name): every call the package makes through
# these attributes is recorded.
WRAPPED = [
    ("vicsekbgk.cli", "run", "solver.run"),
    ("vicsekbgk.cli", "write_diagnostics_csv", "solver.io"),
    ("vicsekbgk.cli", "write_snapshot", "solver.io"),
    ("vicsekbgk.cli", "spectral_abscissa", "linstab.spectral_abscissa"),
    ("vicsekbgk.cli", "dispersion_sweep", "linstab.dispersion_sweep"),
    ("vicsekbgk.cli", "bound_budget", "linstab.bound_budget"),
    ("vicsekbgk.cli", "axis_coefficients", "linstab.axis_coefficients"),
    ("vicsekbgk.cli", "c2_bound", "linstab.c2_bound"),
    ("vicsekbgk.cli", "equilibrium_branch", "equilibria.equilibrium_branch"),
    ("vicsekbgk.cli", "homogeneous_flow", "equilibria.homogeneous_flow"),
    ("vicsekbgk.solver", "init_field", "solver.init_field"),
    ("vicsekbgk.solver", "step", "solver.step"),
    ("vicsekbgk.solver", "diagnostics", "solver.diagnostics"),
    ("vicsekbgk.solver", "build_sphere_grid", "sphere.build_sphere_grid"),
    ("vicsekbgk.linstab", "build_sphere_grid", "sphere.build_sphere_grid"),
    ("numpy.polynomial.legendre", "leggauss", "numpy.leggauss"),
] + [("numpy.fft", n, "fft") for n in FFT_NAMES] \
  + [("scipy.fft", n, "fft") for n in FFT_NAMES]

NAME, START, END, PARENT, WORK = range(5)


def _fft_bytes(args, out) -> int:
    return getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)


def _sweep_points(args, out) -> int:
    return out.re_h.size


_WORK = {"fft": _fft_bytes, "linstab.dispersion_sweep": _sweep_points}


class Tracer:
    """Records spans; ``install`` wraps the attributes, ``restore`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name: str):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if work is not None:
                rec[WORK] = work(args, out)
            return out
        return traced

    def install(self) -> None:
        for modname, attr, name in WRAPPED:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()


def _under(spans: list[list], i: int, names: set[str]) -> int:
    """Index of the nearest ancestor of span i named in names, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer figures of one process: (values, per-call samples).

    Times are in the unit of the metric name; counts are exact.  Spans named
    ``cli.main:<experiment>`` are the experiments.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def idx(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(name):
        return sum(dur[i] for i in idx(name))

    steps = idx("solver.step")
    ffts = [i for i in idx("fft") if _under(spans, i, {"fft"}) < 0]
    step_ffts = [i for i in ffts if _under(spans, i, {"solver.step"}) >= 0]
    abscissa_ffts = [i for i in ffts
                     if _under(spans, i, {"linstab.spectral_abscissa"}) >= 0]
    runs = idx("solver.run")
    mains = [i for i, s in enumerate(spans) if s[NAME].startswith("cli.main:")]
    sweeps = idx("linstab.dispersion_sweep")
    sweep_points = sum(spans[i][WORK] for i in sweeps)
    sweep_s = sum(dur[i] for i in sweeps)
    nsteps = len(steps)
    step_s = sum(dur[i] for i in steps)
    run_s = sum(dur[i] for i in runs)

    def share_in(experiment: str, name: str) -> float:
        """Share of an experiment's time spent in spans called name."""
        main = f"cli.main:{experiment}"
        base = total(main)
        part = sum(dur[i] for i in idx(name) if _under(spans, i, {main}) >= 0)
        return part / base if base else 0.0

    def self_share(experiment: str) -> float:
        """Share of an experiment's time spent in cli.main itself."""
        top = idx(f"cli.main:{experiment}")
        base = sum(dur[i] for i in top)
        return sum(dur[i] - child[i] for i in top) / base if base else 0.0

    values = {
        "solver.steps": nsteps,
        "solver.steps_per_s": nsteps / run_s if run_s else 0.0,
        "solver.fft_calls_per_step": len(step_ffts) / nsteps if nsteps else 0.0,
        "solver.fft_mb_per_step":
            sum(spans[i][WORK] for i in step_ffts) / nsteps / 1e6
            if nsteps else 0.0,
        "solver.fft_share_of_step":
            sum(dur[i] for i in step_ffts) / step_s if step_s else 0.0,
        "solver.diagnostics_calls": len(idx("solver.diagnostics")),
        "solver.io_ms": 1e3 * total("solver.io"),
        "solver.run_self_ms": 1e3 * sum(dur[i] - child[i] for i in runs),
        "solver.init_field_ms": 1e3 * total("solver.init_field"),
        "sphere.ms": 1e3 * total("sphere.build_sphere_grid"),
        "sphere.calls": len(idx("sphere.build_sphere_grid")),
        "linstab.spectral_abscissa_ms": 1e3 * total("linstab.spectral_abscissa"),
        "linstab.abscissa_fft_calls": len(abscissa_ffts),
        "linstab.c2_bound_calls": len(idx("linstab.c2_bound")),
        "linstab.leggauss_calls": len(
            [i for i in idx("numpy.leggauss")
             if _under(spans, i, {"linstab.c2_bound",
                                  "linstab.bound_budget"}) >= 0]),
        "linstab.bound_budget_ms": 1e3 * total("linstab.bound_budget"),
        "linstab.dispersion_sweep_ms": 1e3 * sweep_s,
        "linstab.sweep_points": sweep_points,
        "linstab.sweep_points_per_s": sweep_points / sweep_s if sweep_s else 0.0,
        "linstab.leggauss_share_of_bounds": share_in("bounds", "numpy.leggauss"),
        "equilibria.equilibrium_branch_ms":
            1e3 * total("equilibria.equilibrium_branch"),
        "equilibria.homogeneous_flow_ms": 1e3 * total("equilibria.homogeneous_flow"),
        "cli.self_ms": 1e3 * sum(dur[i] - child[i] for i in mains),
        "cli.self_share_of_dispersion": self_share("dispersion"),
        "fft.calls": len(ffts),
    }
    samples = {
        "solver.step_ms": [1e3 * dur[i] for i in steps],
        "solver.diagnostics_ms": [1e3 * dur[i] for i in idx("solver.diagnostics")],
        "linstab.c2_bound_ms": [1e3 * dur[i] for i in idx("linstab.c2_bound")],
        "linstab.axis_coefficients_us":
            [1e6 * dur[i] for i in idx("linstab.axis_coefficients")],
    }
    return values, samples
