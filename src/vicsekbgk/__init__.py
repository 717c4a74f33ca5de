"""Numerical laboratory for a kinetic alignment model with BGK relaxation.

The model evolves a phase-space density F(x, omega) on the torus times the
unit sphere: free transport at speed gamma plus relaxation toward a von Mises
distribution whose concentration is the local momentum flux.  Import names
from the modules; the package itself holds only ``__version__``.

* ``sphere``:     sphere grids, von Mises states and their moments;
* ``equilibria``: the order parameter c(r), the ordered branch L(mu), and
                  the space-homogeneous flux ODE, on the circle and sphere
                  (d = 2, 3);
* ``linstab``:    Fourier-Laplace dispersion machinery (symbol h(z, k),
                  operator pencils, certification sweeps, spectral abscissa,
                  explicit hypocoercivity-style bound budgets);
* ``solver``:     a spectral Strang-splitting solver for the full PDE in two
                  dimensions with nonlinear, linearized and flux-regularized
                  right-hand sides, plus diagnostics and fits.

Command line access: ``python -m vicsekbgk <experiment> ...``.
"""

__version__ = "0.1.0"
