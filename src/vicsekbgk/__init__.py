"""Numerical laboratory for a kinetic alignment model with BGK relaxation.

The model evolves a phase-space density F(x, omega) on the torus times the
unit sphere: free transport at speed gamma plus relaxation toward a von Mises
distribution whose concentration is the local momentum flux.  The package
provides

* ``sphere``:     sphere grids, von Mises states and their moments;
* ``equilibria``: the order parameter c(r), the ordered branch L(mu), and
                  the space-homogeneous flux ODE;
* ``linstab``:    Fourier-Laplace dispersion machinery (symbol h(z, k),
                  operator pencils, certification sweeps, spectral abscissa,
                  explicit hypocoercivity-style bound budgets);
* ``solver``:     a spectral Strang-splitting solver for the full PDE in two
                  dimensions with nonlinear, linearized and flux-regularized
                  right-hand sides, plus diagnostics and fits.

Command line access: ``python -m vicsekbgk <experiment> ...``.
"""

from .sphere import (
    SPHERE_AREA,
    SphereGrid,
    MomentPair,
    auto_node_count,
    build_sphere_grid,
    moments,
    partition_function,
    von_mises,
    von_mises_gradient,
)
from .equilibria import (
    EquilibriumBranch,
    HomogeneousTrajectory,
    asymptotic_L,
    equilibrium_branch,
    homogeneous_flow,
    order_parameter,
    order_parameter_derivative,
    project_to_manifold,
    solve_L,
)
from .linstab import (
    BoundBudget,
    DispersionCoefficients,
    FLSolution,
    SingularOperatorError,
    SingularSymbolError,
    SweepResult,
    abscissa_candidates,
    alpha2,
    bound_budget,
    c0_bound,
    c1_bound,
    c2_bound,
    default_eps,
    default_z_grid,
    dispersion_coefficients,
    dispersion_sweep,
    fl_solve,
    flux_relaxation_matrix,
    lambda_J,
    lattice_wavenumbers,
    phi0,
    phi2,
    spectral_abscissa,
)
from .solver import (
    DiagnosticsSeries,
    EntropyFit,
    InitSpec,
    PhaseField,
    RunResult,
    SolverAbort,
    SolverConfig,
    diagnostics,
    dist_to_manifold,
    entropy_functional,
    field_moments,
    fit_decay_rate,
    fit_entropy_growth,
    init_field,
    read_diagnostics_csv,
    read_snapshot,
    regularized_flux,
    run,
    step,
    write_diagnostics_csv,
    write_snapshot,
)

__version__ = "0.1.0"
