"""Quadrature on the unit sphere and von Mises alignment densities.

Every sphere integral in this package runs through a :class:`SphereGrid`:
equispaced angles (periodic trapezoid rule) on the circle, Gauss-Legendre in
the polar angle times an equispaced azimuth ring on the 2-sphere.  Both rules
converge spectrally for smooth integrands, which is what keeps the von Mises
moment identities at the 1e-10 level used downstream.

The von Mises density with parameter vector J is

    M_J(omega) = exp(omega . J) / Z(J),      Z(J) = Int_S exp(omega . J) domega,

so M_0 is the uniform density 1/|S^{d-1}| and concentration grows with |J|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPHERE_AREA",
    "SphereGrid",
    "build_sphere_grid",
    "auto_node_count",
    "partition_function",
    "von_mises",
    "von_mises_gradient",
    "moments",
    "axis_integral",
    "axis_integral_recursive",
]

# |S^{d-1}| for the dimensions with grid support
SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes and weights on S^{d-1}, d in {2, 3}.

    Attributes
    ----------
    d : ambient dimension (nodes live on S^{d-1}).
    nodes : (n, d) array of unit vectors.
    weights : (n,) array of positive weights summing to |S^{d-1}|.
    angles : node angles in [0, 2pi) for d=2 grids, None for d=3.
    """

    d: int
    nodes: np.ndarray
    weights: np.ndarray
    angles: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float | complex:
        """Quadrature of a nodal function (last axis must match the grid)."""
        return values @ self.weights

    @property
    def moment_weights(self) -> np.ndarray:
        """The (d + 1, n) quadrature weights of the moments (rho, J): the
        rows of (1, omega) times the weights."""
        return self.weights * np.vstack([np.ones(self.n), self.nodes.T])


def auto_node_count(jmag: float) -> int:
    """Node count that resolves exp(omega . J) at concentration |J|."""
    return max(64, 8 * int(math.ceil(abs(jmag))))


def build_sphere_grid(d: int, n: int) -> SphereGrid:
    """Build a quadrature grid on S^{d-1}.

    For d=2 this is the n-point periodic trapezoid rule (exact for
    trigonometric polynomials of degree < n).  For d=3 it is an n-point
    Gauss-Legendre rule in cos(polar) tensored with a 2n-point azimuth ring,
    exact for spherical polynomials of degree < n.

    Args:
        d: ambient dimension, 2 or 3.
        n: resolution parameter, at least 4.
    """
    if d not in (2, 3):
        raise ValueError(f"only d in (2, 3) is supported, got d={d}")
    if n < 4:
        raise ValueError(f"need at least 4 nodes, got n={n}")
    if d == 2:
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * np.pi / n)
        return SphereGrid(d=2, nodes=nodes, weights=weights, angles=theta)
    # d == 3: Gauss-Legendre in u = cos(polar), trapezoid in azimuth
    u, wu = np.polynomial.legendre.leggauss(n)
    nphi = 2 * n
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    su = np.sqrt(1.0 - u**2)
    ox = np.outer(su, np.cos(phi)).ravel()
    oy = np.outer(su, np.sin(phi)).ravel()
    oz = np.outer(u, np.ones(nphi)).ravel()
    nodes = np.stack([ox, oy, oz], axis=1)
    weights = np.outer(wu, np.full(nphi, 2.0 * np.pi / nphi)).ravel()
    return SphereGrid(d=3, nodes=nodes, weights=weights)


def _as_param(J, d: int) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if J.shape != (d,):
        raise ValueError(f"parameter vector must have shape ({d},), got {J.shape}")
    return J


def _shifted_exp(J: np.ndarray, grid: SphereGrid,
                 out: np.ndarray | None = None) -> np.ndarray:
    """exp(omega . J - |J|) at the nodes for J of shape (..., d), built in
    place, in out if given (the solver calls it on every cell of every
    substep); the values are <= 1, so no concentration can overflow."""
    e = np.matmul(J, grid.nodes.T, out=out)
    e -= np.sqrt(np.square(J).sum(axis=-1, keepdims=True))
    np.exp(e, out=e)
    return e


def partition_function(J, grid: SphereGrid) -> float:
    """Z(J) = Int exp(omega . J) domega on the given grid.

    Evaluated as exp(|J|) * Int exp(omega . J - |J|) so large concentrations
    cannot overflow before normalization is applied by callers.
    """
    J = _as_param(J, grid.d)
    jmag = float(np.linalg.norm(J))
    shifted = grid.integrate(_shifted_exp(J, grid))
    return float(shifted * math.exp(jmag)) if jmag < 700.0 else math.inf


def von_mises(J, grid: SphereGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Nodal values of M_J, normalized so the grid quadrature of M_J is 1.

    J may be a batch of parameter vectors, shape (..., d); the result then
    has shape (..., n), and is written into out when that is given.  Grid
    normalization (rather than an external Z) makes Int M_J domega = 1 hold
    to round-off at any resolution, which the kinetic solver relies on for
    exact discrete mass conservation.
    """
    J = np.asarray(J, dtype=float)
    if J.shape[-1:] != (grid.d,):
        raise ValueError(
            f"parameter vectors must have shape (..., {grid.d}), got {J.shape}")
    e = _shifted_exp(J, grid, out)
    e /= (e @ grid.weights)[..., None]
    return e


def von_mises_gradient(J, grid: SphereGrid) -> np.ndarray:
    """Nodal values of grad_J M_J, shape (d, n).

    grad_J M_J(omega) = (omega - c(|J|) J/|J|) M_J(omega), where c is the
    mean resultant length Int (omega . J/|J|) M_J domega; at J = 0 the second
    term vanishes and the gradient is omega M_0.
    """
    J = _as_param(J, grid.d)
    m = von_mises(J, grid)
    jmag = float(np.linalg.norm(J))
    if jmag == 0.0:
        mean_dir = np.zeros(grid.d)
    else:
        jhat = J / jmag
        c = float(grid.integrate((grid.nodes @ jhat) * m))
        mean_dir = c * jhat
    return (grid.nodes - mean_dir).T * m


def moments(values, grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """rho = Int f domega and J = Int omega f domega of nodal values f over
    their last axis, which must match the grid; any leading axes (a field of
    cells, say) are kept, and J gains a trailing axis of length d."""
    values = np.asarray(values)
    if values.shape[-1:] != (grid.n,):
        raise ValueError(
            f"nodal data must have shape (..., {grid.n}), got {values.shape}")
    m = values @ grid.moment_weights.T
    return m[..., 0], m[..., 1:]


def axis_integral(k: int, m: int) -> float:
    """I_{k,m} = Int_0^pi cos^k(t) sin^m(t) dt by Gauss-Legendre quadrature.

    These are the reduction weights that turn sphere moments of axially
    symmetric densities into 1D integrals.  The integrand is entire, so GL
    converges superexponentially; nodes scale with the polynomial degree.
    """
    if k < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    x, w = np.polynomial.legendre.leggauss(64 + 8 * (k + m))
    t = 0.5 * np.pi * (x + 1.0)
    return float(0.5 * np.pi * np.sum(w * np.cos(t) ** k * np.sin(t) ** m))


def axis_integral_recursive(k: int, m: int) -> float:
    """I_{k,m} by the closed recursion (no quadrature).

    Uses I_{0,0} = pi, I_{0,1} = 2, I_{0,m} = (m-1)/m I_{0,m-2}, odd k gives
    zero by symmetry, and I_{k,m} = I_{k-2,m} - I_{k-2,m+2} for even k >= 2
    (from cos^2 = 1 - sin^2).
    """
    if k < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if k % 2 == 1:
        return 0.0
    if k == 0:
        if m % 2 == 0:
            val = math.pi
            start = 2
        else:
            val = 2.0
            start = 3
        for j in range(start, m + 1, 2):
            val *= (j - 1) / j
        return val
    return axis_integral_recursive(k - 2, m) - axis_integral_recursive(k - 2, m + 2)
