"""Phase-reduction error versus coupling strength.

Integrates the full model and the reduced phase model from the same on-cycle
initial data over the natural horizon 1/(epsilon*lambda) and reports the
maximum aligned phase deviation for a ladder of epsilon values. The deviation
should drop roughly linearly with epsilon; the printed ratio column makes
the first-order truncation visible.
"""
import argparse
import math

import numpy as np

from hopfphase import (NormalFormCoefficients, SystemParams, build_coupling,
                       compare, default_dt, full_rhs_array, integrate,
                       phase_rhs_fast)


def deviation(lam, epsilon, n_osc, seed):
    coeffs = NormalFormCoefficients(a1=-1.0 + 0.3j, a_minus1=0.1 + 0.05j,
                                    a2=0.2 - 0.1j)
    params = SystemParams(lam=lam, omega=1.0, epsilon=epsilon, n_osc=n_osc,
                          coeffs=coeffs)
    coupling = build_coupling(params)
    dt = default_dt(lam, coupling.omega_cap)
    phi0 = np.random.Generator(np.random.Philox(seed)).uniform(0, 2 * np.pi,
                                                               n_osc)
    z0 = math.sqrt(coupling.r_star_sq) * np.exp(1j * phi0)
    t_end = 1.0 / (epsilon * lam)
    full = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    phase = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)
    return compare(full, phase).max_phase_dev


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=0.1)
    ap.add_argument("--n-osc", type=int, default=4)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--levels", type=int, default=4,
                    help="number of epsilon halvings starting at lam^2")
    args = ap.parse_args()

    print(f"{'epsilon':>10s}  {'horizon':>9s}  {'max dev':>10s}  {'ratio':>6s}")
    prev = None
    eps = args.lam ** 2
    for level in range(args.levels):
        dev = deviation(args.lam, eps, args.n_osc, args.seed)
        ratio = "" if prev is None else f"{dev / prev:.3f}"
        print(f"{eps:10.2e}  {1 / (eps * args.lam):9.0f}  {dev:10.3e}  {ratio:>6s}")
        prev = dev
        eps /= 2.0


if __name__ == "__main__":
    main()
