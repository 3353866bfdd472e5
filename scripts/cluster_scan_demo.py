"""Two-cluster fixed points across the cluster-size imbalance.

For a fixed coupling set, sweeps the imbalance alpha = (Q-P)/N, finds the
separations Psi where the two clusters can co-rotate rigidly, and classifies
the fully synchronized state. Tangential roots (where the difference
function only grazes zero) are marked; they sit on saddle-node curves of
the cluster equation.
"""
import argparse

import numpy as np

from hopfphase import (ClusterConfig, NormalFormCoefficients, SystemParams,
                       ab_coefficients, build_coupling, find_roots_batch,
                       sync_stability)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a2", type=float, nargs=2, default=[0.2, -0.1],
                    metavar=("RE", "IM"))
    ap.add_argument("--a7", type=float, nargs=2, default=[0.15, 0.1],
                    metavar=("RE", "IM"))
    ap.add_argument("--alpha-steps", type=int, default=21)
    args = ap.parse_args()

    coeffs = NormalFormCoefficients(a1=-1.0 + 0.3j,
                                    a2=complex(*args.a2),
                                    a7=complex(*args.a7))
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.05, n_osc=8,
                          coeffs=coeffs)
    coupling = build_coupling(params)

    alphas = np.linspace(-0.9, 0.9, args.alpha_steps)
    ccs = [ab_coefficients(ClusterConfig.from_alpha(float(alpha)), coupling)
           for alpha in alphas]
    print(f"{'alpha':>7s}  {'sync':>10s}  roots (Psi)")
    for alpha, cc, scan in zip(alphas, ccs, find_roots_batch(ccs)):
        if scan.identically_zero:
            desc = "coupling vanishes on this subspace"
        elif not scan.roots:
            desc = "-"
        else:
            desc = "  ".join(
                f"{r.psi:.4f}{'*' if r.tangential else ''}" for r in scan.roots)
        print(f"{alpha:7.3f}  {sync_stability(cc):>10s}  {desc}")
    print("(* marks a tangential root)")


if __name__ == "__main__":
    main()
