"""Attractor selection by the sign of the pair coupling.

Runs the full complex model and the reduced phase model from the same random
initial phases for both signs of the a2 coefficient, writes the four
trajectories, and prints the trailing synchrony level |Z1|. Positive a2
drives the oscillators apart (|Z1| collapses), negative a2 locks them
in phase (|Z1| -> 1).
"""
import argparse
import math
from pathlib import Path

import numpy as np

from hopfphase import (NormalFormCoefficients, SystemParams, build_coupling,
                       extract_phases, full_rhs_array, integrate,
                       phase_rhs_fast, trajectory_text)


def run_one(a2, n_osc, t_end, dt, seed, out_dir):
    coeffs = NormalFormCoefficients(a1=-1.0, a2=a2)
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.5, n_osc=n_osc,
                          coeffs=coeffs)
    coupling = build_coupling(params)
    phi0 = np.random.Generator(np.random.Philox(seed)).uniform(0, 2 * np.pi,
                                                               n_osc)
    z0 = math.sqrt(coupling.r_star_sq) * np.exp(1j * phi0)

    full = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    phase = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)

    label = "pos" if a2.real > 0 else "neg"
    (out_dir / f"full_a2_{label}.txt").write_text(
        trajectory_text(full, seed=seed), encoding="utf-8")
    (out_dir / f"phase_a2_{label}.txt").write_text(
        trajectory_text(phase, seed=seed, r_star=math.sqrt(coupling.r_star_sq)),
        encoding="utf-8")

    tail = slice(3 * full.times.size // 4, None)
    for name, traj in (("full", extract_phases(full)), ("phase", phase)):
        z1 = np.abs(np.exp(1j * traj.states[tail]).mean(axis=1))
        print(f"a2={a2.real:+.2f}  {name:5s}  trailing |Z1|: "
              f"min={z1.min():.4f} max={z1.max():.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-osc", type=int, default=3)
    ap.add_argument("--t-end", type=float, default=400.0)
    ap.add_argument("--dt", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for a2 in (complex(0.3), complex(-0.3)):
        run_one(a2, args.n_osc, args.t_end, args.dt, args.seed, args.out_dir)
    print(f"trajectories written to {args.out_dir}/")


if __name__ == "__main__":
    main()
