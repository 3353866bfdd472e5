"""Seeded run configs for the benchmark workloads.

Every coupling coefficient gets a modulus drawn from the configured range,
so each branch of phase_rhs_fast runs (both g2 harmonics, g3, g4, g5 and
the mean-field term need a_minus1, a2, a5, a6, a7, a9 and a11 nonzero), and
a11 makes the cluster alpha polynomials cubic. The moduli are small enough
that no solve diverges. The same seed and index always give the same
config.
"""
from __future__ import annotations

import cmath
import random


def make_config(seed: int, index: int, spec: dict, gen: dict) -> dict:
    """JSON-ready run config number `index` of a workload spec under a seed."""
    rng = random.Random(f"{seed}/{index}")
    coeffs = {"a1": [gen["a1_real"], rng.uniform(*gen["a1_imag"])]}
    for key in gen["coupling_keys"]:
        a = cmath.rect(rng.uniform(*gen["coupling_modulus"]),
                       rng.uniform(*gen["coupling_phase"]))
        coeffs[key] = [a.real, a.imag]
    cfg = {
        "lambda": gen["lambda"],
        "omega": gen["omega"],
        "epsilon": rng.uniform(*gen["epsilon"]),
        "n_osc": spec["n_osc"],
        "coefficients": coeffs,
        "seed": rng.randint(*gen["initial_seed"]),
        "initial": {"kind": "random-phases"},
    }
    if "steps" in spec:
        cfg["dt"] = spec["dt"]
        cfg["t_end"] = spec["steps"] * spec["dt"]
    if "alpha_grid" in spec:
        cfg["cluster"] = {"alpha_grid": spec["alpha_grid"],
                          "psi_grid": spec["psi_grid"]}
    return cfg
