"""Independent checks on what the benchmarked solves compute.

Each check returns a list of (label, ok) pairs, one per verified item; the
runner counts every item as one attempted check. None of this runs inside a
timed region.

- The moment-based phase_rhs_fast is checked against the literal nested sums
  of phase_rhs_naive, and the vectorised full_rhs_array against the
  per-component uncoupled_field + epsilon * coupling_field.
- At large N the same oracles are too slow, but a state made of N/8 copies
  of an 8-oscillator state has the same moments, so both right-hand sides
  must equal the N=8 oracle values, repeated.
- cluster-scan roots are checked with g_raw, which writes the cluster
  difference function out group by group and shares no code with the
  factored form the scan uses.
- simulate text must parse back to the integrated trajectory exactly.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from hopfphase.cluster import ClusterConfig, g_raw
from hopfphase.normal_form import coupling_field, full_rhs_array, uncoupled_field
from hopfphase.phase_model import phase_rhs_fast, phase_rhs_naive
from hopfphase.reduction import build_coupling

# agreement required between a right-hand side and its oracle, relative to
# max(1, largest oracle value); sums in another order differ by a few ulp
_RHS_TOL = 1e-10
# |G| at a reported Psi root: bisection stops at 1e-10 in Psi and grazing
# roots are accepted below 1e-8, so allow a little above the latter
_PSI_ROOT_TOL = 2e-8
# bracket value at a reported alpha root, which bisection refines to 1e-12
_ALPHA_ROOT_TOL = 1e-9


def _close(got, want, tol=_RHS_TOL) -> bool:
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))))
    return bool(np.max(np.abs(got - want)) <= tol * scale)


def full_rhs_oracle(z: np.ndarray, params) -> np.ndarray:
    """Each component as uncoupled_field + epsilon * coupling_field."""
    return np.array([uncoupled_field(z[j], params)
                     + params.epsilon * coupling_field(np.roll(z, -j), params.coeffs)
                     for j in range(z.size)])


def rhs_checks(cfg, full_states, phase_states) -> list:
    """Both right-hand sides against their oracles on the given states."""
    params = cfg.system_params()
    coupling = build_coupling(params, cfg.delta)
    out = []
    for i, z in enumerate(full_states):
        out.append((f"full_rhs_array state {i}",
                    _close(full_rhs_array(z, params), full_rhs_oracle(z, params))))
    for i, phi in enumerate(phase_states):
        out.append((f"phase_rhs_fast state {i}",
                    _close(phase_rhs_fast(phi, coupling),
                           phase_rhs_naive(phi, coupling))))
    return out


def replication_checks(cfg, seed: int, states: int = 3) -> list:
    """Right-hand sides at cfg.n_osc on states of N/8 copies of 8 oscillators."""
    copies, rest = divmod(cfg.n_osc, 8)
    if rest:
        raise ValueError("the replication oracle needs n_osc divisible by 8")
    params = cfg.system_params()
    coupling = build_coupling(params, cfg.delta)
    params8 = replace(params, n_osc=8)
    coupling8 = build_coupling(params8, cfg.delta)
    r_star = math.sqrt(coupling.r_star_sq)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(states):
        phi8 = rng.uniform(0.0, 2.0 * np.pi, 8)
        z8 = r_star * (1.0 + rng.uniform(-0.1, 0.1, 8)) * np.exp(1j * phi8)
        want = np.tile(phase_rhs_naive(phi8, coupling8), copies)
        out.append((f"phase_rhs_fast replicated state {i}",
                    _close(phase_rhs_fast(np.tile(phi8, copies), coupling), want)))
        want = np.tile(full_rhs_oracle(z8, params8), copies)
        out.append((f"full_rhs_array replicated state {i}",
                    _close(full_rhs_array(np.tile(z8, copies), params), want)))
    return out


def _rows(lines):
    return [[field.strip() for field in line.split(",")] for line in lines
            if line and not line.startswith("#")]


def cluster_checks(text: str, cfg) -> list:
    """Every Psi root zeroes g_raw; every alpha root zeroes the bracket."""
    coupling = build_coupling(cfg.system_params(), cfg.delta)
    lines = text.splitlines()
    split = lines.index("# section=psi-scan")
    alpha_rows, psi_rows = _rows(lines[:split]), _rows(lines[split:])
    out = [("alpha-scan covers the alpha grid",
            len({r[0] for r in alpha_rows}) == cfg.cluster.alpha_grid - 1),
           ("psi-scan covers the psi grid",
            len({r[0] for r in psi_rows}) == cfg.cluster.psi_grid - 1)]
    for alpha, psi, _, flag in alpha_rows:
        if psi == "nan":
            continue
        value = g_raw(float(psi), ClusterConfig.from_alpha(float(alpha)), coupling)
        out.append((f"G at alpha={alpha} psi={psi} ({flag})",
                    abs(value) <= _PSI_ROOT_TOL))
    for psi, alpha, _ in psi_rows:
        if alpha == "nan":
            continue
        x = float(psi)
        bracket = (g_raw(x, ClusterConfig.from_alpha(float(alpha)), coupling)
                   / (2.0 * math.sin(0.5 * x)))
        out.append((f"bracket at psi={psi} alpha={alpha}",
                    abs(bracket) <= _ALPHA_ROOT_TOL))
    return out


def text_checks(text: str, traj, cfg) -> list:
    """simulate text parses back to the trajectory, bit for bit."""
    rows = np.array([[float(x) for x in line.split(", ")]
                     for line in text.splitlines()[4:]])
    n = traj.n_osc
    if traj.kind == "full":
        states = np.empty((rows.shape[0], n), dtype=complex)
        states.real, states.imag = rows[:, 1::2], rows[:, 2::2]
        extra = []
    else:
        states = rows[:, 1:n + 1]
        r_star = math.sqrt(build_coupling(cfg.system_params(), cfg.delta).r_star_sq)
        # trajectory_text evaluates these one numpy scalar at a time
        rcos = [r_star * np.cos(x) for x in traj.states.ravel()]
        extra = [("rcos columns", np.array_equal(
            rows[:, n + 1:], np.reshape(rcos, traj.states.shape)))]
    return [("times", np.array_equal(rows[:, 0], traj.times)),
            ("states", np.array_equal(states, traj.states))] + extra
