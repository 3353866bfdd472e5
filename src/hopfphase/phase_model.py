"""Reduced phase equations with naive and moment-based evaluators.

The model couples N phases through one pairwise function (g2, up to second
harmonic), two three-phase functions (g3, g4), one four-phase function (g5)
and a mean-field frequency shift. All sums run over every index combination
including repeats, normalized by 1/N per summation index.

phase_rhs_naive spells the sums out index by index and is the correctness
oracle; phase_rhs_fast regroups every sum through the first two circular
moments and runs in O(N). The moments are plain means of e^{i phi} and
e^{2 i phi}; numpy's pairwise summation keeps them within a few ulp of
exactly rounded sums at every N, so there is no separate compensated path.
"""
from __future__ import annotations

import numpy as np

from .angles import _in_slices
from .normal_form import complex_mean
from .reduction import PhaseCouplingSet


def as_phase_vector(phi) -> np.ndarray:
    """Return phi as a float vector: 1-D, non-empty and finite.

    The values are passed through unreduced; the right-hand side is 2*pi
    periodic, and integration keeps winding information in the raw values.
    """
    v = np.asarray(phi, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("phases must form a non-empty 1-D real vector")
    if not np.isfinite(v).all():
        raise ValueError("phases contain non-finite entries")
    return v


def moments(phi) -> tuple:
    """First and second circular moments (Z1, Z2) of the phase vector.

    One e^{i phi} evaluation and numpy's pairwise mean serve every N; at
    N = 10^5 the result differs from exactly rounded (math.fsum) sums by
    about 1e-18.
    """
    e1 = np.exp(1j * as_phase_vector(phi))
    return complex_mean(e1), complex_mean(e1 * e1)


def _check_size(v: np.ndarray, coupling: PhaseCouplingSet):
    if v.size != coupling.n_osc:
        raise ValueError(
            f"state has length {v.size}, coupling expects n_osc={coupling.n_osc}")


def phase_rhs_naive(phi, coupling: PhaseCouplingSet) -> np.ndarray:
    """Literal nested-sum evaluation of the phase right-hand side.

    Cost is O(N^4) overall (the four-phase term is O(N^3) per component).
    Kept deliberately free of moment tricks; serves as the oracle for
    phase_rhs_fast.
    """
    v = as_phase_vector(phi)
    _check_size(v, coupling)
    n = v.size
    eps = coupling.epsilon

    base = coupling.omega_tilde_const
    if coupling.mean_field_freq_amp != 0.0:
        args = coupling.gamma[5] + v[:, None] - v[None, :]
        base = base + coupling.mean_field_freq_amp * float(np.cos(args).sum()) / n**2

    out = np.full(n, base)
    pair_sum = v[:, None] + v[None, :]
    buf3 = np.empty((n, n, n)) if any(t.amplitude != 0.0 for t in coupling.g5) else None

    for j in range(n):
        acc = 0.0
        for t in coupling.g2:
            if t.amplitude != 0.0:
                acc += t.amplitude / n * float(
                    np.cos(t.order * (v - v[j]) + t.phase_offset).sum())
        for t in coupling.g3:
            if t.amplitude != 0.0:
                acc += t.amplitude / n**2 * float(
                    np.cos(pair_sum - 2.0 * v[j] + t.phase_offset).sum())
        for t in coupling.g4:
            if t.amplitude != 0.0:
                acc += t.amplitude / n**2 * float(
                    np.cos(2.0 * v[:, None] - v[None, :] - v[j] + t.phase_offset).sum())
        for t in coupling.g5:
            if t.amplitude != 0.0:
                np.subtract(pair_sum[:, :, None], v[None, None, :], out=buf3)
                buf3 -= v[j] - t.phase_offset
                np.cos(buf3, out=buf3)
                acc += t.amplitude / n**3 * float(buf3.sum())
        out[j] += eps * acc
    return out


def phase_rhs_fast(phi, coupling: PhaseCouplingSet) -> np.ndarray:
    """O(N) evaluation of the phase right-hand side via circular moments.

    Every interaction sum separates into a per-oscillator rotation applied
    to a state-level complex prefactor (PhaseCouplingSet.prefactors):

        pairwise order m   -> Re{ Z_m e^{i chi} e^{-i m phi_j} }
        three-phase (g3)   -> Re{ Z_1^2 e^{i chi} e^{-2 i phi_j} }
        three-phase (g4)   -> Re{ Z_2 conj(Z_1) e^{i chi} e^{-i phi_j} }
        four-phase (g5)    -> Re{ Z_1 |Z_1|^2 e^{i chi} e^{-i phi_j} }
        mean-field shift   -> |Z_1|^2 cos(chi)

    phi must be 1-D of length coupling.n_osc, or ValueError is raised. Its
    values are not checked for finiteness, as full_rhs_array's are not: a
    non-finite phase gives a non-finite drift, and integrate refuses a
    non-finite start and stops at the first non-finite step.
    """
    v = np.asarray(phi, dtype=float)
    if v.ndim != 1:
        raise ValueError("phases must form a non-empty 1-D real vector")
    _check_size(v, coupling)
    # e^{i phi} and e^{2 i phi} as the rows of one buffer, so one reduce
    # takes both moments; each row sums as it would alone
    e = np.empty((2, v.size), dtype=complex)
    e1, e2 = e[0], e[1]
    _in_slices(np.exp, np.multiply(1j, v, out=e1))
    np.multiply(e1, e1, out=e2)
    s1, s2 = np.add.reduce(e, axis=1).tolist()
    inv = 1.0 / v.size  # the means scaled as complex_mean scales them
    z1 = complex(s1.real * inv, s1.imag * inv)
    z2 = complex(s2.real * inv, s2.imag * inv)

    base, c1, c2 = coupling.prefactors(z1, z2)
    # Re{c e^{-i m phi}} = Re(c) cos(m phi) + Im(c) sin(m phi)
    out = c1.real * e1.real
    out += c1.imag * e1.imag
    # the m = 2 terms are formed in e^{i phi}'s storage, which is dead now
    second = np.multiply(c2.real, e2.real, out=e1.view(float)[:v.size])
    second += c2.imag * e2.imag
    out += second
    out *= coupling.epsilon
    out += base
    return out
