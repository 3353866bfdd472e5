"""Reduction of the coupled normal form to phase-only coupling data.

For weak coupling the dynamics collapses onto an attracting torus of
near-circular limit cycles. On it each coupling monomial contributes a
single circular harmonic to one of four interaction functions: g2 (pairwise),
g3 and g4 (three-phase), g5 (four-phase), plus a phase-independent and a
mean-field shift of the common frequency. This module computes the
limit-cycle data, the averaging constants, the amplitude/phase transform of
the coefficients, and assembles the full coupling set.
"""
from __future__ import annotations

import cmath
import copy
import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .angles import wrap_angle
from .normal_form import COUPLING_INDICES, NormalFormCoefficients, SystemParams


@dataclass(frozen=True)
class ReductionConstants:
    """Derived constants of the phase reduction.

    r_star_sq is the squared limit-cycle radius, omega_cap the frequency on
    the cycle. a0, b0, c0 are the radial-attraction, forcing and mixing
    constants at the bifurcation; c_ratio = c0/a0 enters the coefficient transform.
    """

    r_star_sq: float
    omega_cap: float
    a0: float
    b0: float
    c0: float
    c_ratio: float


@dataclass(frozen=True)
class HarmonicTerm:
    """One term amplitude * cos(order * phi + phase_offset)."""

    amplitude: float
    phase_offset: float
    order: int = 1

    def __post_init__(self):
        if not np.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not np.isfinite(self.phase_offset):
            raise ValueError("phase_offset must be finite")
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order!r}")
        object.__setattr__(self, "amplitude", float(self.amplitude))
        # wrap only out-of-range offsets: wrap_angle is not bitwise-idempotent,
        # so wrapping an in-range offset could move derive.json by an ulp
        p = float(self.phase_offset)
        if not -math.pi < p <= math.pi:
            p = wrap_angle(p)
        object.__setattr__(self, "phase_offset", p)


def evaluate_harmonics(terms, phi):
    """Evaluate sum of amplitude*cos(order*phi + offset) over a term list.

    phi may be a scalar or an array; the result matches its shape.
    """
    out = np.zeros_like(np.asarray(phi, dtype=float))
    for t in terms:
        out = out + t.amplitude * np.cos(t.order * np.asarray(phi, dtype=float)
                                         + t.phase_offset)
    if np.ndim(phi) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PhaseCouplingSet:
    """Everything the phase model needs, stored once as its inputs.

    beta/gamma hold the per-coefficient amplitude and phase for every coupling
    index, omega_cap the frequency on the limit cycle. g2..g5 and the two
    frequency shifts are derived on first use and cached outside the fields,
    so a dataclasses.replace copy derives its own. beta and gamma are kept as
    read-only copies, so no change in place can leave those cached values
    stale.
    """

    omega_cap: float
    beta: Mapping
    gamma: Mapping
    r_star_sq: float
    epsilon: float
    n_osc: int

    def __post_init__(self):
        for name in ("beta", "gamma"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @functools.cached_property
    def omega_tilde_const(self) -> float:
        """Common frequency: omega_cap plus index 4's phase-independent shift."""
        return (self.omega_cap + self.epsilon * self.r_star_sq * self.beta[4]
                * math.cos(self.gamma[4]))

    @functools.cached_property
    def mean_field_freq_amp(self) -> float:
        """Amplitude of index 5's shift, which scales with |Z1|^2."""
        return self.epsilon * self.r_star_sq * self.beta[5]

    @functools.cached_property
    def _g_terms(self) -> dict:
        """g2..g5 as HarmonicTerm tuples; only g2's order 1 merges several terms."""
        r2, beta, gamma = self.r_star_sq, self.beta, self.gamma
        q = _phasors(beta, gamma)
        merged = q["g2", 1, 0] + r2 * q["g2", 1, 1]
        terms = {"g2": [_term(abs(merged), cmath.phase(merged))]}
        for k, (tag, order) in _HARMONICS.items():
            if tag != "g2":
                terms[tag] = (_term(r2 * beta[k], gamma[k]),)
            elif order == 2:
                ph = (r2 * beta[k]) * cmath.exp(1j * gamma[k])
                terms[tag].append(_term(abs(ph), cmath.phase(ph), order))
        return {**terms, "g2": tuple(t for t in terms["g2"] if t.amplitude != 0.0)}

    g2 = functools.cached_property(lambda self: self._g_terms["g2"])
    g3 = functools.cached_property(lambda self: self._g_terms["g3"])
    g4 = functools.cached_property(lambda self: self._g_terms["g4"])
    g5 = functools.cached_property(lambda self: self._g_terms["g5"])

    @functools.cached_property
    def _harmonic_phasors(self) -> tuple:
        """amplitude*e^{i offset} of g2 order 1 (0j if absent), g2 order 2
        (likewise), g3, g4 and g5; cached outside the dataclass fields."""
        g2 = {t.order: cmath.rect(t.amplitude, t.phase_offset) for t in self.g2}
        return (g2.get(1, 0j), g2.get(2, 0j),
                *(cmath.rect(t.amplitude, t.phase_offset)
                  for (t,) in (self.g3, self.g4, self.g5)))

    def speed_bound(self) -> float:
        """B with |phi_j'| <= B at every state: in the drift of prefactors,
        each term is at most its coefficient's modulus, since |Z1|, |Z2| <= 1."""
        return (abs(self.omega_tilde_const) + abs(self.mean_field_freq_amp)
                + abs(self.epsilon) * sum(map(abs, self._harmonic_phasors)))

    def prefactors(self, z1: complex, z2: complex) -> tuple:
        """Coupling at circular moments Z1, Z2 as (base, c1, c2).

        The phase model's drift of oscillator j is
        base + epsilon * Re{c1 e^{-i phi_j} + c2 e^{-2 i phi_j}}: base is the
        common frequency with the mean-field shift, c1 collects pairwise
        order 1, g4 and g5, and c2 pairwise order 2 and g3.
        """
        g21, g22, g3, g4, g5 = self._harmonic_phasors
        base = self.omega_tilde_const
        if self.mean_field_freq_amp != 0.0:
            base += self.mean_field_freq_amp * abs(z1) ** 2 * math.cos(self.gamma[5])
        c1 = g21 * z1 + g4 * z2 * z1.conjugate() + g5 * z1 * (abs(z1) ** 2)
        c2 = g22 * z2 + g3 * z1 * z1
        return base, c1, c2


def limit_cycle(params: SystemParams):
    """Limit-cycle radius squared and frequency of the uncoupled oscillator.

    Returns
    -------
    (r_star_sq, omega_cap) : tuple of float
        r_star_sq = lam / (-re(a1)), omega_cap = omega + im(a1) * r_star_sq.
        Exact because the cubic truncation has no higher radial terms.
    """
    a1 = params.coeffs.a1
    if a1.real >= 0:
        raise ValueError("re(a1) must be negative for an attracting cycle")
    r2 = params.lam / (-a1.real)
    return r2, params.omega + a1.imag * r2


def abc_constants(coeffs: NormalFormCoefficients):
    """Averaging constants at the bifurcation point.

    a0 is the relative radial attraction rate (-2 exactly for the cubic),
    b0 the phase forcing 2*im(a1)/sqrt(-re(a1)), c0 the radius-to-phase
    mixing -2*im(a1)/re(a1), and c_ratio = c0/a0 = im(a1)/re(a1).
    """
    a1 = coeffs.a1
    if a1.real >= 0:
        raise ValueError("re(a1) must be negative for an attracting cycle")
    a0 = -2.0
    b0 = 2.0 * a1.imag / math.sqrt(-a1.real)
    c0 = -2.0 * a1.imag / a1.real
    return a0, b0, c0, c0 / a0


def reduction_constants(params: SystemParams) -> ReductionConstants:
    """Bundle limit-cycle data and averaging constants in one record."""
    r2, om = limit_cycle(params)
    a0, b0, c0, c_ratio = abc_constants(params.coeffs)
    return ReductionConstants(r2, om, a0, b0, c0, c_ratio)


def beta_gamma(alpha_k: float, theta_k: float, c_ratio: float):
    """Transform one coefficient's (modulus, argument) to its harmonic form.

    Solves beta*cos(gamma + t) = alpha*sin(theta + t) - c_ratio*alpha*cos(theta + t)
    for all t, via the phasor identity beta*e^{i gamma} = alpha*e^{i theta}(-c_ratio - i).

    Returns
    -------
    (beta_k, gamma_k) : tuple of float
        beta_k = alpha_k*sqrt(1 + c_ratio^2) >= 0; gamma_k in (-pi, pi].
        Zero amplitude returns (0.0, 0.0) by convention.
    """
    if alpha_k < 0:
        raise ValueError(f"alpha_k must be >= 0, got {alpha_k}")
    if alpha_k == 0:
        return 0.0, 0.0
    beta = alpha_k * math.hypot(1.0, c_ratio)
    gamma = wrap_angle(theta_k + math.atan2(-1.0, -c_ratio))
    return beta, gamma


# coupling index -> (interaction function, harmonic order). Index -1 is the
# linear coupling (lambda power 0); every cubic index carries the limit-cycle
# factor r_star_sq (lambda power 1). Indices 4 and 5 only shift the common
# frequency and have no harmonic.
_HARMONICS = {-1: ("g2", 1), 2: ("g2", 1), 3: ("g2", 1), 8: ("g2", 1),
              10: ("g2", 1), 6: ("g2", 2), 7: ("g3", 1), 9: ("g4", 1),
              11: ("g5", 1)}


def _phasors(beta: dict, gamma: dict) -> dict:
    """Summed phasors beta_k e^{i gamma_k}, keyed (function, order, lambda power).

    Index 2 enters with the reversed argument cos(gamma_2 - phi), so its
    phasor is conjugated. Each sum runs in index order, and the keys come in
    the order of _HARMONICS.
    """
    out = {}
    for k, (tag, order) in _HARMONICS.items():
        ph = beta[k] * cmath.exp((-1j if k == 2 else 1j) * gamma[k])
        key = (tag, order, 0 if k == -1 else 1)
        out[key] = out[key] + ph if key in out else ph
    return out


def _term(amplitude: float, phase: float, order: int = 1) -> HarmonicTerm:
    """HarmonicTerm amplitude*cos(order*phi + phase); zero amplitude has phase 0."""
    return HarmonicTerm(amplitude, phase if amplitude != 0.0 else 0.0, order)


def with_delta(params: SystemParams, delta: float) -> SystemParams:
    """params with the fifth-order correction delta folded into a3. On the
    cycle |z_j|^2 = lam/(-re(a1)), so the added term is the linear coupling
    lam*delta*a_minus1/(c_ratio + i), and g2's order-1 phasor moves by
    -lam*delta*a_minus1 at lambda power 1. delta == 0 returns params."""
    if delta == 0:
        return params
    c = params.coeffs
    a3 = c.a3 + float(delta) * c.a_minus1 * (-c.a1.real) / (c.a1.imag / c.a1.real + 1j)
    if not cmath.isfinite(a3):
        raise ValueError(f"delta = {delta!r} folds into a non-finite a3")
    # a copy, not dataclasses.replace, so the checks do not run (and warn) again
    folded = copy.copy(params)
    object.__setattr__(folded, "coeffs", replace(c, a3=a3))
    return folded


def build_coupling(params: SystemParams, delta: float = 0.0) -> PhaseCouplingSet:
    """The complete phase-coupling data of the normal-form system, with the
    fifth-order correction delta (0 under the plain cubic truncation) folded
    into a3 by with_delta."""
    params = with_delta(params, delta)
    r2, om = limit_cycle(params)
    _, _, _, c_ratio = abc_constants(params.coeffs)

    beta, gamma = {}, {}
    for k in COUPLING_INDICES:
        a = params.coeffs.coupling(k)
        beta[k], gamma[k] = beta_gamma(abs(a), cmath.phase(a) if a != 0 else 0.0,
                                       c_ratio)

    return PhaseCouplingSet(omega_cap=om, beta=beta, gamma=gamma, r_star_sq=r2,
                            epsilon=params.epsilon, n_osc=params.n_osc)


def canonical_xi_chi(coupling: PhaseCouplingSet):
    """Merged (xi, chi) table of all coupling harmonics.

    Returns a list of (tag, HarmonicTerm) pairs, tags in {"g2","g3","g4","g5"},
    one entry per nonzero harmonic, grouped by function and ordered by
    harmonic order. Amplitudes carry all scale factors. The scale structure
    with the limit-cycle factor pulled out is available from
    xi_chi_lambda_split.
    """
    out = []
    for tag in ("g2", "g3", "g4", "g5"):
        for t in getattr(coupling, tag):
            if t.amplitude != 0.0:
                out.append((tag, t))
    return out


def xi_chi_lambda_split(coupling: PhaseCouplingSet):
    """Canonical table split by power of the bifurcation parameter.

    Each entry is (tag, lambda_power, HarmonicTerm). Power-0 entries are the
    bare pairwise contribution of the linear coupling coefficient; power-1
    entries, the cubic indices with any delta folded into a3 (with_delta),
    have the limit-cycle factor r_star_sq (which is proportional to lam)
    divided out of their amplitude, so recombining as
    power0 + r_star_sq * power1 phasors reproduces canonical_xi_chi.
    """
    q = _phasors(coupling.beta, coupling.gamma)
    split = [(tag, power, _term(abs(ph), cmath.phase(ph), order))
             for (tag, order, power), ph in q.items()]
    return [entry for entry in split if entry[2].amplitude != 0.0]


# ---------------------------------------------------------------------------
# text serialization of the coupling set, as derive reports it


def coupling_to_text(coupling: PhaseCouplingSet) -> str:
    """Serialize a PhaseCouplingSet to a key-value text document (JSON)."""
    doc = {
        "omega_tilde_const": coupling.omega_tilde_const,
        "beta": {str(k): coupling.beta[k] for k in COUPLING_INDICES},
        "gamma": {str(k): coupling.gamma[k] for k in COUPLING_INDICES},
        "r_star_sq": coupling.r_star_sq,
        "epsilon": coupling.epsilon,
        "n_osc": coupling.n_osc,
        "mean_field_freq_amp": coupling.mean_field_freq_amp,
    }
    for tag in ("g2", "g3", "g4", "g5"):
        doc[tag] = [
            {"amplitude": t.amplitude, "phase_offset": t.phase_offset, "order": t.order}
            for t in getattr(coupling, tag)
        ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

