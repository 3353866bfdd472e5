"""Reduction constants, the amplitude/phase transform, and coupling assembly.

The finite-lambda re-derivation below recomputes the two normalized slope
constants from central differences of the uncoupled field at the limit-cycle
radius, independent of the closed forms under test.
"""
import cmath
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfphase import (HarmonicTerm, NormalFormCoefficients, SystemParams,
                       abc_constants, beta_gamma, build_coupling,
                       canonical_xi_chi, coupling_to_text,
                       evaluate_harmonics, limit_cycle, moments,
                       phase_rhs_fast, reduction_constants, uncoupled_field,
                       with_delta, wrap_angle, xi_chi_lambda_split)

from conftest import COUPLING_KEYS, make_rng, random_coeffs, random_params

TAU = 2 * math.pi


def params_51(a2=0.3):
    """The worked example: lam=0.1, omega=1, eps=0.5, a1=-1, one a2 term."""
    return SystemParams(lam=0.1, omega=1.0, epsilon=0.5, n_osc=3,
                        coeffs=NormalFormCoefficients(a1=-1.0, a2=a2))


# ---------------------------------------------------------------------------
# limit cycle and slope constants


def test_limit_cycle_radius_and_frequency():
    r2, om = limit_cycle(params_51())
    assert r2 == 0.1
    assert om == 1.0
    assert abs(math.sqrt(r2) - 0.3162) < 5e-5


def test_limit_cycle_shrinks_to_bifurcation():
    params = SystemParams(lam=1e-12, omega=1.0, epsilon=0.0, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    r2, _ = limit_cycle(params)
    assert r2 == 1e-12


def test_limit_cycle_with_rotational_shear():
    params = SystemParams(lam=0.2, omega=1.0, epsilon=0.0, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=complex(-0.5, 0.25)))
    r2, om = limit_cycle(params)
    assert r2 == 0.4
    assert om == 1.0 + 0.25 * 0.4


def test_abc_examples():
    assert abc_constants(NormalFormCoefficients(a1=-1.0)) == (-2.0, 0.0, 0.0, 0.0)
    assert abc_constants(NormalFormCoefficients(a1=complex(-1, 1))) == (-2.0, 2.0, 2.0, -1.0)
    a0, b0, c0, c = abc_constants(NormalFormCoefficients(a1=complex(-4, 2)))
    assert (a0, b0, c0, c) == (-2.0, 2.0, 1.0, -0.5)


def test_finite_lambda_rederivation():
    # U_R(r) = lam*r + re(a1) r^3 vanishes at R*; its slope there over lam
    # must equal -2, and the normalized angular slope must equal
    # -2 im(a1)/re(a1), both independent of lam under the cubic truncation.
    rng = make_rng(7)
    for trial in range(10):
        a1 = complex(-rng.uniform(0.3, 3.0), rng.normal())
        lam = rng.uniform(0.01, 0.8)
        params = SystemParams(lam=lam, omega=rng.normal(), epsilon=0.0, n_osc=4,
                              coeffs=NormalFormCoefficients(a1=a1))
        r2, _ = limit_cycle(params)
        r_star = math.sqrt(r2)
        h = 1e-6 * r_star

        def u_radial(r):
            return uncoupled_field(r + 0j, params).real

        def v_angular(r):
            # imaginary part of U(r)/r, the rotation rate at radius r
            return uncoupled_field(r + 0j, params).imag / r

        a_lam = (u_radial(r_star + h) - u_radial(r_star - h)) / (2 * h) / lam
        b_slope = (v_angular(r_star + h) - v_angular(r_star - h)) / (2 * h)
        c_lam = r_star * b_slope / lam
        a0, _, c0, _ = abc_constants(params.coeffs)
        assert abs(a_lam - a0) < 1e-6
        assert abs(c_lam - c0) < 1e-6 * max(1.0, abs(c0))


def test_limit_cycle_rejects_subcritical():
    coeffs = NormalFormCoefficients(a1=-1.0)
    object.__setattr__(coeffs, "a1", 1.0 + 0j)  # bypass the constructor guard
    params = SystemParams.__new__(SystemParams)
    object.__setattr__(params, "lam", 0.1)
    object.__setattr__(params, "omega", 1.0)
    object.__setattr__(params, "epsilon", 0.0)
    object.__setattr__(params, "n_osc", 4)
    object.__setattr__(params, "coeffs", coeffs)
    with pytest.raises(ValueError):
        limit_cycle(params)


# ---------------------------------------------------------------------------
# the amplitude/phase transform


def test_beta_gamma_at_zero_shear():
    beta, gamma = beta_gamma(0.7, 0.3, 0.0)
    assert abs(beta - 0.7) < 1e-15
    assert abs(gamma - (0.3 - math.pi / 2)) < 1e-15


def test_beta_gamma_unit_shear():
    beta, gamma = beta_gamma(1.0, 0.0, 1.0)
    assert abs(beta - math.sqrt(2)) < 1e-15
    assert abs(gamma - (-3 * math.pi / 4)) < 1e-15


def test_beta_gamma_zero_amplitude_convention():
    assert beta_gamma(0.0, 123.4, -5.6) == (0.0, 0.0)


def test_beta_gamma_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        beta_gamma(-0.1, 0.0, 0.0)


@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-5.0, max_value=5.0))
def test_beta_gamma_defining_identity(alpha, theta, c):
    beta, gamma = beta_gamma(alpha, theta, c)
    for t in np.linspace(-math.pi, math.pi, 100):
        lhs = beta * math.cos(gamma + t)
        rhs = alpha * math.sin(theta + t) - c * alpha * math.cos(theta + t)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, beta)


# ---------------------------------------------------------------------------
# coupling assembly


def test_build_coupling_zero_coupling():
    params = SystemParams(lam=0.1, omega=1.3, epsilon=0.2, n_osc=5,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    coupling = build_coupling(params)
    assert coupling.omega_tilde_const == 1.3
    assert coupling.mean_field_freq_amp == 0.0
    assert coupling.g2 == ()
    for terms in (coupling.g3, coupling.g4, coupling.g5):
        assert len(terms) == 1 and terms[0].amplitude == 0.0
    assert canonical_xi_chi(coupling) == []


def test_build_coupling_worked_example():
    coupling = build_coupling(params_51())
    assert coupling.r_star_sq == 0.1
    assert coupling.omega_tilde_const == 1.0
    assert abs(coupling.beta[2] - 0.3) < 1e-15
    assert abs(coupling.gamma[2] - (-math.pi / 2)) < 1e-15
    assert len(coupling.g2) == 1
    term = coupling.g2[0]
    assert term.order == 1
    assert abs(term.amplitude - 0.03) < 1e-15
    assert abs(term.phase_offset - math.pi / 2) < 1e-12
    # g2(phi) = 0.03 cos(phi + pi/2) = -0.03 sin(phi)
    for phi in np.linspace(0, 2 * np.pi, 17):
        assert abs(evaluate_harmonics(coupling.g2, phi) + 0.03 * np.sin(phi)) < 1e-15


def test_build_coupling_merges_order1_phasors():
    rng = make_rng(8)
    coeffs = random_coeffs(rng, only=["a_minus1", "a3", "a8", "a10"])
    params = SystemParams(lam=0.3, omega=0.5, epsilon=0.1, n_osc=4, coeffs=coeffs)
    coupling = build_coupling(params)
    assert len(coupling.g2) == 1
    b, g, r2 = coupling.beta, coupling.gamma, coupling.r_star_sq
    phasor = (b[-1] * cmath.exp(1j * g[-1])
              + r2 * (b[3] * cmath.exp(1j * g[3]) + b[8] * cmath.exp(1j * g[8])
                      + b[10] * cmath.exp(1j * g[10])))
    assert abs(coupling.g2[0].amplitude - abs(phasor)) < 1e-14
    assert abs(wrap_angle(coupling.g2[0].phase_offset - cmath.phase(phasor))) < 1e-12


def test_build_coupling_order2_and_higher_terms():
    rng = make_rng(9)
    coeffs = random_coeffs(rng, only=["a6", "a7", "a9", "a11"])
    params = SystemParams(lam=0.2, omega=1.0, epsilon=0.05, n_osc=6, coeffs=coeffs)
    coupling = build_coupling(params)
    r2 = coupling.r_star_sq
    assert len(coupling.g2) == 1 and coupling.g2[0].order == 2
    assert abs(coupling.g2[0].amplitude - r2 * coupling.beta[6]) < 1e-15
    for terms, k in ((coupling.g3, 7), (coupling.g4, 9), (coupling.g5, 11)):
        assert len(terms) == 1 and terms[0].order == 1
        assert abs(terms[0].amplitude - r2 * coupling.beta[k]) < 1e-15
        assert abs(wrap_angle(terms[0].phase_offset - coupling.gamma[k])) < 1e-12


def test_build_coupling_delta_correction():
    coeffs = NormalFormCoefficients(a1=-1.0, a_minus1=cmath.rect(0.4, 0.7))
    params = SystemParams(lam=0.25, omega=1.0, epsilon=0.1, n_osc=4, coeffs=coeffs)
    assert with_delta(params, 0.0) is params
    plain = build_coupling(params, delta=0.0)
    shifted = build_coupling(params, delta=0.8)
    # with a1 = -1, delta enters as a3 = delta*a_minus1/i, whose phasor
    # beta_3 e^{i gamma_3} = a3*(-i) is -delta*a_minus1
    assert plain.beta[3] == 0.0
    assert cmath.rect(shifted.beta[3], shifted.gamma[3]) == pytest.approx(
        -0.8 * cmath.rect(0.4, 0.7), abs=1e-15)
    assert {k: v for k, v in shifted.beta.items() if k != 3} == {
        k: v for k, v in plain.beta.items() if k != 3}
    # the order-1 phasor loses lam*delta*a_minus1
    p0 = plain.g2[0]
    p1 = shifted.g2[0]
    lost = (p0.amplitude * cmath.exp(1j * p0.phase_offset)
            - p1.amplitude * cmath.exp(1j * p1.phase_offset))
    assert abs(lost - 0.08 * cmath.exp(1j * 0.7)) < 1e-14


@pytest.mark.parametrize("n_osc", [2, 3])
def test_folding_delta_does_not_repeat_the_small_n_warning(n_osc):
    # building params warns once that the coefficients are not identifiable;
    # the fold changes a3 alone, so neither it nor build_coupling warns again
    coeffs = NormalFormCoefficients(a1=-1.0 + 0.3j, a_minus1=0.1 + 0.05j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = SystemParams(lam=0.1, omega=1.0, epsilon=0.05, n_osc=n_osc,
                              coeffs=coeffs)
        assert [str(w.message)[:10] for w in caught] == ["n_osc < 4:"]
        folded = with_delta(params, 0.5)
        build_coupling(params, 0.5)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rebuilt = replace(params, coeffs=replace(coeffs, a3=folded.coeffs.a3))
    assert folded == rebuilt and folded.coeffs.a3 != 0
    assert params.coeffs is coeffs  # the fold leaves its argument as it was


def test_mean_field_frequency_terms():
    rng = make_rng(10)
    coeffs = random_coeffs(rng, only=["a4", "a5"])
    params = SystemParams(lam=0.2, omega=0.7, epsilon=0.3, n_osc=5, coeffs=coeffs)
    coupling = build_coupling(params)
    r2 = coupling.r_star_sq
    _, om = limit_cycle(params)
    want_const = om + 0.3 * r2 * coupling.beta[4] * math.cos(coupling.gamma[4])
    assert abs(coupling.omega_tilde_const - want_const) < 1e-14
    assert abs(coupling.mean_field_freq_amp - 0.3 * r2 * coupling.beta[5]) < 1e-15


# ---------------------------------------------------------------------------
# canonical harmonic tables


def _g2_from_maps(coupling, phi):
    """g2 evaluated directly from the unmerged beta/gamma maps."""
    b, g, r2 = coupling.beta, coupling.gamma, coupling.r_star_sq
    val = (b[-1] * np.cos(g[-1] + phi)
           + r2 * (b[2] * np.cos(g[2] - phi) + b[3] * np.cos(g[3] + phi)
                   + b[6] * np.cos(g[6] + 2 * phi) + b[8] * np.cos(g[8] + phi)
                   + b[10] * np.cos(g[10] + phi)))
    return val


def test_canonical_terms_match_unmerged_sum():
    rng = make_rng(11)
    for trial in range(10):
        params = random_params(rng, n_osc=5)
        coupling = build_coupling(params, delta=rng.uniform(-1, 1))
        grid = np.linspace(0, 2 * np.pi, 1000)
        merged = evaluate_harmonics(coupling.g2, grid)
        direct = _g2_from_maps(coupling, grid)
        assert np.max(np.abs(merged - direct)) < 1e-12


def test_canonical_xi_chi_single_term_g5():
    rng = make_rng(12)
    coeffs = random_coeffs(rng, only=["a11"])
    params = SystemParams(lam=0.15, omega=1.0, epsilon=0.1, n_osc=4, coeffs=coeffs)
    coupling = build_coupling(params)
    table = canonical_xi_chi(coupling)
    assert [tag for tag, _ in table] == ["g5"]
    term = table[0][1]
    assert abs(term.amplitude - coupling.r_star_sq * coupling.beta[11]) < 1e-15
    assert abs(wrap_angle(term.phase_offset - coupling.gamma[11])) < 1e-12


def test_canonical_xi_chi_worked_example():
    # one order-1 entry: 0.03 cos(phi + pi/2), i.e. -0.03 sin(phi)
    table = canonical_xi_chi(build_coupling(params_51()))
    assert len(table) == 1
    tag, term = table[0]
    assert tag == "g2" and term.order == 1
    assert abs(term.amplitude - 0.03) < 1e-15
    assert abs(term.phase_offset - math.pi / 2) < 1e-12


def test_lambda_split_reassembles():
    rng = make_rng(13)
    for trial in range(5):
        params = random_params(rng, n_osc=4)
        delta = rng.uniform(-0.5, 0.5)
        coupling = build_coupling(params, delta=delta)
        split = xi_chi_lambda_split(coupling)
        assert all(power in (0, 1) for _, power, _ in split)
        # rescale cubic entries by r_star_sq and compare against the tables
        rebuilt = {}
        for tag, power, term in split:
            scale = coupling.r_star_sq if power == 1 else 1.0
            key = (tag, term.order)
            rebuilt[key] = rebuilt.get(key, 0j) + scale * term.amplitude * cmath.exp(
                1j * term.phase_offset)
        for tag, term in canonical_xi_chi(coupling):
            got = rebuilt.pop((tag, term.order))
            want = term.amplitude * cmath.exp(1j * term.phase_offset)
            assert abs(got - want) < 1e-13
        for leftover in rebuilt.values():
            assert abs(leftover) < 1e-13


# The coupling assembly written out index by index, as build_coupling and
# xi_chi_lambda_split once did; the table-driven code must match it bit for
# bit.


def _hand_term(phasor, order):
    amp = abs(phasor)
    if amp == 0.0:
        return None
    return HarmonicTerm(amp, cmath.phase(phasor), order)


def _hand_g2_order1_phasor(beta, gamma, r_star_sq):
    ph = beta[-1] * cmath.exp(1j * gamma[-1])
    ph += r_star_sq * (beta[2] * cmath.exp(-1j * gamma[2])
                       + beta[3] * cmath.exp(1j * gamma[3])
                       + beta[8] * cmath.exp(1j * gamma[8])
                       + beta[10] * cmath.exp(1j * gamma[10]))
    return ph


def _hand_terms(coupling):
    """(g2, g3, g4, g5) term tuples of the index-by-index assembly."""
    b, g, r2 = coupling.beta, coupling.gamma, coupling.r_star_sq
    g2 = [_hand_term(_hand_g2_order1_phasor(b, g, r2), 1),
          _hand_term(r2 * b[6] * cmath.exp(1j * g[6]), 2)]
    single = [(HarmonicTerm(0.0, 0.0, 1) if r2 * b[k] == 0.0
               else HarmonicTerm(r2 * b[k], g[k], 1),) for k in (7, 9, 11)]
    return (tuple(t for t in g2 if t is not None), *single)


def _hand_lambda_split(coupling):
    b, g, r2 = coupling.beta, coupling.gamma, coupling.r_star_sq
    out = []
    t = _hand_term(b[-1] * cmath.exp(1j * g[-1]), 1)
    if t is not None:
        out.append(("g2", 0, t))
    lam1 = (b[2] * cmath.exp(-1j * g[2]) + b[3] * cmath.exp(1j * g[3])
            + b[8] * cmath.exp(1j * g[8]) + b[10] * cmath.exp(1j * g[10]))
    t = _hand_term(lam1, 1)
    if t is not None:
        out.append(("g2", 1, t))
    for tag, k, order in (("g2", 6, 2), ("g3", 7, 1), ("g4", 9, 1), ("g5", 11, 1)):
        t = _hand_term(b[k] * cmath.exp(1j * g[k]), order)
        if t is not None:
            out.append((tag, 1, t))
    return out


def _bits(term):
    return term.amplitude.hex(), term.phase_offset.hex(), term.order


def test_coupling_tables_are_bit_identical_to_hand_assembly():
    rng = make_rng(14)
    checked_delta = 0
    for trial in range(400):
        if trial % 4 == 0:
            only = COUPLING_KEYS
        else:
            size = int(rng.integers(0, len(COUPLING_KEYS) + 1))
            only = list(rng.choice(COUPLING_KEYS, size=size, replace=False))
        params = random_params(rng, n_osc=5, scale=10.0 ** rng.uniform(-3, 1),
                               only=only)
        delta = 0.0 if trial % 2 else rng.uniform(-2.0, 2.0)
        coupling = build_coupling(params, delta=delta)
        plain = build_coupling(params)
        checked_delta += coupling.beta[3] != plain.beta[3]
        # delta moves index 3 alone, and g2's order-1 phasor by
        # -lam*delta*a_minus1, at lambda power 1
        assert {**coupling.beta, 3: 0} == {**plain.beta, 3: 0}
        assert {**coupling.gamma, 3: 0} == {**plain.gamma, 3: 0}
        moved = coupling.r_star_sq * (cmath.rect(coupling.beta[3], coupling.gamma[3])
                                      - cmath.rect(plain.beta[3], plain.gamma[3]))
        want = -params.lam * delta * params.coeffs.a_minus1
        assert abs(moved - want) <= 1e-14 * max(
            abs(want), coupling.r_star_sq * plain.beta[3], 1e-300)
        got = (coupling.g2, coupling.g3, coupling.g4, coupling.g5)
        for got_terms, want_terms in zip(got, _hand_terms(coupling)):
            assert [_bits(t) for t in got_terms] == [_bits(t) for t in want_terms]
        got_split = [(tag, power, _bits(t))
                     for tag, power, t in xi_chi_lambda_split(coupling)]
        want_split = [(tag, power, _bits(t))
                      for tag, power, t in _hand_lambda_split(coupling)]
        assert got_split == want_split
    assert checked_delta > 100


# ---------------------------------------------------------------------------
# serialization and invariants


def test_coupling_text_records_every_field_exactly(rng):
    # derive writes this text: JSON floats read back to the stored bits
    for trial in range(5):
        params = random_params(rng, n_osc=6)
        coupling = build_coupling(params, delta=rng.uniform(-1, 1))
        doc = json.loads(coupling_to_text(coupling))
        for key in ("omega_tilde_const", "r_star_sq", "epsilon", "n_osc",
                    "mean_field_freq_amp"):
            assert doc.pop(key) == getattr(coupling, key)
        for key in ("beta", "gamma"):
            assert {int(k): v for k, v in doc.pop(key).items()} == getattr(coupling, key)
        for tag in ("g2", "g3", "g4", "g5"):
            assert [HarmonicTerm(**e) for e in doc.pop(tag)] == list(getattr(coupling, tag))
        assert doc == {}


def _derived(coupling, phi):
    """Everything the set derives from its fields, as exact text and bytes."""
    z1, z2 = moments(phi)
    return (repr((coupling.g2, coupling.g3, coupling.g4, coupling.g5,
                  coupling.omega_tilde_const, coupling.mean_field_freq_amp,
                  coupling.prefactors(z1, z2), coupling.speed_bound())),
            phase_rhs_fast(phi, coupling).tobytes())


def test_replaced_coupling_is_rederived_bit_for_bit(rng):
    # dataclasses.replace keeps no stale harmonic or frequency shift: a
    # replaced set derives what a set built from the new values derives
    for trial in range(10):
        params = random_params(rng, n_osc=6)
        delta = rng.uniform(-1.0, 1.0)
        coupling = build_coupling(params, delta)
        phi = rng.uniform(-TAU, TAU, params.n_osc)
        before = _derived(coupling, phi)  # the original's caches are filled first

        def check(replaced, want):
            assert replaced == want
            assert _derived(replaced, phi) == _derived(want, phi) != before

        eps = rng.uniform(-0.5, 0.5)
        check(replace(coupling, epsilon=eps),
              build_coupling(replace(params, epsilon=eps), delta))
        # lambda moves r_star_sq, and with it omega_cap; delta's fold into a3
        # does not depend on lambda
        built = build_coupling(replace(params, lam=rng.uniform(0.02, 0.5)), delta)
        check(replace(coupling, r_star_sq=built.r_star_sq,
                      omega_cap=built.omega_cap), built)
        # new coupling coefficients move only beta and gamma
        coeffs = replace(random_coeffs(rng, a1=params.coeffs.a1),
                         a_minus1=params.coeffs.a_minus1)
        built = build_coupling(replace(params, coeffs=coeffs), delta)
        check(replace(coupling, beta=built.beta, gamma=built.gamma), built)


def test_coupling_tables_are_read_only(rng):
    # beta and gamma cannot change in place, which would leave the cached
    # g-terms, frequency shifts and phasors stale; replace derives anew
    coupling = build_coupling(random_params(rng, n_osc=6))
    shift = coupling.omega_tilde_const
    for table in (coupling.beta, coupling.gamma):
        with pytest.raises(TypeError):
            table[4] += 1.0
    assert coupling.omega_tilde_const == shift
    beta = {**coupling.beta, 4: coupling.beta[4] + 1.0}
    gamma = {**coupling.gamma, 4: 0.0}
    replaced = replace(coupling, beta=beta, gamma=gamma)
    beta[4] = gamma[4] = 9.0  # the set holds copies, not the caller's dicts
    assert replaced.beta[4] == coupling.beta[4] + 1.0 and replaced.gamma[4] == 0.0
    assert replaced.omega_tilde_const == (
        coupling.omega_cap + coupling.epsilon * coupling.r_star_sq
        * (coupling.beta[4] + 1.0))
    assert coupling.omega_tilde_const == shift


def test_harmonic_term_validation():
    with pytest.raises(ValueError):
        HarmonicTerm(-0.1, 0.0, 1)
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, 0.0, 0)
    term = HarmonicTerm(1.0, 3 * math.pi, 1)
    assert -math.pi < term.phase_offset <= math.pi


def test_reduction_constants_bundle():
    consts = reduction_constants(params_51())
    assert consts.r_star_sq == 0.1
    assert consts.omega_cap == 1.0
    assert consts.a0 == -2.0
    assert consts.b0 == 0.0
    assert consts.c0 == 0.0
    assert consts.c_ratio == 0.0
