"""Circular moments, phase-state handling, and the two rhs evaluators.

phase_rhs_naive is itself the oracle for phase_rhs_fast, so the naive path
is checked here against closed-form cases small enough to work by hand.
"""
import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfphase import (NormalFormCoefficients, PhaseCouplingSet, SystemParams,
                       as_phase_vector, build_coupling, full_rhs_array,
                       integrate, moments, phase_rhs_fast, phase_rhs_naive,
                       with_delta)
from hopfphase.normal_form import complex_mean

from conftest import COUPLING_KEYS, make_rng, random_coupling, random_params

TAU = 2 * math.pi


def sin_pair_coupling(epsilon=0.3, omega=1.0, n_osc=2):
    """Pairwise-only set with g2(x) = sin(x) = cos(x - pi/2), nothing else."""
    zeros = {k: 0.0 for k in [-1] + list(range(2, 12))}
    return PhaseCouplingSet(
        omega_cap=omega, beta={**zeros, -1: 1.0}, gamma={**zeros, -1: -math.pi / 2},
        r_star_sq=0.1, epsilon=epsilon, n_osc=n_osc)


# ---------------------------------------------------------------------------
# moments


def test_moments_synchronized():
    z1, z2 = moments(np.full(6, 0.9))
    assert abs(z1 - np.exp(0.9j)) < 1e-15
    assert abs(z2 - np.exp(1.8j)) < 1e-15


@pytest.mark.parametrize("n", [3, 5, 8])
def test_moments_splay_vanish(n):
    phi = TAU * np.arange(n) / n
    z1, z2 = moments(phi)
    assert abs(z1) < 1e-15
    assert abs(z2) < 1e-15


def test_moments_two_splay_keeps_second():
    z1, z2 = moments(np.array([0.0, math.pi]))
    assert abs(z1) < 1e-16
    assert abs(z2 - 1.0) < 1e-15


def test_moments_against_fsum_loop():
    rng = make_rng(21)
    phi = rng.uniform(0, TAU, 7)
    m1, m2 = moments(phi)
    z1 = complex(math.fsum(math.cos(p) for p in phi),
                 math.fsum(math.sin(p) for p in phi)) / 7
    z2 = complex(math.fsum(math.cos(2 * p) for p in phi),
                 math.fsum(math.sin(2 * p) for p in phi)) / 7
    assert abs(m1 - z1) < 1e-15
    assert abs(m2 - z2) < 1e-15


def test_moments_large_n_match_exactly_rounded_sums():
    n = 100_000
    phi = make_rng(23).uniform(0, TAU, n)
    m1, m2 = moments(phi)
    z1 = complex(math.fsum(np.cos(phi)), math.fsum(np.sin(phi))) / n
    z2 = complex(math.fsum(np.cos(2 * phi)), math.fsum(np.sin(2 * phi))) / n
    assert abs(m1 - z1) < 1e-14
    assert abs(m2 - z2) < 1e-14


@pytest.mark.parametrize("n", [3, 8, 1000, 10_001, 100_000])
def test_moments_are_bit_identical_to_ndarray_mean(n):
    phi = make_rng(24 + n).uniform(-50.0, 50.0, n)
    z1, z2 = moments(phi)
    e1 = np.exp(1j * phi)
    for got, want in ((z1, complex(e1.mean())),
                      (z2, complex((e1 * e1).mean()))):
        assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# phase vectors


def test_phase_state_rejects_bad_input():
    with pytest.raises(ValueError):
        as_phase_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_phase_vector(np.array([]))
    with pytest.raises(ValueError):
        as_phase_vector(np.array([0.0, np.nan]))


def test_as_phase_vector_keeps_winding():
    raw = np.array([9.0, -3.0])
    out = as_phase_vector(raw)
    assert out[0] == 9.0 and out[1] == -3.0
    with pytest.raises(ValueError):
        as_phase_vector(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# right-hand side, closed-form cases


def test_naive_zero_coupling_is_constant_drift():
    from hopfphase import NormalFormCoefficients, SystemParams, build_coupling
    params = SystemParams(lam=0.2, omega=1.1, epsilon=0.4, n_osc=5,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    coupling = build_coupling(params)
    phi = make_rng(23).uniform(0, TAU, 5)
    for rhs in (phase_rhs_naive, phase_rhs_fast):
        out = rhs(phi, coupling)
        assert np.all(out == 1.1)


def test_rhs_equal_on_synchronized_state(rng):
    coupling = random_coupling(rng, 6, delta=0.3)
    phi = np.full(6, 1.234)
    for rhs in (phase_rhs_naive, phase_rhs_fast):
        out = rhs(phi, coupling)
        assert np.ptp(out) < 1e-15


def test_two_oscillator_sine_coupling_rate():
    # g2 = sin, phases (0, psi): the two rates differ by exactly
    # -epsilon*sin(psi), the 1/N-normalized classic pair interaction
    eps = 0.3
    coupling = sin_pair_coupling(epsilon=eps)
    for psi in np.linspace(-3.0, 3.0, 13):
        out = phase_rhs_naive(np.array([0.0, psi]), coupling)
        assert abs((out[1] - out[0]) + eps * math.sin(psi)) < 1e-14
        fast = phase_rhs_fast(np.array([0.0, psi]), coupling)
        assert np.max(np.abs(fast - out)) < 1e-14


def test_splay_state_feels_only_constant_drift(rng):
    for n in (3, 5, 8):
        coupling = random_coupling(rng, n)
        phi = TAU * np.arange(n) / n
        out = phase_rhs_fast(phi, coupling)
        assert np.max(np.abs(out - coupling.omega_tilde_const)) < 1e-12
        naive = phase_rhs_naive(phi, coupling)
        assert np.max(np.abs(naive - coupling.omega_tilde_const)) < 1e-12


# ---------------------------------------------------------------------------
# fast path vs naive oracle and symmetry properties


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=16),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fast_matches_naive(n, seed):
    rng = make_rng(seed)
    coupling = random_coupling(rng, n, delta=rng.uniform(-1, 1))
    phi = rng.uniform(-TAU, TAU, n)
    fast = phase_rhs_fast(phi, coupling)
    naive = phase_rhs_naive(phi, coupling)
    assert np.max(np.abs(fast - naive)) < 1e-10


@given(n=st.integers(min_value=2, max_value=16),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_speed_bound_bounds_the_drift(n, seed):
    rng = make_rng(seed)
    coupling = random_coupling(rng, n, delta=rng.uniform(-1, 1),
                               epsilon=rng.uniform(-2, 2))
    bound = coupling.speed_bound()
    # a spread state and the synchronized one, where |Z1| = |Z2| = 1
    for phi in (rng.uniform(-TAU, TAU, n), np.full(n, rng.uniform(-TAU, TAU))):
        assert np.max(np.abs(phase_rhs_fast(phi, coupling))) <= bound * (1 + 1e-12)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       shift=st.floats(min_value=-10.0, max_value=10.0))
def test_rhs_invariant_under_common_shift(seed, shift):
    rng = make_rng(seed)
    n = int(rng.integers(2, 9))
    coupling = random_coupling(rng, n)
    phi = rng.uniform(0, TAU, n)
    base = phase_rhs_fast(phi, coupling)
    shifted = phase_rhs_fast(phi + shift, coupling)
    assert np.max(np.abs(shifted - base)) < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_rhs_permutation_equivariant(seed):
    rng = make_rng(seed)
    n = int(rng.integers(3, 10))
    coupling = random_coupling(rng, n, delta=rng.uniform(-0.5, 0.5))
    phi = rng.uniform(0, TAU, n)
    perm = rng.permutation(n)
    direct = phase_rhs_fast(phi[perm], coupling)
    routed = phase_rhs_fast(phi, coupling)[perm]
    assert np.max(np.abs(direct - routed)) < 1e-12


@pytest.mark.parametrize("n", [*range(2, 9), 64, 10_000])
def test_fast_is_the_isochron_projection_of_the_full_field(n):
    # at z = r* e^{i phi} the phase model is Kuramoto's isochron projection
    # of the normal form's coupling field on the uncoupled torus,
    # Omega + Im w - (Im a1/Re a1) Re w with w = full_rhs_array(z)/z - i*Omega,
    # at every delta, which with_delta folds into a3 for the full model as
    # the command line does. It is exact in lambda, so the two sides differ
    # by rounding only. That rounding is at most 4e-14 of |eps| times
    # the largest coefficient modulus where |eps| > 0.02 (3,200 draws at
    # N = 2..39, both signs), plus up to 3 ulps of Omega, which both sides
    # add and which do not shrink with eps; a 1e-9 relative error in the
    # g3..g5 amplitudes exceeds this bound 80-fold
    rng = make_rng(17_000 + n)
    for trial in range(12 if n < 100 else 2):
        sign = 1.0 if trial % 2 else -1.0
        params = random_params(rng, n, epsilon=sign * rng.uniform(0.0, 0.2))
        delta = rng.uniform(-1.0, 1.0) if trial % 2 else 0.0
        coupling = build_coupling(params, delta)
        params = with_delta(params, delta)  # the coefficients the full model runs
        omega, a1 = coupling.omega_cap, params.coeffs.a1
        phi = rng.uniform(-TAU, TAU, n)
        z = math.sqrt(coupling.r_star_sq) * np.exp(1j * phi)
        w = full_rhs_array(z, params) / z - 1j * omega
        projection = omega + w.imag - (a1.imag / a1.real) * w.real
        moduli = [abs(getattr(params.coeffs, f.name))
                  for f in dataclasses.fields(params.coeffs)]
        tol = (5e-12 * abs(params.epsilon) * max(1.0, *moduli)
               + 4 * np.spacing(abs(omega)))
        assert np.max(np.abs(phase_rhs_fast(phi, coupling) - projection)) <= tol


@pytest.mark.parametrize("n, rank", [(2, 5), (3, 10), *((n, 12) for n in range(4, 9))])
def test_drift_rank_in_the_coupling_coefficients(n, rank):
    # the drift is affine in the 22 real parts of a_minus1, a2..a11, so a
    # unit value of each, less the uncoupled drift, is one exact column of
    # the map; from N = 4 its rank is 12: two real directions each for the
    # pairwise orders 1 and 2, g3, g4 and g5, one each for the mean-field
    # and constant frequency shifts. At N = 2..8 the singular values kept
    # are at least 1.0e-2 of the largest and those cut at most 3.6e-15
    phis = make_rng(600 + n).uniform(0.0, TAU, size=(40, n))

    def drift(**coupling):
        coeffs = NormalFormCoefficients(a1=-1.0 + 0.3j, **coupling)
        params = SystemParams(lam=0.2, omega=1.0, epsilon=0.1, n_osc=n, coeffs=coeffs)
        phase_coupling = build_coupling(params)
        return np.concatenate([phase_rhs_fast(phi, phase_coupling) for phi in phis])

    uncoupled = drift()
    columns = [drift(**{key: unit}) - uncoupled
               for key in COUPLING_KEYS for unit in (1.0, 1j)]
    sv = np.linalg.svd(np.array(columns), compute_uv=False)
    assert int(np.sum(sv > 1e-9 * sv[0])) == rank


def test_two_cluster_subspace_is_invariant(rng):
    # equal phases stay equal: components inside one cluster see identical
    # right-hand sides, so a two-cluster state cannot leave the subspace
    coupling = random_coupling(rng, 7, delta=0.2)
    phi = np.concatenate([np.full(4, 0.7), np.full(3, 2.9)])
    for rhs in (phase_rhs_naive, phase_rhs_fast):
        out = rhs(phi, coupling)
        assert np.ptp(out[:4]) == 0.0
        assert np.ptp(out[4:]) == 0.0


def test_rhs_rejects_size_mismatch(rng):
    coupling = random_coupling(rng, 3)
    phi = np.zeros(5)
    with pytest.raises(ValueError, match="n_osc"):
        phase_rhs_naive(phi, coupling)
    with pytest.raises(ValueError, match="n_osc"):
        phase_rhs_fast(phi, coupling)


def test_fast_rhs_checks_the_shape_not_the_values(rng):
    # the O(1) checks stay; finiteness is integrate's to check, at the start
    # state and after every step, as for full_rhs_array
    coupling = random_coupling(rng, 4)
    for bad_shape in (np.zeros((2, 2)), np.zeros((1, 4)), 0.5):
        with pytest.raises(ValueError, match="1-D"):
            phase_rhs_fast(bad_shape, coupling)
    with pytest.raises(ValueError, match="n_osc"):
        phase_rhs_fast(np.zeros(0), coupling)
    phi = rng.uniform(0, TAU, 4)
    for value in (np.nan, np.inf, -np.inf):
        phi[2] = value
        with np.errstate(invalid="ignore"):
            drift = phase_rhs_fast(phi, coupling)
        assert drift.shape == (4,) and not np.isfinite(drift).any()
        with pytest.raises(ValueError, match="^initial state contains non-finite entries$"):
            integrate(lambda p: phase_rhs_fast(p, coupling), phi, 0.1, 1.0)


# ---------------------------------------------------------------------------
# the prefactor kernel


def _inline_prefactors(coupling, z1, z2):
    """The prefactors as phase_rhs_fast wrote them inline before
    PhaseCouplingSet.prefactors: one cmath.rect per term on every call,
    accumulated into c1 and c2 in this order."""
    base = coupling.omega_tilde_const
    if coupling.mean_field_freq_amp != 0.0:
        base += (coupling.mean_field_freq_amp * abs(z1) ** 2
                 * math.cos(coupling.gamma[5]))
    c1 = 0j
    c2 = 0j
    for t in coupling.g2:
        phasor = cmath.rect(t.amplitude, t.phase_offset)
        if t.order == 1:
            c1 += phasor * z1
        else:
            c2 += phasor * z2
    t = coupling.g3[0]
    c2 += cmath.rect(t.amplitude, t.phase_offset) * z1 * z1
    t = coupling.g4[0]
    c1 += cmath.rect(t.amplitude, t.phase_offset) * z2 * z1.conjugate()
    t = coupling.g5[0]
    c1 += cmath.rect(t.amplitude, t.phase_offset) * z1 * (abs(z1) ** 2)
    return base, c1, c2


def test_fast_is_bit_identical_to_inline_prefactors():
    rng = make_rng(31)
    couplings = [sin_pair_coupling()]
    for trial in range(20):
        n = int(rng.integers(2, 12))
        delta = rng.uniform(-0.5, 0.5) if trial % 2 else 0.0
        couplings.append(random_coupling(rng, n, delta=delta))
    # g2 with its order-2 term alone: index 6 is the only pairwise one left
    last = couplings[-1]
    couplings.append(dataclasses.replace(
        last, beta={**last.beta, **dict.fromkeys((-1, 2, 3, 8, 10), 0.0)}))
    assert [t.order for t in couplings[-1].g2] == [2]
    # above numpy's temporary-elision threshold for both dtypes
    big = make_rng(40_000)
    couplings += [random_coupling(big, 40_000),
                  random_coupling(big, 40_000, delta=0.3)]
    for coupling in couplings:
        for _ in range(10):
            phi = rng.uniform(-TAU, TAU, coupling.n_osc)
            e1 = np.exp(1j * phi)
            e2 = e1 * e1
            z1, z2 = complex_mean(e1), complex_mean(e2)
            base, c1, c2 = _inline_prefactors(coupling, z1, z2)
            assert coupling.prefactors(z1, z2) == (base, c1, c2)
            want = base + coupling.epsilon * (
                (c1.real * e1.real + c1.imag * e1.imag)
                + (c2.real * e2.real + c2.imag * e2.imag))
            assert np.array_equal(phase_rhs_fast(phi, coupling), want)


def test_replaced_coupling_does_not_reuse_cached_phasors(rng):
    coupling = random_coupling(rng, 5, delta=0.2)
    phi = rng.uniform(0, TAU, 5)
    before = phase_rhs_fast(phi, coupling)
    assert coupling == dataclasses.replace(coupling)
    swapped = dataclasses.replace(
        coupling, beta={k: rng.uniform(0.0, 1.0) for k in coupling.beta},
        gamma={k: rng.uniform(-math.pi, math.pi) for k in coupling.gamma})
    fast = phase_rhs_fast(phi, swapped)
    assert np.max(np.abs(fast - phase_rhs_naive(phi, swapped))) < 1e-10
    assert np.max(np.abs(fast - before)) > 1e-3
