"""Acceptance gate: ten numbered criteria, one printed PASS line each.

Each test asserts at the stated tolerance and, on success, prints a single
summary line (visible under pytest -s or in captured output). Failures are
plain assertion failures; nothing here is softened.
"""
import math
import time

import numpy as np

from hopfphase import (PhaseCouplingSet, abc_constants, ab_coefficients,
                       alpha_polynomials, beta_gamma, build_coupling,
                       ClusterConfig, compare, extract_phases, full_rhs_array,
                       g_factored, g_raw, integrate, limit_cycle,
                       NormalFormCoefficients, phase_rhs_fast, phase_rhs_naive,
                       polynomial_alpha_roots_batch, sync_frequency,
                       SystemParams)

from conftest import make_rng, random_coupling, random_params

TAU = 2 * math.pi
PAIRWISE_KEYS = ["a_minus1", "a2", "a3", "a4", "a5", "a6", "a8", "a10"]


def test_criterion_01_equivariance():
    rng = make_rng(101)
    start = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(2, 9))
        params = random_params(rng, n)
        z = (rng.uniform(0.05, 1.0, n)
             * np.exp(1j * rng.uniform(0, TAU, n)))
        base = full_rhs_array(z, params)
        scale = max(1.0, float(np.max(np.abs(base))))

        perm = rng.permutation(n)
        permuted = full_rhs_array(z[perm], params)
        assert np.max(np.abs(permuted - base[perm])) < 1e-12 * scale

        theta = rng.uniform(0, TAU)
        rotated = full_rhs_array(np.exp(1j * theta) * z, params)
        assert np.max(np.abs(rotated - np.exp(1j * theta) * base)) < 1e-12 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS: criterion 1 — permutation and rotation equivariance "
          f"(100 trials each, {elapsed:.2f}s)")


def test_criterion_02_reduction_constants():
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.5, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    r2, om = limit_cycle(params)
    assert r2 == 0.1
    assert om == 1.0
    a0, b0, c0, _ = abc_constants(params.coeffs)
    assert a0 == -2.0 and b0 == 0.0 and c0 == 0.0
    print("PASS: criterion 2 — squared radius 0.1, frequency 1, "
          "slope constants (-2, 0, 0) exact")


def test_criterion_03_amplitude_phase_identity():
    rng = make_rng(103)
    angles = rng.uniform(0, TAU, 100)
    for trial in range(100):
        alpha = rng.uniform(0.0, 3.0)
        theta = rng.uniform(-math.pi, math.pi)
        c = rng.normal(0.0, 2.0)
        beta, gamma = beta_gamma(alpha, theta, c)
        want = alpha * np.sin(theta + angles) - c * alpha * np.cos(theta + angles)
        got = beta * np.cos(gamma + angles)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, beta)
    print("PASS: criterion 3 — amplitude/offset identity on 100 triples "
          "x 100 angles at 1e-12")


def test_criterion_04_fast_naive_agreement_and_speed():
    rng = make_rng(104)
    for trial in range(200):
        n = int(rng.integers(2, 17))
        coupling = random_coupling(rng, n, delta=rng.uniform(-0.5, 0.5))
        phi = rng.uniform(0, TAU, n)
        diff = np.abs(phase_rhs_fast(phi, coupling)
                      - phase_rhs_naive(phi, coupling))
        assert np.max(diff) < 1e-10

    # timing model: with the four-phase family absent the naive evaluator
    # is cubic in N, which is what the extrapolation below assumes
    timing_keys = ["a_minus1", "a2", "a3", "a7", "a9"]
    coupling200 = random_coupling(make_rng(1040), 200, only=timing_keys)
    phi200 = make_rng(1).uniform(0, TAU, 200)
    t0 = time.perf_counter()
    phase_rhs_naive(phi200, coupling200)
    t_naive = time.perf_counter() - t0

    coupling_big = random_coupling(make_rng(1040), 10_000, only=timing_keys)
    phi_big = make_rng(1).uniform(0, TAU, 10_000)
    t_fast = min(
        _timed(lambda: phase_rhs_fast(phi_big, coupling_big)) for _ in range(3))
    bound = t_naive * (10_000 / 200) ** 3 / 100.0
    assert t_fast <= bound
    print(f"PASS: criterion 4 — fast/naive agree at 1e-10 on 200 pairs; "
          f"fast N=1e4 {t_fast * 1e3:.2f}ms vs cubic bound {bound:.2f}s")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_05_factored_difference_identity():
    rng = make_rng(105)
    worst = 0.0
    for outer in range(200):
        coupling = random_coupling(rng, 5, delta=rng.uniform(-0.5, 0.5))
        for inner in range(50):
            cfg = ClusterConfig.from_alpha(rng.uniform(-0.99, 0.99))
            psi = rng.uniform(0, TAU)
            raw = g_raw(psi, cfg, coupling)
            fac = g_factored(psi, ab_coefficients(cfg, coupling))
            worst = max(worst, abs(fac - raw) / max(1.0, abs(raw)))
    assert worst < 1e-12
    print(f"PASS: criterion 5 — factored equals raw difference on 10000 "
          f"samples, worst {worst:.2e}")


def test_criterion_06_structural_zeros():
    rng = make_rng(106)
    for trial in range(1000):
        coupling = random_coupling(rng, 4, delta=rng.uniform(-0.5, 0.5))
        any_alpha = ClusterConfig.from_alpha(rng.uniform(-0.95, 0.95))
        assert g_factored(0.0, ab_coefficients(any_alpha, coupling)) == 0.0
        balanced = ab_coefficients(ClusterConfig.from_alpha(0.0), coupling)
        scale = max(1.0, sum(abs(x) for x in (balanced.a1_coef, balanced.b1_coef,
                                              balanced.a2_coef, balanced.b2_coef)))
        assert abs(g_factored(math.pi, balanced)) < 1e-12 * scale
    print("PASS: criterion 6 — G(0)=0 always and G(pi)=0 for balanced "
          "clusters on 1000 coefficient sets")


def test_criterion_07_imbalance_root_structure():
    result = polynomial_alpha_roots_batch([math.pi / 2], (0.125, 0.0, 1.0),
                                          (0.0, -0.75), (), ())[0]
    assert len(result.roots) == 2
    assert abs(result.roots[0] - 0.25) < 1e-9
    assert abs(result.roots[1] - 0.5) < 1e-9

    rng = make_rng(107)
    grid = np.linspace(0.0, TAU, 362)[1:-1]
    for trial in range(100):
        coupling = random_coupling(rng, 4, only=PAIRWISE_KEYS)
        for found in polynomial_alpha_roots_batch(
                grid, *alpha_polynomials(coupling)):
            assert len(found.roots) <= 1
    print("PASS: criterion 7 — synthetic imbalance roots {0.25, 0.5}; "
          "pairwise coupling never admits two roots (100 draws x 360 psi)")


def _trailing_sync(a2_value):
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.5, n_osc=3,
                          coeffs=NormalFormCoefficients(a1=-1.0, a2=a2_value))
    coupling = build_coupling(params)
    dt = 0.1
    t_end = 400.0
    phi0 = make_rng(11).uniform(0, TAU, 3)
    z0 = math.sqrt(coupling.r_star_sq) * np.exp(1j * phi0)

    start = time.perf_counter()
    full = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    full_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    phase = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)
    phase_elapsed = time.perf_counter() - start

    tail = slice(3 * full.times.size // 4, None)
    sync = []
    for traj in (extract_phases(full), phase):
        z1 = np.exp(1j * traj.states[tail]).mean(axis=1)
        sync.append(np.abs(z1))
    return sync, max(full_elapsed, phase_elapsed)


def test_criterion_08_attractor_selection():
    anti, t_anti = _trailing_sync(0.3)
    assert t_anti < 10.0
    for series in anti:
        assert np.max(series) < 0.15
    inphase, t_in = _trailing_sync(-0.3)
    assert t_in < 10.0
    for series in inphase:
        assert np.min(series) > 0.95
    print(f"PASS: criterion 8 — pair coupling +0.3 settles below |Z1|=0.15, "
          f"-0.3 above 0.95, both models, runs <= {max(t_anti, t_in):.1f}s")


def test_criterion_09_sync_frequency():
    rng = make_rng(109)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        params = random_params(rng, n)
        delta = rng.uniform(-0.5, 0.5)
        coupling = build_coupling(params, delta=delta)
        value = phase_rhs_naive(np.full(n, rng.uniform(0, TAU)), coupling)[0]
        predicted = sync_frequency(coupling)
        assert abs(predicted - value) < 1e-12
    print("PASS: criterion 9 — synchronized frequency matches the phase "
          "model on 100 coefficient sets at 1e-12")


def _aligned_deviation(epsilon):
    lam = 0.1
    coeffs = NormalFormCoefficients(a1=-1.0 + 0.3j, a_minus1=0.1 + 0.05j,
                                    a2=0.2 - 0.1j)
    params = SystemParams(lam=lam, omega=1.0, epsilon=epsilon, n_osc=4,
                          coeffs=coeffs)
    coupling = build_coupling(params)
    dt = 0.1
    t_end = 1.0 / (epsilon * lam)
    phi0 = make_rng(3).uniform(0, TAU, 4)
    z0 = math.sqrt(coupling.r_star_sq) * np.exp(1j * phi0)
    full = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    phase = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)
    return compare(full, phase).max_phase_dev


def test_criterion_10_truncation_error_order():
    lam = 0.1
    dev_half = _aligned_deviation(lam ** 2 / 2)
    dev_full = _aligned_deviation(lam ** 2)
    ratio = dev_half / dev_full
    assert 0.3 <= ratio <= 0.8
    print(f"PASS: criterion 10 — halving the coupling scales the aligned "
          f"deviation by {ratio:.3f}, inside [0.3, 0.8]")
