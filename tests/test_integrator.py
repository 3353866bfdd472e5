"""Integration scheme, phase extraction, model comparison, text export.

The uncoupled oscillator has a closed-form solution (logistic growth in
|z|^2 plus a quadrature for the winding), which serves as the independent
oracle for the integrator on the full model.
"""
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import tracemalloc

from hopfphase import (AmplitudeCollapseError, IntegrationError,
                       NormalFormCoefficients, SystemParams, Trajectory,
                       TrajectoryTooLargeError, build_coupling, compare,
                       default_dt, extract_phases, full_rhs_array, integrate,
                       mean_winding_rate, phase_rhs_fast, trajectory_text)
from hopfphase.angles import TAU, wrap_angle
from hopfphase.integrator import (_BLOCK_ELEMENTS, _TEXT_ELEMENTS, _TEXT_PASS,
                                  _abs_wrapped, _row_blocks, _text_tables,
                                  _value_texts)

from conftest import make_rng, random_coupling, random_params


def uncoupled_params(a1, lam=0.1, omega=1.0, n_osc=2):
    return SystemParams(lam=lam, omega=omega, epsilon=0.0, n_osc=n_osc,
                        coeffs=NormalFormCoefficients(a1=a1))


def on_cycle_runs(coeffs, n, lam, eps, t_end, seed, omega=1.0):
    """Full and phase trajectories from the same on-cycle random start."""
    params = SystemParams(lam=lam, omega=omega, epsilon=eps, n_osc=n,
                          coeffs=coeffs)
    coupling = build_coupling(params)
    dt = default_dt(lam, coupling.omega_cap)
    phi0 = make_rng(seed).uniform(0, 2 * np.pi, n)
    z0 = np.sqrt(coupling.r_star_sq) * np.exp(1j * phi0)
    full = integrate(lambda v: full_rhs_array(v, params), z0, dt, t_end)
    phase = integrate(lambda p: phase_rhs_fast(p, coupling), phi0, dt, t_end)
    return full, phase


# ---------------------------------------------------------------------------
# the stepper itself


def test_constant_rhs_is_integrated_exactly():
    traj = integrate(lambda x: np.array([2.0, -0.5]), np.array([1.0, 3.0]),
                     0.125, 1.0)
    assert traj.kind == "phase"
    assert traj.times[-1] == 1.0
    want = np.array([1.0, 3.0]) + np.outer(traj.times, [2.0, -0.5])
    assert np.max(np.abs(traj.states - want)) < 1e-14


def textbook_rk4(rhs, x, dt, n_steps):
    """States of the classical scheme, written out as in a textbook."""
    out = [x]
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("n", [2, 5, 64, 20_000])
def test_integrate_is_bit_identical_to_textbook_rk4(n):
    rng = make_rng(40 + n)
    params = random_params(rng, n, epsilon=0.1)
    coupling = random_coupling(rng, n, epsilon=0.1)
    phi0 = rng.uniform(0, 2 * np.pi, n)
    z0 = 0.5 * np.exp(1j * phi0)
    dt = 0.05
    # the identity returns its own argument, which the stage buffer must
    # not overwrite
    for rhs, x0 in ((lambda v: full_rhs_array(v, params), z0),
                    (lambda p: phase_rhs_fast(p, coupling), phi0),
                    (lambda x: x, z0)):
        traj = integrate(rhs, x0, dt, 200 * dt)
        want = textbook_rk4(rhs, x0, dt, 200)
        assert traj.states.dtype == want.dtype
        assert traj.states.tobytes() == want.tobytes()


def test_integrate_live_set_is_bounded():
    # besides the trajectory, a run holds the stage buffer and two stages
    # plus the right-hand side's own arrays, in units of N * itemsize
    n = 100_000
    rng = make_rng(1105)
    params = random_params(rng, n, epsilon=0.1)
    coupling = random_coupling(rng, n, epsilon=0.1)
    phi0 = rng.uniform(0, 2 * np.pi, n)
    z0 = np.sqrt(coupling.r_star_sq) * np.exp(1j * phi0)
    for rhs, x0, bound in ((lambda v: full_rhs_array(v, params), z0, 6.0),
                           (lambda p: phase_rhs_fast(p, coupling), phi0, 9.5)):
        tracemalloc.start()
        try:
            traj = integrate(rhs, x0, 0.1, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.times.size == 5
        assert peak - traj.states.nbytes <= bound * n * x0.itemsize


def test_full_model_matches_logistic_closed_form():
    # epsilon=0 decouples the oscillators; |z|^2 then solves a logistic
    # equation and the winding is omega*t plus an explicit log quadrature
    lam, om, a1 = 0.1, 1.0, complex(-1.0, 0.5)
    params = uncoupled_params(a1, lam=lam, omega=om)
    phi0 = np.array([0.3, -1.2])
    z0 = 0.01 * np.exp(1j * phi0)
    traj = integrate(lambda v: full_rhs_array(v, params), z0, 0.05, 200.0)

    cap = lam / -a1.real
    u0 = 1e-4
    growth = np.exp(2 * lam * traj.times)
    denom = cap + u0 * (growth - 1.0)
    radius = np.sqrt(cap * u0 * growth / denom)
    winding = (phi0[None, :] + om * traj.times[:, None]
               + (a1.imag / (2 * -a1.real)) * np.log(denom / cap)[:, None])

    assert np.max(np.abs(np.abs(traj.states) - radius[:, None])) < 1e-6
    assert np.max(np.abs(extract_phases(traj).states - winding)) < 1e-4
    assert np.max(np.abs(np.abs(traj.states[-1]) - math.sqrt(0.1))) < 1e-6


def test_stepper_is_fourth_order():
    params = SystemParams(lam=0.5, omega=1.0, epsilon=0.4, n_osc=3,
                          coeffs=NormalFormCoefficients(a1=complex(-1, 0.8),
                                                        a2=complex(0.3, 0.2)))
    rng = make_rng(4)
    z0 = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, 3)) * rng.uniform(0.5, 1.1, 3)
    rhs = lambda v: full_rhs_array(v, params)
    ref = integrate(rhs, z0, 0.00625, 4.0).states[-1]
    err_coarse = np.max(np.abs(integrate(rhs, z0, 0.2, 4.0).states[-1] - ref))
    err_fine = np.max(np.abs(integrate(rhs, z0, 0.1, 4.0).states[-1] - ref))
    assert err_coarse / err_fine > 12.0
    assert 8.0 < err_coarse / err_fine < 32.0


def test_integrate_validates_arguments():
    rhs = lambda x: x
    with pytest.raises(ValueError):
        integrate(rhs, np.array([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(rhs, np.array([1.0]), 0.1, -1.0)
    with pytest.raises(ValueError):
        integrate(rhs, np.array([1.0]), 2.0, 1.0)
    with pytest.raises(ValueError):
        integrate(rhs, np.array([np.nan]), 0.1, 1.0)


def test_oversized_trajectory_is_refused_before_allocation():
    x0 = np.zeros(100_000, dtype=complex)

    def rhs(v):
        raise AssertionError("the step loop must not start")

    tracemalloc.start()
    try:
        with pytest.raises(TrajectoryTooLargeError) as info:
            integrate(rhs, x0, 0.5, 1e13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # neither the times nor the states were allocated
    assert peak < 10 * x0.nbytes
    steps = 2 * 10 ** 13
    message = str(info.value)
    assert f"{steps} steps" in message and "N=100000" in message
    assert f"{(steps + 1) * 100_000 * 16} bytes" in message


@pytest.mark.parametrize("dt", [5e-324, 1e-310])
def test_uncountable_step_count_is_refused_before_any_step(dt):
    # t_end/dt overflows to inf: no integer step count, so no trajectory
    calls = []
    with pytest.raises(TrajectoryTooLargeError) as info:
        integrate(calls.append, np.zeros(3), dt, 1.0)
    assert calls == []
    message = str(info.value)
    assert f"'dt' = {dt!r}" in message and "'t_end' = 1.0" in message
    assert message.endswith("shorten t_end or enlarge dt")


def test_blowup_raises_with_failure_time():
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as exc_info:
        integrate(lambda x: x * x, np.array([2.0]), 0.1, 10.0)
    assert exc_info.value.time > 0.0
    assert "t=" in str(exc_info.value)


@pytest.mark.parametrize("dtype", [float, complex])
def test_first_non_finite_step_is_the_one_reported(dtype):
    # calls 1-24 are the stages of steps 1-6; the first stage of step 7 puts
    # a NaN in one component only
    calls = []

    def rhs(x):
        calls.append(None)
        k = np.ones_like(x)
        if len(calls) > 24:
            k[-1] = np.nan
        return k

    with pytest.raises(IntegrationError) as info:
        integrate(rhs, np.zeros(3, dtype=dtype), 0.5, 10.0)
    assert str(info.value) == "non-finite state at t=3.5 (step 7)"
    assert info.value.time == 3.5 and len(calls) == 28


def test_complex_initial_state_runs_as_full_model():
    params = uncoupled_params(-1.0)
    traj = integrate(lambda v: full_rhs_array(v, params),
                     np.array([0.1 + 0.1j, 0.2j]), 0.1, 1.0)
    assert traj.kind == "full"
    assert traj.states.dtype == complex


def test_trajectory_validation():
    t = np.arange(3.0)
    with pytest.raises(ValueError, match="kind"):
        Trajectory(t, np.zeros((3, 2)), "other")
    with pytest.raises(ValueError):
        Trajectory(t, np.zeros((4, 2)), "phase")
    with pytest.raises(ValueError):
        Trajectory(t, np.zeros(3), "phase")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 2.0, 1.0]), np.zeros((3, 2)), "phase")


def test_default_dt_rule():
    assert default_dt(0.01, 0.0) == 1.0
    assert default_dt(1.0, 100.0) == 2 * np.pi / 5000.0
    assert default_dt(0.1, 1.0) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# phase extraction


def test_extract_phases_recovers_uniform_rotation():
    times = np.linspace(0, 30, 301)
    offsets = np.array([0.0, 2.0, -2.5])
    states = 0.4 * np.exp(1j * (1.7 * times[:, None] + offsets[None, :]))
    traj = Trajectory(times, states, "full")
    phases = extract_phases(traj)
    assert phases.kind == "phase"
    want = 1.7 * times[:, None] + offsets[None, :]
    assert np.max(np.abs(phases.states - want)) < 1e-12
    assert mean_winding_rate(phases) == pytest.approx(1.7, abs=1e-12)


def test_extract_phases_rejects_phase_input():
    traj = Trajectory(np.arange(3.0), np.zeros((3, 2)), "phase")
    with pytest.raises(ValueError, match="full"):
        extract_phases(traj)


def test_extract_phases_near_origin_is_an_error():
    times = np.arange(4.0)
    states = np.full((4, 2), 0.3 + 0j)
    states[2, 1] = 1e-9 + 0j
    with pytest.raises(AmplitudeCollapseError, match="z_2"):
        extract_phases(Trajectory(times, states, "full"))


# ---------------------------------------------------------------------------
# model comparison


def test_compare_run_against_itself_is_zero():
    full, _ = on_cycle_runs(NormalFormCoefficients(a1=-1.0, a2=0.3),
                            n=3, lam=0.2, eps=0.1, t_end=10.0, seed=1)
    report = compare(full, extract_phases(full))
    assert report.max_phase_dev == 0.0
    assert report.freq_full == report.freq_phase
    assert report.horizon == pytest.approx(full.times[-1])
    assert set(asdict(report)) == {"horizon", "max_phase_dev", "freq_full",
                                   "freq_phase"}


def test_compare_validates_grids_and_sizes():
    full, phase = on_cycle_runs(NormalFormCoefficients(a1=-1.0),
                                n=3, lam=0.2, eps=0.0, t_end=5.0, seed=2)
    with pytest.raises(ValueError, match="grid"):
        compare(full, Trajectory(phase.times[:-1] + 0.5, phase.states[:-1], "phase"))
    with pytest.raises(ValueError, match="count"):
        compare(full, Trajectory(phase.times, phase.states[:, :2], "phase"))
    with pytest.raises(ValueError, match="phase"):
        compare(full, full)


def test_compare_refuses_swapped_arguments():
    full, phase = on_cycle_runs(NormalFormCoefficients(a1=-1.0),
                                n=3, lam=0.2, eps=0.0, t_end=5.0, seed=2)
    for first, second in ((phase, full), (phase, phase)):
        with pytest.raises(ValueError, match="first argument must be a full"):
            compare(first, second)


def test_one_sample_has_no_winding_rate():
    # a rate over a horizon of zero would be nan with two divide warnings
    full = Trajectory([0.0], [[0.3 + 0.4j, -0.5j]], "full")
    phase = Trajectory([0.0], [[0.9, -1.6]], "phase")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least two samples"):
            compare(full, phase)
        with pytest.raises(ValueError, match="at least two samples"):
            mean_winding_rate(phase)


def test_uncoupled_models_agree_to_solver_precision():
    # with epsilon=0 both models are the same rigid rotation; the only
    # deviation left is the common stepper bias, which the rotation
    # alignment removes almost entirely
    for a1 in (-1.0, complex(-1.0, 0.5)):
        full, phase = on_cycle_runs(NormalFormCoefficients(a1=a1), n=3,
                                    lam=0.1, eps=0.0, t_end=100.0, seed=2)
        report = compare(full, phase)
        assert report.max_phase_dev < 1e-9


def test_weak_coupling_reduction_long_horizon():
    # slow: ~8000 time units at the default step. The reduced model tracks
    # the full one through the averaging horizon 1/(epsilon*lambda) with a
    # sup deviation three orders below the 0.1 rad bound.
    coeffs = NormalFormCoefficients(a1=complex(-1.0, 0.3),
                                    a_minus1=complex(0.1, 0.05),
                                    a2=complex(0.2, -0.1))
    lam, eps = 0.05, 0.0025
    full, phase = on_cycle_runs(coeffs, n=5, lam=lam, eps=eps,
                                t_end=1.0 / (eps * lam), seed=3)
    report = compare(full, phase)
    assert report.max_phase_dev < 0.1
    assert abs(report.freq_full - report.freq_phase) < 1e-4


def test_fixed_horizon_error_scales_linearly_with_coupling():
    # on a fixed window T=1/lambda^2 the deviation of the reduced model is
    # dominated by a term linear in epsilon, so halving epsilon should
    # roughly halve it
    coeffs = NormalFormCoefficients(a1=complex(-1.0, 0.3),
                                    a_minus1=complex(0.1, 0.05),
                                    a2=complex(0.2, -0.1))
    lam = 0.1
    t_end = 1.0 / lam**2
    dev = {}
    for eps in (lam**2, lam**2 / 2):
        full, phase = on_cycle_runs(coeffs, n=4, lam=lam, eps=eps,
                                    t_end=t_end, seed=3)
        dev[eps] = compare(full, phase).max_phase_dev
    ratio = dev[lam**2 / 2] / dev[lam**2]
    assert 0.3 < ratio < 0.8


def test_perturbed_states_return_to_limit_cycle():
    # normal attraction of the cycle torus: 3% radial kicks decay away and
    # every modulus lands back near the cycle radius
    lam = 0.1
    for coeffs, n in (
        (NormalFormCoefficients(a1=-1.0, a2=0.3), 3),
        (NormalFormCoefficients(a1=complex(-1.0, 0.2),
                                a_minus1=complex(0.004, 0.003),
                                a2=complex(-0.005, 0.002),
                                a7=complex(0.003, -0.004),
                                a11=complex(0.002, 0.005)), 5),
    ):
        params = SystemParams(lam=lam, omega=1.0, epsilon=lam**2 / 2,
                              n_osc=n, coeffs=coeffs)
        r_star = math.sqrt(lam / -coeffs.a1.real)
        rng = make_rng(5)
        phi0 = rng.uniform(0, 2 * np.pi, n)
        radii = r_star * (1 + rng.uniform(-0.03, 0.03, n))
        traj = integrate(lambda v: full_rhs_array(v, params),
                         radii * np.exp(1j * phi0), 0.05, 300.0)
        final_dev = np.max(np.abs(np.abs(traj.states[-1]) - r_star))
        assert final_dev < 1e-4


# ---------------------------------------------------------------------------
# row-block comparison against the one-pass formulas


def one_pass_phases(full):
    return np.unwrap(np.angle(full.states), axis=0)


def one_pass_compare(full, phase):
    """compare() as whole-array post-processing: every (steps, N) temporary
    held at once."""
    extracted = one_pass_phases(full)
    diff = extracted - phase.states
    rotation = np.angle(np.exp(1j * diff).mean(axis=1))
    residual = wrap_angle(diff - rotation[:, None])
    horizon = full.times[-1] - full.times[0]
    return (float(horizon), float(np.max(np.abs(residual))),
            float(np.mean(extracted[-1] - extracted[0]) / horizon),
            float(np.mean(phase.states[-1] - phase.states[0]) / horizon))


# consecutive wrapped values that differ by exactly pi or 2*pi: the tie rule
# keeps the sign of a +-pi jump, and |dd| = pi is not below the threshold
EXACT_JUMPS = [(1 + 0j, -1 + 0j), (complex(1, 0), complex(-1, -0.0)),
               (-1 + 0j, complex(-1, -0.0)), (complex(-1, -0.0), -1 + 0j)]


def block_boundary_runs(n, seed):
    """A full and a phase trajectory with wraps, near-pi crossings and exact
    +-pi jumps between the last row of a block and the first of the next."""
    block = max(1, _BLOCK_ELEMENTS // n)
    rows = 4 * block + 2
    rng = make_rng(seed)
    theta = np.cumsum(rng.uniform(-4.0, 4.0, (rows, n)), axis=0)
    states = rng.uniform(0.5, 1.5, (rows, n)) * np.exp(1j * theta)
    for m, (before, after) in enumerate(EXACT_JUMPS, start=1):
        states[m * block - 1, (m - 1) % n] = before
        states[m * block, (m - 1) % n] = after
        # a crossing of the branch cut just off the tie
        states[m * block - 1, m % n] = np.exp(1j * (np.pi - 0.01))
        states[m * block, m % n] = np.exp(1j * (0.02 - np.pi))
    times = np.arange(rows) * 0.1
    phases = theta + rng.normal(0.0, 0.8, (rows, n))
    return (Trajectory(times, states, "full"),
            Trajectory(times, phases, "phase"))


@pytest.mark.parametrize("n", [3, 8, 64, 1000, 32_768, 65_536, 70_000])
def test_block_pass_equals_one_pass_formulas(n):
    full, phase = block_boundary_runs(n, seed=60 + n % 97)
    report = compare(full, phase)
    assert (report.horizon, report.max_phase_dev, report.freq_full,
            report.freq_phase) == one_pass_compare(full, phase)
    extracted = extract_phases(full).states
    assert extracted.tobytes() == one_pass_phases(full).tobytes()


@pytest.mark.parametrize("n", [64, 65_536])
def test_compare_from_random_phases_equals_one_pass_formulas(n):
    # phases drawn in [0, 2 pi) as random-phases draws them, against the
    # extracted ones in (-pi, pi]: about half the residuals sit near -2 pi
    full, phase = on_cycle_runs(NormalFormCoefficients(a1=-1.0, a2=0.3),
                                n=n, lam=0.1, eps=0.05, t_end=0.4, seed=n)
    diff = one_pass_phases(full) - phase.states
    assert 0.3 < np.mean(diff < -np.pi) < 0.7
    report = compare(full, phase)
    assert (report.horizon, report.max_phase_dev, report.freq_full,
            report.freq_phase) == one_pass_compare(full, phase)


def mod_rule_abs_wrapped(diff):
    """|wrap_angle(diff)| as compare formed it before: np.mod on every
    x = diff + pi outside [0, 2 pi)."""
    x = diff + np.pi
    far = ~((x >= 0.0) & (x < TAU))
    x[far] = np.mod(x[far], TAU)
    x -= np.pi
    return np.abs(x)


def diff_reaching(x):
    """A float d with d + pi == x exactly."""
    d = x - np.pi
    for _ in range(8):
        if d + np.pi == x:
            return d
        d = np.nextafter(d, -np.inf if d + np.pi > x else np.inf)
    raise AssertionError(f"no d with d + pi == {x!r}")


def test_abs_wrapped_is_bit_identical_to_the_mod_rule():
    # x = d + pi reaches only every other double next to -2 pi
    edges = [0.0, TAU, -TAU, 2 * TAU, np.nextafter(2 * TAU, 0.0),
             np.nextafter(TAU, 0.0), -TAU + 2 * np.spacing(TAU),
             -TAU - 2 * np.spacing(TAU), np.nextafter(2 * TAU, np.inf),
             3 * np.pi, -3 * np.pi, np.pi, -np.pi]
    reached = [diff_reaching(x) for x in edges]
    # x just below 0, so close that x + 2 pi rounds to 2 pi
    tiny = [np.nextafter(-np.pi, -np.inf)]
    while tiny[-1] + np.pi + TAU == TAU:
        tiny.append(np.nextafter(tiny[-1], -np.inf))
    assert len(tiny) > 1
    raw = [-0.0, 0.0, TAU, -TAU, 2 * TAU, -2 * TAU, np.nextafter(2 * TAU, 0.0),
           -1e-300, -5e-324, 5 * np.pi, -5 * np.pi, 1e300, -1e300,
           np.nan, -np.nan, np.inf, -np.inf]
    rng = make_rng(11)
    values = np.concatenate([reached, tiny, raw,
                             rng.uniform(-3.5 * np.pi, 3.5 * np.pi, 200_000),
                             rng.uniform(-40.0, 40.0, 20_000)])
    with np.errstate(invalid="ignore"):  # np.mod of nan and inf, as before
        want = mod_rule_abs_wrapped(values)
        got = _abs_wrapped(values[None, :].copy())  # one row of a block
        assert np.array_equal(want, np.abs(wrap_angle(values)), equal_nan=True)
    assert got.tobytes() == want.tobytes()


def test_extract_phases_keeps_the_sign_of_a_zero_first_phase():
    states = np.array([[complex(1, -0.0)], [1j], [-1 + 0j]])
    extracted = extract_phases(Trajectory(np.arange(3.0), states, "full"))
    assert extracted.states.tobytes() == one_pass_phases(
        Trajectory(np.arange(3.0), states, "full")).tobytes()
    assert math.copysign(1.0, extracted.states[0, 0]) == -1.0


def _compare_peak(n, steps):
    rng = make_rng(7)
    theta = np.cumsum(rng.uniform(-1.0, 1.0, (steps + 1, n)), axis=0)
    states = np.empty(theta.shape, dtype=complex)
    np.multiply(theta, 1j, out=states)
    np.exp(states, out=states)
    times = np.arange(steps + 1) * 0.1
    full = Trajectory(times, states, "full")
    phase = Trajectory(times, theta, "phase")
    tracemalloc.start()
    try:
        compare(full, phase)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_compare_transient_memory_does_not_grow_with_the_run():
    # beyond the two trajectories, compare holds O(N): ten times the rows
    # must not cost ten times the memory
    n = 20_000
    assert _compare_peak(n, 400) <= 1.2 * _compare_peak(n, 40)


@pytest.mark.parametrize("n", [2, 70_000])
def test_amplitude_collapse_names_the_earliest_row(n):
    times = np.arange(5.0)
    states = np.full((5, n), 0.3 + 0j)
    states[1, 0] = 5e-9       # shallow, early
    states[3, 1] = 1e-12      # deeper, later
    full = Trajectory(times, states, "full")
    phase = Trajectory(times, np.zeros((5, n)), "phase")
    for run in (lambda: extract_phases(full), lambda: compare(full, phase)):
        with pytest.raises(AmplitudeCollapseError,
                           match=r"\|z_1\| = 5\.000e-09 at t=1:"):
            run()
    # within the earliest row, the smallest modulus is named
    states[1, 1] = 2e-9
    with pytest.raises(AmplitudeCollapseError,
                       match=r"\|z_2\| = 2\.000e-09 at t=1:"):
        compare(Trajectory(times, states, "full"), phase)


# ---------------------------------------------------------------------------
# text export


def _data_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(", ")
    rows = np.array([[float(x) for x in l.split(", ")] for l in lines[1:]])
    return header, rows


def test_full_trajectory_text_round_trips_exactly():
    full, _ = on_cycle_runs(NormalFormCoefficients(a1=-1.0, a2=0.3),
                            n=2, lam=0.3, eps=0.2, t_end=2.0, seed=6)
    text = trajectory_text(full, seed=6, extra_header={"dt": 0.05})
    assert text.startswith("# seed=6\n# model=full\n# dt=0.05\n")
    header, rows = _data_rows(text)
    assert header == ["t", "re(z_1)", "im(z_1)", "re(z_2)", "im(z_2)"]
    assert np.array_equal(rows[:, 0], full.times)
    assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], full.states[:, 0])
    assert np.array_equal(rows[:, 3] + 1j * rows[:, 4], full.states[:, 1])


def test_phase_trajectory_text_with_projection_columns():
    _, phase = on_cycle_runs(NormalFormCoefficients(a1=-1.0, a2=0.3),
                             n=2, lam=0.3, eps=0.2, t_end=2.0, seed=6)
    r_star = math.sqrt(0.3)
    text = trajectory_text(phase, r_star=r_star)
    assert text.startswith("# model=phase\n")
    header, rows = _data_rows(text)
    assert header == ["t", "phi_1", "phi_2", "rcos(phi_1)", "rcos(phi_2)"]
    assert np.array_equal(rows[:, 1:3], phase.states)
    assert np.max(np.abs(rows[:, 3] - r_star * np.cos(phase.states[:, 0]))) < 1e-16


def per_element_text(traj, seed=None, r_star=None, extra_header=None):
    """The export formatted one numpy scalar at a time, as the oracle."""
    fmt = "{:.17g}".format
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append(f"# model={traj.kind}")
    for key, value in (extra_header or {}).items():
        lines.append(f"# {key}={value}")
    n = traj.n_osc
    if traj.kind == "full":
        header = ["t"]
        for k in range(1, n + 1):
            header += [f"re(z_{k})", f"im(z_{k})"]
        lines.append(", ".join(header))
        for i, t in enumerate(traj.times):
            row = [fmt(t)]
            for k in range(n):
                row += [fmt(traj.states[i, k].real), fmt(traj.states[i, k].imag)]
            lines.append(", ".join(row))
    else:
        header = ["t"] + [f"phi_{k}" for k in range(1, n + 1)]
        if r_star is not None:
            header += [f"rcos(phi_{k})" for k in range(1, n + 1)]
        lines.append(", ".join(header))
        for i, t in enumerate(traj.times):
            row = [fmt(t)] + [fmt(x) for x in traj.states[i]]
            if r_star is not None:
                row += [fmt(r_star * np.cos(x)) for x in traj.states[i]]
            lines.append(", ".join(row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.0, -3.0,
               2.0 ** 52, 123456789.0, 0.1, 2 * math.pi]


@pytest.mark.parametrize("n", [1, 3, 7])
def test_trajectory_text_matches_per_element_formatting(n):
    rng = make_rng(50 + n)
    rows = 12
    times = np.concatenate([[0.0, 1.0, 1e-300], 1.0 + np.cumsum(
        rng.uniform(0.1, 2.0, rows - 3))])
    times.sort()
    values = rng.normal(size=(rows, 2 * n)) * 10.0 ** rng.integers(-5, 5, (rows, 2 * n))
    flat = values.reshape(-1)
    flat[:len(EDGE_VALUES)] = EDGE_VALUES[:flat.size]
    phase = Trajectory(times, values[:, :n], "phase")
    full = Trajectory(times, values[:, :n] + 1j * values[:, n:], "full")
    header = {"dt": "0.05"}
    for kw in ({}, {"seed": 4, "extra_header": header}):
        assert trajectory_text(full, **kw) == per_element_text(full, **kw)
        for r_star in (None, 0.3, math.sqrt(0.1)):
            assert (trajectory_text(phase, r_star=r_star, **kw)
                    == per_element_text(phase, r_star=r_star, **kw))


def test_trajectory_text_matches_per_element_formatting_on_runs():
    full, phase = on_cycle_runs(NormalFormCoefficients(a1=-1.0, a2=0.3, a7=0.1j),
                                n=4, lam=0.3, eps=0.2, t_end=3.0, seed=8)
    assert trajectory_text(full, seed=8) == per_element_text(full, seed=8)
    r_star = math.sqrt(0.3)
    assert (trajectory_text(phase, seed=8, r_star=r_star)
            == per_element_text(phase, seed=8, r_star=r_star))


def text_difference(text, oracle):
    """None when the texts agree, else the first field that differs in each,
    with its line number (a short message where pytest would diff MBs)."""
    if text == oracle:
        return None
    lines, expected = text.split("\n"), oracle.split("\n")
    for i, (line, want) in enumerate(zip(lines, expected)):
        if line != want:
            fields = zip(line.split(", "), want.split(", "))
            return i, next(((a, b) for a, b in fields if a != b), (line, want))
    return len(lines), len(expected)


def _phase_rows(values, n):
    """A phase trajectory whose rows are the flat values, n to a row."""
    states = np.asarray(values, dtype=float).reshape(-1, n)
    return Trajectory(np.arange(states.shape[0]) * 0.25, states, "phase")


def test_text_kernel_matches_per_element_on_raw_bit_patterns():
    rng = make_rng(120)
    bits = rng.integers(0, 2 ** 64, 2 * 10 ** 5, dtype=np.uint64)
    # every biased exponent, subnormal (0) to inf and nan (2047), both signs
    exponent = np.tile(np.arange(2048, dtype=np.uint64), 2)
    sign = np.repeat(np.arange(2, dtype=np.uint64), 2048)
    bits[:4096] &= np.uint64(2 ** 52 - 1)
    bits[:4096] |= (sign << np.uint64(63)) | (exponent << np.uint64(52))
    # half of the rest inside the kernel's fast set, 2**-14 to 2**54
    fast = rng.integers(1023 - 14, 1023 + 54, 10 ** 5, dtype=np.uint64)
    bits[-10 ** 5:] &= np.uint64(2 ** 63 + 2 ** 52 - 1)
    bits[-10 ** 5:] |= fast << np.uint64(52)
    values = bits.view(float)
    values[4096:4102] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    traj = _phase_rows(values, 400)
    assert text_difference(trajectory_text(traj), per_element_text(traj)) is None


def test_text_kernel_matches_per_element_next_to_powers_of_ten():
    # 1e-4 and 1e16 bound the fast set; the exponent estimate errs only here
    tens = np.array([float(f"1e{k}") for k in range(-6, 19)])
    values = [tens]
    for direction in (0.0, np.inf):
        step = tens
        for _ in range(3):
            step = np.nextafter(step, direction)
            values.append(step)
    values = np.concatenate(values)
    values = np.concatenate([values, -values])
    assert values.size == 2 * 7 * 25
    for n in (1, 7, 350):
        traj = _phase_rows(values, n)
        assert text_difference(trajectory_text(traj), per_element_text(traj)) is None
        assert text_difference(trajectory_text(traj, r_star=0.5),
                               per_element_text(traj, r_star=0.5)) is None


def test_text_kernel_rounds_exact_ties_half_to_even():
    # for odd m, m / 4 in [1e15, 2.25e15) has 16 integer digits and ends in
    # .25 or .75: its 17th digit, 2 or 7, is followed by an exact tie
    m = make_rng(121).integers(4 * 10 ** 15, 2 ** 53, 10 ** 5, dtype=np.int64) | 1
    values = m / 4.0
    assert np.array_equal(values * 4.0, m)
    values[::2] *= -1.0
    traj = _phase_rows(values, 500)
    text = trajectory_text(traj)
    assert text_difference(text, per_element_text(traj)) is None
    fields = [f for line in text.splitlines()[2:] for f in line.split(", ")[1:]]
    last = np.array([int(f.replace("-", "")[-1]) for f in fields])
    # half to even: .25 (m = 1 mod 4) rounds down to .2, .75 up to .8
    assert set(last.tolist()) == {2, 8}


@pytest.mark.parametrize("width", [_TEXT_PASS // 16, _TEXT_PASS - 1, _TEXT_PASS,
                                   _TEXT_PASS + 1, 200_001])
def test_text_kernel_rows_against_the_pass_length(width):
    # rows shorter than, as long as and longer than one kernel pass; a full
    # row at N = 10**5 is 200,001 values, about a hundred passes
    rng = make_rng(width)
    n = width - 1
    rows = max(1, 3 * _TEXT_PASS // width)
    values = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-6, 6, (rows, n))
    values.reshape(-1)[:len(EDGE_VALUES)] = EDGE_VALUES[:values.size]
    times = np.arange(rows) * 0.1
    if n % 2 == 0:
        full = Trajectory(times, values[:, ::2] + 1j * values[:, 1::2], "full")
        assert text_difference(trajectory_text(full, seed=3),
                               per_element_text(full, seed=3)) is None
    phase = Trajectory(times, values, "phase")
    assert text_difference(trajectory_text(phase), per_element_text(phase)) is None
    half = Trajectory(times, values[:, :n // 2], "phase")
    assert text_difference(trajectory_text(half, r_star=0.7),
                           per_element_text(half, r_star=0.7)) is None


def _text_peak(traj, **kw):
    _text_tables.cache_clear()  # the tables are counted too
    tracemalloc.start()
    try:
        text = trajectory_text(traj, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, len(text)


def test_text_block_memory_is_bounded():
    # a simulate text block at N = 64: 64 rows of 129 values
    n = 64
    full, phase = _edge_trajectories(n, _TEXT_ELEMENTS // n, seed=10)
    for traj, kw in ((full, {}), (phase, {"r_star": 0.3})):
        assert _text_peak(traj, **kw)[0] < 10 ** 6
    # one row of 200,001 values at N = 10**5: its values, its text twice
    # and a bounded amount for the kernel's passes (the per-row template
    # formatting peaked at 16.5 MB here, and at 42.1 MB with the header)
    n = 10 ** 5
    values = make_rng(11).normal(size=(2, 2 * n))
    times = np.array([0.0, 0.1])
    full = Trajectory(times, values[:, :n] + 1j * values[:, n:], "full")
    phase = Trajectory(times, values[:, :n], "phase")
    for traj, kw in ((full, {}), (phase, {"r_star": 0.3})):
        peak, size = _text_peak(traj, rows=slice(1, 2), **kw)
        assert peak < 2 * 8 * (2 * n + 1) + 2 * size + 10 ** 6
    assert _text_peak(full, rows=slice(0, 1))[0] < 42.1e6


def test_header_block_memory_is_near_a_later_block():
    # the column names at N = 10**5 are 200,001 names: made one string per
    # column, they took the first block's peak to 31.6 MB against 10.3 MB
    # for a later block of the same size
    n = 10 ** 5
    values = make_rng(12).normal(size=(2, 2 * n))
    times = np.array([0.0, 0.1])
    full = Trajectory(times, values[:, :n] + 1j * values[:, n:], "full")
    phase = Trajectory(times, values[:, :n], "phase")
    for traj, kw in ((full, {}), (phase, {"r_star": 0.3})):
        first = _text_peak(traj, rows=slice(0, 1), seed=1, **kw)[0]
        assert first < 1.5 * _text_peak(traj, rows=slice(1, 2), **kw)[0]


def _edge_trajectories(n, rows, seed):
    """Full and phase trajectories of random rows seeded with edge values."""
    rng = make_rng(seed)
    values = rng.normal(size=(rows, 2 * n)) * 10.0 ** rng.integers(-5, 5, (rows, 2 * n))
    edges = [-0.0, 5e-324, 1e300, -1e300]
    values.reshape(-1)[:len(edges)] = edges[:values.size]
    values[-1, -len(edges):] = edges[-values.shape[1]:]
    times = np.arange(rows) * 0.1
    return (Trajectory(times, values[:, :n] + 1j * values[:, n:], "full"),
            Trajectory(times, values[:, :n], "phase"))


def text_block_rows(n):
    """1, block - 1, block, block + 1 and 3 block + 5 rows, where a block is
    the rows written at a time; no empty run."""
    block = max(1, _TEXT_ELEMENTS // n)
    return sorted({1, block - 1, block, block + 1, 3 * block + 5} - {0})


def block_texts(traj, **kw):
    """The texts simulate writes for traj: trajectory_text of each row
    block of _row_blocks, in turn."""
    return (trajectory_text(traj, rows=rows, **kw)
            for rows in _row_blocks(traj.times.size, traj.n_osc, _TEXT_ELEMENTS))


@pytest.mark.parametrize("n", [2, 64, 4096, 4097])
def test_written_trajectory_equals_the_whole_text(n):
    # simulate writes row blocks; joined, they must be the one-piece text
    for rows in text_block_rows(n):
        full, phase = _edge_trajectories(n, rows, seed=rows)
        for kw in ({}, {"seed": 4, "extra_header": {"dt": "0.05"}}):
            for traj, r_star in ((full, None), (phase, None), (phase, 0.3)):
                assert "".join(block_texts(traj, r_star=r_star, **kw)) == trajectory_text(
                    traj, r_star=r_star, **kw)


def test_text_of_an_empty_trajectory_is_its_header():
    # an empty trajectory still gets one block, its header
    empty = Trajectory(np.zeros(0), np.zeros((0, 2)), "phase")
    header = "# seed=1\n# model=phase\nt, phi_1, phi_2\n"
    assert list(block_texts(empty, seed=1)) == [header]
    assert trajectory_text(empty, seed=1) == header


def _write_peak(path, traj, **kw):
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(block_texts(traj, **kw))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_writing_text_memory_does_not_grow_with_the_run(tmp_path):
    # the text is written in O(N) blocks: ten times the rows must not cost
    # ten times the memory (40 rows already span more than one block here)
    n = 128
    full, phase = _edge_trajectories(n, 400, seed=9)
    for traj, kw in ((full, {}), (phase, {"r_star": 0.3})):
        short = Trajectory(traj.times[:40], traj.states[:40], traj.kind)
        path = tmp_path / f"{traj.kind}.txt"
        assert _write_peak(path, traj, **kw) <= 1.2 * _write_peak(path, short, **kw)


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_text_kernel_writes_zeros_infinities_and_nans_as_percent_17g(width):
    # %.17g writes "nan" whatever the sign bit and payload
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFF4000000000123],
                    dtype=np.uint64).view(float)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])
    assert np.signbit(special).sum() == 5
    # alone, between fast-set values and across a pass boundary
    between = np.column_stack([special, np.full(special.size, 1.5)]).ravel()
    values = np.concatenate([special, between, special[::-1],
                             np.full(_TEXT_PASS - 2 * special.size - 3, 0.25),
                             special, [-1e-5, 3e20]])
    items = ["%.17g" % x for x in values.tolist()]
    oracle = "".join(item + ("\n" if (i + 1) % width == 0 else ", ")
                     for i, item in enumerate(items))
    assert "".join(_value_texts(values, width)) == oracle
