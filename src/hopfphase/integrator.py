"""Fixed-step integration and full-vs-reduced trajectory comparison.

The classical 4th-order one-step scheme is used everywhere: determinism and
a clean order-of-accuracy story matter more here than adaptive efficiency.
Phase trajectories are stored unreduced so winding rates can be measured;
comparison quotients out the global rotation symmetry before taking the sup
deviation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .angles import TAU

# reduction below this modulus means the phase description has broken down
_AMPLITUDE_FLOOR = 1e-8
_BLOCK_ELEMENTS = 2 ** 16  # compare takes max(1, this // N) rows at a time
_TEXT_ELEMENTS = 2 ** 12  # text is written max(1, this // N) rows at a time


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite mid-run; carries the time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class AmplitudeCollapseError(RuntimeError):
    """Raised when some |z_k| falls below the floor where phases are defined."""


class TrajectoryTooLargeError(MemoryError):
    """Raised before integrating when the dense trajectories would not fit in
    physical memory."""


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _budget_steps(subject: str, dt: float, t_end: float, n_osc: int,
                  bytes_per_osc: int) -> int:
    """Steps to t_end, if (steps + 1) * n_osc * bytes_per_osc fits in memory."""
    n_steps = int(np.floor(t_end / dt + 1e-9))
    n_bytes = (n_steps + 1) * n_osc * bytes_per_osc
    budget = _physical_memory_bytes()
    if budget is not None and n_bytes > budget:
        raise TrajectoryTooLargeError(
            f"{subject} of {n_steps} steps x N={n_osc} needs {n_bytes} "
            f"bytes, more than the {budget} bytes of physical memory; "
            f"shorten t_end or enlarge dt")
    return n_steps


@dataclass
class Trajectory:
    """States sampled at uniform times; kind is 'full' or 'phase'."""

    times: np.ndarray
    states: np.ndarray
    kind: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states)
        if self.kind not in ("full", "phase"):
            raise ValueError(f"kind must be 'full' or 'phase', got {self.kind!r}")
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-D and states 2-D")
        if self.times.size != self.states.shape[0]:
            raise ValueError("times and states disagree in length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n_osc(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class ComparisonReport:
    """Sup phase deviation and mean winding rates of a model pair.

    max_phase_dev is the sup over time of the largest per-oscillator circular
    distance between extracted and reduced phases, after removing the best
    global rotation at each time.
    """

    horizon: float
    max_phase_dev: float
    freq_full: float
    freq_phase: float

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "max_phase_dev": self.max_phase_dev,
            "freq_full": self.freq_full,
            "freq_phase": self.freq_phase,
        }


def default_dt(lam: float, omega_cap: float) -> float:
    """Step size resolving both the rotation and the slow attraction scale."""
    candidates = [0.01 / lam]
    if omega_cap != 0.0:
        candidates.append(2.0 * np.pi / (50.0 * abs(omega_cap)))
    return min(candidates)


def integrate(rhs, x0, dt: float, t_end: float) -> Trajectory:
    """Integrate x' = rhs(x) with the classical 4th-order scheme.

    Output is dense at every multiple of dt up to the largest one not
    exceeding t_end (no fractional final step; the step size is part of the
    method). The trajectory kind is inferred from the state dtype: complex
    states are 'full', real states are 'phase'. rhs must return a float
    (or, for complex states, complex) array shaped like x, new or its
    argument, and must not modify its argument. Each step reads the previous
    trajectory row and writes the next; beyond the trajectory, one stage
    input and two stages plus what rhs allocates are alive at once.

    Raises
    ------
    TrajectoryTooLargeError
        Before any allocation, if the dense trajectory, (steps + 1) * N *
        itemsize bytes, exceeds the physical memory of the machine.
    IntegrationError
        If any state component becomes NaN or infinite; the exception
        carries the time of the failed step.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if dt > t_end:
        raise ValueError(f"dt={dt} exceeds t_end={t_end}")

    x = np.atleast_1d(np.asarray(x0))
    if np.iscomplexobj(x):
        x = x.astype(complex, copy=False)
        kind = "full"
    else:
        x = x.astype(float, copy=False)
        kind = "phase"
    if not np.isfinite(x).all():
        raise ValueError("initial state contains non-finite entries")

    n_steps = _budget_steps("a trajectory", dt, t_end, x.size, x.itemsize)
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, x.size), dtype=x.dtype)
    states[0] = x
    x = states[0]
    y = np.empty_like(x)  # the run's one stage-input buffer
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
        out = states[i]
        _rk4_step(rhs, x, y, out, dt, half, sixth)
        if not np.isfinite(out).all():
            raise IntegrationError(
                f"non-finite state at t={times[i]:g} (step {i})", float(times[i]))
        x = out
    return Trajectory(times, states, kind)


def _row_blocks(n_rows: int, n_osc: int, elements: int):
    """Row slices of max(1, elements // n_osc) rows covering n_rows rows;
    at least one, so an empty trajectory still gets its text header."""
    block = max(1, elements // n_osc)
    for start in range(0, max(n_rows, 1), block):
        yield slice(start, start + block)


def _stage(rhs, x, scale, k, y):
    """rhs(x + scale * k) with the input formed in y, copied if it is y."""
    np.multiply(scale, k, out=y)
    np.add(x, y, out=y)
    k = rhs(y)
    return k.copy() if k is y else k


def _rk4_step(rhs, x, y, out, dt, half, sixth):
    """out = x + dt/6 * (k1 + 2 (k2 + k3) + k4) in the textbook's operations
    and operand order, folded into k2's storage; k3 dies before k4 exists."""
    k1 = rhs(x)
    k2 = _stage(rhs, x, half, k1, y)
    k3 = _stage(rhs, x, half, k2, y)
    np.multiply(dt, k3, out=y)
    np.add(x, y, out=y)
    acc = np.add(k2, k3, out=k2)
    del k2, k3
    k4 = rhs(y)
    acc *= 2.0
    acc += k1
    acc += k4
    acc *= sixth
    np.add(x, acc, out=out)


def _phase_block(states, times, carry=None):
    """np.unwrap(np.angle(states), axis=0) continued from the carry (last
    wrapped row, running correction) of the preceding block, and the next
    carry. numpy's formula is kept term by term, +-pi tie rule included, and
    corrections add up row by row as in cumsum, so blocks change no bit."""
    mods = np.abs(states)
    low = np.flatnonzero((mods < _AMPLITUDE_FLOOR).any(axis=1))
    if low.size:
        t, k = low[0], np.argmin(mods[low[0]])
        raise AmplitudeCollapseError(
            f"|z_{k + 1}| = {mods[t, k]:.3e} at t={times[t]:g}: "
            f"amplitude collapsed, phases undefined")
    del mods
    wrapped = np.angle(states)
    prev, correction = (wrapped[0], 0.0) if carry is None else carry
    dd = np.empty_like(wrapped)
    np.subtract(wrapped[:1], prev, out=dd[:1])
    np.subtract(wrapped[1:], wrapped[:-1], out=dd[1:])
    jumps = ~(np.abs(dd) < np.pi)  # elsewhere the correction is +0.0
    jump = dd[jumps]
    cut = np.mod(jump + np.pi, TAU) - np.pi
    cut[(cut == -np.pi) & (jump > 0)] = np.pi
    cut -= jump
    fix = np.zeros_like(dd)
    fix[jumps] = cut
    fix[0] += correction
    np.cumsum(fix, axis=0, out=fix)
    next_carry = (wrapped[-1].copy(), fix[-1].copy())
    fix += wrapped
    if carry is None:  # np.unwrap leaves the first row as it is
        fix[0] = wrapped[0]
    return fix, next_carry


def extract_phases(traj: Trajectory) -> Trajectory:
    """Unwrapped phase paths arg z_k(t) of a full-model trajectory.

    Raises AmplitudeCollapseError at the earliest time some modulus gets
    within 1e-8 of zero, where the phase is meaningless.
    """
    if traj.kind != "full":
        raise ValueError("extract_phases expects a full-model trajectory")
    phases, _ = _phase_block(traj.states, traj.times)
    return Trajectory(traj.times, phases, "phase")


def mean_winding_rate(phase_traj: Trajectory) -> float:
    """Average of (phi_k(T) - phi_k(0)) / (T - 0) over oscillators."""
    horizon = phase_traj.times[-1] - phase_traj.times[0]
    return float(np.mean(phase_traj.states[-1] - phase_traj.states[0]) / horizon)


def compare(full_traj: Trajectory, phase_traj: Trajectory) -> ComparisonReport:
    """Compare a full-model run against a phase-model run on the same grid.

    At each time the per-oscillator differences between extracted and
    reduced phases are aligned by their circular mean (the global rotation
    is not an observable of the reduced model), and the largest residual
    circular distance over all times and oscillators is reported together
    with both mean winding rates.

    Rows are processed in blocks of max(1, 2**16 // N) with the unwrap
    carried over, so memory beyond the two trajectories is O(N).
    """
    if phase_traj.kind != "phase":
        raise ValueError("second argument must be a phase trajectory")
    if (full_traj.times.size != phase_traj.times.size
            or np.max(np.abs(full_traj.times - phase_traj.times)) > 1e-9):
        raise ValueError("time grids differ between the two trajectories")
    if full_traj.n_osc != phase_traj.n_osc:
        raise ValueError("oscillator counts differ between the two trajectories")

    carry = None
    max_dev = 0.0
    for rows in _row_blocks(full_traj.times.size, full_traj.n_osc,
                            _BLOCK_ELEMENTS):
        diff, carry = _phase_block(full_traj.states[rows],
                                   full_traj.times[rows], carry)
        diff -= phase_traj.states[rows]
        turn = 1j * diff
        np.exp(turn, out=turn)
        rotation = np.angle(turn.mean(axis=1))
        del turn
        diff -= rotation[:, None]
        # |wrap_angle(diff)| bit for bit: np.mod is the identity on [0, 2 pi)
        diff += np.pi
        far = ~((diff >= 0.0) & (diff < TAU))
        diff[far] = np.mod(diff[far], TAU)
        diff -= np.pi
        max_dev = np.maximum(max_dev, np.max(np.abs(diff, out=diff)))
    # the final extracted row is the last wrapped row plus its correction
    winding = carry[0] + carry[1] - np.angle(full_traj.states[0])
    horizon = full_traj.times[-1] - full_traj.times[0]
    return ComparisonReport(
        horizon=float(horizon),
        max_phase_dev=float(max_dev),
        freq_full=float(np.mean(winding) / horizon),
        freq_phase=mean_winding_rate(phase_traj),
    )


# ---------------------------------------------------------------------------
# delimited-text export


def trajectory_text(traj: Trajectory, seed=None, r_star: float | None = None,
                    extra_header: dict | None = None,
                    rows: slice = slice(None)) -> str:
    """Render a trajectory, or the rows selected by a slice of it, as
    delimited text.

    Full trajectories carry columns t, re(z_k), im(z_k); phase trajectories
    carry t, phi_k and, when r_star is given, additionally r_star*cos(phi_k)
    columns for direct visual comparison with the full model. Floats are
    written with 17 significant digits ("%.17g") so parsing recovers them
    exactly. The header lines come first when the rows start at row 0, so
    the texts of consecutive row blocks join to the text of the whole
    trajectory.

    Each row is formatted with one template over the row's Python floats,
    and r_star*cos(phi) is evaluated once per row; building the whole table
    first would hold a second copy of the trajectory as Python floats.
    """
    n = traj.n_osc
    with_rcos = traj.kind == "phase" and r_star is not None
    lines = []
    if rows.indices(traj.times.size)[0] == 0:
        if seed is not None:
            lines.append(f"# seed={seed}")
        lines.append(f"# model={traj.kind}")
        for key, value in (extra_header or {}).items():
            lines.append(f"# {key}={value}")
        header = ["t"]
        if traj.kind == "full":
            for k in range(1, n + 1):
                header += [f"re(z_{k})", f"im(z_{k})"]
        else:
            header += [f"phi_{k}" for k in range(1, n + 1)]
            if with_rcos:
                header += [f"rcos(phi_{k})" for k in range(1, n + 1)]
        lines.append(", ".join(header))
    states = traj.states[rows]
    if traj.kind == "full":
        # re and im of each z_k are adjacent in memory, as in the columns
        states = np.ascontiguousarray(states, dtype=complex).view(float)
    width = 1 + states.shape[1] + (n if with_rcos else 0)
    template = ", ".join(["%.17g"] * width)
    for t, row in zip(traj.times[rows].tolist(), states):
        values = row.tolist()
        if with_rcos:
            values += (r_star * np.cos(row)).tolist()
        lines.append(template % (t, *values))
    return "\n".join(lines) + "\n" if lines else ""


def write_trajectory(traj: Trajectory, path, seed=None, r_star=None,
                     extra_header=None) -> None:
    """Write trajectory_text(traj, ...) to path, a block of max(1, 2**12 // N)
    rows at a time, so the text in memory is O(N) whatever the run length."""
    with open(path, "w", encoding="utf-8") as fh:
        for rows in _row_blocks(traj.times.size, traj.n_osc, _TEXT_ELEMENTS):
            fh.write(trajectory_text(traj, seed=seed, r_star=r_star,
                                     extra_header=extra_header, rows=rows))
