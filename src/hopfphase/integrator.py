"""Fixed-step integration and full-vs-reduced trajectory comparison.

The classical 4th-order one-step scheme is used everywhere: determinism and
a clean order-of-accuracy story matter more here than adaptive efficiency.
Phase trajectories are stored unreduced so winding rates can be measured;
comparison quotients out the global rotation symmetry before taking the sup
deviation.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .angles import TAU, _in_slices

# reduction below this modulus means the phase description has broken down
_AMPLITUDE_FLOOR = 1e-8
_BLOCK_ELEMENTS = 2 ** 16  # compare takes max(1, this // N) rows at a time
_TEXT_ELEMENTS = 2 ** 12  # text is written max(1, this // N) rows at a time
_TEXT_PASS = 2 ** 11  # the text kernel renders this many values per pass


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite mid-run; carries the time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class AmplitudeCollapseError(RuntimeError):
    """Raised when some |z_k| falls below the floor where phases are defined."""


class TrajectoryTooLargeError(MemoryError):
    """Raised before any work when the dense trajectories, or the tables of a
    cluster scan, would not fit in physical memory."""


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(subject: str, n_bytes: int, remedy: str):
    """Raise TrajectoryTooLargeError if subject's n_bytes exceed physical
    memory; the message names the remedy."""
    budget = _physical_memory_bytes()
    if budget is not None and n_bytes > budget:
        raise TrajectoryTooLargeError(
            f"{subject} needs {n_bytes} bytes, more than the {budget} bytes "
            f"of physical memory; {remedy}")


def _budget_steps(subject: str, dt: float, t_end: float, n_osc: int,
                  bytes_per_osc: int) -> int:
    """Steps to t_end, if (steps + 1) * n_osc * bytes_per_osc fits in memory."""
    steps = np.floor(t_end / dt + 1e-9)
    if not np.isfinite(steps):
        raise TrajectoryTooLargeError(
            f"the step count t_end/dt of {subject} overflows with 'dt' = "
            f"{dt!r} and 't_end' = {t_end!r}; shorten t_end or enlarge dt")
    n_steps = int(steps)
    _require_memory(f"{subject} of {n_steps} steps x N={n_osc}",
                    (n_steps + 1) * n_osc * bytes_per_osc,
                    "shorten t_end or enlarge dt")
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
        if not np.logical_and.reduce(np.isfinite(out)):  # not ndarray.all's wrapper
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


def _rk4_step(rhs, x, y, out, dt, half, sixth):
    """out = x + dt/6 * (k1 + 2 (k2 + k3) + k4) in the textbook's operations
    and operand order, folded into k2's storage; k3 dies before k4 exists.
    Each stage input is formed in y, and a stage that is y is copied."""
    k1 = rhs(x)
    np.multiply(half, k1, out=y)
    np.add(x, y, out=y)
    k2 = rhs(y)
    if k2 is y:
        k2 = k2.copy()
    np.multiply(half, k2, out=y)
    np.add(x, y, out=y)
    k3 = rhs(y)
    if k3 is y:
        k3 = k3.copy()
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
    # np.angle(states) is this arctan2, here written over the moduli
    wrapped = np.arctan2(states.imag, states.real, out=mods)
    del mods
    prev, correction = (wrapped[0], 0.0) if carry is None else carry
    fix = np.empty_like(wrapped)  # the differences dd, then the corrections
    np.subtract(wrapped[:1], prev, out=fix[:1])
    np.subtract(wrapped[1:], wrapped[:-1], out=fix[1:])
    jumps = fix < np.pi
    jumps &= fix > -np.pi
    np.logical_not(jumps, out=jumps)  # not |dd| < pi, NaN included
    jump = fix[jumps]
    cut = np.mod(jump + np.pi, TAU) - np.pi
    cut[(cut == -np.pi) & (jump > 0)] = np.pi
    cut -= jump
    fix.fill(0.0)  # elsewhere the correction is +0.0
    fix[jumps] = cut
    fix[0] += correction
    if fix.shape[0] > 1:  # over one row cumsum is the identity, at 8 ns a value
        np.cumsum(fix, axis=0, out=fix)
    next_carry = (wrapped[-1], fix[-1].copy())  # wrapped is not written again
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
    _require_two_samples(phase_traj)
    horizon = phase_traj.times[-1] - phase_traj.times[0]
    return float(np.mean(phase_traj.states[-1] - phase_traj.states[0]) / horizon)


def _require_two_samples(traj: Trajectory):
    """A winding rate is a difference over the run: one sample has none."""
    if traj.times.size < 2:
        raise ValueError(
            f"a winding rate needs at least two samples, got {traj.times.size}")


def _abs_wrapped(diff):
    """|wrap_angle(diff)|, bit for bit, in diff's storage.

    With x = diff + pi, np.mod(x, 2 pi) is x on [0, 2 pi), x - 2 pi on
    [2 pi, 4 pi) (fmod subtracts exactly there, by Sterbenz's lemma) and
    fmod(x, 2 pi) + 2 pi = x + 2 pi on [-2 pi, 0), to the bit, both giving
    +0.0 at the ends. x is never -0.0, so adding or subtracting a +0.0 shift
    changes no other value. Only the rest (|x| >= 2 pi beyond those ranges,
    NaN and +-inf) goes through np.mod: a gather and scatter on a random
    mask, and np.mod itself, cost more per value than the two shifts.
    """
    diff += np.pi
    far = ~((diff >= -TAU) & (diff < 2.0 * TAU))
    rest = np.mod(diff[far], TAU)
    shift = np.multiply(diff >= TAU, TAU)
    diff -= shift  # now every value below 0 was below 0 before
    np.multiply(diff < 0.0, TAU, out=shift)
    diff += shift
    diff[far] = rest
    diff -= np.pi
    return np.abs(diff, out=diff)


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
    if full_traj.kind != "full":
        raise ValueError("first argument must be a full-model trajectory")
    if phase_traj.kind != "phase":
        raise ValueError("second argument must be a phase trajectory")
    if (full_traj.times.size != phase_traj.times.size
            or np.max(np.abs(full_traj.times - phase_traj.times)) > 1e-9):
        raise ValueError("time grids differ between the two trajectories")
    if full_traj.n_osc != phase_traj.n_osc:
        raise ValueError("oscillator counts differ between the two trajectories")
    _require_two_samples(full_traj)

    carry = None
    max_dev = 0.0
    for rows in _row_blocks(full_traj.times.size, full_traj.n_osc,
                            _BLOCK_ELEMENTS):
        diff, carry = _phase_block(full_traj.states[rows],
                                   full_traj.times[rows], carry)
        if rows.start == 0:  # the first row is np.angle of the first state
            first = diff[0].copy()
        diff -= phase_traj.states[rows]
        turn = _in_slices(np.exp, 1j * diff)
        rotation = np.angle(turn.mean(axis=1))
        del turn
        diff -= rotation[:, None]
        max_dev = np.maximum(max_dev, np.max(_abs_wrapped(diff)))
    # the final extracted row is the last wrapped row plus its correction
    winding = carry[0] + carry[1] - first
    horizon = full_traj.times[-1] - full_traj.times[0]
    return ComparisonReport(
        horizon=float(horizon),
        max_phase_dev=float(max_dev),
        freq_full=float(np.mean(winding) / horizon),
        freq_phase=mean_winding_rate(phase_traj),
    )


# ---------------------------------------------------------------------------
# delimited-text export
#
# The text kernel writes each value as exactly the bytes of "%.17g" % value.
# On the fast set, 1e-4 <= |x| < 1e16, "%.17g" uses fixed notation: the 17
# significant digits d0..d16 of D = |x| * 10**(16 - X) rounded half to even,
# where X = floor(log10 |x|) is in [-4, 15], with the point after d_X (or
# "0." and -X - 1 zeros before d0 when X < 0), and no trailing zeros or
# bare point. A pass renders each value into a slot of _SLOT bytes:
#
#   byte 0      unused
#   byte 1      '-'
#   bytes 2-5   '0000'
#   bytes 6-23  18 digits: D with a '0' inserted after d_X when X >= 0, or
#               D after a leading '0' when X < 0
#   byte 7+X    '.', written over the inserted or a leading '0'
#   bytes 24-25 ', ' (a row's last value gets '\n' in byte 24)
#   bytes 26-27 unused, so bytes 8-23 are four aligned 32-bit words
#
# A keep-mask table indexed by (sign, X, last nonzero digit) picks the sign,
# one run of digits and the separator out of the slot, and one boolean index
# joins the picked bytes of a pass. Zeros, infinities and NaNs put %.17g's
# fixed text ("0", "inf" or "nan") in bytes 2-4 and keep it, with byte 1 for
# a negative zero or infinity.

_SLOT = 28


@functools.lru_cache(maxsize=None)
def _text_tables() -> SimpleNamespace:
    """The kernel's constant tables, built on first use (0.16 MB).

    slots: _TEXT_PASS blank slots. keep: the keep masks, by sign, X + 4 and
    the byte of the last nonzero digit less 6. quad_chars, pair_chars: 0 to
    9999 and 0 to 99 as ASCII digits in a uint32 and a uint16. quad_last,
    pair_last: the byte of the last nonzero digit of a quad, by place and
    value, and of the pair (negative when all are zero). pow10: 10**s, s = 0
    to 21, with its 26-bit halves pow10_hi and pow10_lo. int_div, int_nine:
    10**(16 - X) and 9 * 10**(16 - X), or 1 and 0 when X < 0, by X + 4.
    fixed_chars, fixed_keep: the fixed texts' bytes 2-4 and keep masks over
    bytes 0-23, by kind (0 zero, 1 infinity, 2 NaN) * 2 + sign bit.
    """
    pos = np.arange(_SLOT)
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(-4, 16)[:, None, None]
    last = np.arange(6, 24)[:, None]
    first = np.where(x < 0, 6 + x, 6)
    end = np.where((x >= 0) & (last <= 7 + x), 6 + x, last)
    keep = ((pos == 1) & (neg == 1)) | (pos == 24) | (pos == 25)
    keep = keep | ((first <= pos) & (pos <= end))
    pair = np.arange(100, dtype=np.uint32)
    pair_chars = (pair // 10 + ord("0")) | (pair % 10 + ord("0")) << 8
    # the last nonzero digit of a pair, as 0 or 1, or -99 for 00
    pair_last = np.select([pair % 10 > 0, pair > 0], [1, 0], -99).astype(np.int8)
    quad_last = np.where(pair_last >= 0, pair_last + 2, pair_last[:, None])
    pow10 = np.array([float(10 ** s) for s in range(22)])  # exact doubles
    split = pow10 * 134217729.0
    pow10_hi = split - (split - pow10)
    int_div = np.array([10 ** (16 - e) if e >= 0 else 1 for e in range(-4, 16)],
                       dtype=np.int64)
    fixed_chars = np.zeros((6, 3), dtype=np.uint8)
    fixed_keep = np.zeros((6, 24), dtype=bool)
    for row, text in enumerate(("0", "-0", "inf", "-inf", "nan", "nan")):
        body = text.lstrip("-")
        fixed_chars[row, :len(body)] = list(body.encode("ascii"))
        fixed_keep[row, 1] = text != body
        fixed_keep[row, 2:2 + len(body)] = True
    tables = SimpleNamespace(
        slots=np.tile(np.frombuffer(b"\0-0000" + b"0" * 18 + b", \0\0",
                                    dtype=np.uint8), (_TEXT_PASS, 1)),
        keep=keep.reshape(-1, _SLOT),
        quad_chars=(pair_chars[:, None] | pair_chars << 16).reshape(-1),
        pair_chars=pair_chars.astype("<u2"),
        quad_last=(quad_last.reshape(-1) + np.arange(8, 24, 4, dtype=np.int8)[:, None]),
        pair_last=pair_last + np.int8(6),
        pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10 - pow10_hi,
        int_div=int_div, int_nine=np.where(int_div > 1, 9 * int_div, 0),
        fixed_chars=fixed_chars, fixed_keep=fixed_keep)
    for table in vars(tables).values():
        table.flags.writeable = False  # shared by every call
    return tables


def _significands(v):
    """(D, X + 4, slow) for the values v: D = |v| * 10**(16 - X) rounded half
    to even, exact on the fast set, and the indices of the other values,
    whose D and X are placeholders."""
    tab = _text_tables()
    a = np.abs(v)
    fast = a >= 1e-4
    fast &= a < 1e16
    a[~fast] = 1.0
    x = np.log10(a)
    np.floor(x, out=x)
    x = x.astype(np.intp)  # X, or one off next to a power of ten
    s = 16 - x
    # a * 10**s exactly as hi + lo: Dekker's product of 26-bit halves
    hi = a * tab.pow10.take(s)
    t = a * 134217729.0
    a_hi = t - a
    np.subtract(t, a_hi, out=a_hi)
    a_lo = np.subtract(a, a_hi, out=a)
    b_hi = tab.pow10_hi.take(s)
    b_lo = tab.pow10_lo.take(s)
    lo = a_hi * b_hi
    lo -= hi
    lo += np.multiply(a_hi, b_lo, out=t)
    lo += np.multiply(a_lo, b_hi, out=t)
    lo += np.multiply(a_lo, b_lo, out=t)
    # on the fast set hi >= 10**16 > 2**53 is an even integer, so rint's
    # ties to even round D half to even too
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    # D out of [10**16, 10**17) means X was one off or the value rounds up to
    # a power of ten: those values, and all outside the fast set, fall back.
    # (With X one too high D stays below 10**16: the closest double below a
    # power of ten of the fast set is 0.83 units of D away from it.)
    fast &= d >= 10 ** 16
    fast &= d < 10 ** 17
    slow = np.flatnonzero(~fast)
    d[slow] = 10 ** 16 + 1
    x[slow] = 0
    x += 4
    return d, x, slow


def _digit_groups(d, x4):
    """The 18 digits of D with a '0' put in after d_X when X >= 0 (so a
    leading '0' when X < 0), as the leading pair and the next four quads."""
    tab = _text_tables()
    n = d // tab.int_div.take(x4)
    n *= tab.int_nine.take(x4)
    n += d
    pair = n // 10 ** 16
    n -= pair * 10 ** 16
    halves = np.empty((2, d.size), dtype=np.int64)
    np.floor_divide(n, 10 ** 8, out=halves[0])
    np.multiply(halves[0], -10 ** 8, out=halves[1])
    halves[1] += n
    quads = np.empty((2, 2, d.size), dtype=np.int64)
    np.floor_divide(halves, 10 ** 4, out=quads[:, 0])
    np.multiply(quads[:, 0], -10 ** 4, out=quads[:, 1])
    quads[:, 1] += halves
    return pair, quads.reshape(4, d.size)


def _render_pass(v, start: int, width: int, slots, keep) -> str:
    """The text of the values v, which start at flat index start of rows of
    width values, rendered in slots and keep (v.size x _SLOT, overwritten)."""
    tab = _text_tables()
    d, x4, slow = _significands(v)
    pair, quads = _digit_groups(d, x4)
    np.copyto(slots, tab.slots[:v.size])
    slots.view("<u2")[:, 3] = tab.pair_chars.take(pair)
    slots.view("<u4")[:, 2:6] = tab.quad_chars.take(quads).T
    slots.ravel()[np.arange(3, v.size * _SLOT, _SLOT) + x4] = ord(".")
    # the keep mask, by sign, X and the byte of the last nonzero digit
    quads += np.arange(0, 4 * 10 ** 4, 10 ** 4)[:, None]
    index = tab.pair_last.take(pair).astype(np.intp)
    for place in tab.quad_last.take(quads):
        np.maximum(index, place, out=index)
    index += x4 * 18 - 6
    index += np.signbit(v) * 360
    np.take(tab.keep, index, axis=0, out=keep)
    row_ends = np.arange((-start - 1) % width, v.size, width)
    slots[row_ends, 24] = ord("\n")
    keep[row_ends, 25] = False
    if slow.size:  # most passes have none; its checks cost 13 us on empty arrays
        _render_slow(v.take(slow), slow, slots, keep)
    return slots.ravel()[keep.ravel()].tobytes().decode("ascii")


def _render_slow(w, slow, slots, keep):
    """Write the values w, at rows slow of slots and keep, off the fast set:
    zeros, infinities and NaNs as fixed texts, the rest by Python's "%.17g"."""
    tab = _text_tables()
    fixed = ~np.isfinite(w)
    fixed |= w == 0
    row = (np.isnan(w) * 2 + np.isinf(w)) * 2 + np.signbit(w)
    at, row = slow[fixed], row[fixed]
    slots[at, 2:5] = tab.fixed_chars.take(row, axis=0)
    keep[at, :24] = tab.fixed_keep.take(row, axis=0)
    for i, value in zip(slow[~fixed].tolist(), w[~fixed].tolist()):
        text = ("%.17g" % value).encode("ascii")  # at most 24 bytes
        slots[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :24] = False
        keep[i, :len(text)] = True


def _value_texts(values: np.ndarray, width: int):
    """The rows of width values in the flat float64 values as "%.17g" texts,
    ", " after each value but a row's last and "\\n" after that, one text a
    pass of _TEXT_PASS values."""
    slots = np.empty((min(values.size, _TEXT_PASS), _SLOT), dtype=np.uint8)
    keep = np.empty(slots.shape, dtype=bool)
    for start in range(0, values.size, _TEXT_PASS):
        v = values[start:start + _TEXT_PASS]
        yield _render_pass(v, start, width, slots[:v.size], keep[:v.size])


def trajectory_text(traj: Trajectory, seed=None, r_star: float | None = None,
                    extra_header: dict | None = None,
                    rows: slice = slice(None)) -> str:
    """Render a trajectory, or the rows selected by a slice of it, as
    delimited text.

    Full trajectories carry columns t, re(z_k), im(z_k); phase trajectories
    carry t, phi_k and, when r_star is given, additionally r_star*cos(phi_k)
    columns for direct visual comparison with the full model. Floats are
    written with 17 significant digits, byte for byte as "%.17g" writes
    them, so parsing recovers them exactly. The header lines come first when
    the rows start at row 0, so the texts of consecutive row blocks join to
    the text of the whole trajectory.

    The rows' values are gathered into one float array and rendered by a
    numpy kernel, 2**11 values a pass, so its working memory is bounded
    whatever N is. Values with 1e-4 <= |x| < 1e16 get their 17 digits
    exactly, from Dekker's error-free product |x| * 10**(16 - X) rounded
    half to even. Zeros, infinities and NaNs get "%.17g"'s fixed texts in
    the same pass; the rest (tiny and huge values, and the few next to a
    power of ten whose decimal exponent X the logarithm misjudges or that
    round up to one) are formatted by Python's "%.17g" one at a time.
    """
    n = traj.n_osc
    with_rcos = traj.kind == "phase" and r_star is not None
    states = traj.states[rows]
    if traj.kind == "full":
        # re and im of each z_k are adjacent in memory, as in the columns
        states = np.ascontiguousarray(states, dtype=complex).view(float)
    cols = states.shape[1]
    values = np.empty((states.shape[0], 1 + cols + (n if with_rcos else 0)))
    values[:, 0] = traj.times[rows]
    values[:, 1:1 + cols] = states
    if with_rcos:
        np.multiply(r_star, np.cos(states), out=values[:, 1 + cols:])
    text = "".join(_value_texts(values.reshape(-1), values.shape[1]))
    if rows.indices(traj.times.size)[0] != 0:
        return text
    # the header is made once the values are text and their arrays gone, and
    # its column names one text per _TEXT_PASS oscillators, not a string per
    # column (200,001 of them at N = 10**5)
    del states, values
    lines = [] if seed is None else [f"# seed={seed}"]
    lines.append(f"# model={traj.kind}")
    lines += [f"# {key}={value}" for key, value in (extra_header or {}).items()]
    if traj.kind == "full":
        names = ["re(z_{0}), im(z_{0})"]
    else:
        names = ["phi_{0}", "rcos(phi_{0})"] if with_rcos else ["phi_{0}"]
    heads = [", " + ", ".join(map(name.format, range(k, min(k + _TEXT_PASS, n + 1))))
             for name in names for k in range(1, n + 1, _TEXT_PASS)]
    return "".join(["\n".join(lines) + "\nt", *heads, "\n", text])


def write_trajectory(traj: Trajectory, path, seed=None, r_star=None,
                     extra_header=None) -> None:
    """Write trajectory_text(traj, ...) to path, a block of max(1, 2**12 // N)
    rows at a time, so the text in memory is O(N) whatever the run length."""
    with open(path, "w", encoding="utf-8") as fh:
        for rows in _row_blocks(traj.times.size, traj.n_osc, _TEXT_ELEMENTS):
            fh.write(trajectory_text(traj, seed=seed, r_star=r_star,
                                     extra_header=extra_header, rows=rows))
