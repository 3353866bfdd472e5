"""The N-sized e^{i phi} passes split across CPUs by angles._in_slices.

Every split result must equal the one-CPU result bit for bit, on both sides
of the split threshold (2 * _SLICE_MIN = 2**14 elements) and of numpy's
temporary-elision size for complex arrays (also 2**14); errors and np.errstate
must cross the thread boundary; and no thread may outlive its call, nor any
start at the small N of the benchmark's workloads.
"""
import json
import os
import subprocess
import sys
import threading
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import hopfphase
import hopfphase.angles as angles
from hopfphase import (Trajectory, compare, initial_phases, limit_cycle,
                       parse_config, phase_rhs_fast)
from hopfphase.angles import _SLICE_MIN, _in_slices
from hopfphase.cli import main
from hopfphase.config import initial_full_state

from conftest import make_rng, random_coupling

THRESHOLD = 2 * _SLICE_MIN
# both sides of the split threshold and of numpy's elision size, 2**14
SIZES = sorted({2 ** 14 - 1, 2 ** 14, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1,
                2 * THRESHOLD})


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, counted."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def one_and_split(monkeypatch, call, cpus=3):
    """call() with one CPU, then with cpus (split where the size allows)."""
    monkeypatch.setattr(angles, "_cpus", lambda: 1)
    serial = call()
    monkeypatch.setattr(angles, "_cpus", lambda: cpus)
    return serial, call()


@pytest.mark.parametrize("n", SIZES)
def test_phase_rhs_fast_split_is_bit_identical(n, monkeypatch, thread_starts):
    coupling = random_coupling(make_rng(n), n, epsilon=0.5)
    phi = make_rng(n + 1).uniform(0.0, 2.0 * np.pi, n)
    serial, split = one_and_split(
        monkeypatch, lambda: phase_rhs_fast(phi, coupling))
    assert serial.tobytes() == split.tobytes()
    assert len(thread_starts) == (0 if n < THRESHOLD else min(3, n // _SLICE_MIN) - 1)


# (oscillators, rows): compare's exp runs on blocks of rows x N elements
@pytest.mark.parametrize("n, rows", [(THRESHOLD // 2 - 1, 2), (THRESHOLD // 2, 2),
                                     (THRESHOLD - 1, 2), (THRESHOLD, 2),
                                     (4, THRESHOLD // 4 + 1)])
def test_compare_split_is_bit_identical(n, rows, monkeypatch, thread_starts):
    rng = make_rng(n * rows)
    times = 0.1 * np.arange(rows)
    z = rng.uniform(0.5, 1.5, (rows, n)) * np.exp(1j * rng.uniform(-4, 4, (rows, n)))
    full = Trajectory(times, z, "full")
    phase = Trajectory(times, rng.uniform(-4.0, 4.0, (rows, n)), "phase")
    serial, split = one_and_split(monkeypatch, lambda: compare(full, phase))
    assert np.array(astuple(serial)).tobytes() == np.array(astuple(split)).tobytes()
    assert bool(thread_starts) == (n * rows >= THRESHOLD)


@pytest.mark.parametrize("n", SIZES)
def test_initial_full_state_split_is_bit_identical(n, monkeypatch, thread_starts):
    cfg = parse_config(json.dumps({
        "lambda": 0.1, "omega": 1.0, "epsilon": 0.05, "n_osc": n, "seed": n,
        "coefficients": {"a1": [-1.0, 0.3]}}))
    serial, split = one_and_split(monkeypatch, lambda: initial_full_state(cfg))
    assert serial.tobytes() == split.tobytes()
    # as the expression it replaces wrote it, temporary elision included
    r_star = np.sqrt(limit_cycle(cfg.system_params())[0])
    assert serial.tobytes() == (r_star * np.exp(1j * initial_phases(cfg))).tobytes()
    assert bool(thread_starts) == (n >= THRESHOLD)


def test_cli_compare_at_large_n_is_byte_identical_split(tmp_path, monkeypatch):
    cfg = tmp_path / "large.json"
    cfg.write_text(json.dumps({
        "lambda": 0.1, "omega": 1.0, "epsilon": 0.05, "n_osc": 100_000,
        "dt": 0.1, "t_end": 0.4, "seed": 100_000,
        "coefficients": {"a1": [-1.0, 0.3], "a_minus1": [0.1, 0.05],
                         "a2": [0.2, -0.1], "a6": [0.12, -0.04],
                         "a9": [0.07, -0.09]}}))
    texts = []
    before = threading.active_count()
    for cpus in (1, 2):
        monkeypatch.setattr(angles, "_cpus", lambda: cpus)
        out = tmp_path / f"compare_{cpus}.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert threading.active_count() == before


def test_more_slices_than_cores_change_no_bit(monkeypatch, thread_starts):
    monkeypatch.setattr(angles, "_cpus", lambda: 16)
    a = 1j * make_rng(16).uniform(-40.0, 40.0, 16 * _SLICE_MIN + 5)
    want = np.exp(a)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _in_slices(np.exp, a.copy()).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert len(thread_starts) == 5 * 15
    assert not any(thread.is_alive() for thread in thread_starts)


def test_split_raises_the_serial_floating_point_error(monkeypatch):
    n = 4 * _SLICE_MIN
    a = np.zeros(n, dtype=complex)
    a[-1] = complex(0.0, np.inf)  # in the last slice; cos(inf) is invalid
    errors = []
    for cpus in (1, 4):
        monkeypatch.setattr(angles, "_cpus", lambda: cpus)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError) as info:
                _in_slices(np.exp, a.copy())
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    # without the errstate the split call gives what the serial call gives
    with np.errstate(invalid="ignore"):
        serial = np.exp(a)
        split = _in_slices(np.exp, a.copy())
    assert serial.tobytes() == split.tobytes()


def test_split_reraises_a_worker_exception_after_joining(monkeypatch):
    monkeypatch.setattr(angles, "_cpus", lambda: 2)
    before = threading.active_count()
    sizes = []

    def failing(part, out):
        sizes.append(part.size)
        if part[-1] != 0:  # the last slice, run by the worker thread
            raise ValueError("slice failed")
        return np.exp(part, out=out)

    a = np.zeros(THRESHOLD, dtype=complex)
    a[-1] = 1.0
    with pytest.raises(ValueError, match="slice failed"):
        _in_slices(failing, a)
    assert sizes == [_SLICE_MIN, _SLICE_MIN]
    assert threading.active_count() == before


def test_a_failed_thread_start_joins_the_started_ones(monkeypatch):
    monkeypatch.setattr(angles, "_cpus", lambda: 3)
    started = []
    start = threading.Thread.start

    def flaky(self):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", flaky)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _in_slices(np.exp, np.zeros(3 * _SLICE_MIN, dtype=complex))
    assert len(started) == 1 and not started[0].is_alive()


def test_import_does_not_import_concurrent_futures():
    src = str(Path(hopfphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, threading, hopfphase; "
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "1"]


def test_small_n_workloads_start_no_thread(tmp_path, thread_starts):
    # the benchmark's small-N shapes: compare at N=8 over 2,000 steps and
    # simulate at N=64 over 1,000 steps
    coeffs = {"a1": [-1.0, 0.3], "a2": [0.2, -0.1], "a6": [0.12, -0.04]}
    for verb, n, t_end in ((["compare"], 8, 200.0),
                           (["simulate", "--model", "full"], 64, 100.0),
                           (["simulate", "--model", "phase"], 64, 100.0)):
        cfg = tmp_path / f"n{n}.json"
        cfg.write_text(json.dumps({
            "lambda": 0.1, "omega": 1.0, "epsilon": 0.05, "n_osc": n,
            "dt": 0.1, "t_end": t_end, "seed": 1, "coefficients": coeffs}))
        assert main([*verb, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
    assert thread_starts == []


def test_no_thread_outlives_a_large_n_call(monkeypatch, thread_starts):
    monkeypatch.setattr(angles, "_cpus", lambda: 2)
    n = 100_000
    coupling = random_coupling(make_rng(7), n, epsilon=0.5)
    phi = make_rng(8).uniform(0.0, 2.0 * np.pi, n)
    before = threading.active_count()
    phase_rhs_fast(phi, coupling)
    assert threading.active_count() == before
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
