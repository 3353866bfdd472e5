"""Angle helpers shared across the package.

Reported phases (coupling phases, canonical offsets) live in (-pi, pi].
wrap_angle accepts scalars or numpy arrays. _in_slices runs the N-sized
e^{i phi} passes of both models and of compare on every CPU at once.
"""
from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

TAU = 2.0 * np.pi

# _in_slices splits an array into slices of at least this many elements, so
# it splits from 2**14 elements up: starting and joining a thread costs about
# 90 us, complex exp about 40 ns an element (2 vCPU Xeon, numpy 2.4)
_SLICE_MIN = 2 ** 13


def wrap_angle(x):
    """Reduce an angle to (-pi, pi]; ties at -pi map to +pi."""
    y = np.mod(np.asarray(x, dtype=float) + np.pi, TAU) - np.pi
    y = np.where(y == -np.pi, np.pi, y)
    if np.ndim(x) == 0:
        return float(y)
    return y


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _in_slices(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc(a, out=a) for a C-contiguous array a, returned.

    From 2 * _SLICE_MIN elements up, a is cut into one contiguous slice per
    CPU, each at least _SLICE_MIN elements; the first runs in the calling
    thread and the others each in a thread started here and joined before
    the return. numpy releases the GIL in these loops, and an element's
    result does not depend on its slice, so every bit is as in one call.
    Each thread runs in a copy of the caller's context, so np.errstate
    governs every slice, and the first failing slice's exception is raised
    here once all threads are joined.
    """
    if a.size < 2 * _SLICE_MIN:
        return ufunc(a, out=a)
    parts = min(_cpus(), a.size // _SLICE_MIN)
    flat = a.reshape(-1)
    edges = [flat.size * k // parts for k in range(parts + 1)]
    errors = [None] * parts

    def run(k):
        part = flat[edges[k]:edges[k + 1]]
        try:
            ufunc(part, out=part)
        except BaseException as exc:  # re-raised in the calling thread
            errors[k] = exc

    threads = []
    try:
        for k in range(1, parts):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run, k))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:  # those started, if a start failed
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return a
