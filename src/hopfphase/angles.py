"""Angle normalization shared across the package.

Reported phases (coupling phases, canonical offsets) live in (-pi, pi].
wrap_angle accepts scalars or numpy arrays.
"""
from __future__ import annotations

import numpy as np

TAU = 2.0 * np.pi


def wrap_angle(x):
    """Reduce an angle to (-pi, pi]; ties at -pi map to +pi."""
    y = np.mod(np.asarray(x, dtype=float) + np.pi, TAU) - np.pi
    y = np.where(y == -np.pi, np.pi, y)
    if np.ndim(x) == 0:
        return float(y)
    return y
