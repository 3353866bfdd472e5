"""The companion-matrix oracle for the roots of G(Psi), shared by
tests/test_cluster.py and scripts/root_scan_sweep.py."""
import math

import numpy as np

TAU = 2.0 * math.pi


def companion_psi_roots(row):
    """Roots of G in (0, 2*pi) for the coefficient row (A1, B1, A2, B2) as
    unit-circle roots of a degree-6 polynomial, or None where a root sits
    too close to another (across the ends of the interval too), to the
    circle or to the ends of the interval for the comparison to be well
    posed.

    With w = exp(i Psi/2), w^3 times the bracket A1 cos(Psi/2) + B1 sin(Psi/2)
    + A2 cos(3Psi/2) + B2 sin(3Psi/2) is a polynomial in w; since sin(Psi/2)
    > 0 inside the interval, G vanishes exactly where it has a root with
    |w| = 1 and arg(w) in (0, pi) (Boyd's companion-matrix approach).
    Roots within 2e-8 of Psi = 0 or 2*pi are left out: the scan drops roots
    within 1e-8 of the ends.
    """
    a1, b1, a2, b2 = row
    w = np.roots([(a2 - 1j * b2) / 2, 0.0, (a1 - 1j * b1) / 2, 0.0,
                  (a1 + 1j * b1) / 2, 0.0, (a2 + 1j * b2) / 2])
    off = np.abs(np.abs(w) - 1.0)
    # a near-double root leaves the circle as a close pair, or grazes it
    if np.any((off >= 1e-9) & (off < 1e-3)):
        return None
    # unit-circle roots as Psi in (-2*pi, 2*pi]; a close pair, also one
    # straddling Psi = 0 or 2*pi, is a near-double root
    circle = np.sort(2.0 * np.angle(w[off < 1e-9]))
    if np.any(np.diff(np.append(circle, circle[:1] + 2.0 * TAU)) < 0.05):
        return None
    psi = circle[circle > 0.0]
    if np.any(np.minimum(psi, TAU - psi) < 2e-8):
        return None
    return psi
