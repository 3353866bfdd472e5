"""Synchrony and two-cluster analysis of the reduced phase model.

A two-cluster state has fraction q of the oscillators at phase phi1 and
fraction p = 1 - q at phi2. Restricting the phase model to that subspace
gives per-cluster drift functions H1, H2; the separation Psi = phi1 - phi2
evolves by epsilon * G(Psi) with G = H1 - H2. G factors through half-angle
identities as

    G(Psi) = 2 sin(Psi/2) [A1 cos(Psi/2) + B1 sin(Psi/2)
                           + A2 cos(3 Psi/2) + B2 sin(3 Psi/2)]

with coefficients polynomial in the cluster imbalance alpha = q - p. The
module evaluates H1/H2 and G directly, assembles the A/B coefficients,
finds roots of G in Psi and of the bracket in alpha, and reports synchrony
stability sign(A1 + A2) and the synchronized frequency.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .normal_form import NormalFormCoefficients
from .reduction import PhaseCouplingSet

_IDENTICALLY_ZERO_TOL = 1e-15
_TANGENT_TOL = 1e-8
_PSI_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster fractions q (first cluster) and p (second), alpha = q - p."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not (-1.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (-1, 1), got {self.alpha}")
        if not (0.0 < self.p < 1.0 and 0.0 < self.q < 1.0):
            raise ValueError("cluster fractions must lie in (0, 1)")
        if abs(self.p + self.q - 1.0) > 1e-12:
            raise ValueError("cluster fractions must sum to 1")
        if abs(self.q - self.p - self.alpha) > 1e-12:
            raise ValueError("alpha must equal q - p")

    @classmethod
    def from_alpha(cls, alpha: float) -> "ClusterConfig":
        return cls(alpha=float(alpha), p=(1.0 - alpha) / 2.0, q=(1.0 + alpha) / 2.0)

    @classmethod
    def from_sizes(cls, q_size: int, p_size: int) -> "ClusterConfig":
        """Integer cluster sizes; q_size oscillators share the first phase."""
        if q_size < 1 or p_size < 1:
            raise ValueError("cluster sizes must be positive")
        n = q_size + p_size
        return cls(alpha=(q_size - p_size) / n, p=p_size / n, q=q_size / n)


@dataclass(frozen=True)
class ClusterCoefficients:
    """A1, B1, A2, B2 of the factored two-cluster difference function."""

    a1_coef: float
    b1_coef: float
    a2_coef: float
    b2_coef: float


@dataclass(frozen=True)
class PsiRoot:
    psi: float
    tangential: bool = False


@dataclass(frozen=True)
class RootScanResult:
    """Roots of G on (0, 2*pi); identically_zero marks a degenerate G."""

    roots: tuple
    identically_zero: bool = False


@dataclass(frozen=True)
class AlphaRootResult:
    """Roots in alpha of the factored bracket at fixed Psi."""

    roots: tuple
    identically_zero: bool = False


def _h_one(phi_own: float, phi_other: float, q: float, p: float,
           coupling: PhaseCouplingSet) -> float:
    """Drift of an oscillator in the cluster at phi_own (frequency offset
    removed, coupling strength divided out): the literal restriction of every
    coupling group to the two-cluster subspace, own-cluster weight q."""
    b, g = coupling.beta, coupling.gamma
    r2 = coupling.r_star_sq
    dc, dth = coupling.delta_corr, coupling.delta_phase
    d = phi_own - phi_other
    cos = math.cos

    val = b[-1] * (q * cos(g[-1]) + p * cos(g[-1] - d))
    val -= dc * (q * cos(dth) + p * cos(dth - d))
    val += r2 * (
        b[2] * (q * cos(g[2]) + p * cos(g[2] + d))
        + b[3] * (q * cos(g[3]) + p * cos(g[3] - d))
        + b[4] * cos(g[4])
        + b[5] * ((q * q + p * p) * cos(g[5])
                  + q * p * (cos(g[5] + d) + cos(g[5] - d)))
        + b[6] * (q * cos(g[6]) + p * cos(g[6] - 2.0 * d))
        + b[7] * (q * q * cos(g[7]) + 2.0 * q * p * cos(g[7] - d)
                  + p * p * cos(g[7] - 2.0 * d))
        + b[8] * (q * cos(g[8]) + p * cos(g[8] - d))
        + b[9] * (q * q * cos(g[9]) + q * p * cos(g[9] + d)
                  + q * p * cos(g[9] - 2.0 * d) + p * p * cos(g[9] - d))
        + b[10] * (q * cos(g[10]) + p * cos(g[10] - d))
        + b[11] * ((q ** 3 + 2.0 * p * p * q) * cos(g[11])
                   + q * q * p * cos(g[11] + d)
                   + (2.0 * p * q * q + p ** 3) * cos(g[11] - d)
                   + p * p * q * cos(g[11] - 2.0 * d))
    )
    return val


def two_cluster_H(phi1: float, phi2: float, cfg: ClusterConfig,
                  coupling: PhaseCouplingSet):
    """Per-cluster drift functions (H1, H2) on the two-cluster subspace.

    H1 drives the cluster of fraction q at phi1; H2 follows by the swap rule
    H2(phi1, phi2, q, p) = H1(phi2, phi1, p, q). Multiplying by epsilon and
    adding the base frequency reproduces the phase-model components.
    """
    h1 = _h_one(phi1, phi2, cfg.q, cfg.p, coupling)
    h2 = _h_one(phi2, phi1, cfg.p, cfg.q, coupling)
    return h1, h2


def g_raw(psi: float, cfg: ClusterConfig, coupling: PhaseCouplingSet) -> float:
    """Cluster difference function G(Psi) = H1 - H2, written out group by group.

    Independent of two_cluster_H: each coupling group's swap difference is
    collected explicitly. The constant and mean-field frequency groups
    cancel in the difference and are omitted.
    """
    b, g = coupling.beta, coupling.gamma
    r2 = coupling.r_star_sq
    p, q = cfg.p, cfg.q
    pq = p * q
    cos = math.cos

    def swap_diff(amp, ph):
        # order-1 group with standard argument cos(ph + (phi_k - phi_j))
        return amp * ((q - p) * cos(ph) + p * cos(ph - psi) - q * cos(ph + psi))

    val = swap_diff(b[-1], g[-1])
    val -= swap_diff(coupling.delta_corr, coupling.delta_phase)
    val += r2 * (swap_diff(b[3], g[3]) + swap_diff(b[8], g[8])
                 + swap_diff(b[10], g[10]))
    val += r2 * b[2] * ((q - p) * cos(g[2]) + p * cos(g[2] + psi)
                        - q * cos(g[2] - psi))
    val += r2 * b[6] * ((q - p) * cos(g[6]) + p * cos(g[6] - 2.0 * psi)
                        - q * cos(g[6] + 2.0 * psi))
    val += r2 * b[7] * ((q * q - p * p) * cos(g[7])
                        + 2.0 * pq * (cos(g[7] - psi) - cos(g[7] + psi))
                        + p * p * cos(g[7] - 2.0 * psi)
                        - q * q * cos(g[7] + 2.0 * psi))
    val += r2 * b[9] * ((q * q - p * p) * cos(g[9])
                        + (pq - q * q) * cos(g[9] + psi)
                        + (p * p - pq) * cos(g[9] - psi)
                        + pq * cos(g[9] - 2.0 * psi)
                        - pq * cos(g[9] + 2.0 * psi))
    val += r2 * b[11] * ((q ** 3 + 2.0 * p * p * q - 2.0 * p * q * q - p ** 3)
                         * cos(g[11])
                         + (q * q * p - q ** 3 - 2.0 * p * p * q) * cos(g[11] + psi)
                         + (2.0 * p * q * q + p ** 3 - p * p * q) * cos(g[11] - psi)
                         + p * p * q * cos(g[11] - 2.0 * psi)
                         - q * q * p * cos(g[11] + 2.0 * psi))
    return val


def ab_coefficients(cfg: ClusterConfig, coupling: PhaseCouplingSet) -> ClusterCoefficients:
    """Coefficients A1, B1, A2, B2 of the factored form of G.

    Computed from the cluster fractions p and q; alpha_polynomials gives the
    same coefficients as polynomials in the imbalance alpha.
    """
    b, g = coupling.beta, coupling.gamma
    r2 = coupling.r_star_sq
    p, q = cfg.p, cfg.q
    pq = p * q
    s = {k: b[k] * math.sin(g[k]) for k in b}
    c = {k: b[k] * math.cos(g[k]) for k in b}
    sd = coupling.delta_corr * math.sin(coupling.delta_phase)
    cd = coupling.delta_corr * math.cos(coupling.delta_phase)

    a1 = (s[-1] - sd
          + r2 * (-s[2] + s[3] + s[6] + s[8] + s[10]
                  + (p * p + q * q) * s[9]
                  + (p * p + 4.0 * pq + q * q) * s[7]
                  + (1.0 - pq) * s[11]))
    b1 = (q - p) * (c[-1] - cd
                    + r2 * (c[2] + c[3] + c[6] + c[7] + c[8] + c[9] + c[10]
                            + (1.0 - 3.0 * pq) * c[11]))
    a2 = r2 * (s[6] + (p * p + q * q) * s[7] + 2.0 * pq * s[9] + pq * s[11])
    b2 = (q - p) * r2 * (c[6] + c[7] + pq * c[11])

    return ClusterCoefficients(a1, b1, a2, b2)


def g_factored(psi, cc: ClusterCoefficients):
    """Half-angle factored form of G; scalar or array in psi."""
    psi = np.asarray(psi, dtype=float)
    half = 0.5 * psi
    val = 2.0 * np.sin(half) * (cc.a1_coef * np.cos(half)
                                + cc.b1_coef * np.sin(half)
                                + cc.a2_coef * np.cos(3.0 * half)
                                + cc.b2_coef * np.sin(3.0 * half))
    if psi.ndim == 0:
        return float(val)
    return val


def sync_stability(cc: ClusterCoefficients) -> str:
    """'stable' / 'unstable' / 'degenerate' by the sign of A1 + A2."""
    s = cc.a1_coef + cc.a2_coef
    if abs(s) < 1e-12:
        return "degenerate"
    return "stable" if s < 0 else "unstable"


def sync_frequency(coupling: PhaseCouplingSet, coeffs: NormalFormCoefficients,
                   delta: float, lam: float) -> float:
    """Common frequency of the fully synchronized state.

    Base frequency plus every coupling harmonic evaluated at zero separation,
    minus the fifth-order pairwise correction.
    """
    b, g = coupling.beta, coupling.gamma
    eps, r2 = coupling.epsilon, coupling.r_star_sq
    omega = coupling.omega_tilde_const - eps * r2 * b[4] * math.cos(g[4])
    total = omega + eps * b[-1] * math.cos(g[-1])
    total += eps * r2 * sum(b[k] * math.cos(g[k]) for k in range(2, 12))
    am1 = coeffs.a_minus1
    theta = cmath.phase(am1) if am1 != 0 else 0.0
    total -= eps * lam * delta * abs(am1) * math.cos(theta)
    return total


# ---------------------------------------------------------------------------
# root finding


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) != (f_mid < 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _ternary_min_abs(f, lo: float, hi: float, iters: int = 200):
    """Locate the minimum of |f| on [lo, hi] assuming a single dip."""
    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if abs(f(m1)) <= abs(f(m2)):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-13:
            break
    mid = 0.5 * (lo + hi)
    return mid, abs(f(mid))


def find_roots(cfg: ClusterConfig, coupling: PhaseCouplingSet,
               grid_size: int = 720) -> RootScanResult:
    """All roots of G(Psi) in the open interval (0, 2*pi).

    Sign changes on a uniform grid are refined by bisection to 1e-10 in Psi.
    Grazing (non-sign-changing) roots are sought at local minima of |G| and
    accepted when the refined minimum lies below 1e-8; they are flagged
    tangential. A G that vanishes for every Psi is reported through the
    identically_zero flag instead of a root list.
    """
    return find_roots_from_coefficients(ab_coefficients(cfg, coupling), grid_size)


def find_roots_from_coefficients(cc: ClusterCoefficients,
                                 grid_size: int = 720) -> RootScanResult:
    """find_roots on explicitly given factored-form coefficients."""
    if grid_size < 360:
        raise ValueError(f"grid_size must be at least 360, got {grid_size}")
    amax = max(abs(cc.a1_coef), abs(cc.b1_coef), abs(cc.a2_coef), abs(cc.b2_coef))
    if amax < _IDENTICALLY_ZERO_TOL:
        return RootScanResult(roots=(), identically_zero=True)

    def f(x):
        return g_factored(x, cc)

    psis = np.linspace(0.0, 2.0 * np.pi, grid_size + 1)
    vals = g_factored(psis, cc)
    edge = 1e-8

    roots = []
    for i in range(grid_size):
        a, b_ = psis[i], psis[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            if edge < a < 2.0 * np.pi - edge:
                roots.append(PsiRoot(float(a), False))
            continue
        if fb == 0.0:
            continue  # handled as the left endpoint of the next interval
        if (fa < 0) != (fb < 0):
            r = _bisect(f, a, b_, fa, _PSI_ROOT_TOL)
            if edge < r < 2.0 * np.pi - edge:
                roots.append(PsiRoot(float(r), False))

    # grazing roots: local minima of |G| without a sign change
    absvals = np.abs(vals)
    for i in range(1, grid_size):
        if not (absvals[i] <= absvals[i - 1] and absvals[i] <= absvals[i + 1]):
            continue
        if (vals[i - 1] < 0) != (vals[i + 1] < 0):
            continue  # a sign change; bisection already found it
        x, fmin = _ternary_min_abs(f, psis[i - 1], psis[i + 1])
        if fmin < _TANGENT_TOL and edge < x < 2.0 * np.pi - edge:
            roots.append(PsiRoot(float(x), True))

    roots.sort(key=lambda r: r.psi)
    deduped = []
    for r in roots:
        if deduped and abs(r.psi - deduped[-1].psi) < 1e-7:
            if deduped[-1].tangential and not r.tangential:
                deduped[-1] = r
            continue
        deduped.append(r)
    return RootScanResult(roots=tuple(deduped), identically_zero=False)


# ---------------------------------------------------------------------------
# alpha-dependence at fixed Psi


def alpha_polynomials(coupling: PhaseCouplingSet):
    """Ascending alpha-polynomial coefficients of (A1, B1, A2, B2).

    A1 and A2 are even (degree 2), B1 and B2 odd (degree 3); each returned
    tuple has length 4 with the structural zeros in place.
    """
    b, g = coupling.beta, coupling.gamma
    r2 = coupling.r_star_sq
    s = {k: b[k] * math.sin(g[k]) for k in b}
    c = {k: b[k] * math.cos(g[k]) for k in b}
    sd = coupling.delta_corr * math.sin(coupling.delta_phase)
    cd = coupling.delta_corr * math.cos(coupling.delta_phase)

    a1_0 = (s[-1] - sd + r2 * (-s[2] + s[3] + s[6] + s[8] + s[10]
                               + 0.5 * s[9] + 1.5 * s[7] + 0.75 * s[11]))
    a1_2 = r2 * (0.5 * s[9] - 0.5 * s[7] + 0.25 * s[11])
    b1_1 = (c[-1] - cd + r2 * (c[2] + c[3] + c[6] + c[7] + c[8] + c[9] + c[10]
                               + 0.25 * c[11]))
    b1_3 = 0.75 * r2 * c[11]
    a2_0 = r2 * (s[6] + 0.5 * s[7] + 0.5 * s[9] + 0.25 * s[11])
    a2_2 = r2 * (0.5 * s[7] - 0.5 * s[9] - 0.25 * s[11])
    b2_1 = r2 * (c[6] + c[7] + 0.25 * c[11])
    b2_3 = -0.25 * r2 * c[11]
    return ((a1_0, 0.0, a1_2, 0.0), (0.0, b1_1, 0.0, b1_3),
            (a2_0, 0.0, a2_2, 0.0), (0.0, b2_1, 0.0, b2_3))


def polynomial_alpha_roots(psi0: float, a1_poly, b1_poly, a2_poly,
                           b2_poly) -> AlphaRootResult:
    """Roots in alpha of A1(a)cos(Psi/2) + B1(a)sin(Psi/2) + A2(a)cos(3Psi/2)
    + B2(a)sin(3Psi/2) inside (-1, 1).

    The four inputs are ascending alpha-polynomial coefficient sequences
    (length up to 4). Roots are isolated on monotone pieces between the
    closed-form critical points of the cubic and refined by bisection, so no
    companion-matrix eigenvalue solve is involved.
    """
    if not (0.0 < psi0 < 2.0 * np.pi):
        raise ValueError(f"psi0 must lie in (0, 2*pi), got {psi0}")
    half = 0.5 * psi0
    c1, s1 = math.cos(half), math.sin(half)
    c3, s3 = math.cos(3.0 * half), math.sin(3.0 * half)

    def pad(poly):
        seq = list(poly) + [0.0] * (4 - len(poly))
        if len(seq) > 4:
            raise ValueError("alpha polynomials have degree at most 3")
        return seq

    a1p, b1p, a2p, b2p = pad(a1_poly), pad(b1_poly), pad(a2_poly), pad(b2_poly)
    coeffs = [a1p[i] * c1 + b1p[i] * s1 + a2p[i] * c3 + b2p[i] * s3
              for i in range(4)]

    in_scale = max([1e-300] + [abs(x) for seq in (a1p, b1p, a2p, b2p) for x in seq])
    scale = max(abs(x) for x in coeffs)
    if scale <= 1e-14 * in_scale:
        return AlphaRootResult(roots=(), identically_zero=True)

    # trim numerically-absent leading coefficients
    degree = 3
    while degree > 0 and abs(coeffs[degree]) <= 1e-14 * scale:
        degree -= 1
    p = coeffs[:degree + 1]

    def val(x):
        acc = 0.0
        for coef in reversed(p):
            acc = acc * x + coef
        return acc

    lo_end, hi_end = -1.0, 1.0
    if degree == 0:
        return AlphaRootResult(roots=(), identically_zero=False)
    if degree == 1:
        r = -p[0] / p[1]
        roots = [r] if lo_end < r < hi_end else []
        return AlphaRootResult(roots=tuple(roots), identically_zero=False)

    # breakpoints: real critical points of the polynomial inside (-1, 1)
    crits = []
    if degree == 2:
        crits = [-p[1] / (2.0 * p[2])]
    else:
        qa, qb, qc = 3.0 * p[3], 2.0 * p[2], p[1]
        disc = qb * qb - 4.0 * qa * qc
        if disc > 0:
            sq = math.sqrt(disc)
            crits = [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
        elif disc == 0:
            crits = [-qb / (2.0 * qa)]
    points = sorted([lo_end] + [x for x in crits if lo_end < x < hi_end] + [hi_end])

    roots = []
    for a, b_ in zip(points[:-1], points[1:]):
        fa, fb = val(a), val(b_)
        if fa == 0.0:
            if a > lo_end:
                roots.append(a)
            continue
        if (fa < 0) != (fb < 0):
            roots.append(_bisect(val, a, b_, fa, 1e-12))
    # double roots sit at critical points where the value itself vanishes
    for x in crits:
        if lo_end < x < hi_end and abs(val(x)) <= 1e-12 * scale:
            roots.append(x)
    if abs(val(hi_end)) == 0.0:
        pass  # endpoint roots are outside the open interval

    roots = sorted(set(round(r, 14) for r in roots))
    deduped = []
    for r in roots:
        if deduped and abs(r - deduped[-1]) < 1e-9:
            continue
        deduped.append(float(r))
    deduped = [r for r in deduped if lo_end + 1e-12 < r < hi_end - 1e-12]
    return AlphaRootResult(roots=tuple(deduped), identically_zero=False)


def alpha_roots_for_psi(psi0: float, coupling: PhaseCouplingSet) -> AlphaRootResult:
    """Cluster imbalances alpha in (-1, 1) for which Psi = psi0 solves G = 0.

    Builds the exact alpha polynomial of the factored bracket (degree at
    most 3; at most 1 when the three- and four-phase couplings vanish) and
    returns its real roots in the open interval.
    """
    a1p, b1p, a2p, b2p = alpha_polynomials(coupling)
    return polynomial_alpha_roots(psi0, a1p, b1p, a2p, b2p)
