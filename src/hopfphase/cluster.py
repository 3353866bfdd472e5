"""Synchrony and two-cluster analysis of the reduced phase model.

A two-cluster state has fraction q of the oscillators at phase phi1 and
fraction p = 1 - q at phi2. Restricting the phase model to that subspace
gives per-cluster drift functions H1, H2; the separation Psi = phi1 - phi2
evolves by epsilon * G(Psi) with G = H1 - H2. G factors through half-angle
identities as

    G(Psi) = 2 sin(Psi/2) [A1 cos(Psi/2) + B1 sin(Psi/2)
                           + A2 cos(3 Psi/2) + B2 sin(3 Psi/2)]

with coefficients polynomial in the cluster imbalance alpha = q - p. The
subspace is a weighted copy of the phase model, so H1/H2 are its prefactor
kernel at the weights (q, p). With the clusters at +-Psi/2,
Z1 = cos(Psi/2) + i alpha sin(Psi/2), Z2 = cos Psi + i alpha sin Psi and
G = 2 sin(Psi/2) [Im c1 + 2 cos(Psi/2) Im c2], so A/B are linear in the five
coupling phasors; g_raw writes G out from beta/gamma as an independent
oracle. The module finds roots of G in Psi and of the bracket in alpha (each
scan batched over many alphas or separations), and reports synchrony
stability sign(A1 + A2) and the synchronized frequency.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .reduction import PhaseCouplingSet

_IDENTICALLY_ZERO_TOL = 1e-15
_TANGENT_TOL = 1e-8
_PSI_ROOT_TOL = 1e-10
_PSI_GRID = 720  # intervals of the root scan over [0, 2*pi]
# coefficient sets whose Psi grid is held in memory at once
_SCAN_BLOCK = 16


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


class ClusterCoefficients(NamedTuple):
    """A1, B1, A2, B2 of the factored two-cluster difference function: a
    coefficient row, so np.array of n of them is the (n, 4) array of rows."""

    a1_coef: float
    b1_coef: float
    a2_coef: float
    b2_coef: float


class PsiRoot(NamedTuple):
    psi: float
    tangential: bool = False


class RootScanResult(NamedTuple):
    """Roots of one scan: of G in Psi on (0, 2*pi), or of the factored
    bracket in alpha on (-1, 1) at fixed Psi. identically_zero marks a
    function that vanishes everywhere."""

    roots: tuple
    identically_zero: bool = False


def two_cluster_H(phi1: float, phi2: float, cfg: ClusterConfig,
                  coupling: PhaseCouplingSet):
    """Per-cluster drift functions (H1, H2) on the two-cluster subspace: H1
    drives the cluster of fraction q at phi1, H2 the cluster of fraction p at
    phi2. They are the prefactors at the cluster moments
    Z1 = q e^{i phi1} + p e^{i phi2}, Z2 = q e^{2i phi1} + p e^{2i phi2},
    plus the index-4 and mean-field frequency shifts without epsilon, so
    multiplying by epsilon and adding the bare frequency reproduces the
    phase-model components."""
    e1, e2 = cmath.exp(1j * phi1), cmath.exp(1j * phi2)
    z1 = cfg.q * e1 + cfg.p * e2
    _, c1, c2 = coupling.prefactors(z1, cfg.q * e1 * e1 + cfg.p * e2 * e2)
    b, g = coupling.beta, coupling.gamma
    shift = coupling.r_star_sq * (b[4] * math.cos(g[4])
                                  + b[5] * math.cos(g[5]) * abs(z1) ** 2)
    return tuple(shift + (c1 * e.conjugate() + c2 * e.conjugate() ** 2).real
                 for e in (e1, e2))


def g_raw(psi: float, cfg: ClusterConfig, coupling: PhaseCouplingSet) -> float:
    """Cluster difference function G(Psi) = H1 - H2, written out group by
    group independently of two_cluster_H: each coupling group's swap
    difference is collected explicitly. The constant and mean-field
    frequency groups cancel in the difference and are omitted."""
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
    """Coefficients A1, B1, A2, B2 of the factored form of G: the
    alpha_polynomials evaluated (Horner) at the imbalance cfg.alpha."""
    polys = alpha_polynomials(coupling)
    return ClusterCoefficients(*_coefficients_at([cfg.alpha], polys)[0].tolist())


def _coefficients_at(alphas, polys):
    """(A1, B1, A2, B2) rows at each imbalance in alphas (see ab_coefficients)."""
    return _poly_rows(np.asarray(alphas, dtype=float)[:, None],
                      np.asarray(polys, dtype=float))


def g_factored(psi, cc):
    """Half-angle factored form of G; scalar or array in psi. cc is one
    coefficient set, or (A1, B1, A2, B2) rows that broadcast against psi."""
    val = _combine(_harmonics(np.asarray(psi, dtype=float)),
                   np.asarray(cc, dtype=float))
    return float(val) if np.ndim(val) == 0 else val


def sync_stability(cc: ClusterCoefficients) -> str:
    """'stable' / 'unstable' / 'degenerate' by the sign of A1 + A2."""
    return str(_sync_labels(cc.a1_coef + cc.a2_coef))


def _sync_labels(s):
    """sync_stability's label for every sum s = A1 + A2 of an array."""
    return np.where(np.abs(s) < 1e-12, "degenerate",
                    np.where(s < 0, "stable", "unstable"))


def sync_frequency(coupling: PhaseCouplingSet) -> float:
    """Common frequency of the fully synchronized state: the prefactor kernel
    at Z1 = Z2 = 1 and phi = 0, so every coupling harmonic, the fifth-order
    correction folded into g2 included, enters as it does in phase_rhs_fast."""
    base, c1, c2 = coupling.prefactors(1 + 0j, 1 + 0j)
    return base + coupling.epsilon * (c1.real + c2.real)


# ---------------------------------------------------------------------------
# root finding
#
# Each scan collects the brackets of all its rows and refines them together.
# f(x, coef) evaluates the function of row coef[i] at x[i]; the refiners
# repeat the scalar iteration per element, so a bracket gets the same
# midpoints, exits and stopping tests whatever else is refined with it.


def _bisect(f, coef, lo, hi, f_lo, tol):
    """Bisect every sign-changing bracket [lo[i], hi[i]] to width tol; an
    element whose midpoint evaluates to exactly zero stops there."""
    root = 0.5 * (lo + hi)
    live = np.flatnonzero(hi - lo > tol)
    lo, hi, f_lo, coef = lo[live], hi[live], f_lo[live], coef[live]
    while live.size:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid, coef)
        # an exact zero collapses the bracket onto mid, which ends it
        zero = f_mid == 0.0
        flip = (f_lo < 0) != (f_mid < 0)
        hi = np.where(flip | zero, mid, hi)
        lo = np.where(flip & ~zero, lo, mid)
        f_lo = np.where(flip, f_lo, f_mid)
        wide = hi - lo > tol
        if not wide.all():
            root[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            live, lo, hi, f_lo, coef = (x[wide] for x in (live, lo, hi, f_lo, coef))
    return root


def _ternary_min_abs(f, coef, lo, hi, iters: int = 200):
    """Locate the minimum of |f| on every [lo[i], hi[i]], assuming a single dip."""
    out_lo, out_hi = lo.copy(), hi.copy()
    live, c = np.arange(lo.size), coef
    for _ in range(iters):
        if not live.size:
            break
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        left = np.abs(f(m1, c)) <= np.abs(f(m2, c))
        hi, lo = np.where(left, m2, hi), np.where(left, lo, m1)
        wide = ~(hi - lo < 1e-13)
        if not wide.all():
            out_lo[live], out_hi[live] = lo, hi
            live, lo, hi, c = (x[wide] for x in (live, lo, hi, c))
    out_lo[live], out_hi[live] = lo, hi
    mid = 0.5 * (out_lo + out_hi)
    return mid, np.abs(f(mid, coef))


def _harmonics(psis):
    """The factors of G that depend on Psi alone: 2 sin(Psi/2), and cos and
    sin of Psi/2 and of 3Psi/2."""
    half = 0.5 * psis
    sin = np.sin(half)
    return 2.0 * sin, np.cos(half), sin, np.cos(3.0 * half), np.sin(3.0 * half)


def _combine(h, coef):
    """G from the harmonics h and the (..., 4) coefficient rows coef, which
    broadcast against them: ((A1 c1 + B1 s1) + A2 c3) + B2 s3, times
    2 sin(Psi/2). Every G of the module is formed here, so a grid value and
    a refinement step at the same Psi agree to the bit."""
    val = coef[..., 0] * h[1]
    for k in (1, 2, 3):
        val += coef[..., k] * h[k + 1]
    val *= h[0]
    return val


def _grid_brackets(harmonics, coef):
    """Scan G of the coefficient rows coef on the grid of harmonics: (row,
    grid index, G there) of every grid zero and sign change, the index naming
    the left end of its interval, and (row, grid index) of every local
    minimum of |G| without a sign change. Each harmonic is one grid row, or
    a stack of the grid row, one per coefficient row."""
    width = harmonics[0].shape[-1]
    vals = _combine(harmonics, coef[:, None]).reshape(-1)
    neg = vals < 0
    absvals = np.abs(vals)
    # neighbours across a row end are compared too, and dropped
    dip = 1 + np.flatnonzero((absvals[1:-1] <= absvals[:-2])
                             & (absvals[1:-1] <= absvals[2:]) & (neg[:-2] == neg[2:]))
    dip = dip[(dip + 1) % width > 1]
    # G(0) is exactly 0, but G(Psi) ~ Psi (A1 + A2) just right of it: the
    # first interval starts from that sign, so a root inside it is bracketed
    # (A1 + A2 = 0 leaves the grid root at 0, which the scan drops)
    vals[::width] = coef[:, 0] + coef[:, 2]
    neg[::width] = vals[::width] < 0
    zero = vals == 0.0
    # an exact grid zero is a root; the interval ending in it is skipped
    k = np.flatnonzero(zero[:-1] | (~zero[1:] & (neg[:-1] != neg[1:])))
    k = k[(k + 1) % width > 0]
    return (*np.divmod(k, width), vals[k]), np.divmod(dip, width)


def find_roots_batch(ccs) -> list:
    """All roots in (0, 2*pi) of G(Psi) for every coefficient set in ccs,
    (A1, B1, A2, B2) rows such as ClusterCoefficients or an (n, 4) array.

    Sign changes on a uniform grid of _PSI_GRID cells are refined by bisection
    to 1e-10 in Psi; the first cell starts from the sign of A1 + A2, since
    G(0) is an exact zero. Roots within 1e-8 of either end are dropped.
    Grazing (non-sign-changing) roots are sought at local minima of |G| and
    accepted when the refined minimum lies below 1e-8; they are flagged
    tangential. A G that vanishes for every Psi is reported through the
    identically_zero flag instead of a root list. The grid harmonics are
    evaluated once and stacked _SCAN_BLOCK high (0.46 MB), G on them
    _SCAN_BLOCK rows at a time, and all brackets are refined together: row i
    of the result equals a scan of ccs[i] alone.
    """
    coef = np.array(ccs, dtype=float).reshape(-1, 4)
    degenerate = np.max(np.abs(coef), axis=1) < _IDENTICALLY_ZERO_TOL
    psis = np.linspace(0.0, 2.0 * np.pi, _PSI_GRID + 1)

    empty = np.empty(0, dtype=np.intp)
    crossings, dips = [(empty, empty, np.empty(0))], [(empty, empty)]
    scanned = np.flatnonzero(~degenerate)
    # a row of harmonics per coefficient row: numpy forms the products of a
    # block faster than when it broadcasts one grid row against them
    stacked = [np.tile(h, (min(_SCAN_BLOCK, scanned.size), 1))
               for h in _harmonics(psis)]
    for start in range(0, scanned.size, _SCAN_BLOCK):
        rows = scanned[start:start + _SCAN_BLOCK]
        (r, i, f_lo), (dr, di) = _grid_brackets([h[:rows.size] for h in stacked],
                                                coef[rows])
        crossings.append((rows[r], i, f_lo))
        dips.append((rows[dr], di))

    c_rows, c_i, c_lo = map(np.concatenate, zip(*crossings))
    d_rows, d_i = map(np.concatenate, zip(*dips))
    c_psi = np.where(c_lo == 0.0, psis[c_i],
                     _bisect(g_factored, coef[c_rows], psis[c_i], psis[c_i + 1],
                             c_lo, _PSI_ROOT_TOL))
    d_psi, d_min = _ternary_min_abs(g_factored, coef[d_rows], psis[d_i - 1],
                                    psis[d_i + 1])
    grazing = d_min < _TANGENT_TOL

    # candidates inside the interval by row and Psi, a tie keeping grid
    # roots and crossings ahead of grazing roots
    rows = np.concatenate([c_rows, d_rows[grazing]])
    psi = np.concatenate([c_psi, d_psi[grazing]])
    tangential = np.arange(rows.size) >= c_rows.size
    inside = np.flatnonzero((1e-8 < psi) & (psi < 2.0 * np.pi - 1e-8))
    order = inside[np.lexsort((psi[inside], rows[inside]))]
    found = [[] for _ in range(coef.shape[0])]
    for r, x, flag in zip(rows[order].tolist(), psi[order].tolist(),
                          tangential[order].tolist()):
        roots = found[r]
        if roots and abs(x - roots[-1].psi) < 1e-7:
            if roots[-1].tangential and not flag:
                roots[-1] = PsiRoot(x, False)
            continue
        roots.append(PsiRoot(x, flag))
    return [RootScanResult((), identically_zero=True) if flat
            else RootScanResult(tuple(roots)) for flat, roots in
            zip(degenerate.tolist(), found)]


# ---------------------------------------------------------------------------
# alpha-dependence at fixed Psi


def alpha_polynomials(coupling: PhaseCouplingSet):
    """Ascending alpha-polynomial coefficients of (A1, B1, A2, B2): A1 and A2
    are even (degree 2), B1 and B2 odd (degree 3); each returned tuple has
    length 4 with the structural zeros in place. They are a fixed linear map
    of the five coupling phasors, by the prefactor identity for G above."""
    g21, g22, g3, g4, g5 = coupling._harmonic_phasors
    return ((g21.imag + g22.imag + 1.5 * g3.imag + 0.5 * g4.imag + 0.75 * g5.imag,
             0.0, 0.5 * g4.imag - 0.5 * g3.imag + 0.25 * g5.imag, 0.0),
            (0.0, g21.real + g22.real + g3.real + g4.real + 0.25 * g5.real,
             0.0, 0.75 * g5.real),
            (g22.imag + 0.5 * g3.imag + 0.5 * g4.imag + 0.25 * g5.imag,
             0.0, 0.5 * g3.imag - 0.5 * g4.imag - 0.25 * g5.imag, 0.0),
            (0.0, g22.real + g3.real + 0.25 * g5.real, 0.0, -0.25 * g5.real))


def _poly_rows(x, coef):
    """Horner evaluation of ascending coefficient rows coef[..., :] at x."""
    acc = 0.0
    for k in range(coef.shape[-1] - 1, -1, -1):
        acc = acc * x + coef[..., k]
    return acc


def polynomial_alpha_roots_batch(psis, a1_poly, b1_poly, a2_poly,
                                 b2_poly) -> list:
    """Roots in alpha of A1(a)cos(Psi/2) + B1(a)sin(Psi/2) + A2(a)cos(3Psi/2)
    + B2(a)sin(3Psi/2) inside (-1, 1), at every separation Psi in psis.

    The four inputs are ascending alpha-polynomial coefficient sequences
    (length up to 4), shared by every separation; alpha_polynomials gives
    them for a coupling set (degree at most 3, at most 1 when the three-
    and four-phase couplings vanish). Roots are isolated on monotone pieces
    between the closed-form critical points of the cubic and refined by
    bisection, so no companion-matrix eigenvalue solve is involved. A
    bracket that vanishes for every alpha is reported through the
    identically_zero flag. The brackets of all separations are bisected
    together; entry i of the result equals a call with psis[i] alone.
    """
    psis = np.asarray(psis, dtype=float).reshape(-1)
    outside = psis[~((0.0 < psis) & (psis < 2.0 * np.pi))]
    if outside.size:
        raise ValueError(f"psi0 must lie in (0, 2*pi), got {float(outside[0])}")
    polys = [list(poly) + [0.0] * (4 - len(poly))
             for poly in (a1_poly, b1_poly, a2_poly, b2_poly)]
    if max(map(len, polys)) > 4:
        raise ValueError("alpha polynomials have degree at most 3")
    polys = np.array(polys, dtype=float)
    # the harmonics come from libm through math, as they always have: numpy's
    # SIMD sin/cos may round differently on some CPUs and move the roots
    c1, s1, c3, s3 = np.array([
        (math.cos(h), math.sin(h), math.cos(3.0 * h), math.sin(3.0 * h))
        for h in (0.5 * psis).tolist()]).reshape(-1, 4).T[:, :, None]
    coeffs = polys[0] * c1 + polys[1] * s1 + polys[2] * c3 + polys[3] * s3

    in_scale = max(1e-300, float(np.max(np.abs(polys))))
    scale = np.max(np.abs(coeffs), axis=1)
    flat = scale <= 1e-14 * in_scale

    # trim numerically-absent leading coefficients
    degree = np.full(psis.size, 3)
    for d in (3, 2, 1):
        degree[(degree == d) & (np.abs(coeffs[:, d]) <= 1e-14 * scale)] = d - 1
    p = np.where(np.arange(4) <= degree[:, None], coeffs, 0.0)

    found = [[] for _ in range(psis.size)]
    curved = np.flatnonzero(~flat & (degree >= 2))
    rows, roots = _curved_alpha_roots(p[curved], degree[curved], scale[curved])
    for row, x in zip(curved[rows].tolist(), roots.tolist()):
        found[row].append(x)

    results, none = [], RootScanResult(())
    zero = RootScanResult((), identically_zero=True)
    for is_flat, d, (p0, p1, _, _), candidates in zip(flat.tolist(), degree.tolist(),
                                                     p.tolist(), found):
        if is_flat:
            results.append(zero)
        elif d < 2:
            x = -p0 / p1 if d == 1 else math.nan
            results.append(RootScanResult((x,) if -1.0 < x < 1.0 else ()))
        elif not candidates:
            results.append(none)
        else:
            # de-duplicated, then cut to the open interval
            roots, last = [], math.nan
            for x in sorted({round(x, 14) for x in candidates}):
                if not abs(x - last) < 1e-9:
                    last = x
                    if -1.0 + 1e-12 < x < 1.0 - 1e-12:
                        roots.append(x)
            results.append(RootScanResult(tuple(roots)))
    return results


def _curved_alpha_roots(q, degree, scale):
    """Roots in (-1, 1) of polynomial rows q of degree 2 or 3, before rounding
    and de-duplication: (row index, root) arrays. The real critical points
    split (-1, 1) into monotone pieces; sign changes over a piece are bisected
    to 1e-12, and a critical point where the polynomial vanishes to
    1e-12 * scale is a double root."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -q[:, 1] / (2.0 * q[:, 2])
        qa, qb, qc = 3.0 * q[:, 3], 2.0 * q[:, 2], q[:, 1]
        disc = qb * qb - 4.0 * qa * qc
        sq = np.sqrt(disc)
        lower, upper = (-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)
        double = -qb / (2.0 * qa)
    crits = np.full((q.shape[0], 2), np.nan)
    quad, cubic = degree == 2, degree == 3
    two, one = cubic & (disc > 0), cubic & (disc == 0)
    crits[quad, 0] = vertex[quad]
    crits[two, 0], crits[two, 1] = lower[two], upper[two]
    crits[one, 0] = double[one]
    inside = (-1.0 < crits) & (crits < 1.0)
    # sorted breakpoints; an absent critical point leaves an empty piece [1, 1]
    crits = np.where(inside, crits, 1.0)
    left = np.minimum(crits[:, 0], crits[:, 1])
    right = np.maximum(crits[:, 0], crits[:, 1])
    ends = np.ones(q.shape[0])
    a = np.stack([-ends, left, right], axis=1)
    b = np.stack([left, right, ends], axis=1)
    q_rows = q[:, None, :]
    fa, fb = _poly_rows(a, q_rows), _poly_rows(b, q_rows)

    r, k = np.nonzero((fa == 0.0) & (-1.0 < a) & (a < 1.0))
    rows, roots = [r], [a[r, k]]
    r, k = np.nonzero((fa != 0.0) & ((fa < 0) != (fb < 0)))
    rows.append(r)
    roots.append(_bisect(_poly_rows, q[r], a[r, k], b[r, k], fa[r, k], 1e-12))
    r, k = np.nonzero(inside & (np.abs(_poly_rows(crits, q_rows))
                                <= 1e-12 * scale[:, None]))
    rows.append(r)
    roots.append(crits[r, k])
    return np.concatenate(rows), np.concatenate(roots)

