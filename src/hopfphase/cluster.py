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

# candidates closer than this in the scan's variable are one root
_MERGE = 1e-7
# |P| at a double root, or |A1 + A2| of degenerate sync, over the row's scale
_DOUBLE_ROOT = 1e-12
# a negligible coefficient over its row's scale, or row over its scan's
_NEGLIGIBLE = 1e-14
_BRACKET = 1e-12  # width the bisection narrows each bracket to
# x^k of a chart cubic on (-1, 1) is (2x)^k of the cubic in tan or cot(Psi/2)
_CHART_SCALE = np.array([1.0, 2.0, 4.0, 8.0])


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
    coefficient set, or (A1, B1, A2, B2) rows that broadcast against psi:
    ((A1 c1 + B1 s1) + A2 c3) + B2 s3, times 2 sin(Psi/2)."""
    half = 0.5 * np.asarray(psi, dtype=float)
    coef = np.asarray(cc, dtype=float)
    sin = np.sin(half)
    val = coef[..., 0] * np.cos(half)
    val += coef[..., 1] * sin
    val += coef[..., 2] * np.cos(3.0 * half)
    val += coef[..., 3] * np.sin(3.0 * half)
    val *= 2.0 * sin
    return float(val) if np.ndim(val) == 0 else val


def sync_stability(cc):
    """'stable' / 'unstable' / 'degenerate' by the sign of A1 + A2, for one
    (A1, B1, A2, B2) row, or an array of labels for an (n, 4) array of rows.
    The sum is degenerate if at most _DOUBLE_ROOT of the row's largest
    |coefficient|, as a double root is, so the label ignores scale."""
    rows = np.asarray(cc, dtype=float)
    s = rows[..., 0] + rows[..., 2]
    labels = np.where(np.abs(s) <= _DOUBLE_ROOT * np.max(np.abs(rows), axis=-1),
                      "degenerate", np.where(s < 0, "stable", "unstable"))
    return str(labels) if labels.ndim == 0 else labels


def sync_frequency(coupling: PhaseCouplingSet) -> float:
    """Common frequency of the fully synchronized state: the prefactor kernel
    at Z1 = Z2 = 1 and phi = 0, so every coupling harmonic, the fifth-order
    correction folded into g2 included, enters as it does in phase_rhs_fast."""
    base, c1, c2 = coupling.prefactors(1 + 0j, 1 + 0j)
    return base + coupling.epsilon * (c1.real + c2.real)


# ---------------------------------------------------------------------------
# root finding
#
# Both scans reduce each row to cubics on (-1, 1), and root_scans hands
# all of them to one _cubic_roots call, which bisects their brackets
# together and decides double roots and merges by one rule. The bisection
# repeats the scalar iteration per element, so a bracket gets the same
# midpoints, exits and stopping tests whatever else is refined with it.


def _bisect(coef, lo, hi, f_lo):
    """Bisect every sign-changing bracket [lo[i], hi[i]] of the polynomial
    row coef[i] to width _BRACKET; an element whose midpoint evaluates to
    exactly zero stops there."""
    root = 0.5 * (lo + hi)
    live = np.flatnonzero(hi - lo > _BRACKET)
    lo, hi, f_lo, coef = lo[live], hi[live], f_lo[live], coef[live]
    while live.size:
        mid = 0.5 * (lo + hi)
        f_mid = _poly_rows(mid, coef)
        # an exact zero collapses the bracket onto mid, which ends it
        zero = f_mid == 0.0
        flip = (f_lo < 0) != (f_mid < 0)
        hi = np.where(flip | zero, mid, hi)
        lo = np.where(flip & ~zero, lo, mid)
        f_lo = np.where(flip, f_lo, f_mid)
        wide = hi - lo > _BRACKET
        if not wide.all():
            root[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            live, lo, hi, f_lo, coef = (x[wide] for x in (live, lo, hi, f_lo, coef))
    return root


def _chart_psi(x, cot):
    """Psi of the chart points x: 2 atan(2x) in the tan chart, on (0, pi)
    for x > 0 and (pi, 2*pi) for x < 0, and pi - 2 atan(2x) where cot."""
    h = 2.0 * np.arctan(2.0 * x)
    return np.where(cot, np.pi - h, np.where(h > 0.0, h, 2.0 * np.pi + h))


def find_roots_batch(ccs) -> list:
    """All roots in (0, 2*pi) of G(Psi) for every coefficient set in ccs,
    (A1, B1, A2, B2) rows such as ClusterCoefficients or an (n, 4) array.

    With t = Psi/2, cos 3t = 4c^3 - 3c and sin 3t = 3s - 4s^3 make the
    bracket cos(t)^3 P(tan t), P(u) = (A1 + A2) + (B1 + 3 B2) u
    + (A1 - 3 A2) u^2 + (B1 - B2) u^3, so G has at most three roots. They
    are found exactly in two charts that overlap, u = tan t and
    w = cot t = 1/u (the cubic w^3 P(1/w), P reversed), each for |u| or
    |w| <= 2 and scaled to (-1, 1), by _cubic_roots, which also decides
    the tangential (grazing) roots and merges the two charts' candidates.
    u = 0 is Psi = 0 or 2*pi, and roots within 1e-8 of either end are
    dropped. A G that vanishes for every Psi, an all-zero row, is reported
    through the identically_zero flag instead of a root list. All rows are
    solved together: row i of the result equals a scan of ccs[i] alone.
    """
    return _scan_results(root_scans(ccs, (), ((),) * 4)[0], PsiRoot)


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
    and four-phase couplings vanish). The roots are found, double roots
    decided and close candidates merged by _cubic_roots, so no
    companion-matrix eigenvalue solve is involved; they are rounded to 14
    decimals and cut to within 1e-12 of the ends. A bracket whose largest
    coefficient is at most 1e-14 of the inputs' largest vanishes for every
    alpha and is reported through the identically_zero flag. The
    brackets of all separations are bisected together, by root_scans;
    entry i of the result equals a call with psis[i] alone.
    """
    scan = root_scans((), psis, (a1_poly, b1_poly, a2_poly, b2_poly))[1]
    return _scan_results(scan, lambda alpha, _: alpha)


def root_scans(ccs, psis, polys):
    """find_roots_batch(ccs) and polynomial_alpha_roots_batch(psis, *polys)
    in one _cubic_roots pass, bit for bit, as arrays: per scan (lists,
    values, tangential, vanishing), its roots sorted by list (row of ccs,
    or separation) and value, and whether each list's function vanishes
    identically, which leaves it no roots."""
    coef = np.asarray(ccs, dtype=float).reshape(-1, 4)
    psis = np.asarray(psis, dtype=float).reshape(-1)
    n, m = coef.shape[0], psis.size
    outside = psis[~((0.0 < psis) & (psis < 2.0 * np.pi))]
    if outside.size:
        raise ValueError(f"psi0 must lie in (0, 2*pi), got {float(outside[0])}")
    polys = [list(poly) + [0.0] * (4 - len(poly)) for poly in polys]
    if max(map(len, polys)) > 4:
        raise ValueError("alpha polynomials have degree at most 3")
    polys = np.array(polys, dtype=float)
    # P of each row, (A1 + A2, B1 + 3 B2, A1 - 3 A2, B1 - B2), in one
    # expression, so no copy of the rows stays alive through the scan
    p = coef[:, [0, 1, 0, 1]] + coef[:, [2, 3, 2, 3]] * np.array([1.0, 3.0, -3.0, -1.0])
    # the harmonics come from libm through math, as they always have: numpy's
    # SIMD sin/cos may round differently on some CPUs and move the roots
    c1, s1, c3, s3 = np.array([
        (math.cos(h), math.sin(h), math.cos(3.0 * h), math.sin(3.0 * h))
        for h in (0.5 * psis).tolist()]).reshape(-1, 4).T[:, :, None]
    coeffs = polys[0] * c1 + polys[1] * s1 + polys[2] * c3 + polys[3] * s3
    # a row of ccs is its own scale, so only a zero row vanishes
    vanishing = np.concatenate([
        ~coef.any(axis=1),
        np.max(np.abs(coeffs), axis=1) <= _NEGLIGIBLE * np.max(np.abs(polys))])

    def to_var(x, rows):
        var = _chart_psi(x, rows >= n)
        alpha = rows >= 2 * n
        var[alpha] = [round(v, 14) for v in x[alpha].tolist()]
        return var

    lists, values, tangential = _cubic_roots(
        np.concatenate([p * _CHART_SCALE, p[:, ::-1] * _CHART_SCALE, coeffs]),
        np.concatenate([np.arange(2 * n) % n, np.arange(n, n + m)]),
        np.repeat([1e-8, -1.0 + 1e-12], [2 * n, m]),
        np.repeat([2.0 * np.pi - 1e-8, 1.0 - 1e-12], [2 * n, m]), to_var)
    keep = ~vanishing[lists]
    lists, values, tangential = lists[keep], values[keep], tangential[keep]
    cut = np.searchsorted(lists, n)
    return ((lists[:cut], values[:cut], tangential[:cut], vanishing[:n]),
            (lists[cut:] - n, values[cut:], tangential[cut:], vanishing[n:]))


def _scan_results(scan, root):
    """A root_scans scan as a RootScanResult per list, each of its roots
    root(value, tangential)."""
    lists, values, tangential, vanishing = scan
    found = [[] for _ in range(vanishing.size)]
    for i, value, flag in zip(lists.tolist(), values.tolist(), tangential.tolist()):
        found[i].append(root(value, flag))
    return [RootScanResult((), identically_zero=True) if flat
            else RootScanResult(tuple(roots))
            for flat, roots in zip(vanishing.tolist(), found)]


def _cubic_roots(q, owner, lo, hi, to_var):
    """The roots of ascending cubic rows q on (-1, 1) for both scans, as
    flat (list, value, tangential) arrays sorted by list and value: row i
    belongs to list owner[i], to_var(x, rows) maps points x of the rows to
    their scan's variable, and a root of row i outside (lo[i], hi[i]) in
    it is dropped.

    Each row is scaled by an exact power of two to a largest coefficient
    in [0.5, 1), so the roots do not depend on its magnitude and no
    square overflows; an all-zero row has no root. The crossings are those
    of _monotone_roots. A critical point where |P| <= _DOUBLE_ROOT * scale
    (the row's largest coefficient) is a double (tangential) root if |P| has a
    local minimum there (P and P'' of one sign), or a maximum with
    crossings less than _MERGE away on both sides (a double root split by
    rounding), and no root otherwise. Candidates of a list less than
    _MERGE apart in the scan's variable are one root: at the run's first
    tangential candidate if it has one, and tangential then, else at its
    first.
    """
    scale, power = np.frexp(np.max(np.abs(q), axis=1))
    q = _trim(np.ldexp(q, -power[:, None]), scale)
    r, k, x, crits = _monotone_roots(q)
    var = to_var(x, r)
    val = _poly_rows(crits, q[:, None, :])
    cr, ck = np.nonzero(np.abs(val) <= _DOUBLE_ROOT * scale[:, None])
    xc, vc = crits[cr, ck], val[cr, ck]
    c_var = to_var(xc, cr)
    side = np.full((q.shape[0], 3), np.nan)
    side[r, k] = var
    # a row's j-th critical point in sorted order ends its piece j
    j = (xc > crits[cr, 1 - ck]).astype(int)
    split = np.maximum(np.abs(side[cr, j] - c_var),
                       np.abs(side[cr, j + 1] - c_var)) < _MERGE
    double = (vc == 0.0) | (vc * (q[cr, 2] + 3.0 * q[cr, 3] * xc) > 0.0) | split
    # the arrays of every row are freed before the roots are merged
    del scale, power, q, crits, val, side
    raw = np.concatenate([r, cr[double]])
    var = np.concatenate([var, c_var[double]])
    tangential = np.arange(raw.size) >= r.size
    inside = np.flatnonzero((lo[raw] < var) & (var < hi[raw]))
    rows = owner[raw]
    order = inside[np.lexsort((var[inside], rows[inside]))]
    rows, var, tangential = rows[order], var[order], tangential[order]
    root = np.cumsum((np.diff(rows, prepend=-1) != 0)
                     | (np.diff(var, prepend=-np.inf) >= _MERGE)) - 1
    first = np.flatnonzero(np.diff(root, prepend=-1))
    tangent = np.flatnonzero(tangential)
    tangent = tangent[np.diff(root[tangent], prepend=-1) > 0]
    first[root[tangent]] = tangent
    return rows[first], var[first], tangential[first]


def _trim(q, scale):
    """Ascending cubic rows q with their leading coefficients, from q3 down
    to q1, zeroed while at or below _NEGLIGIBLE * scale of their row."""
    small = np.abs(q) <= _NEGLIGIBLE * scale[:, None]
    small[:, 0] = False  # q0 stays, and stops the run from q3 down
    return np.where(np.logical_and.accumulate(small[:, ::-1], axis=1)[:, ::-1], 0.0, q)


def _critical_points(q):
    """The (n, 2) real critical points inside (-1, 1) of ascending cubic
    rows q, NaN where there is none: the roots q1 / qa and qc / q1 of the
    derivative, which do not cancel, the second where the discriminant is
    positive. A quadratic row (qa = 0) has q1 = -qb exactly, so they are
    infinite and the vertex; at a zero discriminant the first is the double
    root -qb / (2 qa) bit for bit; a linear or constant row has none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        qa, qb, qc = 3.0 * q[:, 3], 2.0 * q[:, 2], q[:, 1]
        disc = qb * qb - 4.0 * qa * qc
        q1 = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        crits = np.stack([q1 / qa, np.where(disc > 0.0, qc / q1, np.nan)], axis=1)
    crits[~((-1.0 < crits) & (crits < 1.0))] = np.nan
    return crits


def _monotone_roots(q):
    """Crossings in (-1, 1) of ascending cubic rows q: (row index, piece,
    root) arrays, and the rows' _critical_points. These split (-1, 1) into
    monotone pieces 0, 1, 2; the root of a linear row (q2 = q3 = 0) is
    -q0/q1, and the other sign changes over a piece are bisected to
    _BRACKET. The brackets are freed on return."""
    crits = _critical_points(q)
    r, k, lo, hi, f_lo = _sign_changes(q, crits)
    line = (q[r, 2] == 0.0) & (q[r, 3] == 0.0)
    x = np.empty(r.size)
    x[line] = -q[r[line], 0] / q[r[line], 1]
    x[~line] = _bisect(q[r[~line]], lo[~line], hi[~line], f_lo[~line])
    return r, k, x, crits


def _sign_changes(q, crits):
    """(row, piece, start, end, value at the start) of the monotone pieces
    of the rows q between their critical points crits over which the sign
    changes, a piece that starts at a zero excluded. Piece k runs from
    breakpoint k to k + 1, so each row is evaluated at its four breakpoints
    once; these (n, 4) arrays are freed on return, before the bisection."""
    # sorted breakpoints; an absent critical point leaves an empty piece [1, 1]
    ends = np.where(np.isnan(crits), 1.0, crits)
    ones = np.ones(q.shape[0])
    x = np.stack([-ones, np.minimum(ends[:, 0], ends[:, 1]),
                  np.maximum(ends[:, 0], ends[:, 1]), ones], axis=1)
    f = _poly_rows(x, q[:, None, :])
    r, k = np.nonzero((f[:, :3] != 0.0) & ((f[:, :3] < 0) != (f[:, 1:] < 0)))
    return r, k, x[r, k], x[r, k + 1], f[r, k]
