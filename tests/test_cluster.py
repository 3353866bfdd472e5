"""Two-cluster restriction, factored difference function, root finding.

The restriction functions are validated against the phase model itself on
cluster states; the polynomial alpha solver is validated against numpy's
companion-matrix eigenvalue root finder as an independent oracle.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hopfphase import (ClusterCoefficients, ClusterConfig, PsiRoot,
                       RootScanResult, ab_coefficients, alpha_polynomials,
                       build_coupling, find_roots_batch, g_factored, g_raw,
                       phase_rhs_naive, parse_config,
                       polynomial_alpha_roots_batch, root_scans,
                       sync_frequency, sync_stability, two_cluster_H)
from hopfphase.cluster import _coefficients_at

from companion import companion_psi_roots
from conftest import make_rng, random_coupling, random_params

TAU = 2 * math.pi
PAIRWISE_KEYS = ["a_minus1", "a2", "a3", "a4", "a5", "a6", "a8", "a10"]


def cluster_state(phi1, phi2, q_size, p_size):
    return np.concatenate([np.full(q_size, phi1), np.full(p_size, phi2)])


# ---------------------------------------------------------------------------
# configuration container


def test_cluster_config_from_alpha():
    cfg = ClusterConfig.from_alpha(0.25)
    assert cfg.q == 0.625 and cfg.p == 0.375
    balanced = ClusterConfig.from_alpha(0.0)
    assert balanced.p == balanced.q == 0.5


def test_cluster_config_from_sizes():
    cfg = ClusterConfig.from_sizes(3, 1)
    assert cfg.alpha == 0.5 and cfg.q == 0.75 and cfg.p == 0.25
    cfg = ClusterConfig.from_sizes(2, 3)
    assert cfg.alpha == pytest.approx(-0.2) and cfg.q == 0.4
    with pytest.raises(ValueError):
        ClusterConfig.from_sizes(0, 3)


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig.from_alpha(1.0)
    with pytest.raises(ValueError, match="q - p"):
        ClusterConfig(alpha=0.5, p=0.2, q=0.8)
    with pytest.raises(ValueError, match="sum"):
        ClusterConfig(alpha=0.0, p=0.4, q=0.4)


# ---------------------------------------------------------------------------
# restriction to the two-cluster subspace


def test_restriction_matches_phase_model(rng):
    for q_size, p_size in ((1, 1), (2, 1), (3, 2), (4, 4), (7, 5)):
        n = q_size + p_size
        coupling = random_coupling(rng, n, delta=rng.uniform(-0.5, 0.5))
        cfg = ClusterConfig.from_sizes(q_size, p_size)
        phi1, phi2 = rng.uniform(0, TAU, 2)
        rhs = phase_rhs_naive(cluster_state(phi1, phi2, q_size, p_size), coupling)
        h1, h2 = two_cluster_H(phi1, phi2, cfg, coupling)
        eps = coupling.epsilon
        assert abs((rhs[0] - rhs[q_size]) - eps * (h1 - h2)) < 1e-12


def test_restriction_gives_each_component(rng):
    coupling = random_coupling(rng, 5, delta=0.4)
    cfg = ClusterConfig.from_sizes(3, 2)
    phi1, phi2 = 0.8, 2.1
    rhs = phase_rhs_naive(cluster_state(phi1, phi2, 3, 2), coupling)
    h1, h2 = two_cluster_H(phi1, phi2, cfg, coupling)
    bare = (coupling.omega_tilde_const
            - coupling.epsilon * coupling.r_star_sq * coupling.beta[4]
            * math.cos(coupling.gamma[4]))
    assert abs(rhs[0] - (bare + coupling.epsilon * h1)) < 1e-12
    assert abs(rhs[3] - (bare + coupling.epsilon * h2)) < 1e-12


def test_g_raw_is_the_cluster_difference(rng):
    # epsilon 0 and < 0 too: H has no epsilon in it, so none may be divided out
    for epsilon in [None] * 10 + [0.0, -0.3]:
        coupling = random_coupling(rng, 6, delta=rng.uniform(-0.5, 0.5),
                                   epsilon=epsilon)
        cfg = ClusterConfig.from_alpha(rng.uniform(-0.9, 0.9))
        psi = rng.uniform(0, TAU)
        h1, h2 = two_cluster_H(psi, 0.0, cfg, coupling)
        assert abs(g_raw(psi, cfg, coupling) - (h1 - h2)) < 1e-12


# ---------------------------------------------------------------------------
# factored coefficients


def test_balanced_clusters_kill_odd_coefficients(rng):
    coupling = random_coupling(rng, 4, delta=0.2)
    cc = ab_coefficients(ClusterConfig.from_alpha(0.0), coupling)
    assert cc.b1_coef == 0.0
    assert cc.b2_coef == 0.0


def test_pairwise_coupling_coefficient_structure(rng):
    # without three- and four-phase terms A1, A2 lose their alpha dependence
    # and B1, B2 are exactly linear in alpha
    coupling = random_coupling(rng, 4, only=PAIRWISE_KEYS)
    cc_a = ab_coefficients(ClusterConfig.from_alpha(0.3), coupling)
    cc_b = ab_coefficients(ClusterConfig.from_alpha(-0.7), coupling)
    assert cc_a.a1_coef == pytest.approx(cc_b.a1_coef, abs=1e-13)
    assert cc_a.a2_coef == pytest.approx(cc_b.a2_coef, abs=1e-13)
    assert cc_a.b1_coef / 0.3 == pytest.approx(cc_b.b1_coef / -0.7, abs=1e-12)
    assert cc_a.b2_coef / 0.3 == pytest.approx(cc_b.b2_coef / -0.7, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       alpha=st.floats(min_value=-0.99, max_value=0.99),
       psi=st.floats(min_value=0.0, max_value=TAU))
def test_factored_form_matches_raw_difference(seed, alpha, psi):
    rng = make_rng(seed)
    coupling = random_coupling(rng, 5, delta=rng.uniform(-1, 1))
    cfg = ClusterConfig.from_alpha(alpha)
    raw = g_raw(psi, cfg, coupling)
    fac = g_factored(psi, ab_coefficients(cfg, coupling))
    scale = max(1.0, abs(raw))
    assert abs(fac - raw) < 1e-12 * scale


def test_factored_structural_zeros(rng):
    coupling = random_coupling(rng, 4)
    cfg = ClusterConfig.from_alpha(0.4)
    cc = ab_coefficients(cfg, coupling)
    assert g_factored(0.0, cc) == 0.0
    assert abs(g_raw(0.0, cfg, coupling)) < 1e-14
    assert abs(g_factored(math.pi, ClusterCoefficients(1.0, 0.0, 0.0, 0.0))) < 1e-15


def test_g_factored_of_rows_equals_g_factored_of_each_set():
    # a coefficient set is an (A1, B1, A2, B2) row; one kernel forms G from
    # a set at a scalar Psi and from (n, 4) rows against n separations
    rng = make_rng(15)
    n = 64
    rows = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-6, 2, size=(n, 1))
    psis = rng.uniform(0.0, TAU, n)
    ccs = [ClusterCoefficients(*row) for row in rows.tolist()]
    assert np.array(ccs).shape == (n, 4)
    want = [g_factored(psi, cc) for psi, cc in zip(psis.tolist(), ccs)]
    assert all(type(value) is float for value in want)
    assert g_factored(psis, rows).tobytes() == np.array(want).tobytes()


def test_cluster_swap_antisymmetry(rng):
    # relabeling clusters maps (alpha, psi) to (-alpha, -psi) and flips G
    for trial in range(10):
        coupling = random_coupling(rng, 5, delta=rng.uniform(-0.5, 0.5))
        alpha = rng.uniform(-0.9, 0.9)
        psi = rng.uniform(0, TAU)
        lhs = g_raw(-psi, ClusterConfig.from_alpha(-alpha), coupling)
        rhs = -g_raw(psi, ClusterConfig.from_alpha(alpha), coupling)
        assert abs(lhs - rhs) < 1e-12
        flhs = g_factored(-psi, ab_coefficients(ClusterConfig.from_alpha(-alpha),
                                                coupling))
        frhs = -g_factored(psi, ab_coefficients(ClusterConfig.from_alpha(alpha),
                                                coupling))
        assert abs(flhs - frhs) < 1e-12


# ---------------------------------------------------------------------------
# roots of the difference function


def test_find_roots_zero_coupling_is_degenerate():
    from hopfphase import NormalFormCoefficients, SystemParams
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    cc = ab_coefficients(ClusterConfig.from_alpha(0.2), build_coupling(params))
    scan = find_roots_batch([cc])[0]
    assert scan.identically_zero
    assert scan.roots == ()


def test_balanced_clusters_always_have_antiphase_root(rng):
    for trial in range(5):
        coupling = random_coupling(rng, 6)
        scan = find_roots_batch(
            [ab_coefficients(ClusterConfig.from_alpha(0.0), coupling)])[0]
        assert not scan.identically_zero
        assert any(abs(r.psi - math.pi) < 1e-9 for r in scan.roots)


def test_find_roots_synthetic_quarter_turn():
    # bracket 3/8*(cos - sin) of the half angle vanishes only at psi = pi/2
    scan = find_roots_batch([ClusterCoefficients(0.375, -0.375, 0.0, 0.0)])[0]
    assert len(scan.roots) == 1
    root = scan.roots[0]
    assert abs(root.psi - math.pi / 2) < 1e-9
    assert not root.tangential


def test_find_roots_flags_grazing_root():
    # the bracket -2cos(h)+sin(h)+sin(3h) has a double zero at h=pi/4 and a
    # simple one at h=pi/2: a tangential root at psi=pi/2, a crossing at pi
    scan = find_roots_batch([ClusterCoefficients(-2.0, 1.0, 0.0, 1.0)])[0]
    near_quarter = [r for r in scan.roots if abs(r.psi - math.pi / 2) < 1e-6]
    near_anti = [r for r in scan.roots if abs(r.psi - math.pi) < 1e-9]
    assert len(near_quarter) == 1 and near_quarter[0].tangential
    assert len(near_anti) == 1 and not near_anti[0].tangential


@pytest.mark.parametrize("shift", [0.001, 0.0123, -0.3])
def test_find_roots_locates_grazing_root_off_the_grid(shift):
    # the grazing case with h replaced by h - shift: the double zero moves
    # to psi = pi/2 + 2*shift, between grid points, the crossing to pi + 2*shift
    c, s = math.cos(shift), math.sin(shift)
    c3, s3 = math.cos(3 * shift), math.sin(3 * shift)
    scan = find_roots_batch(
        [ClusterCoefficients(-2.0 * c - s, -2.0 * s + c, -s3, c3)])[0]
    grazing = [r for r in scan.roots if r.tangential]
    crossing = [r for r in scan.roots if not r.tangential]
    assert len(grazing) == 1 and abs(grazing[0].psi - (math.pi / 2 + 2 * shift)) < 1e-6
    assert len(crossing) == 1 and abs(crossing[0].psi - (math.pi + 2 * shift)) < 1e-9


@pytest.mark.parametrize("d", [0.004, 1e-4, 1e-6, 3e-8])
def test_find_roots_inside_the_first_and_last_grid_cells(d):
    # A1 cos(h) + B1 sin(h) vanishes at tan(h) = -A1/B1: Psi = d for
    # A1 = -tan(d/2), and Psi = 2*pi - d for A1 = tan(d/2), with B1 = 1
    t = math.tan(d / 2)
    for a1, want in ((-t, d), (t, TAU - d)):
        scan = find_roots_batch([ClusterCoefficients(a1, 1.0, 0.0, 0.0)])[0]
        assert len(scan.roots) == 1 and not scan.roots[0].tangential
        assert abs(scan.roots[0].psi - want) < 1e-9


def cubic_coefficients(u_roots):
    """(A1, B1, A2, B2) whose bracket is cos(Psi/2)^3 P(tan(Psi/2)) for the
    monic cubic P with roots u_roots, back-solved from
    P(u) = (A1 + A2) + (B1 + 3 B2) u + (A1 - 3 A2) u^2 + (B1 - B2) u^3."""
    p0, p1, p2, p3 = np.polynomial.polynomial.polyfromroots(u_roots)
    a2, b2 = (p0 - p2) / 4, (p1 - p3) / 4
    return ClusterCoefficients(p0 - a2, p3 + b2, a2, b2)


def psi_of(u):
    """The separation in (0, 2*pi) with tan(Psi/2) = u."""
    return (2.0 * math.atan(u)) % TAU


def assert_roots(scan, want, tangential, tol=1e-9):
    assert not scan.identically_zero
    assert [r.tangential for r in scan.roots] == tangential
    assert np.max(np.abs(np.array([r.psi for r in scan.roots]) - want)) < tol


@pytest.mark.parametrize("g", [5e-5, 0.0015, 0.004])
def test_find_roots_separates_a_close_pair(g):
    # simple roots at Psi = pi/2 and pi/2 + 2g, closer together than the
    # 0.0087 cells of a 720-interval grid, and at 2*pi - 2 atan 2; at
    # g = 5e-5, |G| is below 1e-8 at its maximum between the pair, which
    # is no root
    cc = cubic_coefficients([1.0, math.tan(math.pi / 4 + g), -2.0])
    want = [math.pi / 2, math.pi / 2 + 2 * g, TAU - 2 * math.atan(2.0)]
    assert_roots(find_roots_batch([cc])[0], want, [False] * 3)


# tan(Psi/2) where the tan chart (|u| <= 2) or the cot chart (|u| >= 1/2) ends
SEAMS = (0.5, 2.0, -0.5, -2.0)


@pytest.mark.parametrize("left_out", range(len(SEAMS)))
def test_find_roots_at_the_chart_seams(left_out):
    u = [x for k, x in enumerate(SEAMS) if k != left_out]
    scan = find_roots_batch([cubic_coefficients(u)])[0]
    assert_roots(scan, sorted(map(psi_of, u)), [False] * 3)


@pytest.mark.parametrize("double", SEAMS)
def test_find_roots_double_root_at_a_chart_seam(double):
    # a tangential root where one chart ends, and a crossing at the seam
    # across from it
    simple = -1.0 / double
    scan = find_roots_batch([cubic_coefficients([double, double, simple])])[0]
    order = sorted([(psi_of(double), True), (psi_of(simple), False)])
    assert_roots(scan, [psi for psi, _ in order], [flag for _, flag in order])


coefficient = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))


def check_scan_against_companion(a1, b1, a2, b2):
    cc = ClusterCoefficients(a1, b1, a2, b2)
    assume(max(abs(a1), abs(b1), abs(a2), abs(b2)) > 0.0)
    want = companion_psi_roots(cc)
    assume(want is not None)
    scan = find_roots_batch([cc])[0]
    assert not scan.identically_zero
    got = np.array([r.psi for r in scan.roots])
    # every oracle root is found, and every reported root is an oracle root
    for x in want:
        assert np.min(np.abs(got - x), initial=np.inf) < 1e-8
    for x in got:
        assert np.min(np.abs(want - x), initial=np.inf) < 1e-8
    assert not any(r.tangential for r in scan.roots)


@given(coefficient, coefficient, coefficient, coefficient)
def test_psi_roots_against_companion_oracle(a1, b1, a2, b2):
    check_scan_against_companion(a1, b1, a2, b2)


@given(st.floats(2e-8, 0.05), st.booleans(), coefficient, coefficient,
       coefficient)
def test_psi_roots_near_the_ends_against_companion_oracle(d, right, b1, a2, b2):
    # A1 chosen so that the bracket vanishes at Psi = d or 2*pi - d
    h = (TAU - d if right else d) / 2
    a1 = -(b1 * math.sin(h) + a2 * math.cos(3 * h) + b2 * math.sin(3 * h)) / math.cos(h)
    check_scan_against_companion(a1, b1, a2, b2)


def test_find_roots_maximum_of_a_small_row_is_no_root():
    # P = 1e-7 (u - 1/2)(u^2 - 1): three simple roots, and |G| is below
    # 1e-8 at the critical points of both charts between the first two,
    # which are maxima of |G| and no roots
    scan = find_roots_batch([ClusterCoefficients(2.5e-8, 5e-8, 2.5e-8, -5e-8)])[0]
    want = [2 * math.atan(0.5), math.pi / 2, 3 * math.pi / 2]
    assert_roots(scan, want, [False] * 3)


def test_find_roots_double_root_beside_a_tiny_cubic_term():
    # P = (u - 0.2)^2 + 1e-13 u^3: a double root at tan(Psi/2) = 0.2 and a
    # simple one within 1e-12 of pi; the critical point of the tan chart is
    # the cubic's small one, which the cancelling quadratic formula put
    # 8e-5 off
    p0, p1, p2, p3 = 0.04, -0.4, 1.0, 1e-13
    a2, b2 = (p0 - p2) / 4, (p1 - p3) / 4
    scan = find_roots_batch([ClusterCoefficients(p0 - a2, p3 + b2, a2, b2)])[0]
    assert_roots(scan, [2 * math.atan(0.2), math.pi], [True, False])


def test_find_roots_nonzero_minimum_of_a_small_row_is_no_root():
    # P = 1e-6 ((u - 1/2)^2 + 0.005): |P| dips to 5e-9, 0.5% of its largest
    # coefficient, at a minimum in both charts, and never vanishes; the
    # cubic term is zero, so the cot chart has a crossing at Psi = pi
    p0, p1, p2, p3 = 1e-6 * 0.255, -1e-6, 1e-6, 0.0
    a2, b2 = (p0 - p2) / 4, (p1 - p3) / 4
    scan = find_roots_batch([ClusterCoefficients(p0 - a2, p3 + b2, a2, b2)])[0]
    assert_roots(scan, [math.pi], [False])


@pytest.mark.parametrize("gap", [0.0, 1e-13, -1e-13])
def test_find_roots_at_and_next_to_the_antiphase_point(gap):
    # B1 - B2 is the cubic coefficient of P: Psi = pi is a root exactly
    # when it vanishes, and lies within 1e-12 of pi when it is tiny
    cc = ClusterCoefficients(0.4, 0.3 + gap, -0.2, 0.3)
    want = companion_psi_roots(cc)
    assert want is not None and np.min(np.abs(want - math.pi)) < 1e-12
    assert_roots(find_roots_batch([cc])[0], want, [False] * 3)


BATCH_SIZES = (1, 16, 17, 53)


def with_special_rows(rows, specials):
    """rows with specials placed at the front, the middle and the end."""
    rows = list(rows)
    for k, pos in enumerate((0, len(rows) // 2, len(rows) - 1)):
        rows[pos] = specials[k % len(specials)]
    return rows


@pytest.mark.parametrize("m", BATCH_SIZES)
def test_root_scan_batch_rows_are_independent(m):
    rng = make_rng(400 + m)
    special = [ClusterCoefficients(0.0, 0.0, 0.0, 0.0),
               ClusterCoefficients(-2.0, 1.0, 0.0, 1.0),
               ClusterCoefficients(0.375, -0.375, 0.0, 0.0)]
    rows = with_special_rows(
        (ClusterCoefficients(*rng.normal(size=4)) for _ in range(m)),
        special[m % 3:] + special[:m % 3])
    batch = find_roots_batch(rows)
    assert batch == [find_roots_batch([cc])[0] for cc in rows]
    if m > 1:
        assert any(r.identically_zero for r in batch)
        assert any(root.tangential for r in batch for root in r.roots)


@pytest.mark.parametrize("m", BATCH_SIZES)
def test_root_scan_of_rows_equals_scan_of_coefficient_sets(m):
    # the alpha scan passes find_roots_batch an (n, 4) array of rows
    rng = make_rng(500 + m)
    rows = rng.normal(size=(m, 4)) * 10.0 ** rng.uniform(-6, 2, size=(m, 1))
    rows[m // 2] = (-2.0, 1.0, 0.0, 1.0)
    rows[0] = 0.0
    ccs = [ClusterCoefficients(*r) for r in rows.tolist()]
    assert find_roots_batch(rows) == find_roots_batch(ccs)


@pytest.mark.parametrize("m", BATCH_SIZES)
def test_alpha_root_batch_rows_are_independent(rng, m):
    coupling = random_coupling(rng, 6)
    poly_sets = [
        alpha_polynomials(coupling),
        # the synthetic quadratic: roots 0.25 and 0.5 at Psi = pi/2
        ((0.125, 0.0, 1.0), (0.0, -0.75), (), ()),
        # cubic except at Psi = pi, where the cubic and quadratic terms cancel
        ((0.1, 0.0, 0.5), (0.0, 0.3, 0.0, 0.2), (0.2,), (0.0, 0.0, 0.0, 0.2)),
        # identically zero at Psi = pi, constant elsewhere
        ((1.0,), (), (), ()),
    ]
    psis = with_special_rows(rng.uniform(0.01, TAU - 0.01, m),
                             [math.pi / 2, math.pi, 1e-6])
    for polys in poly_sets:
        batch = polynomial_alpha_roots_batch(psis, *polys)
        assert batch == [polynomial_alpha_roots_batch([psi], *polys)[0]
                         for psi in psis]


@pytest.mark.parametrize("k", [-1000, -600, -50, 50, 520, 1000])
def test_both_scans_ignore_an_exact_power_of_two_scale(k):
    # the roots of G do not depend on the coupling's magnitude, and scaling
    # by 2^k is exact: both scans give the unscaled results, with no row
    # taken to vanish identically however small, and no overflow however
    # large
    cfg = parse_config((Path(__file__).resolve().parents[1] / "configs"
                        / "two_cluster.json").read_text(encoding="utf-8"))
    alphas = np.linspace(-1.0, 1.0, 512)[1:-1]
    psis = np.linspace(0.0, TAU, 512, endpoint=False)[1:]
    for coupling in (build_coupling(cfg.system_params(), cfg.delta),
                     random_coupling(make_rng(600), 8)):
        polys = np.array(alpha_polynomials(coupling))
        rows = _coefficients_at(alphas, polys)
        want = find_roots_batch(rows), polynomial_alpha_roots_batch(psis, *polys)
        with np.errstate(over="raise"):
            got = (find_roots_batch(np.ldexp(rows, k)),
                   polynomial_alpha_roots_batch(psis, *np.ldexp(polys, k)))
        assert got == want
        assert not any(r.identically_zero for scan in got for r in scan)
        assert sum(len(r.roots) for scan in got for r in scan) > 100


def results_of(scan, root):
    """A root_scans scan as a RootScanResult per list, grouped here row by
    row; the arrays must be sorted by list and, within a list, by value."""
    lists, values, tangential, vanishing = scan
    assert np.all(np.diff(lists) >= 0)
    results = []
    for i, flat in enumerate(vanishing.tolist()):
        mine = lists == i
        assert np.all(np.diff(values[mine]) > 0)
        assert not (flat and mine.any())
        results.append(RootScanResult(
            tuple(map(root, values[mine].tolist(), tangential[mine].tolist())),
            identically_zero=flat))
    return results


def padded(polys):
    return np.array([list(p) + [0.0] * (4 - len(p)) for p in polys])


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_joint_scan_equals_both_public_scans(k):
    # one root-kernel pass over both scans' cubics gives what each public
    # scan gives alone, row for row, whatever the rows' common scale
    rng = make_rng(700)
    coupling = random_coupling(rng, 6)
    rows = _coefficients_at(rng.uniform(-1.0, 1.0, 101), alpha_polynomials(coupling))
    rows[[0, 50, 100]] = 0.0
    psis = with_special_rows(rng.uniform(0.01, TAU - 0.01, 80),
                             [math.pi, math.pi / 2, 1e-6])
    poly_sets = [
        alpha_polynomials(coupling),
        # synthetic: roots 0.25 and 0.5 at Psi = pi/2
        ((0.125, 0.0, 1.0), (0.0, -0.75), (), ()),
        # a bracket that vanishes at Psi = pi, where its tiny row has the
        # root 0.5 that the scan must not report
        ((1.0, -2.0), (), (), ()),
    ]
    rows = np.ldexp(rows, k)
    for polys in (np.ldexp(padded(polys), k) for polys in poly_sets):
        alpha_scan, psi_scan = root_scans(rows, psis, polys)
        got = (results_of(alpha_scan, PsiRoot),
               results_of(psi_scan, lambda alpha, _: alpha))
        assert got == (find_roots_batch(rows), polynomial_alpha_roots_batch(psis, *polys))
        assert sum(r.identically_zero for r in got[0]) == 3
        assert sum(len(r.roots) for r in got[0]) > 50
        assert any(r.roots for r in got[1])
    assert got[1][0].identically_zero
    assert sum(r.identically_zero for r in got[1]) == 1


# ---------------------------------------------------------------------------
# synchronized state


def test_sync_stability_classification():
    assert sync_stability(ClusterCoefficients(-1.0, 0.0, 0.0, 0.0)) == "stable"
    assert sync_stability(ClusterCoefficients(1.0, 0.0, 0.5, 0.0)) == "unstable"
    assert sync_stability(ClusterCoefficients(0.7, 0.3, -0.7, 0.1)) == "degenerate"


def test_sync_labels_equal_sync_stability_at_the_threshold():
    # the alpha scan labels every row at once; a sum is degenerate at most
    # 1e-12 of the row's largest |coefficient|, so for a lone A1 or A2 only
    # an exact zero is
    t = 1e-12
    sums = [0.0, -0.0, t, -t, np.nextafter(t, 0.0), np.nextafter(t, 1.0),
            -np.nextafter(t, 0.0), -np.nextafter(t, 1.0), 1.0, -1.0]
    want = ["degenerate", "degenerate", "unstable", "stable", "unstable",
            "unstable", "stable", "stable", "unstable", "stable"]
    assert [sync_stability(ClusterCoefficients(s, 0.0, 0.0, 0.0))
            for s in sums] == want
    rows = np.zeros((len(sums), 4))
    rows[:, 0] = sums
    assert sync_stability(rows).tolist() == want
    # as the alpha scan forms them, from the A1 and A2 columns of rows
    rows = np.zeros((len(sums), 4))
    rows[:, 2] = sums
    assert sync_stability(rows).tolist() == want
    # beside a B1 of 1 the threshold is 1e-12 itself, and inclusive
    rows[:, 1] = 1.0
    assert sync_stability(rows).tolist() == [
        "degenerate", "degenerate", "degenerate", "degenerate", "degenerate",
        "unstable", "degenerate", "stable", "unstable", "stable"]


def test_sync_labels_ignore_the_rows_scale():
    # the coupling's magnitude scales out of every row, as it does out of
    # the roots: random rows, rows with A1 + A2 = 0, rows about the
    # threshold and an all-zero row keep their labels at any power of two
    rng = make_rng(29)
    rows = rng.normal(size=(120, 4))
    rows[:20, 2] = -rows[:20, 0]
    near = rng.uniform(0.25, 4.0, size=40) * rng.choice([-1e-12, 1e-12], size=40)
    rows[20:60, 0] = 1.0 + near
    rows[20:60, 1:] = [0.5, -1.0, 0.25]
    rows[60] = 0.0
    base = sync_stability(rows)
    assert set(base.tolist()) == {"stable", "unstable", "degenerate"}
    for k in (-600, -50, 0, 50, 600):
        assert np.array_equal(sync_stability(np.ldexp(rows, k)), base)
        assert [sync_stability(ClusterCoefficients(*r))
                for r in np.ldexp(rows[:61], k).tolist()] == base[:61].tolist()


def test_sync_frequency_zero_coupling():
    from hopfphase import NormalFormCoefficients, SystemParams
    coeffs = NormalFormCoefficients(a1=-1.0)
    params = SystemParams(lam=0.1, omega=1.7, epsilon=0.2, n_osc=4, coeffs=coeffs)
    coupling = build_coupling(params)
    assert sync_frequency(coupling) == 1.7


def test_sync_frequency_worked_example():
    from hopfphase import NormalFormCoefficients, SystemParams
    coeffs = NormalFormCoefficients(a1=-1.0, a2=0.3)
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.5, n_osc=3, coeffs=coeffs)
    coupling = build_coupling(params)
    assert abs(sync_frequency(coupling) - 1.0) < 1e-15


def test_sync_frequency_matches_phase_model(rng):
    for trial in range(10):
        n = int(rng.integers(2, 8))
        params = random_params(rng, n)
        delta = rng.uniform(-0.5, 0.5)
        coupling = build_coupling(params, delta=delta)
        value = phase_rhs_naive(np.full(n, rng.uniform(0, TAU)), coupling)[0]
        predicted = sync_frequency(coupling)
        assert abs(predicted - value) < 1e-12


# ---------------------------------------------------------------------------
# alpha dependence at fixed separation


def test_alpha_polynomials_evaluate_to_ab(rng):
    coupling = random_coupling(rng, 5, delta=0.3)
    polys = alpha_polynomials(coupling)
    for alpha in np.linspace(-0.9, 0.9, 7):
        cc = ab_coefficients(ClusterConfig.from_alpha(float(alpha)), coupling)
        vals = [float(np.polynomial.polynomial.polyval(alpha, poly))
                for poly in polys]
        for got, want in zip(vals, (cc.a1_coef, cc.b1_coef, cc.a2_coef,
                                    cc.b2_coef)):
            assert abs(got - want) < 1e-12


def ab_pq_form(cfg, coupling):
    """A1, B1, A2, B2 written out in the cluster fractions p and q."""
    b, g = coupling.beta, coupling.gamma
    r2 = coupling.r_star_sq
    p, q = cfg.p, cfg.q
    pq = p * q
    s = {k: b[k] * math.sin(g[k]) for k in b}
    c = {k: b[k] * math.cos(g[k]) for k in b}

    a1 = (s[-1]
          + r2 * (-s[2] + s[3] + s[6] + s[8] + s[10]
                  + (p * p + q * q) * s[9]
                  + (p * p + 4.0 * pq + q * q) * s[7]
                  + (1.0 - pq) * s[11]))
    b1 = (q - p) * (c[-1]
                    + r2 * (c[2] + c[3] + c[6] + c[7] + c[8] + c[9] + c[10]
                            + (1.0 - 3.0 * pq) * c[11]))
    a2 = r2 * (s[6] + (p * p + q * q) * s[7] + 2.0 * pq * s[9] + pq * s[11])
    b2 = (q - p) * r2 * (c[6] + c[7] + pq * c[11])
    return a1, b1, a2, b2


def test_ab_coefficients_match_pq_form():
    rng = make_rng(47)
    for trial in range(40):
        delta = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        params = random_params(rng, 6, scale=rng.uniform(0.05, 1.0))
        coupling = build_coupling(params, delta)
        # delta reaches the cluster coefficients through index 3
        assert coupling.beta[3] != build_coupling(params).beta[3]
        for alpha in rng.uniform(-0.99, 0.99, size=25):
            cfg = ClusterConfig.from_alpha(float(alpha))
            cc = ab_coefficients(cfg, coupling)
            got = (cc.a1_coef, cc.b1_coef, cc.a2_coef, cc.b2_coef)
            for g, want in zip(got, ab_pq_form(cfg, coupling)):
                assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


def test_polynomial_roots_against_companion_oracle():
    rng = make_rng(31)
    checked = 0
    for trial in range(60):
        polys = [tuple(rng.normal(size=4)) for _ in range(4)]
        psi0 = rng.uniform(0.05, TAU - 0.05)
        half = 0.5 * psi0
        weights = (math.cos(half), math.sin(half),
                   math.cos(3 * half), math.sin(3 * half))
        combined = [sum(w * poly[i] for w, poly in zip(weights, polys))
                    for i in range(4)]
        eig_roots = np.roots(combined[::-1])
        real = sorted(r.real for r in eig_roots if abs(r.imag) < 1e-9)
        # skip draws where the oracle itself is ill-conditioned near the
        # interval boundary or has nearly coincident roots
        if any(abs(abs(r) - 1.0) < 1e-6 for r in real):
            continue
        if any(b - a < 1e-6 for a, b in zip(real, real[1:])):
            continue
        inside = [r for r in real if -1.0 < r < 1.0]
        result = polynomial_alpha_roots_batch([psi0], *polys)[0]
        assert not result.identically_zero
        assert len(result.roots) == len(inside)
        for got, want in zip(result.roots, inside):
            assert abs(got - want) < 1e-9
        checked += 1
    assert checked >= 50


def test_polynomial_roots_synthetic_quadratic():
    result = polynomial_alpha_roots_batch([math.pi / 2], (0.125, 0.0, 1.0),
                                          (0.0, -0.75), (), ())[0]
    assert not result.identically_zero
    assert len(result.roots) == 2
    assert abs(result.roots[0] - 0.25) < 1e-9
    assert abs(result.roots[1] - 0.5) < 1e-9


def test_polynomial_roots_double_root_beside_a_tiny_cubic_term():
    # (alpha - 0.3)^2 + 1e-13 alpha^3 at Psi = pi/2
    result = polynomial_alpha_roots_batch([math.pi / 2], (0.09, -0.6, 1.0, 1e-13),
                                          (), (), ())[0]
    assert len(result.roots) == 1 and abs(result.roots[0] - 0.3) < 1e-9


def test_polynomial_roots_close_pair_has_no_root_between():
    # (alpha - a)(alpha - b), b - a = 1e-6: between the pair |P| peaks at
    # (b - a)^2 / 4 = 2.5e-13 of the row's scale, within 1e-12 of zero, but
    # it is a maximum with the crossings 5e-7 away, so no root
    a, b = 0.3, 0.3 + 1e-6
    result = polynomial_alpha_roots_batch([math.pi / 2], (a * b, -(a + b), 1.0, 0.0),
                                          (), (), ())[0]
    assert len(result.roots) == 2
    assert abs(result.roots[0] - a) < 1e-9 and abs(result.roots[1] - b) < 1e-9


def test_polynomial_roots_validate_psi0():
    with pytest.raises(ValueError, match="psi0"):
        polynomial_alpha_roots_batch([0.0], (1.0,), (), (), ())
    with pytest.raises(ValueError, match="psi0"):
        polynomial_alpha_roots_batch([TAU], (1.0,), (), (), ())


def test_alpha_roots_zero_coupling_is_degenerate():
    from hopfphase import NormalFormCoefficients, SystemParams
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    result = polynomial_alpha_roots_batch(
        [1.0], *alpha_polynomials(build_coupling(params)))[0]
    assert result.identically_zero


def test_pairwise_coupling_admits_at_most_one_alpha(rng):
    # degree collapses to one without three- and four-phase terms, so a
    # given separation can be balanced by at most one cluster imbalance
    psis = np.linspace(0, TAU, 74)[1:-1]
    for trial in range(20):
        coupling = random_coupling(rng, 4, only=PAIRWISE_KEYS)
        a1p, b1p, a2p, b2p = alpha_polynomials(coupling)
        results = polynomial_alpha_roots_batch(psis, a1p, b1p, a2p, b2p)
        for psi0, result in zip(psis, results):
            assert len(result.roots) <= 1
            if result.roots and not result.identically_zero:
                half = 0.5 * psi0
                slope = (b1p[1] * math.sin(half)
                         + b2p[1] * math.sin(3 * half))
                const = (a1p[0] * math.cos(half)
                         + a2p[0] * math.cos(3 * half))
                assert abs(result.roots[0] - (-const / slope)) < 1e-9
