"""Normal-form vector field against independent brute-force summation oracles.

The oracle below evaluates every basis monomial with explicit Python loops
over all index tuples, written directly from the defining sums without any
of the mean-value shortcuts the implementation uses.
"""
import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfphase import (NormalFormCoefficients, SystemParams, as_state_vector,
                       coupling_field, equivariant_basis, full_rhs_array,
                       uncoupled_field)
from hopfphase.normal_form import BASIS_INDICES, complex_mean

from conftest import make_rng, random_coeffs

# ---------------------------------------------------------------------------
# oracle


def brute_basis(z, k):
    z = list(z)
    n = len(z)
    if k == -1:
        return sum(z) / n
    if k == 0:
        return z[0]
    if k == 1:
        return z[0] * abs(z[0]) ** 2
    if k == 2:
        return z[0] ** 2 * sum(w.conjugate() for w in z) / n
    if k == 3:
        return abs(z[0]) ** 2 * sum(z) / n
    if k == 4:
        return z[0] * sum(abs(w) ** 2 for w in z) / n
    if k == 5:
        return z[0] * sum(z[i] * z[j].conjugate()
                          for i in range(n) for j in range(n)) / n ** 2
    if k == 6:
        return z[0].conjugate() * sum(w * w for w in z) / n
    if k == 7:
        return z[0].conjugate() * sum(z[i] * z[j]
                                      for i in range(n) for j in range(n)) / n ** 2
    if k == 8:
        return sum(abs(w) ** 2 * w for w in z) / n
    if k == 9:
        return sum(z[i] ** 2 * z[j].conjugate()
                   for i in range(n) for j in range(n)) / n ** 2
    if k == 10:
        return sum(z[i] * abs(z[j]) ** 2
                   for i in range(n) for j in range(n)) / n ** 2
    if k == 11:
        return sum(z[i] * z[j] * z[l].conjugate()
                   for i in range(n) for j in range(n) for l in range(n)) / n ** 3
    raise AssertionError(k)


def brute_coupling(z, coeffs):
    total = 0j
    for k in [-1] + list(range(2, 12)):
        total += coeffs.coupling(k) * brute_basis(z, k)
    return total


def brute_rhs(z, params):
    c = params.coeffs
    out = []
    for j in range(len(z)):
        swapped = list(z)
        swapped[0], swapped[j] = swapped[j], swapped[0]
        out.append((params.lam + 1j * params.omega + c.a1 * abs(z[j]) ** 2) * z[j]
                   + params.epsilon * brute_coupling(swapped, c))
    return np.array(out)


def random_state(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# ---------------------------------------------------------------------------
# basis monomials


def test_basis_matches_brute_force_n5():
    rng = make_rng(1)
    z = random_state(rng, 5)
    for k in range(-1, 12):
        assert abs(equivariant_basis(z, k) - brute_basis(z, k)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_basis_matches_brute_force_other_sizes(n):
    rng = make_rng(100 + n)
    for trial in range(5):
        z = random_state(rng, n)
        for k in range(-1, 12):
            got = equivariant_basis(z, k)
            want = brute_basis(z, k)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_basis_first_coordinate():
    z = np.array([2.0 + 1.0j, -0.5j, 0.25])
    assert equivariant_basis(z, 0) == z[0]


def test_basis_mean_of_ones():
    assert equivariant_basis(np.ones(6, dtype=complex), -1) == 1.0


def test_basis_collapses_on_diagonal():
    w = 0.7 - 0.4j
    z = np.full(5, w)
    assert abs(equivariant_basis(z, 11) - w * abs(w) ** 2) < 1e-15


def test_basis_index_out_of_range():
    z = np.ones(3, dtype=complex)
    for k in (-2, 12, 99):
        with pytest.raises(ValueError, match="basis index"):
            equivariant_basis(z, k)


# ---------------------------------------------------------------------------
# coupling and uncoupled fields


def test_coupling_field_zero_coefficients():
    coeffs = NormalFormCoefficients(a1=-1.0)
    rng = make_rng(2)
    assert coupling_field(random_state(rng, 4), coeffs) == 0j


def test_coupling_field_mean_of_ones():
    coeffs = NormalFormCoefficients(a1=-1.0, a_minus1=1.0)
    assert coupling_field(np.ones(7, dtype=complex), coeffs) == 1.0


def test_coupling_field_matches_oracle():
    rng = make_rng(3)
    for trial in range(20):
        coeffs = random_coeffs(rng)
        z = random_state(rng, 4)
        got = coupling_field(z, coeffs)
        want = brute_coupling(z, coeffs)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_uncoupled_origin():
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.0, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    assert uncoupled_field(0j, params) == 0j


def test_uncoupled_on_limit_cycle_is_tangent():
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.0, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    r_star = np.sqrt(0.1)
    val = uncoupled_field(r_star + 0j, params)
    assert abs(val.real) < 1e-16
    assert abs(val.imag - r_star) < 1e-15  # Omega = 1 here


def test_uncoupled_direct_arithmetic():
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.0, n_osc=4,
                          coeffs=NormalFormCoefficients(a1=-1.0))
    assert uncoupled_field(0.1 + 0j, params) == 0.009 + 0.1j


# ---------------------------------------------------------------------------
# full right-hand side


def test_full_rhs_matches_oracle():
    rng = make_rng(4)
    for n in (2, 3, 5, 8):
        coeffs = random_coeffs(rng)
        params = SystemParams(lam=0.2, omega=0.8, epsilon=0.07, n_osc=n,
                              coeffs=coeffs)
        z = random_state(rng, n)
        got = full_rhs_array(z, params)
        want = brute_rhs(z, params)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def mean_fold_rhs(v, params):
    """full_rhs_array's fold with every mean taken by ndarray.mean."""
    c, eps = params.coeffs, params.epsilon
    vsq = v * v
    abs2 = v.real * v.real + v.imag * v.imag
    m1 = complex(v.mean())
    msq = complex(vsq.mean())
    mabs = float(abs2.mean())
    mcube = complex(np.mean(abs2 * v))
    m1c = m1.conjugate()
    m1sq = m1 * m1
    lin = params.lam + 1j * params.omega + eps * (
        c.a4 * mabs + c.a5 * (m1.real * m1.real + m1.imag * m1.imag))
    const = eps * (c.a_minus1 * m1 + c.a8 * mcube + c.a9 * msq * m1c
                   + c.a10 * m1 * mabs + c.a11 * m1sq * m1c)
    out = (lin + c.a1 * abs2) * v
    out += (eps * c.a2 * m1c) * vsq
    out += (eps * c.a3 * m1) * abs2
    out += (eps * (c.a6 * msq + c.a7 * m1sq)) * np.conj(v)
    out += const
    return out


@pytest.mark.parametrize("n", [3, 8, 1000, 16_384, 100_000])
def test_means_are_bit_identical_to_ndarray_mean(n):
    rng = make_rng(31 + n)
    for scale in (1e-3, 1.0, 1e3):
        v = scale * random_state(rng, n)
        abs2 = v.real * v.real + v.imag * v.imag
        for arr in (v, v * v, abs2 * v):
            got, want = complex_mean(arr), complex(arr.mean())
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert float(np.add.reduce(abs2)) / n == float(abs2.mean())
        params = SystemParams(lam=0.2, omega=0.8, epsilon=0.07, n_osc=n,
                              coeffs=random_coeffs(rng))
        assert (full_rhs_array(v, params).tobytes()
                == mean_fold_rhs(v, params).tobytes())


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=8))
def test_full_rhs_permutation_equivariance(seed, n):
    rng = make_rng(seed)
    params = SystemParams(lam=0.15, omega=1.1, epsilon=0.1, n_osc=n,
                          coeffs=random_coeffs(rng))
    z = random_state(rng, n)
    perm = rng.permutation(n)
    lhs = full_rhs_array(z[perm], params)
    rhs = full_rhs_array(z, params)[perm]
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=-np.pi, max_value=np.pi))
def test_full_rhs_rotation_equivariance(seed, theta):
    rng = make_rng(seed)
    params = SystemParams(lam=0.15, omega=1.1, epsilon=0.1, n_osc=5,
                          coeffs=random_coeffs(rng))
    z = random_state(rng, 5)
    rot = cmath.exp(1j * theta)
    lhs = full_rhs_array(rot * z, params)
    rhs = rot * full_rhs_array(z, params)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_full_rhs_diagonal_invariance():
    rng = make_rng(5)
    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.3, n_osc=6,
                          coeffs=random_coeffs(rng))
    z = np.full(6, 0.3 - 0.55j)
    out = full_rhs_array(z, params)
    assert np.max(np.abs(out - out[0])) < 1e-14


# ---------------------------------------------------------------------------
# validation


def test_coefficients_reject_non_supercritical():
    with pytest.raises(ValueError):
        NormalFormCoefficients(a1=1.0)
    with pytest.raises(ValueError):
        NormalFormCoefficients(a1=1j)


def test_coefficients_reject_non_finite():
    with pytest.raises(ValueError):
        NormalFormCoefficients(a1=-1.0, a2=complex(np.nan, 0.0))


def test_params_reject_bad_lambda_and_size():
    coeffs = NormalFormCoefficients(a1=-1.0)
    with pytest.raises(ValueError):
        SystemParams(lam=0.0, omega=1.0, epsilon=0.1, n_osc=4, coeffs=coeffs)
    with pytest.raises(ValueError):
        SystemParams(lam=-0.1, omega=1.0, epsilon=0.1, n_osc=4, coeffs=coeffs)
    with pytest.raises(ValueError):
        SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=1, coeffs=coeffs)


def test_params_warn_below_stated_size():
    coeffs = NormalFormCoefficients(a1=-1.0)
    with pytest.warns(UserWarning, match="n_osc < 4"):
        SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=3, coeffs=coeffs)


def test_params_warning_names_the_calling_file():
    coeffs = NormalFormCoefficients(a1=-1.0)
    with pytest.warns(UserWarning,
                      match=r"n_osc < 4.*\(config field 'n_osc' = 3\)") as rec:
        SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=3, coeffs=coeffs)
    # not "<string>", the dataclass-generated __init__
    assert rec[0].filename == __file__

    params = SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=4, coeffs=coeffs)
    with pytest.warns(UserWarning, match="n_osc < 4") as rec:
        dataclasses.replace(params, n_osc=3)
    # not dataclasses.py, where replace builds the new instance
    assert rec[0].filename == __file__


def cubic_orbit_count(n):
    """Orbits of the cubic monomials z_a z_b conj(z_c), a <= b, under the
    permutations of 1..n-1 that fix index 0: union-find over the group's two
    generators, the cycle (1 2 ... n-1) and the transposition (1 2)."""
    monomials = [(a, b, c) for a in range(n) for b in range(a, n) for c in range(n)]
    parent = {m: m for m in monomials}

    def find(m):
        while parent[m] != m:
            m = parent[m]
        return m

    gens = [[0, *range(2, n), 1][:n]]
    if n > 2:
        gens.append([0, 2, 1, *range(3, n)])
    for m in monomials:
        for g in gens:
            a, b = sorted((g[m[0]], g[m[1]]))
            parent[find(m)] = find((a, b, g[m[2]]))
    return len({find(m) for m in monomials})


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_rank_equals_the_orbit_count(n):
    # component j of a field is its basis monomial with z_j moved first; the
    # equivariant cubic maps are spanned by one orbit each, and the linear
    # ones by z_0 and the mean of the others
    rng = make_rng(100 + n)
    points = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(8)]
    fields = np.array([[equivariant_basis(np.roll(z, -j), k)
                        for z in points for j in range(n)] for k in BASIS_INDICES])
    sv = np.linalg.svd(fields, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    assert cubic_orbit_count(n) == [1, 6, 10, 11][min(n, 4) - 1]
    assert rank == min(n, 2) + cubic_orbit_count(n)
    if 2 <= n < 4:
        words = {1: "one linear relation", 5: "five linear relations"}[13 - rank]
        with pytest.warns(UserWarning, match=words):
            SystemParams(lam=0.1, omega=1.0, epsilon=0.1, n_osc=n,
                         coeffs=NormalFormCoefficients(a1=-1.0))


def test_full_state_validation():
    with pytest.raises(ValueError):
        as_state_vector(np.array([[1.0 + 0j]]))
    with pytest.raises(ValueError):
        as_state_vector(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        as_state_vector(np.array([1.0 + 0j, complex(np.inf, 0)]))
    assert len(as_state_vector(np.array([1j, 2j]))) == 2
