"""Cubic normal-form vector field for N globally coupled identical oscillators.

The vector field on C^N commutes with coordinate permutations and with a
global phase rotation. Component j is the sum of an uncoupled cubic
(Stuart-Landau) part and epsilon times a coupling field assembled from the
thirteen symmetry-adapted cubic monomials, evaluated with coordinate j
distinguished. All interaction sums run over every index including the
distinguished one, with 1/N, 1/N^2, 1/N^3 normalization so the mean-field
structure survives N -> infinity.
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

BASIS_INDICES = tuple(range(-1, 12))
# indices of the coupling coefficients; 0 and 1 belong to the uncoupled part
COUPLING_INDICES = (-1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)


def _require_finite_complex(value, name: str) -> complex:
    try:
        c = complex(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a complex number: {value!r}") from exc
    if not (np.isfinite(c.real) and np.isfinite(c.imag)):
        raise ValueError(f"{name} must be finite, got {c}")
    return c


@dataclass(frozen=True)
class NormalFormCoefficients:
    """The twelve complex coefficients of the cubic normal form.

    ``a1`` multiplies the self term z_j |z_j|^2 and must have negative real
    part (supercritical branch, so the uncoupled oscillator has an attracting
    limit cycle). The remaining coefficients weight the coupling monomials.
    """

    a1: complex
    a_minus1: complex = 0j
    a2: complex = 0j
    a3: complex = 0j
    a4: complex = 0j
    a5: complex = 0j
    a6: complex = 0j
    a7: complex = 0j
    a8: complex = 0j
    a9: complex = 0j
    a10: complex = 0j
    a11: complex = 0j

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(
                self, f.name, _require_finite_complex(getattr(self, f.name), f.name))
        if self.a1.real >= 0:
            raise ValueError(
                f"re(a1) must be negative (supercritical branch), got {self.a1}")

    def coupling(self, k: int) -> complex:
        """Coefficient of the coupling monomial with index k."""
        if k not in COUPLING_INDICES:
            raise ValueError(f"no coupling coefficient with index {k}")
        return getattr(self, "a_minus1" if k == -1 else f"a{k}")


@dataclass(frozen=True)
class SystemParams:
    """Unfolding parameters plus the coefficient set.

    Parameters
    ----------
    lam : float
        Distance past the bifurcation, strictly positive. (Named ``lam``
        because ``lambda`` is reserved in Python; config files use the key
        ``lambda``.)
    omega : float
        Linear frequency of the uncoupled oscillation.
    epsilon : float
        Coupling strength.
    n_osc : int
        Number of oscillators, at least 2.
    coeffs : NormalFormCoefficients
    """

    lam: float
    omega: float
    epsilon: float
    n_osc: int
    coeffs: NormalFormCoefficients

    def __post_init__(self):
        for name in ("lam", "omega", "epsilon"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not np.isfinite(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not isinstance(self.n_osc, int) or isinstance(self.n_osc, bool):
            raise ValueError(f"n_osc must be an integer, got {self.n_osc!r}")
        if self.n_osc < 2:
            raise ValueError(f"n_osc must be at least 2, got {self.n_osc}")
        if self.n_osc < 4:
            # the thirteen fields are independent exactly for N >= 4
            warnings.warn(
                "n_osc < 4: the thirteen symmetry-adapted basis fields satisfy "
                f"{'one linear relation' if self.n_osc == 3 else 'five linear relations'}"
                ", so the coefficients are not uniquely identifiable "
                f"(config field 'n_osc' = {self.n_osc})",
                UserWarning, stacklevel=_caller_stacklevel())


def _caller_stacklevel() -> int:
    """warnings stack level, seen from the caller of this function, of the
    first frame outside this package and the dataclasses module.

    The skipped frames are __post_init__, the dataclass-generated __init__,
    dataclasses.replace and the package's own callers, such as parse_config.
    """
    level, frame = 1, sys._getframe(1)
    while (frame.f_globals.get("__name__", "").partition(".")[0]
           in (__package__, "dataclasses")):
        level, frame = level + 1, frame.f_back
    return level


def complex_mean(a: np.ndarray) -> complex:
    """complex(a.mean()) of a 1-D complex array, bit for bit.

    One np.add.reduce, scaled the way numpy divides a complex sum by a
    real count (by multiplying both parts with 1/N), without the per-call
    wrapper of ndarray.mean. The sum becomes a Python complex first, so the
    scaling is two float products, not numpy scalar arithmetic.
    """
    s = complex(np.add.reduce(a))
    inv = 1.0 / a.size
    return complex(s.real * inv, s.imag * inv)


def as_state_vector(z) -> np.ndarray:
    """Return z as a complex vector: 1-D, non-empty and finite."""
    v = np.asarray(z, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("state must be a non-empty 1-D complex vector")
    if not np.isfinite(v).all():
        raise ValueError("state contains non-finite entries")
    return v


def equivariant_basis(z, k: int) -> complex:
    """Evaluate the symmetry-adapted cubic monomial with index k.

    The first coordinate is the distinguished one. Indices -1 through 11
    cover the linear mean field (-1), the identity coordinate (0), the self
    cubic (1), and the ten cubic interaction monomials (2..11). Sums over
    repeated indices are normalized by 1/N per summation index.

    Parameters
    ----------
    z : array-like of complex
    k : int
        Basis index in {-1, 0, 1, ..., 11}.

    Returns
    -------
    complex
    """
    v = as_state_vector(z)
    if k not in BASIS_INDICES:
        raise ValueError(f"basis index {k} out of range [-1, 11]")
    z1 = v[0]
    if k == 0:
        return complex(z1)
    if k == 1:
        return complex(z1 * abs(z1) ** 2)
    m1 = v.mean()
    if k == -1:
        return complex(m1)
    if k == 2:
        return complex(z1 * z1 * np.conj(m1))
    if k == 3:
        return complex(abs(z1) ** 2 * m1)
    if k == 4:
        return complex(z1 * np.mean(np.abs(v) ** 2))
    if k == 5:
        return complex(z1 * abs(m1) ** 2)
    if k == 6:
        return complex(np.conj(z1) * np.mean(v * v))
    if k == 7:
        return complex(np.conj(z1) * m1 * m1)
    if k == 8:
        return complex(np.mean(np.abs(v) ** 2 * v))
    if k == 9:
        return complex(np.mean(v * v) * np.conj(m1))
    if k == 10:
        return complex(m1 * np.mean(np.abs(v) ** 2))
    # k == 11
    return complex(m1 * m1 * np.conj(m1))


def coupling_field(z, coeffs: NormalFormCoefficients) -> complex:
    """Cubic coupling field for the first oscillator.

    Sum of a_k times the basis monomial k over the coupling indices
    {-1, 2, ..., 11}; the self cubic a1 z_1 |z_1|^2 is part of the
    uncoupled field and excluded here.
    """
    v = as_state_vector(z)
    total = 0j
    for k in COUPLING_INDICES:
        a = coeffs.coupling(k)
        if a != 0:
            total += a * equivariant_basis(v, k)
    return total


def uncoupled_field(z1, params: SystemParams) -> complex:
    """Stuart-Landau field (lam + i*omega + a1 |z1|^2) z1 for one oscillator."""
    c = _require_finite_complex(z1, "z1")
    return (params.lam + 1j * params.omega + params.coeffs.a1 * abs(c) ** 2) * c


def full_rhs_array(v: np.ndarray, params: SystemParams) -> np.ndarray:
    """Vectorized right-hand side on a raw complex vector.

    No validation; the hot path for integration. Component j equals the
    uncoupled field at z_j plus epsilon times the coupling field with
    coordinate j distinguished. Every monomial depends on the
    undistinguished coordinates only through four symmetric means, so the
    eleven coupling terms fold into scalar prefactors of z_j, z_j^2,
    |z_j|^2 and conj(z_j) plus a constant, applied in one pass each. The
    means are taken with complex_mean and np.add.reduce, equal bit for bit
    to ndarray.mean at a fraction of its per-call cost.
    """
    c = params.coeffs
    eps = params.epsilon
    vsq = v * v
    re, im = v.real, v.imag
    abs2 = re * re
    abs2 += im * im
    m1 = complex_mean(v)
    msq = complex_mean(vsq)
    mabs = float(np.add.reduce(abs2)) / v.size
    out = np.multiply(abs2, v)  # |z|^2 z, then the uncoupled field in place
    mcube = complex_mean(out)
    m1c = m1.conjugate()
    m1sq = m1 * m1

    lin = params.lam + 1j * params.omega + eps * (
        c.a4 * mabs + c.a5 * (m1.real * m1.real + m1.imag * m1.imag))
    const = eps * (c.a_minus1 * m1 + c.a8 * mcube + c.a9 * msq * m1c
                   + c.a10 * m1 * mabs + c.a11 * m1sq * m1c)
    # (lin + a1 |z|^2) z, in that operand order
    np.multiply(c.a1, abs2, out=out)
    np.add(lin, out, out=out)
    np.multiply(out, v, out=out)
    out += np.multiply(eps * c.a2 * m1c, vsq, out=vsq)
    out += np.multiply(eps * c.a3 * m1, abs2, out=vsq)
    del vsq, abs2
    # not out=: from 2**14 elements numpy elides the np.conj temporary into
    # np.multiply(conj, s), and complex products differ by operand order
    out += (eps * (c.a6 * msq + c.a7 * m1sq)) * np.conj(v)
    out += const
    return out

