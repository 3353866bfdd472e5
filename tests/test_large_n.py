"""Both right-hand sides at N=10^5 against the small-N oracles.

A state made of N/8 copies of an 8-oscillator state has the same circular
moments and state-level means as the 8-oscillator state itself, so at every
component the O(N) right-hand sides must reproduce the N=8 oracle values:
phase_rhs_naive for the phase model, and uncoupled_field + epsilon *
coupling_field per component for the full model.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from hopfphase import (build_coupling, coupling_field, full_rhs_array,
                       limit_cycle, phase_rhs_fast, phase_rhs_naive,
                       uncoupled_field)

from conftest import make_rng, random_params

N_BIG = 100_000
COPIES = N_BIG // 8


def assert_close(got, want, rel=1e-10):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= rel * scale


def params_pair(seed):
    big = random_params(make_rng(seed), N_BIG, epsilon=0.5)
    return big, replace(big, n_osc=8)


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_phase_rhs_fast_replicated_state(seed):
    big, small = params_pair(seed)
    delta = 0.3
    phi8 = make_rng(seed + 100).uniform(0, 2 * math.pi, 8)
    want = np.tile(phase_rhs_naive(phi8, build_coupling(small, delta)), COPIES)
    got = phase_rhs_fast(np.tile(phi8, COPIES), build_coupling(big, delta))
    assert got.shape == (N_BIG,)
    assert_close(got, want)


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_full_rhs_array_replicated_state(seed):
    big, small = params_pair(seed)
    rng = make_rng(seed + 100)
    r_star = math.sqrt(limit_cycle(small)[0])
    z8 = (r_star * (1.0 + rng.uniform(-0.1, 0.1, 8))
          * np.exp(1j * rng.uniform(0, 2 * math.pi, 8)))
    want8 = np.array([uncoupled_field(z8[j], small)
                      + small.epsilon * coupling_field(np.roll(z8, -j), small.coeffs)
                      for j in range(8)])
    got = full_rhs_array(np.tile(z8, COPIES), big)
    assert got.shape == (N_BIG,)
    assert_close(got, np.tile(want8, COPIES))
