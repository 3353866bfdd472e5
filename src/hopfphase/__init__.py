"""Coupled Hopf oscillators with permutation symmetry: normal form on C^N,
reduction to a phase model with three- and four-phase interactions, and
synchrony/two-cluster analysis."""

from .angles import TAU, wrap_angle
from .cluster import (ClusterCoefficients, ClusterConfig, PsiRoot,
                      RootScanResult, ab_coefficients,
                      alpha_polynomials, find_roots_batch, g_factored, g_raw,
                      polynomial_alpha_roots_batch, root_scans, sync_frequency,
                      sync_stability, two_cluster_H)
from .config import (ClusterScanSpec, ConfigError, InitialSpec, RunConfig,
                     initial_full_state, initial_phases, parse_config)
from .integrator import (AmplitudeCollapseError, ComparisonReport,
                         IntegrationError, Trajectory, TrajectoryTooLargeError,
                         compare, default_dt, extract_phases, integrate,
                         mean_winding_rate, trajectory_text, write_trajectory)
from .normal_form import (NormalFormCoefficients, SystemParams,
                          as_state_vector, coupling_field, equivariant_basis,
                          full_rhs_array, uncoupled_field)
from .phase_model import (as_phase_vector, moments, phase_rhs_fast,
                          phase_rhs_naive)
from .reduction import (HarmonicTerm, PhaseCouplingSet, ReductionConstants,
                        abc_constants, beta_gamma, build_coupling,
                        canonical_xi_chi, coupling_to_text, evaluate_harmonics,
                        limit_cycle, reduction_constants, xi_chi_lambda_split)

__all__ = [
    "TAU", "wrap_angle",
    "NormalFormCoefficients", "SystemParams", "as_state_vector",
    "equivariant_basis", "coupling_field", "uncoupled_field", "full_rhs_array",
    "ReductionConstants", "HarmonicTerm", "PhaseCouplingSet", "limit_cycle",
    "abc_constants", "reduction_constants", "beta_gamma", "build_coupling",
    "canonical_xi_chi", "xi_chi_lambda_split", "evaluate_harmonics",
    "coupling_to_text",
    "as_phase_vector", "moments", "phase_rhs_naive", "phase_rhs_fast",
    "Trajectory", "ComparisonReport", "IntegrationError",
    "AmplitudeCollapseError", "TrajectoryTooLargeError", "default_dt",
    "integrate", "extract_phases", "mean_winding_rate", "compare",
    "trajectory_text", "write_trajectory",
    "ClusterConfig", "ClusterCoefficients", "PsiRoot", "RootScanResult",
    "two_cluster_H", "g_raw", "ab_coefficients",
    "g_factored", "find_roots_batch", "sync_stability", "sync_frequency",
    "alpha_polynomials", "polynomial_alpha_roots_batch", "root_scans",
    "RunConfig", "InitialSpec", "ClusterScanSpec",
    "ConfigError", "parse_config", "initial_phases", "initial_full_state",
]
