"""Coupled Hopf oscillators with permutation symmetry: normal form on C^N,
reduction to a phase model with three- and four-phase interactions, and
synchrony/two-cluster analysis. The namespace is lazy (PEP 562): a public
name or submodule imports its defining module on first access, so a set-up
loads only the modules it calls, and a bare ``import hopfphase`` none."""
import importlib

# each defining module and the public names the package takes from it
_EXPORTS = {
    "angles": "TAU wrap_angle",
    "normal_form": "NormalFormCoefficients SystemParams as_state_vector "
                   "equivariant_basis coupling_field uncoupled_field full_rhs_array",
    "reduction": "ReductionConstants HarmonicTerm PhaseCouplingSet limit_cycle "
                 "abc_constants reduction_constants beta_gamma build_coupling "
                 "canonical_xi_chi xi_chi_lambda_split evaluate_harmonics "
                 "coupling_to_text with_delta",
    "phase_model": "as_phase_vector moments phase_rhs_naive phase_rhs_fast",
    "integrator": "Trajectory ComparisonReport IntegrationError "
                  "AmplitudeCollapseError TrajectoryTooLargeError integrate "
                  "extract_phases mean_winding_rate compare trajectory_text",
    "cluster": "ClusterConfig ClusterCoefficients PsiRoot RootScanResult "
               "two_cluster_H g_raw ab_coefficients g_factored find_roots_batch "
               "sync_stability sync_frequency alpha_polynomials "
               "polynomial_alpha_roots_batch root_scans",
    "config": "RunConfig InitialSpec ClusterScanSpec ConfigError parse_config "
              "default_dt initial_phases initial_full_state",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # the import binds the submodule in the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
