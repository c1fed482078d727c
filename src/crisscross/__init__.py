"""Criss-cross MNAR model: simulation of the full law, parametric
identifiability analysis over exponential families, and semiparametric
odds-ratio estimation via pairwise/groupwise pseudo-likelihood and
inverse-probability-weighted estimating equations.

The public names below are loaded on first use, so ``import crisscross``
imports no layer and a CLI command loads only the layers it runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigError", "CrissCrossError", "DataError", "DomainError",
               "NumericalError", "SeparationError"),
    "families": ("Family", "Link", "expit", "logit"),
    "model": ("ExpFamilySpec", "MissingnessMechanism", "ObservedDataset",
              "PairKernel", "TargetLawParams", "derive_conditional", "eval_q",
              "or_from_theta"),
    "simulate": ("Binary2x2Model", "BivariateNormalTarget", "ExpFamilyTarget",
                 "MISSPECIFIED_MECHANISM", "SECTION61_MECHANISM",
                 "SECTION61_TARGET", "ScenarioConfig", "SimulationResult",
                 "missingness_summary", "simulate_binary", "simulate_dataset"),
    "dataio": ("load_dataset", "save_dataset", "save_report"),
    "identify": ("CASE_STUDIES", "FullLawVerdict", "JacobianReport",
                 "build_jacobian", "case_study", "equation_stack",
                 "full_law_verdict", "numerical_rank",
                 "sufficient_knowledge_search"),
    "counterexample": ("CounterexampleReport", "verify_counterexample"),
    "pseudolik": ("PairDesign", "PseudoLikResult", "build_pairs", "fit_groupwise",
                  "fit_pairwise", "fit_pairwise_with_variance",
                  "groupwise_loglik", "variance_ustat"),
    "gee": ("Binary2x2", "Binary2x2Result", "GeeResult", "NonOptimalF",
            "NormalLinear", "OptimalF", "PropensityModel", "estimate_binary_2x2",
            "fit_propensity", "gee_residual", "optimal_f", "sandwich_gee",
            "solve_gee"),
    "aipw": ("AipwResult", "PermutationNuisance", "aipw_permutation",
             "fit_permutation_nuisances"),
    "experiments": ("BootstrapResult", "ExperimentConfig", "ReplicationSummary",
                    "bootstrap", "run_experiment", "sweep_points",
                    "write_summary"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the submodule on every access, never stored here: a name
    # patched on its submodule is then seen here too, and restored with it.
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
