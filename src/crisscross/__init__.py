"""Criss-cross MNAR model: simulation of the full law, parametric
identifiability analysis over exponential families, and semiparametric
odds-ratio estimation via pairwise/groupwise pseudo-likelihood and
inverse-probability-weighted estimating equations."""

__version__ = "0.1.0"

from .errors import (ConfigError, CrissCrossError, DataError, DomainError,
                     NumericalError, SeparationError)
from .families import Family, Link, expit, logit
from .model import (ExpFamilySpec, MissingnessMechanism, ObservedDataset,
                    PairKernel, TargetLawParams, derive_conditional, eval_q,
                    or_from_theta)
from .simulate import (Binary2x2Model, BivariateNormalTarget, ExpFamilyTarget,
                       MISSPECIFIED_MECHANISM, SECTION61_MECHANISM,
                       SECTION61_TARGET, ScenarioConfig, SimulationResult,
                       missingness_summary, simulate_binary, simulate_dataset)
from .dataio import load_dataset, save_dataset, save_report
from .identify import (CASE_STUDIES, FullLawVerdict, JacobianReport,
                       build_jacobian, case_study, equation_stack,
                       full_law_verdict, numerical_rank,
                       sufficient_knowledge_search)
from .counterexample import CounterexampleReport, verify_counterexample
from .pseudolik import (PairDesign, PseudoLikResult, build_pairs, fit_groupwise,
                        fit_pairwise, fit_pairwise_with_variance,
                        groupwise_loglik, variance_ustat)
from .gee import (Binary2x2, Binary2x2Result, GeeResult, NonOptimalF,
                  NormalLinear, OptimalF, PropensityModel, estimate_binary_2x2,
                  fit_propensity, gee_residual, optimal_f, sandwich_gee,
                  solve_gee)
from .aipw import (AipwResult, PermutationNuisance, aipw_permutation,
                   fit_permutation_nuisances)
from .experiments import (BootstrapResult, ExperimentConfig, ReplicationSummary,
                          bootstrap, run_experiment, sweep_points, write_summary)
