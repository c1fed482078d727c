"""Command-line interface.

Subcommands: simulate, identify, estimate, experiment,
verify-counterexample, bootstrap.  Exit codes: 0 success, 2 configuration
or domain error (ConfigError, DomainError), 3 data error (DataError), 4
numerical failure (NumericalError, SeparationError) or any other
CrissCrossError, 141 when stdout is closed before the output is written
(as for a process that SIGPIPE ends), with nothing on stderr.  An error
prints one line to stderr, never a traceback.

Every command prints its JSON through ``_emit``, which saves the same
report to ``--out`` (``simulate`` and ``experiment`` write their data there
instead).  An experiment config's keys are ``ExperimentConfig``'s fields.

``estimate`` and ``bootstrap`` run the row of ``model.ESTIMATORS`` that
``--method``, ``--theta11`` and ``--f`` pick; an option it does not read
exits 2.  The CLI gives the optimal GEE no pilot, so it uses its own
plain-weight fit (a study passes its pooled pilot instead).

Each handler imports the layers it runs when it runs, so a command loads
no layer it does not call (``--version`` loads none).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ConfigError, CrissCrossError, DataError, DomainError, NumericalError

if TYPE_CHECKING:
    from .model import ExpFamilySpec, MissingnessMechanism, TargetLawParams


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        args.handler(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: let the interpreter's last flush go to
        # devnull, and exit as a process that SIGPIPE ends would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CrissCrossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crisscross",
        description="Criss-cross MNAR model: simulation, identifiability, "
                    "and odds-ratio estimation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a dataset and write it as CSV")
    _common(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--rho", type=float, default=0.3)
    p.add_argument("--misspecified", action="store_true",
                   help="use the quadratic-in-x selection mechanism")
    p.add_argument("--binary", type=str, default=None, metavar="P11,P12,P21,P22",
                   help="simulate the 2x2 model with these cell probabilities")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("identify", help="Jacobian rank and sufficient knowledge sets")
    _common(p)
    p.add_argument("--case", type=str, default=None,
                   help="named case study (see --list-cases)")
    p.add_argument("--list-cases", action="store_true")
    p.add_argument("--max-set-size", type=int, default=2)
    p.set_defaults(handler=_cmd_identify)

    p = sub.add_parser("estimate", help="fit one method on a CSV dataset")
    _common(p, seed=False, config=False)
    _method(p)
    p.add_argument("--group-size", type=int, default=None,
                   help="pseudolik group size g: 2 (default), 3 or 4")
    p.add_argument("--f", choices=("nonoptimal", "optimal"), default=None,
                   help="GEE weight (default nonoptimal)")
    p.add_argument("--known", type=str, default=None, metavar="NAME=VALUE",
                   help="fix a mean-model coefficient, e.g. alpha=-1.4")
    p.add_argument("--sigma2", type=float, default=None,
                   help="known conditional variance of X|Y (optimal GEE, OR scale)")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a seeded replication study")
    _common(p)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("verify-counterexample",
                       help="check the two observed-equivalent full laws")
    _common(p, seed=False, config=False)
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("bootstrap", help="bootstrap SEs for one method")
    _common(p, config=False)
    _method(p)
    p.add_argument("--resamples", type=int, default=1000)
    p.set_defaults(handler=_cmd_bootstrap)

    return parser


def _common(p, seed=True, config=True):
    """--out and --threads on every command; --seed and --config only where
    the command reads them, so a flag it would ignore is a usage error."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    if config:
        p.add_argument("--config", type=str, default=None,
                       help="JSON configuration file")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for experiment replicates and bootstrap "
                        "resamples, with byte-identical output; other commands "
                        "ignore it (default 1)")


def _method(p):
    """The data file and the options that pick an estimator, on estimate and bootstrap."""
    p.add_argument("data", type=str, help="CSV file with header x,y,r_x,r_y")
    p.add_argument("--method", choices=("pseudolik", "gee"), required=True)
    p.add_argument("--theta11", type=float, default=None,
                   help="known cell p(X = 1, Y = 1): the binary 2x2 GEE workflow")


def _emit(payload, report=None) -> None:
    """Print a command's JSON, after saving it as the ``--out`` report."""
    if report:
        from .dataio import save_report
        save_report(payload, report)
    print(json.dumps(payload, indent=2, default=float))


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config JSON must be an object, got {type(cfg).__name__}")
    return cfg


@contextlib.contextmanager
def _config_entries(command: str):
    """A missing key or an entry of the wrong type, form or length in
    ``command``'s JSON config is a ConfigError, not a traceback."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{command} config missing key {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {command} config entry: {exc}") from None


def _mechanism(cfg: dict, misspecified: bool) -> MissingnessMechanism:
    from .model import MissingnessMechanism
    from .simulate import MISSPECIFIED_MECHANISM, SECTION61_MECHANISM
    if "mechanism" in cfg:
        m = cfg["mechanism"]
        return MissingnessMechanism(tuple(m["rx_given_y"]), tuple(m["ry_given_x_rx"]))
    return MISSPECIFIED_MECHANISM if misspecified else SECTION61_MECHANISM


def _cmd_simulate(args):
    from .simulate import (Binary2x2Model, BivariateNormalTarget, ScenarioConfig,
                           missingness_summary, simulate_dataset)
    cfg = _load_config(args)
    with _config_entries("simulate"):
        mech = _mechanism(cfg, args.misspecified)
        if not args.binary:
            target = BivariateNormalTarget(**cfg.get("target", {"rho": args.rho}))
            target.conditional()        # its domain checks, before any draw
    if args.binary:
        try:
            cells = [float(v) for v in args.binary.split(",")]
        except ValueError:
            cells = []
        if len(cells) != 4:
            raise ConfigError("--binary needs four comma-separated numbers")
        target = Binary2x2Model(*cells)
    sim = simulate_dataset(ScenarioConfig(target, mech, args.n, args.seed))
    summary = missingness_summary(sim.observed)
    if args.out:
        from .dataio import save_dataset
        save_dataset(sim.observed, args.out)
    _emit({
        "n_total": sim.observed.n_total,
        "n_complete": sim.observed.n_complete,
        "pattern_counts": list(summary.counts),
        "pattern_frequencies": summary.frequencies.tolist(),
        "written_to": args.out,
    })


def _params_from_config(cfg: dict) -> tuple[ExpFamilySpec, TargetLawParams]:
    from .model import ExpFamilySpec, TargetLawParams
    spec = ExpFamilySpec(cfg["family_x"], cfg["family_y_given_x"],
                         cfg.get("link", "canonical"),
                         cfg.get("known_nuisance", {}))
    t = cfg["theta"]
    params = TargetLawParams(
        alpha=t["alpha"], beta=t["beta"], phi=t.get("phi", 1.0),
        eta_x=t["eta_x"], phi_x=t.get("phi_x", 1.0),
        mu_x=t.get("mu_x"), sigma_x=t.get("sigma_x"))
    return spec, params


def _cmd_identify(args):
    from .identify import (CASE_STUDIES, build_jacobian, case_study,
                           full_law_verdict, sufficient_knowledge_search)
    if args.list_cases:
        _emit({name: c.summary for name, c in CASE_STUDIES.items()}, args.out)
        return
    cfg = _load_config(args)
    if args.case is None and not cfg:
        raise ConfigError("identify needs --case or a --config file")
    with _config_entries("identify"):
        if args.case is not None or "case" in cfg:
            case = case_study(args.case or cfg["case"])
            theta = cfg.get("theta")
            if theta is None:
                theta = case.random_theta(np.random.default_rng(args.seed))
            support = cfg.get("support_points", case.default_support)
            report = case.build(theta, support)
            spec = case.spec
        else:
            spec, params = _params_from_config(cfg)
            support = cfg.get("support_points")
            if support is None:
                raise ConfigError("generic identify configs need support_points")
            report = build_jacobian(spec, params, support)
    verdict = full_law_verdict(spec)
    report = sufficient_knowledge_search(report, args.max_set_size)
    _emit({
        "param_names": list(report.param_names),
        "j_matrix": report.j_matrix.tolist(),
        "singular_values": report.singular_values.tolist(),
        "numerical_rank": report.numerical_rank,
        "full_rank": report.full_rank,
        "n_equations": report.n_equations,
        "k": report.k,
        "dim_theta": report.dim_theta,
        "sufficient_sets": [list(s) for s in report.sufficient_sets],
        "full_law": {
            "exp_family_conditional": verdict.exp_family_conditional,
            "completeness_holds": verdict.completeness_holds,
            "notes": verdict.notes,
        },
    }, args.out)


def _parse_known(spec: str | None) -> dict:
    if not spec:
        return {}
    name, _, value = spec.partition("=")
    name = name.strip()
    if name not in ("alpha", "beta"):
        raise ConfigError("--known expects alpha=VALUE or beta=VALUE")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"--known value {value!r} is not a number") from None
    if not math.isfinite(number):
        raise DomainError(f"--known value must be finite, got {value!r}")
    return {name: number}


def _estimator(args):
    """The estimator row the options pick, and the options given (each
    defaults to None); one the row does not read is a ConfigError."""
    from .model import ESTIMATORS
    given = {name: getattr(args, name) for name in
             ("group_size", "f", "known", "sigma2", "theta11")
             if getattr(args, name, None) is not None}
    method = ("pseudolik" if args.method == "pseudolik"
              else "binary_2x2" if "theta11" in given
              else "gee_" + given.get("f", "nonoptimal"))
    row = ESTIMATORS[method]
    unread = [name for name in given if name not in row.options]
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise ConfigError(f"the {method} fit does not read {flags}")
    if "known" in given:
        given["known"] = _parse_known(given["known"])
    sigma2 = given.get("sigma2")
    if sigma2 is not None and not 0 < sigma2 < math.inf:
        raise DomainError(f"--sigma2 must be positive and finite, got {sigma2!r}")
    return row, given


def _cmd_estimate(args):
    row, options = _estimator(args)
    from .dataio import load_dataset
    data = load_dataset(args.data)
    _, _, report = row.fit(data, options)
    _emit({"n_total": data.n_total, "n_complete": data.n_complete, **report}, args.out)


def _cmd_experiment(args):
    from .experiments import ExperimentConfig, run_experiment, write_summary
    cfg = _load_config(args)
    if not cfg:
        raise ConfigError("experiment needs a --config JSON file")
    with _config_entries("experiment"):   # an unknown key is a TypeError
        config = ExperimentConfig(**{"base_seed": args.seed, **cfg},
                                  threads=args.threads)
    if args.out:    # a path it cannot write fails before the study, not after
        from .dataio import check_out
        check_out(f"{args.out}.csv", f"{args.out}.json")
    summary = run_experiment(config)
    if args.out:
        write_summary(summary, args.out)
    _emit(summary.tidy_records())


def _cmd_counterexample(args):
    from .counterexample import verify_counterexample
    report = verify_counterexample(step=args.step)
    _emit({
        "max_abs_discrepancy": report.max_abs_discrepancy,
        "target_law_variances": list(report.target_law_variances),
        "observed_laws_match": report.observed_laws_match,
        "grid": list(report.grid),
    }, args.out)


def _cmd_bootstrap(args):
    row, options = _estimator(args)
    from .dataio import load_dataset
    from .experiments import bootstrap
    data = load_dataset(args.data)
    boot = bootstrap(data, lambda d: row.fit(d, options, point_only=True)[0],
                     args.resamples, args.seed, threads=args.threads)
    _emit({"se": boot.se, "n_failed": boot.n_failed,
           "n_resamples": boot.n_resamples}, args.out)


if __name__ == "__main__":
    sys.exit(main())
