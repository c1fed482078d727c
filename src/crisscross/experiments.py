"""Seeded replication harness and bootstrap.

An experiment sweeps one axis -- sample size, correlation, or the
misspecification study (quadratic selection simulated, linear
propensity fitted) -- and runs every requested method on the same
simulated datasets, replicate by replicate.  Replicate r at sweep index
s draws from the stream SeedSequence((base_seed, s, r)), so the whole
pipeline is a pure function of its configuration and reruns are
byte-identical.

Per (sweep point, method, parameter) the summary reports bias, SD, and
MSE across converged replicates plus, where a method provides one, the
average estimated standard error (so both readings of a dispersion
column -- SD of point estimates vs mean estimated SE -- are available).
Replicate failures are counted and excluded, never silently dropped: each
method is a row of ``model.ESTIMATORS``, the table the CLI runs too, whose
parameter names give every cell, so one whose every replicate failed
still reports n_converged = 0 and n_failed (bias, SD, MSE and mean SE None).

The optimal GEE takes its pilot coefficients from the medians of the
non-optimal fits across the replicates of the same sweep point (the CLI
passes none, so each fit uses its own plain-weight fit).  Where none of
those fits converged, every optimal GEE replicate there fails.

Odds ratios are reported at unit pair contrast throughout, from the row's
``log_or`` by ``or_from_theta`` as in the CLI.  A fit that does not
converge raises NumericalError in ``model.newton`` and counts as failed.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, CrissCrossError, DataError, NumericalError
from .model import ESTIMATORS, ObservedDataset, or_from_theta

if TYPE_CHECKING:
    from .simulate import BivariateNormalTarget

# The study's layers (simulate, pseudolik, gee, dataio) are imported by the
# functions that run them, so ``bootstrap`` alone loads none of them.

METHODS = ("pseudolik", "gee_nonoptimal", "gee_optimal")
SWEEPS = ("sample_size", "rho", "misspecification")


@dataclass(frozen=True)
class ExperimentConfig:
    sweep: str
    values: tuple
    methods: tuple = METHODS
    replicates: int = 100
    base_seed: int = 109
    n_total: int = 1000                 # sample size used by the rho sweep
    known: dict = field(default_factory=dict)   # e.g. {"alpha": "truth"} or a number
    threads: int = 1

    def __post_init__(self):
        if self.sweep not in SWEEPS:
            raise ConfigError(f"sweep must be one of {SWEEPS}")
        try:
            values, methods = tuple(self.values), tuple(self.methods)
            known = dict(self.known)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"values, methods and known must be collections: {exc}"
                              ) from exc
        if not all(_is_real(v) and math.isfinite(v) for v in values):
            raise ConfigError(f"values must be finite numbers, got {list(values)}")
        if self.sweep != "rho" and not all(float(v).is_integer() for v in values):
            raise ConfigError(f"sample sizes must be whole numbers, got {list(values)}")
        for name, low in (("replicates", 1), ("base_seed", 0), ("n_total", 1),
                          ("threads", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {v!r}")
        unknown = [m for m in methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}")
        for name, val in known.items():
            if name not in ("alpha", "beta"):
                raise ConfigError(f"cannot fix unknown coefficient {name!r}")
            if val != "truth" and not (_is_real(val) and math.isfinite(val)):
                raise ConfigError(f"known {name} must be \"truth\" or a finite number, "
                                  f"got {val!r}")
        from .simulate import check_rows_fit
        rows = (self.n_total if self.sweep == "rho"
                else max((int(v) for v in values), default=0))
        # a sweep point holds all of its replicate datasets at once
        check_rows_fit(self.replicates * rows, "replicates x sample size")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "known", known)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class SweepPoint:
    index: int
    label: str
    target: BivariateNormalTarget
    mechanism: object
    n_total: int
    truth: dict            # alpha, beta, theta, or
    sigma2: float
    known: dict            # resolved numeric known coefficients


def sweep_points(config: ExperimentConfig) -> list[SweepPoint]:
    from .simulate import MISSPECIFIED_MECHANISM, SECTION61_MECHANISM, SECTION61_TARGET
    points = []
    for i, v in enumerate(config.values):
        if config.sweep == "rho":
            target = replace(SECTION61_TARGET, rho=float(v))
            n_total = config.n_total
            label = f"rho={v:g}"
        else:
            target = SECTION61_TARGET
            n_total = int(v)
            label = f"N={n_total}"
        mechanism = (MISSPECIFIED_MECHANISM if config.sweep == "misspecification"
                     else SECTION61_MECHANISM)
        alpha, beta, s2 = target.conditional()
        theta = beta / s2
        truth = {"alpha": alpha, "beta": beta, "theta": theta,
                 "or": or_from_theta(theta, 0.0)[0]}
        known = {}
        for name, val in config.known.items():
            known[name] = truth[name] if val == "truth" else float(val)
        points.append(SweepPoint(index=i, label=label, target=target,
                                 mechanism=mechanism, n_total=n_total,
                                 truth=truth, sigma2=s2, known=known))
    return points


@dataclass(frozen=True)
class CellStats:                # the floats are None where no replicate converged
    bias: float | None
    sd: float | None
    mse: float | None
    mean_se: float | None
    n_converged: int
    n_failed: int


@dataclass(frozen=True)
class ReplicationSummary:
    config: ExperimentConfig
    truths: dict
    estimates: dict        # (label, method, param) -> np.ndarray
    stats: dict            # (label, method, param) -> CellStats
    failures: dict         # (label, method) -> failure count

    def stat(self, label, method, param, which):
        return getattr(self.stats[(label, method, param)], which)

    def tidy_records(self) -> list[dict]:
        rows = []
        for (label, method, param), cs in self.stats.items():
            for stat_name in ("bias", "sd", "mse", "mean_se", "n_converged", "n_failed"):
                val = getattr(cs, stat_name)
                if val is None:
                    continue
                rows.append({"sweep_point": label, "method": method,
                             "parameter": param, "statistic": stat_name,
                             "value": val})
        return rows


def _simulate_replicate(point: SweepPoint, base_seed: int, r: int):
    from .simulate import ScenarioConfig, simulate_dataset
    config = ScenarioConfig(point.target, point.mechanism, point.n_total,
                            seed=(base_seed, point.index, r))
    return simulate_dataset(config).observed


def _study_fit(row, options):
    """``row``'s fit as a study records it: (estimates, SEs), with the odds
    ratio "or" at unit pair contrast in place of "log_or"."""
    def fit(data):
        est, ses, _ = row.fit(data, options)
        if "log_or" in est:
            est["or"], or_se = or_from_theta(est.pop("log_or"), ses.get("log_or", 0.0))
            if ses.pop("log_or", None) is not None:
                ses["or"] = or_se
        return est, ses
    return fit


def run_experiment(config: ExperimentConfig) -> ReplicationSummary:
    points = sweep_points(config)
    estimates: dict = {}
    stats: dict = {}
    failures: dict = {}
    truths = {p.label: dict(p.truth) for p in points}
    runs_needed = set(config.methods)
    if "gee_optimal" in runs_needed:
        runs_needed.add("gee_nonoptimal")      # its fits give the pilot

    for point in points:
        datasets = _map_replicates(
            lambda r: _simulate_replicate(point, config.base_seed, r),
            config.replicates, config.threads)
        options = {"known": point.known, "sigma2": point.sigma2}
        runs: dict = {}
        for method in (m for m in METHODS if m in runs_needed):   # plain GEE first
            row = ESTIMATORS[method]
            fit = _study_fit(row, options)
            if method == "gee_optimal":
                pilot = _pilot_from(runs["gee_nonoptimal"][0], row.names(options))
                fit = _no_pilot if pilot is None else _study_fit(
                    row, {**options, "pilot": pilot})
            runs[method] = _collect(datasets, fit, config.threads)
            if method not in config.methods:
                continue
            est_list, se_list, n_failed = runs[method]
            failures[(point.label, method)] = n_failed
            for param in sorted("or" if n == "log_or" else n for n in row.names(options)):
                vals = np.array([e[param] for e in est_list if e and param in e])
                ses = [s.get(param) for e, s in zip(est_list, se_list)
                       if e and param in e]
                ses_arr = (np.array([s for s in ses if s is not None])
                           if any(s is not None for s in ses) else None)
                stats[(point.label, method, param)] = _cell_stats(
                    vals, ses_arr, point.truth[param], n_failed)
                estimates[(point.label, method, param)] = vals

    return ReplicationSummary(config=config, truths=truths, estimates=estimates,
                              stats=stats, failures=failures)


def _map_replicates(fn, replicates, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(replicates)))
    return [fn(r) for r in range(replicates)]


def _collect(datasets, fit, threads):
    def one(d):
        try:
            return fit(d)
        except CrissCrossError:
            return None, None

    results = _map_replicates(lambda r: one(datasets[r]), len(datasets), threads)
    est_list = [r[0] for r in results]
    se_list = [r[1] if r[1] is not None else {} for r in results]
    n_failed = sum(1 for e in est_list if e is None)
    return est_list, se_list, n_failed


def _no_pilot(data):
    raise NumericalError("no plain-weight GEE fit converged to pool a pilot from")


def _pilot_from(est_list, names):
    """Medians of the plain-weight fits' free coefficients, or None when no
    fit converged."""
    fitted = [e for e in est_list if e]
    if not fitted:
        return None
    return np.array([float(np.median([e[n] for e in fitted]))
                     for n in names if n != "log_or"])


def _cell_stats(vals, ses_arr, truth, n_failed) -> CellStats:
    n = len(vals)
    if n == 0:      # every replicate failed: the counts alone, never NaN
        return CellStats(None, None, None, None, 0, n_failed)
    mean = float(np.mean(vals))
    sd = float(np.std(vals, ddof=1)) if n > 1 else 0.0
    bias = mean - truth     # every parameter a row names has a truth
    mse = float(np.mean((vals - truth) ** 2))
    check = bias ** 2 + sd ** 2 * (n - 1) / n
    if abs(mse - check) > 1e-12 * max(1.0, abs(mse)):
        raise ConfigError("internal aggregation inconsistency")
    mean_se = float(np.mean(ses_arr)) if ses_arr is not None and len(ses_arr) else None
    return CellStats(bias=bias, sd=sd, mse=mse, mean_se=mean_se,
                     n_converged=n, n_failed=n_failed)


def write_summary(summary: ReplicationSummary, prefix) -> None:
    """Tidy CSV (sweep_point, method, parameter, statistic, value) + JSON."""
    from .dataio import open_out, save_report
    rows = summary.tidy_records()
    lines = ["sweep_point,method,parameter,statistic,value"]
    for row in sorted(rows, key=lambda r: (r["sweep_point"], r["method"],
                                           r["parameter"], r["statistic"])):
        lines.append("{sweep_point},{method},{parameter},{statistic},".format(**row)
                     + "%.17g" % row["value"])
    with open_out(f"{prefix}.csv") as out:
        out.write(("\n".join(lines) + "\n").encode("ascii"))
    payload = {
        "config": {
            "sweep": summary.config.sweep,
            "values": list(summary.config.values),
            "methods": list(summary.config.methods),
            "replicates": summary.config.replicates,
            "base_seed": summary.config.base_seed,
            "n_total": summary.config.n_total,
            "known": {k: v for k, v in summary.config.known.items()},
        },
        "truths": summary.truths,
        "cells": [
            {"sweep_point": label, "method": method, "parameter": param,
             "bias": cs.bias, "sd": cs.sd, "mse": cs.mse, "mean_se": cs.mean_se,
             "n_converged": cs.n_converged, "n_failed": cs.n_failed,
             "estimates": summary.estimates[(label, method, param)].tolist()}
            for (label, method, param), cs in sorted(summary.stats.items())
        ],
    }
    save_report(payload, f"{prefix}.json")


# --------------------------------------------------------------------- #
# bootstrap
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class BootstrapResult:
    se: dict               # parameter -> bootstrap SE
    n_failed: int
    n_resamples: int


def bootstrap(data: ObservedDataset, fit_fn, n_resamples: int, seed: int
              ) -> BootstrapResult:
    """Row resampling with replacement; SE = SD of resample estimates."""
    if n_resamples < 2:
        raise ConfigError("need at least 2 bootstrap resamples")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB00)))
    collected: dict = {}
    n_failed = 0
    for _ in range(n_resamples):
        idx = rng.integers(0, data.n_total, data.n_total)
        sample = ObservedDataset(data.x[idx], data.y[idx],
                                 data.r_x[idx], data.r_y[idx])
        try:
            est = fit_fn(sample)
        except CrissCrossError:
            n_failed += 1
            continue
        for k, v in est.items():
            collected.setdefault(k, []).append(float(v))
    if not collected or min(map(len, collected.values())) < 2:
        raise DataError(f"{n_failed} of {n_resamples} bootstrap resamples failed; "
                        "an SE needs at least 2 estimates per parameter")
    se = {k: float(np.std(np.array(v), ddof=1)) for k, v in collected.items()}
    return BootstrapResult(se=se, n_failed=n_failed, n_resamples=n_resamples)
