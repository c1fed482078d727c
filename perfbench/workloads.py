"""Workload definitions: the inputs each seed makes and the operations a pass runs.

A seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``), and
the reference values for every variant are stored in ``reference.json``,
so every output of every run is checked against a stored value.

Each workload is a closed loop with one client: an operation starts when
the previous one ends.  Every study and CLI call gets ``--threads 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

VARIANTS = 16
THREADS = 2

# Sizes per mode.  "quick" exists for the schema test and is not timed.
SIZES = {
    "full": {
        "study_values": (500, 1000, 2000, 4000), "study_replicates": 4,
        "study_boot_nc": 640, "study_boot_datasets": 4, "study_boot_resamples": 4,
        "pair_nc": 2180, "g3_nc": 100, "g4_nc": 36,
        "plboot_nc": 545, "plboot_resamples": 20,
        "readme_n": 100_000, "geeboot_resamples": 10, "identify_max": 3,
    },
    "quick": {
        "study_values": (200, 400), "study_replicates": 2,
        "study_boot_nc": 150, "study_boot_datasets": 2, "study_boot_resamples": 2,
        "pair_nc": 300, "g3_nc": 30, "g4_nc": 14,
        "plboot_nc": 100, "plboot_resamples": 4,
        "readme_n": 5000, "geeboot_resamples": 3, "identify_max": 2,
    },
}

WORKLOADS = ("study_misspec", "cli_pseudolik", "cli_no_pairs")

# The README's own dataset and bootstrap stream.  At 100k rows whether a
# glm fit stops at its 100-iteration cap (about 70x the cost of a normal
# fit) depends on the exact rows drawn, so a dataset drawn per seed would
# make this workload's cost bimodal across seeds.  The fixed README input
# shows the cap on every run.
README_SEED = 42
README_SIGMA2 = "8.19"


@dataclass
class Op:
    """One operation of a pass.

    ``argv`` runs ``crisscross <argv>`` in a child interpreter; ``fn`` runs
    in the benchmark process and returns a payload shaped like the CLI's
    JSON.  ``key`` names the inputs, and so the stored reference.
    """

    name: str
    kind: str                      # "estimate", "bootstrap" or "other"
    key: str
    argv: list | None = None
    fn: Callable | None = None
    ignore: tuple = ()             # payload keys not compared with the reference
    fits: Callable = field(default=lambda payload: 0)
    round: int = 0                 # which repeat of the command within a pass


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _pair_seed(kind: str, v: int) -> int:
    return {"pair": 11_000, "g3": 12_000, "g4": 13_000, "plboot": 14_000,
            "study": 7_000, "studyboot": 15_000}[kind] + v


# --------------------------------------------------------------------- #
# inputs written at set-up (child interpreter, timed as setup_s)
# --------------------------------------------------------------------- #

def _complete_prefix(cc, n_complete: int, seed: int, mechanism=None):
    """The shortest prefix of a draw from the Section 6.1 target (and
    selection, unless ``mechanism`` is given) with ``n_complete`` complete
    cases, so the pair count does not vary with the seed."""
    import numpy as np
    n = int(2.5 * n_complete) + 200
    data = cc.simulate_dataset(cc.ScenarioConfig(
        cc.SECTION61_TARGET, mechanism or cc.SECTION61_MECHANISM, n, seed)).observed
    rows = np.flatnonzero(data.complete_mask)
    if len(rows) < n_complete:
        raise RuntimeError(f"draw {seed} has only {len(rows)} complete cases")
    cut = rows[n_complete - 1] + 1
    return cc.ObservedDataset(data.x[:cut], data.y[:cut],
                              data.r_x[:cut], data.r_y[:cut])


def write_inputs(workload: str, variant: int, mode: str, work) -> None:
    """Write the input files of ``workload`` into the directory ``work``."""
    import crisscross as cc
    size = SIZES[mode]
    for stale in work.glob("*.csv"):
        stale.unlink()
    if workload == "cli_pseudolik":
        for kind, nc in (("pair", size["pair_nc"]), ("g3", size["g3_nc"]),
                         ("g4", size["g4_nc"]), ("plboot", size["plboot_nc"])):
            cc.save_dataset(_complete_prefix(cc, nc, _pair_seed(kind, variant)),
                            work / f"{kind}.csv")


# --------------------------------------------------------------------- #
# operations
# --------------------------------------------------------------------- #

def _one_fit(payload) -> int:
    return 1


def _resample_fits(payload) -> int:
    return payload["n_resamples"] - payload["n_failed"]


def _study(size, variant):
    def run():
        import crisscross as cc
        config = cc.ExperimentConfig(
            sweep="misspecification", values=size["study_values"],
            methods=("pseudolik", "gee_nonoptimal", "gee_optimal"),
            replicates=size["study_replicates"],
            base_seed=_pair_seed("study", variant), threads=THREADS)
        summary = cc.run_experiment(config)
        cells = {}
        for (label, method, param), cs in summary.stats.items():
            truth = summary.truths[label].get(param)
            # the mean estimate, not the bias, is what a relative
            # tolerance compares at the estimator's own scale
            cells[f"{label}/{method}/{param}"] = {
                "mean": cs.bias + truth, "sd": cs.sd, "mse": cs.mse,
                "mean_se": cs.mean_se, "n_converged": cs.n_converged}
        fits = sum(config.replicates - n for n in summary.failures.values())
        return {"cells": cells, "n_failed": sum(summary.failures.values()),
                "fits": fits}
    return run


def _study_bootstrap(size, variant):
    """Bootstrap the pairwise fit on several misspecified draws.

    Whether a resample's Newton fit takes 5 or 6 iterations depends mostly
    on the draw, so spreading the resamples over several draws keeps the
    cost from changing with the seed."""
    def run():
        import crisscross as cc
        ses, n_failed, n_resamples = [], 0, 0
        for k in range(size["study_boot_datasets"]):
            seed = _pair_seed("studyboot", variant) + 100 * k
            data = _complete_prefix(cc, size["study_boot_nc"], seed,
                                    cc.MISSPECIFIED_MECHANISM)
            boot = cc.bootstrap(
                data, lambda d: {"theta": cc.fit_pairwise(cc.build_pairs(d)).theta_hat},
                size["study_boot_resamples"], seed)
            ses.append(boot.se)
            n_failed += boot.n_failed
            n_resamples += boot.n_resamples
        return {"se": ses, "n_failed": n_failed, "n_resamples": n_resamples}
    return run


def operations(workload: str, variant: int, mode: str, repeat: bool = True) -> list[Op]:
    """The operations of one pass.

    With ``repeat``, a ``cli_no_pairs`` pass runs its two ``estimate``
    commands twice and its ``bootstrap`` three times.  Each is a capped
    100k-row glm fit of a few seconds, and a pass fills a run, so repeats
    are the only way to base ``estimate_s`` and ``bootstrap_s`` on more
    than one sample per run.  The commands are interleaved so that the
    samples of each are spread over the pass: a slow phase of the host
    lasts seconds.  A traced run passes ``repeat=False``: its passes come
    in pairs and must fit in a run.
    """
    size = SIZES[mode]
    t = ["--threads", str(THREADS)]
    v = f"v{variant}"
    if workload == "study_misspec":
        return [
            Op("study", "estimate", f"study/{v}", fn=_study(size, variant),
               ignore=("fits",), fits=lambda p: p["fits"]),
            Op("bootstrap_inprocess", "bootstrap", f"study_bootstrap/{v}",
               fn=_study_bootstrap(size, variant), fits=_resample_fits),
        ]
    if workload == "cli_pseudolik":
        solver = ("iterations",)
        return [
            Op("estimate_pairwise", "estimate", f"pair/{v}",
               ["estimate", "pair.csv", "--method", "pseudolik"] + t,
               ignore=solver, fits=_one_fit),
            Op("estimate_g3", "estimate", f"g3/{v}",
               ["estimate", "g3.csv", "--method", "pseudolik",
                "--group-size", "3"] + t, ignore=solver, fits=_one_fit),
            Op("estimate_g4", "estimate", f"g4/{v}",
               ["estimate", "g4.csv", "--method", "pseudolik",
                "--group-size", "4"] + t, ignore=solver, fits=_one_fit),
            Op("bootstrap_pseudolik", "bootstrap", f"plboot/{v}",
               ["bootstrap", "plboot.csv", "--method", "pseudolik",
                "--resamples", str(size["plboot_resamples"]),
                "--seed", str(variant)] + t, fits=_resample_fits),
        ]
    if workload == "cli_no_pairs":
        gee = ("iterations", "residual_norm")

        def tag(r):
            return f".{r + 1}" if r else ""

        def estimates(r):
            return [
                Op(f"estimate_gee{tag(r)}", "estimate", "readme/estimate_gee",
                   ["estimate", "data.csv", "--method", "gee"] + t,
                   ignore=gee, fits=_one_fit, round=r),
                Op(f"estimate_gee_optimal{tag(r)}", "estimate",
                   "readme/estimate_gee_optimal",
                   ["estimate", "data.csv", "--method", "gee", "--f", "optimal",
                    "--sigma2", README_SIGMA2] + t, ignore=gee, fits=_one_fit,
                   round=r),
            ]

        def bootstrap(r):
            return Op(f"bootstrap_gee{tag(r)}", "bootstrap", "readme/bootstrap_gee",
                      ["bootstrap", "data.csv", "--method", "gee",
                       "--resamples", str(size["geeboot_resamples"])] + t,
                      fits=_resample_fits, round=r)

        simulate = Op("simulate", "other", "readme/simulate",
                      ["simulate", "--n", str(size["readme_n"]),
                       "--seed", str(README_SEED), "--out", "data.csv"] + t)
        identify = Op("identify", "other", f"identify/{v}",
                      ["identify", "--case", "bivariate_normal", "--max-set-size",
                       str(size["identify_max"]), "--seed", str(variant)] + t)
        # the discrepancies are quadrature noise near 1e-17; the verdict
        # observed_laws_match is compared instead
        counterexample = Op("verify_counterexample", "other", "counterexample",
                            ["verify-counterexample"] + t,
                            ignore=("max_abs_discrepancy",))
        if not repeat:
            return [simulate, *estimates(0), bootstrap(0), identify, counterexample]
        (est, est_optimal), (est2, est_optimal2) = estimates(0), estimates(1)
        return [simulate, est, bootstrap(0), est_optimal, identify, bootstrap(1),
                est2, counterexample, est_optimal2, bootstrap(2)]
    raise ValueError(f"unknown workload {workload!r}")
