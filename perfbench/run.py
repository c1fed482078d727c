"""The crisscross benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The run sets up its inputs three times
before and twice after its passes (``setup_s`` is the median of the five).
It repeats whole passes of the workload while the next pass is expected to
end within ``--seconds``; at least one pass always runs.  Every
operation's output is checked against ``reference.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run alternates untraced and traced passes, so the
tracing overhead is measured in the same run.  Details of every pass and
the environment go to ``.perfbench-out/<workload>/results-*.json``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CHILD = BENCH / "child.py"
RTOL = 1e-9
# set-ups before and after the measured passes; a slow phase of the host
# lasts seconds, so the two groups rarely both fall into one
SETUP_REPEATS = (3, 2)
OP_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "fits_per_s": "1/s", "estimate_s": "s",
                    "bootstrap_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# spans whose summed duration per pass is the per-layer metric "<span>.s"
TIMED_SPANS = (
    "pseudolik.build_pairs", "pseudolik.fit_pairwise", "pseudolik.variance_ustat",
    "pseudolik.fit_groupwise", "gee.fit_propensity", "gee.solve_gee",
    "gee.optimal_weights", "gee.sandwich_gee", "dataio.save_dataset",
    "dataio.load_dataset", "simulate.simulate_dataset", "experiments.bootstrap",
    "counterexample.verify_counterexample", "identify.build",
    "identify.sufficient_knowledge_search",
)
COUNTERS = {
    "pseudolik.pairs": "count", "pseudolik.groups": "count",
    "pseudolik.newton_iters": "count", "pseudolik.build_pairs.calls": "count",
    "pseudolik.variance_ustat.calls": "count", "pseudolik.peak_bytes": "B",
    "glm.fit_logistic.calls": "count", "glm.iterations": "count",
    "gee.iterations": "count", "dataio.rows": "count", "dataio.bytes": "B",
    "simulate.rows": "count", "experiments.bootstrap.resamples": "count",
}
DERIVED_UNITS = {
    "glm.converged_share": "share", "experiments.busy_share": "share",
    "pseudolik.busy_share": "share", "cli.start_s": "s",
    "trace.overhead_s": "s", "trace.uncovered_share": "share",
}
PER_LAYER_UNITS = {**{f"{k}.s": "s" for k in TIMED_SPANS}, **COUNTERS, **DERIVED_UNITS}


# --------------------------------------------------------------------- #
# running one operation
# --------------------------------------------------------------------- #

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, cwd, env, out_path, err_path):
    """Run ``cmd`` to completion; return (seconds, exit code, max RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_cli_op(op, work, env, rec):
    out, err = work / f"{op.name}.out", work / f"{op.name}.err"
    if rec is None:
        cmd = [sys.executable, "-m", "crisscross.cli", *op.argv]
    else:
        spans_path = work / f"{op.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), "cli", str(spans_path), *op.argv]
    seconds, code, rss = spawn(cmd, work, env, out, err)
    stderr = err.read_text(errors="replace")
    result = {"name": op.name, "kind": op.kind, "seconds": seconds,
              "exit": code, "rss_mb": rss, "stderr_tail": stderr[-2000:],
              "traceback": "Traceback (most recent call last)" in stderr}
    try:
        result["payload"] = json.loads(out.read_text())
    except ValueError:
        result["payload"] = None
    result["fits"] = op.fits(result["payload"]) if result["payload"] else 0
    if rec is not None and spans_path.exists():
        dump = json.loads(spans_path.read_text())
        spans = [tuple(s) for s in dump["spans"]]
        rec.spans.extend(spans)
        for name, value in dump["counters"].items():
            if name == "pseudolik.peak_bytes":
                rec.maximum(name, value)
            else:
                rec.add(name, value)
        result["layer_calls"] = _calls(spans, dump["counters"])
    return result


def run_inprocess_op(op, rec):
    first_span = len(rec.spans) if rec is not None else 0
    before = dict(rec.counters) if rec is not None else {}
    result = {"name": op.name, "kind": op.kind, "exit": 0, "traceback": False,
              "stderr_tail": ""}
    start = time.perf_counter()
    try:
        result["payload"] = op.fn()
    except Exception:     # an operation boundary: record it, keep running
        import traceback
        result.update(payload=None, exit=1, traceback=True,
                      stderr_tail=traceback.format_exc()[-2000:])
    result["seconds"] = time.perf_counter() - start
    result["fits"] = op.fits(result["payload"]) if result["payload"] else 0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        delta = {k: v - before.get(k, 0.0) for k, v in rec.counters.items()
                 if k != "pseudolik.peak_bytes"}
        result["layer_calls"] = _calls(rec.spans[first_span:], delta)
    return result


def _calls(spans, counters) -> dict:
    calls: dict = {}
    for s in spans:
        calls[f"{s[1]}.calls"] = calls.get(f"{s[1]}.calls", 0) + 1
    layers = {s[1].split(".")[0] for s in spans}
    for name in ("glm.iterations", "glm.converged", "gee.iterations",
                 "pseudolik.newton_iters", "pseudolik.pairs"):
        if name.split(".")[0] in layers:
            calls[name] = counters.get(name, 0.0)
    return dict(sorted(calls.items()))


def run_pass(ops, work, env, traced: bool) -> dict:
    rec = tracer.Recorder() if traced else None
    undo = None
    if traced and any(op.fn is not None for op in ops):
        undo = tracer.install(rec)
    start = time.perf_counter()
    try:
        results = [run_inprocess_op(op, rec) if op.fn is not None
                   else run_cli_op(op, work, env, rec) for op in ops]
    finally:
        end = time.perf_counter()
        if undo is not None:
            undo()
    return {"traced": traced, "start": start, "end": end, "wall": end - start,
            "ops": results, "recorder": rec}


# --------------------------------------------------------------------- #
# correctness gate
# --------------------------------------------------------------------- #

def compare(got, want, path="") -> list[str]:
    """Differences between an output and its reference (relative 1e-9)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare(g, w, f"{path}[{i}]")]
    number = (int, float)
    if isinstance(want, number) and not isinstance(want, bool):
        if (isinstance(got, number) and not isinstance(got, bool)
                and (abs(got - want) <= RTOL * max(abs(got), abs(want))
                     or (math.isnan(got) and math.isnan(want)))):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def not_converged(payload, path="") -> list[str]:
    found = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if k == "converged" and v is False:
                found.append(f"{path}.converged" if path else "converged")
            found += not_converged(v, f"{path}.{k}" if path else k)
    return found


def comparable(op, payload):
    return {k: v for k, v in payload.items() if k not in op.ignore}


def gate(op, result, reference) -> tuple[list[str], list[str]]:
    """(reasons the operation failed, reasons its output is wrong)."""
    wrong = []
    if result["exit"] != 0:
        wrong.append(f"exit code {result['exit']}")
    if result["traceback"]:
        wrong.append("traceback")
    payload = result["payload"]
    if payload is None:
        wrong.append("no JSON output")
        return wrong, wrong
    want = reference.get(op.key)
    if want is None:
        wrong.append(f"no stored reference for {op.key}")
    else:
        wrong += compare(comparable(op, payload), want, op.key)
    failed = wrong + [f"{p} is false" for p in not_converged(payload)]
    if payload.get("n_failed"):
        failed.append(f"n_failed = {payload['n_failed']}")
    return failed, wrong


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #

def pass_metrics(p, ops) -> dict:
    """End-to-end metrics of a pass.  ``estimate_s`` and ``bootstrap_s``
    are medians over the repeats of those commands within the pass."""
    results = p["ops"]

    def per_round(kind):
        sums: dict = {}
        for op, r in zip(ops, results):
            if op.kind == kind:
                sums[op.round] = sums.get(op.round, 0.0) + r["seconds"]
        return statistics.median(sums.values())

    return {
        "wall_s": p["wall"],
        "fits_per_s": sum(r["fits"] for r in results) / p["wall"],
        "estimate_s": per_round("estimate"),
        "bootstrap_s": per_round("bootstrap"),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def layer_metrics(p) -> dict:
    rec = p["recorder"]
    spans, counters = rec.spans, rec.counters
    seconds = tracer.durations(spans)
    out = {f"{name}.s": seconds.get(name, 0.0) for name in TIMED_SPANS}
    out.update({m: counters.get(m, 0.0) for m in COUNTERS})
    calls = counters.get("glm.fit_logistic.calls", 0.0)
    out["glm.converged_share"] = counters.get("glm.converged", 0.0) / calls if calls else 0.0
    busy, pair = tracer.busy_seconds(spans)
    out["experiments.busy_share"] = busy / (p["wall"] * workloads.THREADS)
    out["pseudolik.busy_share"] = pair / busy if busy else 0.0
    covered = tracer.covered_seconds(spans, p["start"], p["end"])
    out["trace.uncovered_share"] = 1.0 - covered / p["wall"]
    return out


# --------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------- #

def _openblas_threads():
    """OpenBLAS's own thread count, read through its C API (not changed)."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int, variant: int, mode: str) -> dict:
    import numpy
    import scipy
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "crisscross").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": _openblas_threads(),
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")},
        },
        "seed": seed,
        "variant": variant,
        "mode": mode,
        "threads": workloads.THREADS,
    }


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #

def setup(workload, variant, mode, work, env, repeats) -> list[float]:
    """Set up the inputs ``repeats`` times; return each wall time."""
    times = []
    for _ in range(repeats):
        seconds, code, _ = spawn(
            [sys.executable, str(CHILD), "setup", str(work), workload,
             str(variant), mode], ROOT, env, work / "setup.out", work / "setup.err")
        if code != 0:
            raise RuntimeError("set-up failed:\n"
                               + (work / "setup.err").read_text(errors="replace"))
        times.append(seconds)
    return times


def measure(ops, work, env, seconds, traced_run):
    """Closed loop of passes; a traced run alternates untraced and traced."""
    passes = []
    version_s = []
    start = time.perf_counter()
    while True:
        group_start = time.perf_counter()
        for traced in ((False, True) if traced_run else (False,)):
            passes.append(run_pass(ops, work, env, traced))
        if traced_run:
            t, _, _ = spawn([sys.executable, "-m", "crisscross.cli", "--version"],
                            work, env, work / "version.out", work / "version.err")
            version_s.append(t)
        now = time.perf_counter()
        if now - start + (now - group_start) > seconds:
            return passes, version_s


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, for checking the output format only")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crisscross" / "__init__.py").is_file():
        print(f"no crisscross sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crisscross  # noqa: F401  (the in-process study must not time the import)
    mode = "quick" if args.quick else "full"
    variant = workloads.variant_of(args.seed)
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    before, after = SETUP_REPEATS
    try:
        setup_times = setup(args.workload, variant, mode, work, env, before)
        reference = json.loads((BENCH / "reference.json").read_text())[mode]
        ops = workloads.operations(args.workload, variant, mode, repeat=not args.trace)
        passes, version_s = measure(ops, work, env, args.seconds, args.trace == 1)
        setup_times += setup(args.workload, variant, mode, work, env, after)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = failed = 0
    correct = True
    problems = []
    for i, p in enumerate(passes):
        for op, r in zip(ops, p["ops"]):
            why_failed, why_wrong = gate(op, r, reference)
            r["failed"], r["wrong"] = why_failed, why_wrong
            attempted += 1
            if why_failed:
                failed += 1
                problems.append(f"pass {i} {op.name}: {'; '.join(why_failed[:3])}")
            correct = correct and not why_wrong

    plain = [pass_metrics(p, ops) for p in passes if not p["traced"]]
    end_to_end = {m: statistics.median(pm[m] for pm in plain) for m in plain[0]}
    end_to_end["setup_s"] = statistics.median(setup_times)
    if args.trace:
        layered = [layer_metrics(p) for p in passes if p["traced"]]
        metrics = {m: statistics.median(lm[m] for lm in layered) for m in layered[0]}
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        metrics["trace.overhead_s"] = traced_wall - end_to_end["wall_s"]
        metrics["cli.start_s"] = statistics.median(version_s)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS

    env_block = environment(args.seed, variant, mode)
    report = {
        "environment": env_block,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "setup_s": setup_times,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "failed_share": {"failed": failed, "attempted": attempted},
        "problems": problems,
        "passes": [{"traced": p["traced"], "wall": p["wall"],
                    "ops": [{k: v for k, v in r.items() if k != "payload"}
                            for r in p["ops"]]} for p in passes],
    }
    (work / f"results-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print(f"# environment: {json.dumps(env_block)}")
    print(f"# {args.workload}: {len(plain)} untraced pass(es), "
          f"{len(passes) - len(plain)} traced, variant {variant} of seed {args.seed}")
    for name, value in end_to_end.items():
        print(f"{name:>40} {value:14.6g} {END_TO_END_UNITS[name]}")
    share = failed / attempted if attempted else 0.0
    print(f"{'failed_share':>40} {share:14.6g} share ({failed} of {attempted} operations)")
    for line in problems:
        print(f"# failed: {line}")
    if args.trace:
        for name in sorted(metrics):
            print(f"{name:>40} {metrics[name]:14.6g} {units[name]}")
        traced_pass = next(p for p in passes if p["traced"])
        for r in traced_pass["ops"]:
            print(f"# calls in {r['name']}: {json.dumps(r.get('layer_calls', {}))}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
