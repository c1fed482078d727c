"""Regenerate ``perfbench/reference.json`` from the current sources.

    python3 perfbench/make_reference.py [--mode full|quick]... [--workload NAME]...

Runs one untraced pass of every workload for every input variant and
stores each operation's output.  Only regenerate when the inputs of a
workload change, and from a commit whose outputs are trusted: the
benchmark's correctness gate compares against these values.
"""

import argparse
import json
import sys

import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", action="append", choices=("full", "quick"))
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="regenerate only these workloads' references")
    args = ap.parse_args()
    path = run.BENCH / "reference.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    for mode in args.mode or ("quick", "full"):
        ref: dict = {}
        for workload in args.workload or workloads.WORKLOADS:
            work = run.OUT / workload
            work.mkdir(parents=True, exist_ok=True)
            for variant in range(workloads.VARIANTS):
                ops = [op for op in workloads.operations(workload, variant, mode)
                       if op.key not in ref]
                if not ops:
                    continue
                workloads.write_inputs(workload, variant, mode, work)
                p = run.run_pass(ops, work, env, traced=False)
                for op, r in zip(ops, p["ops"]):
                    if r["exit"] != 0 or r["traceback"] or r["payload"] is None:
                        print(f"{op.key} failed:\n{r['stderr_tail']}", file=sys.stderr)
                        return 1
                    ref[op.key] = run.comparable(op, r["payload"])
                print(f"{mode} {workload} v{variant}: {p['wall']:.1f} s", flush=True)
        stored[mode] = {**stored.get(mode, {}), **ref}
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
