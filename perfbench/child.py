"""Child-interpreter entry points of the benchmark.

    python3 perfbench/child.py setup WORKDIR WORKLOAD VARIANT MODE
        write the workload's input files (timed by the parent as setup_s)
    python3 perfbench/child.py cli SPANS_JSON ARG...
        run ``crisscross ARG...`` with every layer traced, then write the
        spans and counters to SPANS_JSON
"""

import json
import os
import sys
from pathlib import Path


def _setup(work, workload, variant, mode):
    import workloads
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(workload, int(variant), mode, work)
    return 0


def _traced_cli(spans_path, argv):
    import crisscross.cli
    import tracer
    rec = tracer.Recorder(id_prefix=f"{os.getpid()}-")
    tracer.install(rec)
    try:
        return rec.span("cli.main", crisscross.cli.main, argv)
    finally:
        Path(spans_path).write_text(json.dumps(rec.dump()), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(_setup(*sys.argv[2:6]))
    sys.exit(_traced_cli(sys.argv[2], sys.argv[3:]))
