"""Run a workload's traced pass in a process of its own; print its exact counts.

    python3 perfbench/counts_worker.py WORKLOAD SEED WORKDIR GATE_DIR

WORKDIR is an empty directory for this process's files; GATE_DIR holds
the demo machine and the tagger model that a gate wrote.  The last line
of standard output is one JSON object: ``counts`` (call, outcome and
size counts), ``attempted``, ``failed`` and ``errors``.  A traced run
starts this script with another PYTHONHASHSEED than its own and
compares the counts with those of its own pass.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from session import Session  # noqa: E402  (needs src on the path)
from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir, gate_dir = sys.argv[1:]
    run = Session(name, int(seed), Path(workdir))
    run.prepare(Path(gate_dir))
    tracer = Tracer()
    tracer.install()
    try:
        _, sizes = run.fixed_pass(tracer)
    finally:
        tracer.uninstall()
    print(json.dumps({"counts": {**tracer.exact_counts(), **sizes},
                      "attempted": run.attempted, "failed": run.failed,
                      "errors": run.errors}))
