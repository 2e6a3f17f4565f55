"""Compile a rule file into a transducer file, in a process of its own.

    python3 perfbench/compile_worker.py RULES.mrl OUT.fst

Prints the seconds that the compile and its serialization took, and
the mean timing of the reference task (``speed.py``) probed before,
during and after it, which gives this process's speed.  Timed compiles
run through this script, as ``hindimorph compile`` runs in a process of
its own, so the compiler's garbage stays out of the process that times
the other phases.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from session import compile_rules  # noqa: E402  (needs src on the path)
from speed import TimerProbes  # noqa: E402

if __name__ == "__main__":
    rules_path, out_path = sys.argv[1:]
    with TimerProbes() as probes:
        blob, seconds, _ = compile_rules(Path(rules_path))
    Path(out_path).write_bytes(blob)
    reference = sum(probes.seconds) / len(probes.seconds)
    print(repr(seconds - probes.spent), repr(reference))
