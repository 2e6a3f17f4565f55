"""Benchmark of hindimorph: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; only the standard library and the
checkout's ``src/`` are used.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``).  Lines before it list each metric with its unit
and sample count, the measured properties of the inputs, the times
before scaling to the reference speed and the probes of that speed
(see ``speed.py``).  Traced
runs also write their spans to ``.perfbench_out/``.  The exit status
is 1 when any output is wrong and 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("analyze_synth10k", "tag_mini")
# Metrics that are not times, and so are the same scaled or not.
UNSCALED_UNITS = ("nats", "ratio", "MiB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hindimorph" / "__init__.py").is_file():
        print(f"error: no hindimorph package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import session  # needs hindimorph on the path

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        run = session.Session(args.workload, args.seed, Path(tmp))
        try:
            run.prepare()
        except session.GateFailed as exc:
            print(f"error: README golden failed: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans_{args.workload}_seed{args.seed}.tsv"
            spans.unlink(missing_ok=True)
            metrics = {name: (value, unit, 1)
                       for name, (value, unit) in run.run_traced(spans).items()}
        else:
            run.run_timed(args.seconds)
            metrics = run.end_to_end()
            print("inputs " + json.dumps(run.input_properties(), ensure_ascii=False))
            print("unscaled " + json.dumps({name: value for name, (value, unit, _)
                                            in run.end_to_end(scaled=False).items()
                                            if unit not in UNSCALED_UNITS}))
            print("reference " + json.dumps(run.speed.summary()))
    for name, (value, unit, count) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit:12s} n={count}")
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
