"""Benchmark command: run one workload and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-fabric --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds one traced operation and reports the per-layer
metrics instead (see ``perfbench/README.md``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
under test is imported from ``src/`` next to this directory; without it
the command exits with code 2 and prints no result.

``--update-reference`` rewrites ``reference.json`` from a seed-0 run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment variables that change what the program does; cleared so
#: every run measures the defaults.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_SIM_SCHEDULER", "REPRO_DEMO_FAULTS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, object]:
    import repro

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "repro": repro.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig6-fabric", "tsn-gated-line",
                                 "sweep-cells"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    for name in PINNED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {src}/repro package",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    outcome = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        work_dir=ROOT / ".perfbench",
        check_reference=not args.update_reference,
    )
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {}
    for name, unit in units.items():
        if name not in outcome.metrics:
            continue
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value in outcome.info.items():
        print(f"info {name} = {value:.6g}")
    print(f"failed_frac = {outcome.failed}/{outcome.attempted}")
    if args.update_reference:
        if args.seed != workloads.DEFAULT_SEED or outcome.failed:
            print("error: the reference needs a clean seed-0 run",
                  file=sys.stderr)
            return 1
        reference = workloads.load_reference()
        reference[args.workload] = {
            "seed": args.seed,
            "digest": outcome.digest,
            "events_executed": outcome.counts["events_executed"],
        }
        workloads.REFERENCE_PATH.write_text(
            json.dumps(reference, indent=2, sort_keys=True) + "\n"
        )
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
