"""Repository benchmark: three closed-loop workloads, measured from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload`` is ``serve-hot``, ``plan-cold``, ``elastic-replay`` or
``all`` (each workload in its own process, one after another).  The run
generates its inputs from ``--seed``, replays a fixed op sequence sized by
``--seconds``, checks every output and prints a table, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones of a traced pass (plus the tracing overhead against
an untraced pass of the same ops), and the traced pass's spans are written
to ``perfbench/out/``.  The exit code is 1 when an output check fails and 2
when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-hot", "plan-cold", "elastic-replay")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {source}: {exc}", file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parent.parent != source:
        print(f"error: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return False
    return True


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not import_program():
        return 2
    from perfbench.report import measure, measure_layers

    if args.trace:
        result = measure_layers(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    for line in result.table:
        print(line)
    print(json.dumps(result.document()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
