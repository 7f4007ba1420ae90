"""Command line of the serve benchmark.

Run from the root of a checkout::

    python3 servebench/run.py --workload serve_hot --seed 7 --seconds 10 --trace 0

Prints every end-to-end metric with its unit, then, as the last line of
standard output, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  Exits 1 when any response, ledger row count
or replayed response is wrong, and 2 when the checkout has no
``src/repro`` to serve.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Ledger cache, scratch files and run records; ignored by git.
STATE_DIR = os.path.join(ROOT, ".servebench")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop the server children.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"servebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from servebench.bench import run_workload, summary, write_record
    from servebench.inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"servebench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result, record = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        src_dir=SRC,
        state_dir=STATE_DIR,
    )
    record_path = write_record(STATE_DIR, result, record)
    for line in summary(result, record):
        print(line)
    print(f"  run record: {record_path}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
