"""FastBench entry point.

    python3 fastbench/run.py --workload branchy --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Exits 2 without a result when the simulator sources
are missing.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse(argv, workloads):
    parser = argparse.ArgumentParser(prog="fastbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (self-tests: 0.1)")
    parser.add_argument("--rss-probe", action="store_true",
                        help="internal: one run, print outputs and peak RSS")
    return parser.parse_args(argv)


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.stderr.write("fastbench: simulator sources not found at %s\n"
                         % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(parse(sys.argv[1:], list(bench.WORKLOADS))))
