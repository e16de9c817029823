"""Run every workload and print its end-to-end metrics in one table.

    python3 bench/report.py [--seed 12345] [--seconds 20]

Prints setup_s, run_s, peak_rss_mb and failed_frac for each workload, each
with its unit, sample count and quartiles.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from run import DEFAULT_SEED, EXTRA_UNITS, end_to_end, failed_frac, format_table, load_spec, run_workload
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    units.update(EXTRA_UNITS)
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()}, "
          f"seed {args.seed}, {args.seconds:g} s per workload")
    for name in WORKLOADS:
        session = run_workload(name, args.seed, args.seconds, trace=False)
        metrics = end_to_end(session) if session.samples("run_s") else {}
        frac = failed_frac(session)
        metrics["failed_frac"] = {"n": len(session.executions), "q1": frac, "median": frac, "q3": frac}
        for line in format_table(name, metrics, units):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
