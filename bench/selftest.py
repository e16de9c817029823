"""Self-test of the benchmark's output check.

    python3 bench/selftest.py [--seed 12345]

Runs ex1-sweep and acceptance-sweeps once each, requires the check to accept
the program's real output, then plants faults in copies of it and requires
the check to reject every one: a rel_err changed by 1e-6 relative, a missing
signals file, and the r1 and r2 labels swapped.  Exits 0 when all hold.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from oracle import check_cli_output, check_library_rows
from run import DEFAULT_SEED, Session
from workloads import WORKLOADS

SWAP = {"r1": "r2", "r2": "r1"}


def _nudge(text: str) -> str:
    return f"{float(text) * (1.0 + 1e-6):.17g}"


def _edit_errors(out_dir: Path, edit) -> None:
    path = out_dir / "errors.csv"
    header, *rows = path.read_text().splitlines()
    rows = [",".join(edit(i, row.split(","))) for i, row in enumerate(rows)]
    path.write_text("\n".join([header, *rows]) + "\n")


def _nudge_first_rel_err(out_dir: Path) -> None:
    _edit_errors(out_dir, lambda i, f: f[:6] + [_nudge(f[6])] + f[7:] if i == 0 else f)


def _drop_a_signals_file(out_dir: Path) -> None:
    min(out_dir.glob("signals_*.csv")).unlink()


def _swap_r1_r2(out_dir: Path) -> None:
    _edit_errors(out_dir, lambda i, f: f[:2] + [SWAP.get(f[2], f[2])] + f[3:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seed = parser.parse_args(argv).seed
    verdicts = []

    cli = Session(WORKLOADS["ex1-sweep"], seed)
    cli.warm_up()
    entry = cli.execute(traced=False)
    verdicts.append(("ex1-sweep real output accepted", entry["error"] is None, entry["error"]))
    for label, plant in (
        ("rel_err changed by 1e-6", _nudge_first_rel_err),
        ("signals file missing", _drop_a_signals_file),
        ("r1 and r2 swapped", _swap_r1_r2),
    ):
        copy = cli.dir / label.replace(" ", "-")
        shutil.copytree(cli.dir / "out", copy)
        plant(copy)
        problem = check_cli_output(copy, cli.workload, seed)
        verdicts.append((f"ex1-sweep {label} rejected", problem is not None, problem))

    lib = Session(WORKLOADS["acceptance-sweeps"], seed)
    lib.warm_up()
    entry = lib.execute(traced=False)
    verdicts.append(("acceptance-sweeps real rows accepted", entry["error"] is None, entry["error"]))
    rows = entry["result"]["rows"] if entry["result"] else [[]]
    nudged = [[r[:6] + [r[6] * (1.0 + 1e-6)] if i == 0 else r for i, r in enumerate(rows[0])],
              *rows[1:]]
    swapped = [[r[:2] + [SWAP.get(r[2], r[2])] + r[3:] for r in sweep] for sweep in rows]
    for label, planted in (("rel_err changed by 1e-6", nudged), ("r1 and r2 swapped", swapped)):
        problem = check_library_rows(planted, lib.workload, seed)
        verdicts.append((f"acceptance-sweeps {label} rejected", problem is not None, problem))

    for label, ok, detail in verdicts:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return 0 if all(ok for _, ok, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
