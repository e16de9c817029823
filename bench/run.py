"""fracsrc benchmark: time one workload end to end, or trace it layer by layer.

    python3 bench/run.py --workload ex1-sweep --seed 12345 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's ``src``.  The load is closed-loop: one execution at a
time, each in a fresh interpreter, until ``--seconds`` have passed (at least
two executions, so the determinism check always has a pair).  Every
execution is checked: the first against the NumPy oracle in ``oracle.py``,
every later one for byte-identical output to the first.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` executions alternate untraced and traced, and the result
holds its per-layer metrics.  The last line of standard output is the JSON
result; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import NOMINAL_S, calibrate
from oracle import check_cli_output, check_library_rows
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
DEFAULT_SEED = 12345
CHILD_TIMEOUT_S = 120.0
# Printed beside the gated metrics, never gated: raw wall times, the reference
# kernel's time and the share of executions that failed.
EXTRA_UNITS = {"run_wall_s": "s", "setup_wall_s": "s", "cal_s": "s", "failed_frac": "share"}


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest(result: dict, out_dir: Path) -> str:
    """Hash of everything an execution produced: its files, or its rows."""
    h = hashlib.sha256()
    if "rows" in result:
        h.update(json.dumps(result["rows"]).encode())
    else:
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _check(workload, result: dict, out_dir: Path, seed: int) -> str | None:
    try:
        if workload.cli_args is None:
            return check_library_rows(result["rows"], workload, seed)
        return check_cli_output(out_dir, workload, seed)
    except (OSError, ValueError, KeyError) as exc:
        return f"output check could not read the output: {exc!r}"


class Session:
    """Executions of one workload at one seed, and their verdicts."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = SCRATCH / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.executions: list[dict] = []  # each: traced, cal_s, result or None, error or None
        self._reference: tuple[str, str | None] | None = None
        self._reference_counts: dict | None = None

    def warm_up(self) -> None:
        """Import once untimed, so bytecode is compiled and files are cached."""
        proc = subprocess.run(
            [sys.executable, "-c", "import fracsrc; print(fracsrc.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        location = Path(proc.stdout.strip() or ".").resolve()
        if proc.returncode != 0 or SRC not in location.parents:
            raise BenchError(f"cannot import fracsrc from {SRC}: {proc.stderr.strip()[-500:]}")
        self._cal_s = calibrate()

    def execute(self, traced: bool) -> dict:
        k = len(self.executions)
        out_dir = self.dir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = self.dir / f"result-{k}.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), self.workload.name,
               str(self.seed), str(out_dir), str(result_path)]
        if traced:
            cmd.append(str(self.dir / f"spans-{k}.jsonl"))
        entry = {"traced": traced, "cal_s": 0.0, "result": None, "error": None}
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            entry["error"] = f"timed out after {CHILD_TIMEOUT_S:g} s"
        else:
            if proc.returncode != 0:
                entry["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
            else:
                entry["result"] = json.loads(result_path.read_text())
                entry["error"] = self._verdict(entry["result"], out_dir)
        # The machine's speed around this execution: the reference kernel
        # timed just before it and just after it.
        cal_after = calibrate()
        entry["cal_s"] = (self._cal_s + cal_after) / 2.0
        self._cal_s = cal_after
        self.executions.append(entry)
        return entry

    def _verdict(self, result: dict, out_dir: Path) -> str | None:
        digest = _digest(result, out_dir)
        if self._reference is None:
            self._reference = (digest, _check(self.workload, result, out_dir, self.seed))
        elif digest != self._reference[0]:
            return "output differs from the first execution with the same seed"
        error = self._reference[1]
        counts = {k: v for k, v in result.get("layers", {}).items() if not k.endswith("_s")}
        if error is None and counts:
            if self._reference_counts is None:
                self._reference_counts = counts
            elif counts != self._reference_counts:
                return "per-layer counts differ between traced executions"
        return error

    def samples(self, key: str, traced: bool = False) -> list[float]:
        return [e["result"][key] for e in self.executions
                if e["traced"] is traced and e["error"] is None]

    def at_nominal_speed(self, key: str) -> list[float]:
        """Untraced times of ``key`` scaled by how fast the machine was around each."""
        return [e["result"][key] * NOMINAL_S / e["cal_s"] for e in self.executions
                if not e["traced"] and e["error"] is None]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Session:
    """Execute ``name`` in a closed loop for ``seconds``; return the session."""
    session = Session(WORKLOADS[name], seed)
    session.warm_up()
    deadline = time.monotonic() + seconds
    kinds = (False, True) if trace else (False,)
    while True:
        for traced in kinds:
            session.execute(traced)
        if time.monotonic() >= deadline and len(session.executions) >= 2 * len(kinds):
            break
    return session


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def end_to_end(session: Session) -> dict[str, dict]:
    rss = [kb / 1024.0 for kb in session.samples("rss_kb")]
    return {
        "setup_s": _stats(session.at_nominal_speed("setup_s")),
        "run_s": _stats(session.at_nominal_speed("run_s")),
        "setup_wall_s": _stats(session.samples("setup_s")),
        "run_wall_s": _stats(session.samples("run_s")),
        "cal_s": _stats([e["cal_s"] for e in session.executions]),
        # Mean, not median: VmHWM moves in whole kilobytes, and the median
        # of a handful of readings often repeats to the last digit.
        "peak_rss_mb": dict(_stats(rss), value=float(np.mean(rss))),
    }


def per_layer(session: Session) -> dict[str, dict]:
    traced = [e["result"]["layers"] for e in session.executions
              if e["traced"] and e["error"] is None]
    metrics = {name: _stats([layers[name] for layers in traced]) for name in traced[0]}
    for name, st in metrics.items():
        if not name.endswith("_s"):  # counts and ratios repeat exactly (checked)
            st["value"] = traced[0][name]
    untraced = statistics.median(session.samples("run_s"))
    overhead = [run_s - untraced for run_s in session.samples("run_s", traced=True)]
    metrics["trace_overhead_s"] = _stats(overhead)
    return metrics


def failed_frac(session: Session) -> float:
    return sum(e["error"] is not None for e in session.executions) / len(session.executions)


def format_table(name: str, metrics: dict[str, dict], units: dict[str, str]) -> list[str]:
    lines = [f"{name}: {'metric':<28} {'median':>14} {'unit':<6} {'n':>3} {'q1':>14} {'q3':>14}"]
    for metric, st in metrics.items():
        value = st.get("value", st["median"])
        lines.append(f"{name}: {metric:<28} {value:>14.6g} {units.get(metric, ''):<6} "
                     f"{st['n']:>3} {st['q1']:>14.6g} {st['q3']:>14.6g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed passed to the program (default 12345)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracsrc" / "__init__.py").is_file():
        print(f"error: no fracsrc sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        session = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not session.samples("run_s") or (args.trace and not session.samples("run_s", True)):
        for e in session.executions:
            print(f"execution failed: {e['error']}", file=sys.stderr)
        return 1
    measured = per_layer(session) if args.trace else end_to_end(session)
    failures = [e["error"] for e in session.executions if e["error"] is not None]

    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, failed_frac {failed_frac(session):.3g}")
    for line in format_table(args.workload, measured, {**EXTRA_UNITS, **units}):
        print(line)
    for error in dict.fromkeys(failures):
        print(f"FAILED: {error}")
    metrics = {
        m: {"value": measured[m].get("value", measured[m]["median"]), "unit": units[m]}
        for m in units
    }
    print(json.dumps({
        "correct": not failures,
        "attempted": len(session.executions),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
