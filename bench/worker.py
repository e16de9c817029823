"""Run one benchmark workload once in this fresh interpreter and report it.

Usage: python3 bench/worker.py WORKLOAD SEED OUT_DIR RESULT_JSON [SPANS_JSONL]

``fracsrc`` must be importable (run.py puts the checkout's ``src`` on
``PYTHONPATH``).  The import is timed first, before anything else loads
numpy.  With SPANS_JSONL the run is traced and its spans are written there.
Writes a JSON result to RESULT_JSON and exits with the program's exit code.
"""

import time

_start = time.perf_counter()
import fracsrc  # noqa: E402

SETUP_S = time.perf_counter() - _start

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import PRESETS, WORKLOADS  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter since exec, in kB.

    VmHWM, not ru_maxrss: Linux carries the maximum RSS of the process image
    before exec (here the forking run.py) into ru_maxrss.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_cli(workload, seed: int, out_dir: Path) -> None:
    argv = [*workload.cli_args, "--master-seed", str(seed), "--out", str(out_dir)]
    code = fracsrc.cli.main(argv)  # looked up now, so a traced run sees the wrapper
    if code != 0:
        raise SystemExit(code)


def run_library(workload, seed: int) -> list:
    """Call run_sweep as a library user does; return one list of cells per sweep."""
    results = []
    for sweep in workload.sweeps:
        preset = PRESETS[sweep.preset]
        f_true = fracsrc.preset_source(preset["source"], fracsrc.TimeGrid(sweep.n, sweep.t_max))
        results.append(fracsrc.run_sweep(
            f_true, fracsrc.MediumParams(**preset["medium"]), preset["p"],
            sweep.eps, sweep.seeds, sweep.estimators, seed,
        ))
    return results


def main(argv: list[str]) -> int:
    name, seed, out_dir, result_path = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    workload = WORKLOADS[name]
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    if workload.cli_args is not None:
        run_cli(workload, seed, out_dir)
        sweeps = None
    else:
        sweeps = run_library(workload, seed)
    run_s = time.perf_counter() - start
    rss_kb = peak_rss_kb()

    result = {"fracsrc": fracsrc.__file__, "setup_s": SETUP_S, "run_s": run_s, "rss_kb": rss_kb}
    if sweeps is not None:
        result["rows"] = [
            [[r.epsilon, r.seed, r.filter, r.mu, r.delta, r.delta_max, r.rel_err]
             for cell in cells for r in cell.rows]
            for cells in sweeps
        ]
    if tracer is not None:
        layers = tracer.layer_metrics()
        files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
        layers["cli.files_written"] = len(files)
        layers["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        result["layers"] = layers
        tracer.write(spans_path)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
