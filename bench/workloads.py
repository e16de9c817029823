"""The benchmark's workloads, shared by run.py, the worker and the oracle.

Standard library only: the worker imports this module before it times
``import fracsrc``, so it must not pull numpy in ahead of that import.  Why
each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
TWENTY_SEEDS = tuple(range(20))
ESTIMATORS = ("naive", "r1", "r2", "r3")

# The README's preset table.  The oracle reads it from here, never from fracsrc.
PRESETS = {
    1: {
        "medium": {"omega": 0.1, "beta": 0.9, "nu": 1.0, "alpha": 0.9, "x0": 0.5},
        "source": "square",
        "p": 1.0,
    },
    2: {
        "medium": {"omega": 0.01, "beta": 0.5, "nu": 1.51, "alpha": 0.3, "x0": 10.0},
        "source": "exp",
        "p": 2.0,
    },
}


@dataclass(frozen=True)
class Sweep:
    """One (noise level) x (seed) sweep of a preset, as the program resolves it."""

    preset: int
    n: int
    eps: tuple[float, ...]
    seeds: tuple[int, ...]
    estimators: tuple[str, ...]  # a subset of ESTIMATORS, in that order
    t_max: float = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[Sweep, ...]
    # Arguments of ``fracsrc`` before ``--master-seed`` and ``--out``; None for
    # a library workload, which returns its rows in memory and writes no files.
    cli_args: tuple[str, ...] | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ex1-sweep",
            (Sweep(1, 256, DEFAULT_EPS, TWENTY_SEEDS, ("r1", "r2", "r3")),),
            ("run", "--example", "1"),
        ),
        Workload(
            "ex2-large",
            (Sweep(2, 65536, (0.1,), (0,), ESTIMATORS),),
            ("run", "--example", "2", "--n", "65536", "--eps", "0.1", "--seeds", "1",
             "--filters", "naive,r1,r2,r3"),
        ),
        Workload(
            "acceptance-sweeps",
            tuple(Sweep(preset, 256, DEFAULT_EPS, TWENTY_SEEDS, ESTIMATORS) for preset in (1, 2)),
            None,
        ),
    )
}
