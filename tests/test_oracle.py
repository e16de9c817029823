"""Random preset runs of the CLI against the benchmark's independent NumPy oracle.

``bench/oracle.py`` recomputes a sweep from the paper's formulas, with its
noise from NumPy's own ``SeedSequence`` and ``default_rng``; it is imported
unchanged.  Values are compared at the oracle's relative 1e-9 with an absolute
floor of 1e-14: on a zero noise level a naive ``rel_err`` is rounding residue
(about 1e-16), and a filtered one can be cancellation (r2 at ``mu`` about 2e-7
reads ``7.7417236574e-08`` against the oracle's ``...6825e-08``).
"""

import importlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsrc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
REL, ABS = 1e-9, 1e-14
ESTIMATORS = ("naive", "r1", "r2", "r3")


@pytest.fixture(scope="module")
def bench():
    """The ``oracle`` and ``workloads`` modules of ``bench/``, which import each other by name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("oracle"), importlib.import_module("workloads")


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= max(REL * abs(want), ABS)


def _mismatch(out: Path, sweep, oracle, master_seed: int) -> str | None:
    """The first difference between one run's files and the oracle's sweep, or None."""
    expected = oracle.SweepOracle(sweep, master_seed)
    names = [f"signals_{eps:g}_{seed}.csv" for eps, seed in expected.cells]
    if {path.name for path in out.iterdir()} != {"errors.csv", "summary.csv", *names}:
        return f"file set {sorted(path.name for path in out.iterdir())}"
    lines = (out / "errors.csv").read_text().splitlines()
    if lines[0] != oracle.ERRORS_HEADER or len(lines) - 1 != len(expected.rows):
        return f"errors.csv header {lines[0]!r} and {len(lines) - 1} rows"
    for line in lines[1:]:
        eps, seed, label, *values, bound = line.split(",")
        got = [None if v == "" else float(v) for v in values]
        want = expected.rows[(float(eps), int(seed), label)]
        if not all(map(_close, got, want)) or (bound == "") != (label == "naive"):
            return f"errors.csv row {line!r}, oracle {want!r}"
    labels = [label for label in oracle.SUMMARY_ORDER if label in sweep.estimators]
    for eps, line in zip(sweep.eps, (out / "summary.csv").read_text().splitlines()[1:]):
        want = [eps] + [sum(expected.rows[(eps, seed, label)][3] for seed in sweep.seeds)
                        / len(sweep.seeds)
                        for label in labels]
        if not all(map(_close, map(float, line.split(",")), want)):
            return f"summary.csv row {line!r}, oracle {want!r}"
    for cell, name in enumerate(names):
        got = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        want = expected.signals(cell)
        scale = np.max(np.abs(want), axis=0)
        if got.shape != want.shape or np.any(np.abs(got - want) > np.maximum(REL * scale, ABS)):
            return f"{name} differs from the oracle"
    return None


@st.composite
def _runs(draw):
    """(example, n, pad, levels, seed ids, estimators, master seed) of one preset run."""
    selected = draw(st.sets(st.sampled_from(ESTIMATORS), min_size=1))
    return (
        draw(st.sampled_from([1, 2])),
        draw(st.sampled_from([8, 16, 32, 64, 128, 256])),
        draw(st.sampled_from([1, 2, 4])),
        tuple(draw(st.lists(st.sampled_from([0.0, 1e-5, 1e-3, 0.01, 0.1, 0.5]),
                            min_size=1, max_size=3, unique=True))),
        tuple(draw(st.lists(st.one_of(st.integers(0, 50), st.integers(2**32, 2**70)),
                            min_size=1, max_size=3, unique=True))),
        tuple(label for label in ESTIMATORS if label in selected),  # the program's order
        draw(st.integers(0, 2**130)),
    )


@settings(max_examples=25, deadline=None)
@given(_runs())
def test_preset_runs_match_the_bench_oracle(bench, run):
    oracle, workloads = bench
    example, n, pad, eps, seeds, estimators, master_seed = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main([
            "run", "--example", str(example), "--n", str(n), "--pad", str(pad),
            "--eps", ",".join(map(repr, eps)), "--seeds", ",".join(map(str, seeds)) + ",",
            "--filters", ",".join(estimators), "--master-seed", str(master_seed),
            "--out", str(out),
        ])
        assert code == 0, run
        sweep = workloads.Sweep(example, n * pad, eps, seeds, estimators, t_max=10.0 * pad)
        assert _mismatch(out, sweep, oracle, master_seed) is None, run
