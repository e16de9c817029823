"""Independent NumPy oracle for fracsrc sweeps, and the output checks built on it.

The oracle never imports fracsrc.  It recomputes every sweep from PAPER.md's
formulas and the README's conventions:

* ``xi_k = 2 pi fftfreq(n, dt)``; ``(i xi)^alpha`` on the branch
  ``|xi|^alpha (cos(alpha pi/2) + i sign(xi) sin(alpha pi/2))``;
* every multiplier takes its modulus on the Nyquist bin ``n/2``;
* cell ``(i_eps, seed)`` draws PCG64 ``normal(0, eps, n)`` from the integer
  seed ``SeedSequence(master, spawn_key=(i_eps, seed)).generate_state(1, uint64)``;
* ``delta = max(sqrt(dt sum eta^2), DELTA_FLOOR)``, ``delta_max = 1 + delta``
  and ``mu = (delta / delta_max)^(1/(p+2))``.

The transforms are batched over cells, so the oracle shares no code path with
the program's per-bin evaluation.
"""

from __future__ import annotations

import math
from itertools import product
from pathlib import Path

import numpy as np

from workloads import PRESETS

DELTA_FLOOR = 1e-20
# Relative tolerance of every comparison: about 1000 times the ~1.5e-12 drift
# expected from a batched rfft engine, and 1000 times below a 1e-6 error.
TOL = 1e-9

ERRORS_HEADER = "epsilon,seed,filter,mu,delta,delta_max,rel_err,theory_bound"
SUMMARY_ORDER = ("r1", "r2", "r3", "naive")


def _source(kind: str, t: np.ndarray) -> np.ndarray:
    if kind == "square":
        inside = (t >= 0.0) & (t <= 10.0)
        low = ((t >= 0.0) & (t < 2.5)) | ((t >= 5.0) & (t < 7.5))
        return np.where(low, -1.0, np.where(inside, 1.0, 0.0))
    return np.where((t >= 0.0) & (t <= 10.0), 6.51 * np.exp(-t), 0.0)


def _real_nyquist(multiplier: np.ndarray) -> np.ndarray:
    multiplier = multiplier.copy()
    half = multiplier.shape[-1] // 2
    multiplier[..., half] = np.abs(multiplier[..., half])
    return multiplier


def _attenuation(label: str, xi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    m2 = (mu * mu)[:, None]
    if label == "r1":
        return 1.0 / (1.0 + m2 * xi**2)
    if label == "r2":
        return 1.0 / (1.0 + m2 * xi**4)
    return np.exp(-m2 * xi**2 / 4.0)


class SweepOracle:
    """Expected rows and signals of one sweep at one master seed."""

    def __init__(self, sweep, master_seed: int) -> None:
        preset = PRESETS[sweep.preset]
        med = preset["medium"]
        n, dt = sweep.n, sweep.t_max / sweep.n
        self.sweep = sweep
        self.t = np.arange(n) * dt
        self.f = _source(preset["source"], self.t)
        xi = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
        half = 0.5 * med["alpha"] * math.pi
        z = med["nu"] + np.abs(xi) ** med["alpha"] * (
            math.cos(half) + 1j * np.sign(xi) * math.sin(half))
        h = (-med["beta"] + np.sqrt(med["beta"] ** 2 + 4.0 * med["omega"] * z)) / (2.0 * med["omega"])
        decay = 1.0 - np.exp(-h * med["x0"])
        lam = z / decay
        self.y = np.fft.ifft(_real_nyquist(decay / z) * np.fft.fft(self.f)).real

        self.cells = [(eps, seed) for eps in sweep.eps for seed in sweep.seeds]
        eta = np.zeros((len(self.cells), n))
        for row, ((i_eps, eps), seed) in enumerate(product(enumerate(sweep.eps), sweep.seeds)):
            if eps > 0.0:
                state = np.random.SeedSequence(master_seed, spawn_key=(i_eps, seed))
                rng = np.random.default_rng(int(state.generate_state(1, np.uint64)[0]))
                eta[row] = rng.normal(0.0, eps, n)
        self.y_noisy = self.y + eta
        delta = np.maximum(np.sqrt(dt * np.sum(eta * eta, axis=1)), DELTA_FLOOR)
        delta_max = 1.0 + delta
        mu = (delta / delta_max) ** (1.0 / (preset["p"] + 2.0))
        y_hat = np.fft.fft(self.y_noisy, axis=1)
        f_norm = np.sqrt(np.sum(self.f**2))

        self.estimates: dict[str, np.ndarray] = {}
        self.rows: dict[tuple, tuple] = {}
        for label in sweep.estimators:
            gain = lam[None, :] if label == "naive" else lam * _attenuation(label, xi, mu)
            est = np.fft.ifft(_real_nyquist(gain) * y_hat, axis=1).real
            self.estimates[label] = est
            rel = np.sqrt(np.sum((est - self.f) ** 2, axis=1)) / f_norm
            for c, (eps, seed) in enumerate(self.cells):
                self.rows[(eps, seed, label)] = (
                    None if label == "naive" else float(mu[c]),
                    float(delta[c]), float(delta_max[c]), float(rel[c]),
                )

    def signals(self, cell: int) -> np.ndarray:
        columns = [self.t, self.f, self.y, self.y_noisy[cell]]
        columns += [self.estimates[label][cell] for label in self.sweep.estimators]
        return np.column_stack(columns)


def _close(actual, expected) -> bool:
    if expected is None or actual is None:
        return actual is expected
    return abs(actual - expected) <= TOL * abs(expected)


def check_rows(rows: list, oracle: SweepOracle) -> str | None:
    """Compare (eps, seed, filter, mu, delta, delta_max, rel_err) rows with the oracle."""
    if len(rows) != len(oracle.rows):
        return f"{len(rows)} rows, expected {len(oracle.rows)}"
    seen = set()
    for eps, seed, label, *values in rows:
        key = (eps, seed, label)
        if key not in oracle.rows or key in seen:
            return f"unexpected or repeated row {key}"
        seen.add(key)
        for name, got, want in zip(("mu", "delta", "delta_max", "rel_err"), values, oracle.rows[key]):
            if not _close(got, want):
                return f"row {key}: {name} = {got!r}, oracle {want!r}"
    return None


def _float_or_none(text: str) -> float | None:
    return None if text == "" else float(text)


def check_cli_output(out_dir: Path, workload, master_seed: int) -> str | None:
    """Check the file set, headers, row counts and values of one CLI run."""
    (sweep,) = workload.sweeps
    oracle = SweepOracle(sweep, master_seed)
    signal_names = [f"signals_{eps:g}_{seed}.csv" for eps, seed in oracle.cells]
    expected = {"errors.csv", "summary.csv", *signal_names}
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != expected:
        return (f"file set differs: missing {sorted(expected - found)[:3]}, "
                f"unexpected {sorted(found - expected)[:3]}")

    lines = (out_dir / "errors.csv").read_text().splitlines()
    if not lines or lines[0] != ERRORS_HEADER:
        return f"errors.csv header {lines[:1]!r}"
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            return f"errors.csv row {line!r} has {len(fields)} fields"
        eps, seed, label, mu, delta, delta_max, rel_err, bound = fields
        if (bound == "") != (label == "naive"):
            return f"errors.csv row {line!r}: theory_bound must be empty exactly on naive rows"
        rows.append([float(eps), int(seed), label, _float_or_none(mu), float(delta),
                     float(delta_max), float(rel_err)])
    problem = check_rows(rows, oracle)
    if problem:
        return f"errors.csv: {problem}"

    labels = [label for label in SUMMARY_ORDER if label in sweep.estimators]
    lines = (out_dir / "summary.csv").read_text().splitlines()
    header = ",".join(["epsilon"] + [f"rel_err_{label}" for label in labels])
    if lines[:1] != [header] or len(lines) != len(sweep.eps) + 1:
        return f"summary.csv: header {lines[:1]!r} and {len(lines) - 1} rows"
    for eps, line in zip(sweep.eps, lines[1:]):
        got = [float(v) for v in line.split(",")]
        want = [eps] + [
            sum(oracle.rows[(eps, seed, label)][3] for seed in sweep.seeds) / len(sweep.seeds)
            for label in labels
        ]
        if len(got) != len(want) or not all(map(_close, got, want)):
            return f"summary.csv row {line!r}, oracle {want!r}"

    header = ",".join(["t", "f_true", "y", "y_noisy"] + [f"f_{label}" for label in sweep.estimators])
    for cell, name in enumerate(signal_names):
        path = out_dir / name
        with path.open() as fh:
            first = fh.readline().rstrip("\n")
        if first != header:
            return f"{name}: header {first!r}"
        got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        want = oracle.signals(cell)
        if got.shape != want.shape:
            return f"{name}: shape {got.shape}, expected {want.shape}"
        scale = np.max(np.abs(want), axis=0)
        if np.any(np.abs(got - want) > TOL * scale):
            return f"{name}: values differ from the oracle beyond {TOL:g} relative"
    return None


def check_library_rows(rows_per_sweep: list, workload, master_seed: int) -> str | None:
    """Check the rows a library workload returned, one list per sweep."""
    if len(rows_per_sweep) != len(workload.sweeps):
        return f"{len(rows_per_sweep)} sweeps returned, expected {len(workload.sweeps)}"
    for sweep, rows in zip(workload.sweeps, rows_per_sweep):
        problem = check_rows(rows, SweepOracle(sweep, master_seed))
        if problem:
            return f"preset {sweep.preset}: {problem}"
    return None

