"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the lines as the
criteria execute.  The benchmark sweeps (criteria 1-3, 7) share two
20-seed, five-noise-level runs built once per session.
"""

import cmath
import contextlib
import io
import math
import time

import numpy as np
import pytest

from fracsrc.cli import main, preset_source
from fracsrc.pipeline import run_cell, run_sweep, synthesize_data
from fracsrc.regularize import FilterKind, const_m, const_n, filter_factor_gap, filter_value
from fracsrc.spectral import TimeGrid, dft, hp_norm, l2_norm
from fracsrc.symbols import MediumParams, inverse_symbol, lambda_envelope

GRID = TimeGrid(256, 10.0)
EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
SEEDS = tuple(range(20))
ESTIMATORS = ("naive", "r1", "r2", "r3")
FILTERS = ("r1", "r2", "r3")
MASTER_SEED = 12345
KINDS = tuple(FilterKind)

EXAMPLES = {
    1: dict(
        params=MediumParams(omega=0.1, beta=0.9, nu=1.0, alpha=0.9, x0=0.5),
        source="square", p=1.0, nominal_r1_at_loudest=0.2275,
    ),
    2: dict(
        params=MediumParams(omega=0.01, beta=0.5, nu=1.51, alpha=0.3, x0=10.0),
        source="exp", p=2.0, nominal_r1_at_loudest=0.3200,
    ),
}


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def sweeps():
    results = {}
    for example, setup in EXAMPLES.items():
        f_true = preset_source(setup["source"], GRID)
        start = time.perf_counter()
        cells = run_sweep(
            f_true, setup["params"], setup["p"], EPS, SEEDS, ESTIMATORS, MASTER_SEED
        )
        elapsed = time.perf_counter() - start
        averages = {}
        per_seed = {}
        for eps in EPS:
            for label in ESTIMATORS:
                errs = [
                    row.rel_err
                    for cell in cells
                    for row in cell.rows
                    if cell.epsilon == eps and row.filter == label
                ]
                averages[(eps, label)] = float(np.mean(errs))
                per_seed[(eps, label)] = errs
        results[example] = dict(
            cells=cells, elapsed=elapsed, f_true=f_true, norm=l2_norm(f_true),
            averages=averages, per_seed=per_seed,
        )
    return results


def _trend_criterion(number, example, window, sweeps):
    data = sweeps[example]
    loudest = data["averages"][(EPS[0], "r1")]
    in_window = window[0] <= loudest <= window[1]
    monotone = True
    for label in FILTERS:
        column = [data["averages"][(eps, label)] for eps in EPS]
        if not all(b < a for a, b in zip(column, column[1:])):
            monotone = False
    fast = data["elapsed"] < 30.0
    ok = report(
        number,
        in_window and monotone and fast,
        f"example {example}: r1 at eps=1e-1 -> {loudest:.4f} "
        f"(window [{window[0]:.4f}, {window[1]:.4f}]), strictly decreasing columns: "
        f"{monotone}, sweep runtime {data['elapsed']:.1f}s < 30s: {fast}",
    )
    assert ok


def test_criterion_1_square_wave_trend(sweeps):
    nominal = EXAMPLES[1]["nominal_r1_at_loudest"]
    _trend_criterion(1, 1, (nominal / 3.0, nominal * 3.0), sweeps)


def test_criterion_2_exponential_trend(sweeps):
    nominal = EXAMPLES[2]["nominal_r1_at_loudest"]
    _trend_criterion(2, 2, (nominal / 3.0, nominal * 3.0), sweeps)


def test_criterion_3_regularization_beats_naive(sweeps):
    lines = []
    all_ok = True
    for example in (1, 2):
        data = sweeps[example]
        for eps in (1e-1, 1e-2):
            naive_errs = data["per_seed"][(eps, "naive")]
            for label in FILTERS:
                filt_errs = data["per_seed"][(eps, label)]
                mean_ok = np.mean(filt_errs) < np.mean(naive_errs)
                wins = sum(f < n for f, n in zip(filt_errs, naive_errs))
                ok = mean_ok and wins >= 18
                all_ok &= ok
                lines.append(
                    f"example {example} eps={eps:g} {label}: mean "
                    f"{np.mean(filt_errs):.4f} vs naive {np.mean(naive_errs):.4f}, "
                    f"wins {wins}/20 -> {'ok' if ok else 'VIOLATED'}"
                )
    detail = "; ".join(lines)
    report(3, all_ok, detail)
    assert all_ok, "filtered estimates do not beat the naive inversion everywhere:\n" + "\n".join(lines)


def test_criterion_4_round_trips():
    failures = []
    values = []
    for example, setup in EXAMPLES.items():
        f_true = preset_source(setup["source"], GRID)
        y = synthesize_data(f_true, setup["params"])
        c_bound = hp_norm(dft(f_true), setup["p"])
        cell = run_cell(
            f_true, y, setup["params"], setup["p"], 0.0, 0, 0, ESTIMATORS, c_bound
        )
        errors = {row.filter: row.rel_err for row in cell.rows}
        values.append(
            f"example {example}: naive {errors['naive']:.2e}, "
            + ", ".join(f"{label} {errors[label]:.2e}" for label in FILTERS)
        )
        if errors["naive"] >= 1e-6:
            failures.append(f"example {example} naive {errors['naive']:.2e} >= 1e-6")
        for label in FILTERS:
            if errors[label] >= 1e-3:
                failures.append(f"example {example} {label} {errors[label]:.2e} >= 1e-3")
    ok = report(4, not failures, "; ".join(values) + (
        "" if not failures else " | " + "; ".join(failures)))
    assert ok


def _peak_constant_violations():
    rho = np.logspace(-3, 6, 121)
    count = 0
    for alpha in [round(0.1 * k, 1) for k in range(1, 11)]:
        powers = rho**alpha
        for mu in (0.9, 0.5, 0.1, 0.01, 0.001):
            table = {
                FilterKind.RATIONAL2: powers / (1.0 + rho**2 * mu**2),
                FilterKind.RATIONAL4: powers / (1.0 + rho**4 * mu**2),
                FilterKind.GAUSSIAN: powers * np.exp(-(rho**2) * mu**2 / 4.0),
            }
            for kind in KINDS:
                bound = const_n(kind, alpha) / mu**2
                count += int(np.sum(table[kind] >= bound * (1.0 + 1e-12)))
    return count


def _random_params(count, seed):
    rng = np.random.default_rng(seed)
    return [
        MediumParams(
            omega=float(rng.uniform(0.01, 5.0)), beta=float(rng.uniform(0.01, 5.0)),
            nu=float(rng.uniform(0.01, 5.0)), alpha=float(rng.uniform(0.05, 1.0)),
            x0=float(rng.uniform(0.01, 5.0)),
        )
        for _ in range(count)
    ]


def _filter_sup_violations():
    xi_grid = np.concatenate([[0.0], np.logspace(-3, 6, 46), -np.logspace(-3, 6, 46)])
    count = 0
    for params in [EXAMPLES[1]["params"], EXAMPLES[2]["params"]] + _random_params(5, 101):
        for mu in (0.9, 0.5, 0.1, 0.01):
            for kind in KINDS:
                bound = const_m(kind, params.alpha, params)
                for xi in xi_grid:
                    value = mu * mu * abs(filter_value(kind, float(xi), mu, params))
                    count += int(value >= bound * (1.0 + 1e-12))
    return count


def _weighted_gap_violations():
    xi_grid = np.concatenate([[0.0], np.logspace(-3, 6, 46), -np.logspace(-3, 6, 46)])
    params = EXAMPLES[1]["params"]
    count = 0
    for p in (0.5, 1.0, 2.0, 3.0, 5.0):
        for mu in (0.9, 0.5, 0.1, 0.01, 0.001):
            cap = max(mu**p, mu**2, mu ** (p - 2.0))
            for kind in KINDS:
                for xi in xi_grid:
                    gap = filter_factor_gap(kind, float(xi), mu, p)
                    count += int(gap > cap * (1.0 + 1e-12))
    return count


def _auxiliary_violations():
    count = 0
    # bounded exponential-denominator function on (0, 50]
    x = np.concatenate(
        [np.logspace(-9, 0, 200, endpoint=False), np.linspace(1.0, 50.0, 4901)]
    )
    g = np.where(x < 1.0, x / (1.0 - np.exp(-x)), 1.0 / (1.0 - np.exp(-x)))
    count += int(np.sum(g >= 2.0))
    # complex inequalities for random draws with positive real part
    rng = np.random.default_rng(202)
    for _ in range(500):
        z = complex(rng.uniform(1e-3, 30.0), rng.uniform(-50.0, 50.0))
        lhs = abs(1.0 / (1.0 - cmath.exp(-z)))
        rhs = 1.0 / (1.0 - math.exp(-z.real))
        count += int(lhs > rhs * (1.0 + 1e-12))
        count += int(cmath.sqrt(z).real < math.sqrt(z.real) * (1.0 - 1e-12))
    return count


def _envelope_violations():
    xi_grid = np.concatenate([[0.0], np.logspace(-3, 6, 46), -np.logspace(-3, 6, 46)])
    count = 0
    for params in [EXAMPLES[1]["params"], EXAMPLES[2]["params"]] + _random_params(5, 303):
        for xi in xi_grid:
            lower, upper = lambda_envelope(float(xi), params)
            modulus = abs(inverse_symbol(float(xi), params))
            slack = 1e-12 * max(1.0, modulus)
            count += int(lower > modulus + slack)
            count += int(modulus > upper + slack)
    return count


def test_criterion_5_inequality_suites():
    violations = {
        "peak constants": _peak_constant_violations(),
        "filter sup": _filter_sup_violations(),
        "weighted gap": _weighted_gap_violations(),
        "auxiliary": _auxiliary_violations(),
        "envelope": _envelope_violations(),
    }
    ok = report(
        5,
        all(v == 0 for v in violations.values()),
        "violations " + ", ".join(f"{name}={v}" for name, v in violations.items()),
    )
    assert ok


def test_criterion_6_illposedness_slope():
    base = EXAMPLES[1]["params"]
    xi = np.logspace(2, 6, 200)
    log_xi = np.log(xi)
    details = []
    ok = True
    for alpha in (0.3, 0.6, 0.9, 1.0):
        params = MediumParams(
            omega=base.omega, beta=base.beta, nu=base.nu, alpha=alpha, x0=base.x0
        )
        moduli = np.array([abs(inverse_symbol(float(v), params)) for v in xi])
        slope = float(np.polyfit(log_xi, np.log(moduli), 1)[0])
        details.append(f"alpha={alpha}: slope {slope:.4f}")
        ok &= abs(slope - alpha) < 0.05
    ok = report(6, ok, "; ".join(details) + " (tolerance 0.05)")
    assert ok


def test_criterion_7_error_bound_certificate(sweeps):
    data = sweeps[2]
    norm = data["norm"]
    checked = 0
    violations = 0
    worst = 0.0
    for cell in data["cells"]:
        for row in cell.rows:
            if row.filter == "naive":
                continue
            checked += 1
            ratio = row.rel_err * norm / row.theory_bound
            worst = max(worst, ratio)
            violations += int(row.rel_err * norm > row.theory_bound)
    ok = report(
        7,
        checked >= 100 and violations == 0,
        f"{checked} filtered runs, {violations} bound violations, "
        f"worst error/bound ratio {worst:.3e}",
    )
    assert ok


def test_criterion_8_byte_identical_outputs(tmp_path):
    argv_base = [
        "run", "--example", "1", "--eps", "1e-1,1e-2", "--seeds", "5",
        "--filters", "naive,r1,r2,r3",
    ]
    first, second = tmp_path / "a", tmp_path / "b"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv_base + ["--out", str(first)]) == 0
        assert main(argv_base + ["--out", str(second)]) == 0
    identical = (first / "errors.csv").read_bytes() == (second / "errors.csv").read_bytes()
    ok = report(8, identical, "two identical invocations, errors.csv compared byte-wise")
    assert ok
