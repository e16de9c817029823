"""End-to-end experiment path: synthesize, perturb, invert, score.

A cell of the experiment sweep is one noise level and one seed.  Within a
cell the same noisy measurement is inverted several ways (plain inverse
multiplier plus the selected filters) so that per-seed comparisons are
paired.  Noise streams come from ``numpy.random.default_rng`` (PCG64) seeded
with an integer derived deterministically from ``(master_seed, noise-level
index, seed identifier)`` via ``numpy.random.SeedSequence``; results are
therefore bit-reproducible regardless of execution order.

The multiplier tables (``Lambda`` and ``G(x0, .)`` on the grid's bins) depend
only on the medium and the grid, so they are sampled once per
``(MediumParams, TimeGrid)`` pair and shared, read-only, by every cell and
estimator; each filter table is ``Lambda`` times its real attenuation.

Noise-free runs substitute the stand-in level ``DELTA_FLOOR`` for the
realized zero so the parameter rule stays defined; the value is small enough
that every filter family's attenuation is negligible across any admissible
grid, making the regularized path consistent with the exact inversion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .regularize import FilterKind, RegParams, attenuation, choose_mu, error_bound
from .spectral import (
    RealSignal,
    TimeGrid,
    apply_multiplier,
    dft,
    hp_norm,
    idft,
    l2_norm,
    multiplier_values,
)
from .symbols import MediumParams, symbol_tables

__all__ = [
    "DELTA_FLOOR",
    "NoiseSpec",
    "ErrorRow",
    "CellResult",
    "synthesize_data",
    "add_noise",
    "invert_naive",
    "invert_regularized",
    "relative_error",
    "delta_max_rule",
    "cell_seed",
    "run_cell",
    "run_sweep",
]

# Stand-in noise level for noise-free runs.  With mu = DELTA_FLOOR^(1/(p+2))
# the quartic filter, the widest of the three, attenuates the extreme bin of
# a 256-point window on [0, 10] by less than 1e-5.
DELTA_FLOOR = 1e-20

# naive first, then the filters, mirroring the output column order
ESTIMATOR_LABELS = ("naive",) + tuple(kind.value for kind in FilterKind)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample Gaussian noise: standard deviation and RNG seed."""

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be a nonnegative finite real, got {self.sigma!r}")


@dataclass(frozen=True)
class ErrorRow:
    """One scored inversion: (noise level, seed, estimator) -> errors."""

    epsilon: float
    seed: int
    filter: str
    mu: float | None
    delta: float
    delta_max: float
    rel_err: float
    theory_bound: float | None


@dataclass(frozen=True)
class CellResult:
    """All inversions of one noisy measurement, plus the signals themselves.

    ``y`` is the exact measurement, shared by every cell of a sweep.
    """

    epsilon: float
    seed: int
    rng_seed: int
    delta: float
    delta_max: float
    y: RealSignal
    y_noisy: RealSignal
    estimates: dict[str, RealSignal]
    rows: tuple[ErrorRow, ...]


class _Tables(NamedTuple):
    """Read-only tables on one grid's bins for one medium."""

    xi: np.ndarray
    inverse: np.ndarray  # Lambda
    kernel: np.ndarray  # G(x0, .)


@functools.lru_cache(maxsize=8)
def _tables(params: MediumParams, grid: TimeGrid) -> _Tables:
    """Tables for one (medium, grid); a sweep needs one entry, the bound caps memory."""
    xi = grid.frequencies()
    inverse, kernel = symbol_tables(xi, params)
    tables = _Tables(xi, multiplier_values(grid, inverse), multiplier_values(grid, kernel))
    for table in tables:
        table.flags.writeable = False
    return tables


def synthesize_data(f: RealSignal, params: MediumParams) -> RealSignal:
    """Exact measurement at the sensor: ``y`` with ``y_hat = G(x0, .) f_hat``."""
    return idft(apply_multiplier(dft(f), _tables(params, f.grid).kernel))


def add_noise(y: RealSignal, spec: NoiseSpec) -> tuple[RealSignal, float]:
    """Add i.i.d. Gaussian noise; return the noisy signal and realized level.

    The realized level is the discrete L2 norm of the injected noise,
    ``sqrt(dt sum eta_k^2)``, with expectation ``sigma sqrt(t_max)``.
    """
    rng = np.random.default_rng(spec.seed)
    eta = rng.normal(0.0, spec.sigma, y.grid.n) if spec.sigma > 0.0 else np.zeros(y.grid.n)
    noisy = RealSignal(y.grid, y.samples + eta)
    delta = math.sqrt(y.grid.dt * float(np.sum(eta * eta)))
    return noisy, delta


def invert_naive(y_noisy: RealSignal, params: MediumParams) -> RealSignal:
    """Unstabilized inversion ``f_est = idft(Lambda * dft(y_noisy))``.

    Exact on noise-free data; amplifies high-frequency noise otherwise.
    """
    return idft(apply_multiplier(dft(y_noisy), _tables(params, y_noisy.grid).inverse))


def invert_regularized(
    y_noisy: RealSignal,
    params: MediumParams,
    kind: FilterKind,
    p: float,
    delta: float,
    delta_max: float,
) -> tuple[RealSignal, float]:
    """Filtered inversion with the a priori parameter rule; returns (estimate, mu)."""
    mu = choose_mu(delta, delta_max, p)
    tables = _tables(params, y_noisy.grid)
    filtered = tables.inverse * attenuation(kind, tables.xi, mu)
    return idft(apply_multiplier(dft(y_noisy), filtered)), mu


def relative_error(f_est: RealSignal, f_true: RealSignal) -> float:
    """Relative L2 estimation error ``||f_est - f_true|| / ||f_true||``."""
    if f_est.grid != f_true.grid:
        raise ValueError("estimate and truth must share the same grid")
    denom = l2_norm(f_true)
    if denom == 0.0:
        raise ValueError("relative error undefined for an identically zero truth")
    return l2_norm(RealSignal(f_true.grid, f_est.samples - f_true.samples)) / denom


def delta_max_rule(delta: float) -> float:
    """Tolerated maximum noise level: one unit above the realized level."""
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be a nonnegative finite real, got {delta!r}")
    return 1.0 + delta


def cell_seed(master_seed: int, eps_index: int, seed_id: int) -> int:
    """Derive the integer RNG seed of one sweep cell.

    Uses ``numpy.random.SeedSequence`` with the cell coordinates as the spawn
    key, so cells are decorrelated and the derivation is platform-stable.
    """
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=(eps_index, seed_id))
    return int(sequence.generate_state(1, np.uint64)[0])


def run_cell(
    f_true: RealSignal,
    y: RealSignal,
    params: MediumParams,
    p: float,
    epsilon: float,
    seed_id: int,
    rng_seed: int,
    filters: tuple[str, ...],
    c_bound: float,
) -> CellResult:
    """Score one noisy measurement with every selected estimator.

    ``filters`` is a subset of ``("naive", "r1", "r2", "r3")``.  The theory
    bound is attached to filtered rows only; it bounds the absolute L2 error,
    with ``c_bound`` standing in for the source's Sobolev norm.
    """
    y_noisy, realized = add_noise(y, NoiseSpec(epsilon, rng_seed))
    delta = max(realized, DELTA_FLOOR)
    delta_max = delta_max_rule(delta)
    estimates: dict[str, RealSignal] = {}
    rows: list[ErrorRow] = []
    for label in ESTIMATOR_LABELS:
        if label not in filters:
            continue
        if label == "naive":
            estimate = invert_naive(y_noisy, params)
            mu = None
            bound = None
        else:
            kind = FilterKind(label)
            estimate, mu = invert_regularized(y_noisy, params, kind, p, delta, delta_max)
            reg = RegParams(mu=mu, p=p, delta=delta, delta_max=delta_max)
            bound = error_bound(kind, c_bound, reg, params)
        estimates[label] = estimate
        rows.append(
            ErrorRow(
                epsilon=epsilon,
                seed=seed_id,
                filter=label,
                mu=mu,
                delta=delta,
                delta_max=delta_max,
                rel_err=relative_error(estimate, f_true),
                theory_bound=bound,
            )
        )
    return CellResult(
        epsilon=epsilon,
        seed=seed_id,
        rng_seed=rng_seed,
        delta=delta,
        delta_max=delta_max,
        y=y,
        y_noisy=y_noisy,
        estimates=estimates,
        rows=tuple(rows),
    )


def run_sweep(
    f_true: RealSignal,
    params: MediumParams,
    p: float,
    eps_list: tuple[float, ...],
    seed_ids: tuple[int, ...],
    filters: tuple[str, ...],
    master_seed: int,
) -> list[CellResult]:
    """Run the full (noise level) x (seed) sweep sequentially.

    Cells are independent and their RNG streams depend only on
    ``(master_seed, eps index, seed id)``, so any execution order, including
    a concurrent one, yields identical results.
    """
    y = synthesize_data(f_true, params)
    c_bound = hp_norm(dft(f_true), p)
    cells = []
    for i_eps, epsilon in enumerate(eps_list):
        for seed_id in seed_ids:
            cells.append(
                run_cell(
                    f_true,
                    y,
                    params,
                    p,
                    epsilon,
                    seed_id,
                    cell_seed(master_seed, i_eps, seed_id),
                    filters,
                    c_bound,
                )
            )
    return cells
