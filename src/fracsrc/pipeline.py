"""End-to-end experiment path: synthesize, perturb, invert, score.

A cell of the experiment sweep is one noise level and one seed.  Within a
cell the same noisy measurement is inverted several ways (plain inverse
multiplier plus the selected filters) so that per-seed comparisons are
paired.  Noise streams come from ``numpy.random.default_rng`` (PCG64) seeded
with an integer derived deterministically from ``(master_seed, noise-level
index, seed identifier)`` via ``numpy.random.SeedSequence``; results are
therefore bit-reproducible regardless of execution order.

The sweep scores a noise level as arrays, a row per cell: one stack of noisy
measurements, one forward transform, then per estimator one gain table and
one inverse transform, and errors one per row.  The per-cell results, views
of those rows, are built on return; ``run_cell`` is the same code on one row.
``_measure`` takes the source's one transform to ``y`` and its Sobolev norm,
and ``_score`` a row's noise to ``delta``, ``mu`` and bounds, for the sweep
and for ``cli.run_experiment``'s checks alike.

The multiplier tables (``Lambda`` and ``G(x0, .)`` on the grid's bins) depend
only on the medium and the grid, so they are sampled once per
``(MediumParams, TimeGrid)`` pair and shared, read-only, by every cell and
estimator; each filter table is ``Lambda`` times its real attenuation.
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
    Spectrum,
    TimeGrid,
    _row_views,
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

# naive first, then the filters, mirroring the output column order
ESTIMATOR_LABELS = ("naive",) + tuple(kind.value for kind in FilterKind)

# Stand-in noise level for noise-free runs, so the parameter rule stays
# defined.  With mu = DELTA_FLOOR^(1/(p+2)) the quartic filter, the widest of
# the three, attenuates the extreme bin of a 256-point window on [0, 10] by
# less than 1e-5, so the regularized path agrees with the exact inversion.
DELTA_FLOOR = 1e-20

@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample Gaussian noise: standard deviation and RNG seed."""

    sigma: float
    seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.copysign(1.0, self.sigma) > 0.0):  # -0 too
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


@functools.lru_cache(maxsize=8)  # a sweep needs one entry; the bound caps memory
def _tables(params: MediumParams, grid: TimeGrid) -> _Tables:
    """Tables for one (medium, grid); raises ValueError if Lambda or G is not finite or G is 0."""
    with np.errstate(all="ignore"):
        xi = grid.frequencies()
        inverse, kernel = symbol_tables(xi, params)
        tables = _Tables(xi, multiplier_values(grid, inverse), multiplier_values(grid, kernel))
    if not (np.isfinite(tables.inverse).all() and np.isfinite(tables.kernel).all()
            and tables.kernel.all()):
        raise ValueError(f"Lambda or G(x0, .) is not finite and nonzero for {params} on {grid}")
    for table in tables:
        table.flags.writeable = False
    return tables


def synthesize_data(f: RealSignal, params: MediumParams) -> RealSignal:
    """Exact measurement at the sensor: ``y`` with ``y_hat = G(x0, .) f_hat``."""
    return _synthesize(dft(f), params)


def _synthesize(f_hat: Spectrum, params: MediumParams) -> RealSignal:
    """``synthesize_data`` of the source whose transform is ``f_hat``."""
    return idft(apply_multiplier(f_hat, _tables(params, f_hat.grid).kernel))


def add_noise(y: RealSignal, spec: NoiseSpec) -> tuple[RealSignal, float]:
    """Add i.i.d. Gaussian noise; return the noisy signal and realized level.

    The realized level is the discrete L2 norm of the injected noise,
    ``sqrt(dt sum eta_k^2)``, with expectation ``sigma sqrt(t_max)``.
    """
    rng = np.random.default_rng(spec.seed)
    eta = rng.normal(0.0, spec.sigma, y.grid.n)  # +0.0 in every sample when sigma is 0
    noisy = RealSignal(y.grid, y.samples + eta)
    delta = math.sqrt(y.grid.dt * float(np.sum(eta * eta)))
    return noisy, delta


def _invert(
    spectrum: Spectrum, params: MediumParams, kind: FilterKind | None = None, mu=None
) -> RealSignal:
    """Apply ``Lambda``, or the ``kind`` filter at ``mu`` (a column for a stack), and invert."""
    tables = _tables(params, spectrum.grid)
    gain = tables.inverse if kind is None else tables.inverse * attenuation(kind, tables.xi, mu)
    return idft(apply_multiplier(spectrum, gain))


def invert_naive(y_noisy: RealSignal, params: MediumParams) -> RealSignal:
    """Unstabilized inversion ``f_est = idft(Lambda * dft(y_noisy))``.

    Exact on noise-free data; amplifies high-frequency noise otherwise.
    """
    return _invert(dft(y_noisy), params)


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
    return _invert(dft(y_noisy), params, kind, mu), mu


def relative_error(f_est: RealSignal, f_true: RealSignal) -> float | np.ndarray:
    """Relative L2 estimation error ``||f_est - f_true|| / ||f_true||``, one per row."""
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


def _check_filters(filters: tuple[str, ...]) -> None:
    """Raise ValueError naming the first label that is not an estimator."""
    for label in filters:
        if label not in ESTIMATOR_LABELS:
            raise ValueError(
                f"unknown filter {label!r}; choose from {', '.join(ESTIMATOR_LABELS)}"
            )


def _measure(f_true: RealSignal, params: MediumParams, p: float) -> tuple[RealSignal, float, float]:
    """``y``, the source's ``H^p`` norm and, where that overflows, its norm at the least p > 0."""
    f_hat = dft(f_true)
    with np.errstate(all="ignore"):  # only filtered rows read it, and error_bound checks it
        c_bound = float(hp_norm(f_hat, p))
        least = c_bound if math.isfinite(c_bound) else float(hp_norm(f_hat, 5e-324))
    return _synthesize(f_hat, params), c_bound, least  # the n complex bins die here


def _score(
    grid: TimeGrid, noise_sq: list[float] | np.ndarray, p: float, filters: tuple[str, ...],
    c_bound: float, params: MediumParams,
) -> tuple[list, list, list, dict[FilterKind, list]]:
    """Each row's ``delta``, ``delta_max``, ``mu`` and bound per kind, from its ``sum(eta^2)``."""
    delta = np.maximum(np.sqrt(grid.dt * np.asarray(noise_sq)), DELTA_FLOOR).tolist()
    delta_max = [delta_max_rule(d) for d in delta]
    kinds = [kind for kind in FilterKind if kind.value in filters]
    mu = [choose_mu(d, d_max, p) for d, d_max in zip(delta, delta_max)] if kinds else []
    bounds = {kind: [] for kind in kinds}
    for m, d, d_max in zip(mu, delta, delta_max):
        reg = RegParams(m, p, d, d_max)
        for kind in kinds:
            bounds[kind].append(error_bound(kind, c_bound, reg, params))
    return delta, delta_max, mu, bounds


def _run_cells(
    f_true: RealSignal, y: RealSignal, params: MediumParams, p: float, epsilon: float,
    seeds: list[tuple[int, int]], filters: tuple[str, ...], c_bound: float,
) -> list[CellResult]:
    """Score one noise level's cells, given as ``(seed id, rng seed)`` pairs, as one stack."""
    _check_filters(filters)
    NoiseSpec(epsilon, 0)  # checks the level; each row draws it as add_noise does
    stack = np.zeros((len(seeds), y.grid.n))  # the noise, then y_noisy
    for row, (_, rng_seed) in zip(stack, seeds):
        row[:] = np.random.default_rng(rng_seed).normal(0.0, epsilon, y.grid.n)
    noise_sq = np.sum(stack * stack, axis=-1)
    stack += y.samples
    y_noisy = RealSignal(y.grid, stack)
    delta, delta_max, mu, bounds = _score(y.grid, noise_sq, p, filters, c_bound, params)
    spectrum = dft(y_noisy)
    columns = {}  # label -> (estimate stack, and per cell mu, rel_err, bound)
    if "naive" in filters:
        estimate = _invert(spectrum, params)
        none = [None] * len(seeds)
        columns["naive"] = (estimate, none, relative_error(estimate, f_true).tolist(), none)
    for kind, bound in bounds.items():
        estimate = _invert(spectrum, params, kind, np.array(mu)[:, None])
        columns[kind.value] = (estimate, mu, relative_error(estimate, f_true).tolist(), bound)
    y_noisy = _row_views(y_noisy)
    estimates = {label: _row_views(column[0]) for label, column in columns.items()}
    return [
        CellResult(
            epsilon, seed_id, rng_seed, delta[i], delta_max[i], y, y_noisy[i],
            {label: rows[i] for label, rows in estimates.items()},
            tuple(
                ErrorRow(epsilon, seed_id, label, mu[i], delta[i], delta_max[i],
                         rel_err[i], bound[i])
                for label, (_, mu, rel_err, bound) in columns.items()
            ),
        )
        for i, (seed_id, rng_seed) in enumerate(seeds)
    ]


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

    ``filters`` is a subset of ``ESTIMATOR_LABELS``; another label raises
    ``ValueError``.  Filtered rows carry ``error_bound`` on their ``RegParams``,
    a bound on the absolute L2 error with ``c_bound`` standing in for the
    source's Sobolev norm.  This is the sweep's scoring code on a one-cell stack.
    """
    return _run_cells(f_true, y, params, p, epsilon, [(seed_id, rng_seed)], filters, c_bound)[0]


def run_sweep(
    f_true: RealSignal,
    params: MediumParams,
    p: float,
    eps_list: tuple[float, ...],
    seed_ids: tuple[int, ...],
    filters: tuple[str, ...],
    master_seed: int,
) -> list[CellResult]:
    """Run the full (noise level) x (seed) sweep, one noise level at a time.

    The seeds of a noise level are scored as one stack (see ``run_cell``).
    Each cell's RNG stream depends only on ``(master_seed, eps index, seed
    id)``, so results do not depend on how cells are grouped or ordered.
    """
    y, c_bound, _ = _measure(f_true, params, p)
    return _sweep(f_true, y, params, p, eps_list, seed_ids, filters, master_seed, c_bound)


def _sweep(
    f_true: RealSignal, y: RealSignal, params: MediumParams, p: float,
    eps_list: tuple[float, ...], seed_ids: tuple[int, ...], filters: tuple[str, ...],
    master_seed: int, c_bound: float,
) -> list[CellResult]:
    """``run_sweep`` with the measurement ``y`` and the source's Sobolev norm ``c_bound`` given."""
    cells = []
    for i_eps, epsilon in enumerate(eps_list):
        seeds = [(seed_id, cell_seed(master_seed, i_eps, seed_id)) for seed_id in seed_ids]
        cells += _run_cells(f_true, y, params, p, epsilon, seeds, filters, c_bound)
    return cells
