"""End-to-end experiment path: synthesize, perturb, invert, score.

A cell of the experiment sweep is one noise level and one seed.  Within a
cell the same noisy measurement is inverted several ways (plain inverse
multiplier plus the selected filters) so that per-seed comparisons are
paired.  A cell's noise stream is ``numpy.random.default_rng(seed)`` (PCG64)
with ``seed = cell_seed(master_seed, noise-level index, seed identifier)``,
a ``numpy.random.SeedSequence`` hash; results are therefore bit-reproducible
regardless of execution order.  The sweep hashes its cells' seeds, then the
four PCG64 seed words of each, in one masked NumPy pass each (``_cell_seeds``,
``_pcg_words``; NEP 19 fixes the hash), and PCG64 seeds each row's generator
from its words itself; ``cell_seed`` and ``default_rng`` are the tested reference.

The sweep scores a noise level as arrays, a row per cell: one stack of noisy
measurements, one forward transform, then per estimator one gain table and
one inverse transform, and errors one per row.  The per-cell results, views
of those rows, are built on return; ``run_cell`` is the same code on one row.

``_measure`` puts what every level of a sweep shares in one ``_Run`` record: the
source, ``y`` and the source's Sobolev norm from its one transform, the settings,
and the read-only ``Lambda`` and ``G(x0, .)`` tables on the grid's bins, sampled
once per run; each one-shot call samples its own, and no module-level store keeps any.
``_score``, the one judge of which rows can be scored, takes a record and each
row's noise to ``delta``, ``mu`` and bounds; a level it refuses is ``_Unscorable``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .regularize import FilterKind, RegParams, attenuation, choose_mu, const_m
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

# numpy.random.SeedSequence's hash (NEP 19 keeps it stable): a pool of four
# 32-bit words, and the running constants of its hashmix and output steps
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED

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


def _tables(params: MediumParams, grid: TimeGrid) -> _Tables:
    """Sample one (medium, grid)'s tables; ValueError if Lambda or G is not finite or G is 0."""
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
    return _synthesize(dft(f), _tables(params, f.grid).kernel)


def _synthesize(f_hat: Spectrum, kernel: np.ndarray) -> RealSignal:
    """``synthesize_data`` of the source whose transform is ``f_hat``, through ``kernel``."""
    return idft(apply_multiplier(f_hat, kernel))


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
    spectrum: Spectrum, tables: _Tables, kind: FilterKind | None = None, mu=None
) -> RealSignal:
    """Apply ``Lambda``, or the ``kind`` filter at ``mu`` (a column for a stack), and invert."""
    gain = tables.inverse if kind is None else tables.inverse * attenuation(kind, tables.xi, mu)
    filtered = apply_multiplier(spectrum, gain)
    del gain  # one complex stack, as large as idft's own buffer: not alive while idft allocates
    return idft(filtered)


def invert_naive(y_noisy: RealSignal, params: MediumParams) -> RealSignal:
    """Unstabilized inversion ``f_est = idft(Lambda * dft(y_noisy))``.

    Exact on noise-free data; amplifies high-frequency noise otherwise.
    """
    return _invert(dft(y_noisy), _tables(params, y_noisy.grid))


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
    return _invert(dft(y_noisy), _tables(params, y_noisy.grid), kind, mu), mu


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


def _words(value: int) -> list[int]:
    """A nonnegative integer's 32-bit words, least significant first, as SeedSequence splits it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hash(entropies: list[list[int]], n_words: int) -> np.ndarray:
    """``SeedSequence(words).generate_state(n_words, np.uint64)`` of each list of 32-bit ``words``.

    NumPy's ``mix_entropy`` and ``generate_state`` on a uint32 column per list,
    which wraps as its C does.  Zeros pad each list to the pool and the longest
    list; past the pool, a column's pool stays as it is once its list runs out.
    Returns a ``(lists, n_words)`` uint64 array: each list's words are one C-contiguous row.
    """
    lengths = np.array([len(words) for words in entropies], int)
    width = lengths.max(initial=_POOL)
    entropy = np.array([words + [0] * (width - len(words)) for words in entropies],
                       np.uint32).reshape(-1, width).T
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):  # every pool word into every other
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for k in range(_POOL, width):  # then each word past the pool into every pool word
        for dst in range(_POOL):
            pool[dst] = np.where(k < lengths, mix(pool[dst], hashmix(entropy[k])), pool[dst])
    const, mult = _INIT_B, _MULT_B  # generate_state hashes the pool words in turn
    state = [hashmix(pool[k % _POOL]).astype(np.uint64) for k in range(2 * n_words)]
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=-1)


def _cell_seeds(master_seed: int, levels: int, seed_ids: tuple[int, ...]) -> list[int]:
    """``cell_seed(master_seed, i_eps, seed_id)`` for every level index and seed id, level-major.

    The entropy is the master seed's words, zero-padded to the pool because a
    spawn key follows, then the key's words.
    """
    prefix = _words(master_seed)
    prefix += [0] * (_POOL - len(prefix))
    level_keys = [prefix + _words(i_eps) for i_eps in range(levels)]
    seed_keys = [_words(seed_id) for seed_id in seed_ids]
    return _hash([level + seed for level in level_keys for seed in seed_keys], 1)[:, 0].tolist()


@dataclass(slots=True)  # not a tuple, which PCG64 would hash as entropy if unregistered
class _Hashed:
    """A seed's four words for ``PCG64``; built only by ``_pcg_words``, which registers it."""

    words: np.ndarray  # C-contiguous uint64: PCG64 reads the raw buffer

    def generate_state(self, n_words: int, dtype) -> np.ndarray:  # PCG64 asks for 4 uint64 words
        return self.words


def _pcg_words(seeds: list[int]) -> list[_Hashed]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, as a ``_Hashed``."""
    np.random.bit_generator.ISeedSequence.register(_Hashed)  # on use: import loads no numpy.random
    return [_Hashed(words) for words in _hash([_words(seed) for seed in seeds], 4)]


def _draw(words: _Hashed, sigma: float, n: int) -> np.ndarray:
    """``add_noise``'s draw for the seed whose ``_pcg_words`` entry is ``words``."""
    return np.random.Generator(np.random.PCG64(words)).normal(0.0, sigma, n)


def _check_filters(filters: tuple[str, ...]) -> None:
    """Raise ValueError naming the first label that is not an estimator."""
    for label in filters:
        if label not in ESTIMATOR_LABELS:
            raise ValueError(f"unknown filter {label!r}; choose from {', '.join(ESTIMATOR_LABELS)}")


class _Run(NamedTuple):
    """What every noise level of a sweep shares; ``_measure`` builds it, ``run_cell`` its own."""

    f_true: RealSignal
    y: RealSignal  # the exact measurement
    c_bound: float  # the source's H^p norm, which may overflow
    params: MediumParams
    p: float
    filters: tuple[str, ...]
    tables: _Tables  # of (params, grid)


def _measure(
    f_true: RealSignal, params: MediumParams, p: float, filters: tuple[str, ...]
) -> _Run:
    """A sweep's ``_Run``, with ``y`` and the source's ``H^p`` norm from one transform of it."""
    f_hat = dft(f_true)
    with np.errstate(all="ignore"):  # only filtered rows read it, and error_bound checks it
        c_bound = float(hp_norm(f_hat, p))
    tables = _tables(params, f_true.grid)
    y = _synthesize(f_hat, tables.kernel)  # the n complex bins die on return
    return _Run(f_true, y, c_bound, params, p, filters, tables)


def _score(run: _Run, noise_sq: list[float] | np.ndarray) -> tuple[list, list, list, dict]:
    """Each row's ``delta``, ``delta_max``, ``mu`` and bound per kind, from its ``sum(eta^2)``.

    The values and errors are those of ``delta_max_rule``, ``choose_mu``,
    ``RegParams`` and ``error_bound`` row by row: ``mu`` and the checks are
    theirs, and the bounds take ``error_bound``'s IEEE operations in its order.
    """
    p, c_bound, params = run.p, run.c_bound, run.params
    delta = np.maximum(np.sqrt(run.y.grid.dt * np.asarray(noise_sq)), DELTA_FLOOR)
    delta_max = 1.0 + delta
    if not np.isfinite(delta_max).all():
        delta_max_rule(float(delta[~np.isfinite(delta_max)][0]))  # raises its error
    kinds = [kind for kind in FilterKind if kind.value in run.filters]
    deltas, delta_maxes = delta.tolist(), delta_max.tolist()
    if not kinds:
        return deltas, delta_maxes, [], {}
    mu = [choose_mu(d, d_max, p) for d, d_max in zip(deltas, delta_maxes)]
    for row, (m, d, d_max) in enumerate(zip(mu, deltas, delta_maxes)):
        RegParams(m, p, d, d_max)  # its checks; error_bound's on c_bound follows the first
        if not row and not (c_bound > 0.0 and math.isfinite(c_bound)):
            raise ValueError(f"c_bound must be a positive finite real, got {c_bound!r}")
    if delta.max(initial=0.0) >= 2.0 ** 53:  # 1 + delta rounds: mu < 1 by chance
        raise ValueError(f"delta must be below 2**53, got {float(delta.max())!r}")
    exponents = (2.0 / (p + 2.0), p / (p + 2.0), (p - 2.0) / (p + 2.0))
    max_term = np.array([max(r ** e for e in exponents) for r in (delta / delta_max).tolist()])
    bounds = {kind: ((c_bound + delta_max * const_m(kind, params.alpha, params)) * max_term)
              .tolist() for kind in kinds}
    return deltas, delta_maxes, mu, bounds


class _Unscorable(ValueError):
    """A noise level whose drawn rows cannot be scored; ``epsilon`` names it, not the message."""

    def __init__(self, epsilon: float, exc: ValueError) -> None:
        super().__init__(str(exc))
        self.epsilon = epsilon


def _run_cells(
    run: _Run, epsilon: float, seeds: list[tuple[int, int, _Hashed]]
) -> list[CellResult]:
    """Score one level's cells, ``(seed id, rng seed, its _pcg_words entry)`` each, as one stack."""
    _check_filters(run.filters)
    NoiseSpec(epsilon, 0)  # checks the level; each row draws it as add_noise does
    stack = np.zeros((len(seeds), run.y.grid.n))  # the noise, then y_noisy
    for row, (_, _, words) in zip(stack, seeds):
        row[:] = _draw(words, epsilon, run.y.grid.n)
    with np.errstate(over="ignore"):  # _score refuses an overflowed sum
        noise_sq = np.sum(stack * stack, axis=-1)
    stack += run.y.samples
    try:
        y_noisy = RealSignal(run.y.grid, stack)
        delta, delta_max, mu, bounds = _score(run, noise_sq)
    except ValueError as exc:
        raise _Unscorable(epsilon, exc) from exc
    spectrum = dft(y_noisy)
    columns = {}  # label -> (estimate stack, and per cell mu, rel_err, bound)
    if "naive" in run.filters:
        estimate = _invert(spectrum, run.tables)
        none = [None] * len(seeds)
        columns["naive"] = (estimate, none, relative_error(estimate, run.f_true).tolist(), none)
    for kind, bound in bounds.items():
        estimate = _invert(spectrum, run.tables, kind, np.array(mu)[:, None])
        columns[kind.value] = (estimate, mu, relative_error(estimate, run.f_true).tolist(), bound)
    y_noisy = _row_views(y_noisy)
    estimates = {label: _row_views(column[0]) for label, column in columns.items()}
    return [
        CellResult(
            epsilon, seed_id, rng_seed, delta[i], delta_max[i], run.y, y_noisy[i],
            {label: rows[i] for label, rows in estimates.items()},
            tuple(
                ErrorRow(epsilon, seed_id, label, mu[i], delta[i], delta_max[i],
                         rel_err[i], bound[i])
                for label, (_, mu, rel_err, bound) in columns.items()
            ),
        )
        for i, (seed_id, rng_seed, _) in enumerate(seeds)
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
    run = _Run(f_true, y, c_bound, params, p, filters, _tables(params, y.grid))
    return _run_cells(run, epsilon, [(seed_id, rng_seed, _pcg_words([rng_seed])[0])])[0]


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
    return _sweep(_measure(f_true, params, p, filters), eps_list, seed_ids, master_seed)


def _sweep(
    run: _Run, eps_list: tuple[float, ...], seed_ids: tuple[int, ...], master_seed: int
) -> list[CellResult]:
    """``run_sweep`` of the source, medium and settings that ``_measure`` put in ``run``."""
    rng_seeds = _cell_seeds(master_seed, len(eps_list), seed_ids)
    words = _pcg_words(rng_seeds)
    cells = []
    for i_eps, epsilon in enumerate(eps_list):
        first = i_eps * len(seed_ids)
        cells += _run_cells(run, epsilon, list(zip(seed_ids, rng_seeds[first:], words[first:])))
    return cells
