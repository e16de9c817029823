"""End-to-end experiment path: synthesize, perturb, invert, score.

A cell of the experiment sweep is one noise level and one seed.  Within a
cell the same noisy measurement is inverted several ways (plain inverse
multiplier plus the selected filters) so that per-seed comparisons are
paired.  A cell's noise is ``numpy.random.default_rng(seed).normal(0, sigma, n)``
with ``seed = cell_seed(master_seed, noise-level index, seed identifier)``,
a ``numpy.random.SeedSequence`` hash; results are therefore bit-reproducible
regardless of execution order.  The sweep hashes its cells' seeds, then the
four PCG64 seed words of each, in one masked NumPy pass each (``_cell_seeds``,
``_pcg_states``; NEP 19 fixes the hash), and seeds PCG64 from the words as NumPy
does.  ``_normals`` then draws a level's rows with a NumPy kernel of PCG64
(XSL-RR 128/64) and of NumPy's ziggurat for ``normal``, whose 256-entry tables
are ``_ZIGGURAT``, copied from NumPy's ``ziggurat_constants.h``; it gives the
same bytes, and no run loads ``numpy.random``.  ``cell_seed``, ``add_noise``
and ``default_rng`` are the tested reference.

The sweep scores a noise level as arrays, a row per cell: one stack of noisy
measurements, one forward transform, then per estimator one gain and one
in-place inverse transform in the level's one complex workspace, and errors
one per row.  The last estimator builds its gain in the workspace, forms its
product in the spectrum's own buffer and frees the workspace before its
inverse transform, so a one-estimator level allocates none.  The per-cell
results, views of those rows, are built on return; ``run_cell`` is the same
code on one row.

``_measure`` puts what every level of a sweep shares in one ``_Run`` record: the
source, ``y`` and the source's Sobolev norm from its one transform, the settings,
and the read-only ``Lambda`` table on the grid's n/2 + 1 bins 0 ... n/2, sampled
once per run; ``G(x0, .)`` is dropped once ``y`` is synthesized.  An n-bin gain
exists only while its product needs it: ``_gain`` mirrors the half table into the
level's workspace and multiplies it there by the filter factor, whose frequencies
it makes for that gain.  Each one-shot call samples its own tables, and no
module-level store keeps any.
``_run_cells`` is the one judge of which levels can be scored.  ``_score`` takes
a record and each row's noise to ``delta``, ``mu`` and bounds, or refuses the
rows; then each estimator's errors, its bounds and the errors' sum in seed order
must be finite.  A refused level raises ``_Unscorable``, a ``ValueError`` that
names the level, and a sweep stops at the first in level order.
"""

from __future__ import annotations

import binascii
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .regularize import FilterKind, RegParams, attenuation, choose_mu, const_m
from .spectral import RealSignal, Spectrum, TimeGrid, _inverse, _row_views, dft, hp_norm, l2_norm
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

# PCG64 as NumPy steps it (state = state * _PCG_MULT + inc mod 2^128), and the
# start of the tail of NumPy's ziggurat for normal draws, and its inverse
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_ZIG_R, _ZIG_INV_R = 3.6541528853610088, 0.27366123732975828
_JUMP = 32  # stream positions that the jump table's steps cover
_CHUNK = 1 << 13  # stream positions that one pass of _normals draws, over all its rows

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


def _tables(params: MediumParams, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """One (medium, grid)'s ``Lambda`` and ``G(x0, .)``, read-only, on bins 0 ... n/2.

    ValueError if Lambda or G is not finite or G is 0.  ``_mirrored`` makes the
    n-bin tables: bin n - k sits at ``-xi_k`` exactly, where the pinned branch
    gives each symbol the exact conjugate, so these bins determine every n-bin
    table.  The Nyquist bin holds its modulus, as ``multiplier_values`` gives
    it, so the check sees every value of the n-bin tables, a modulus that
    overflows too.
    """
    half = grid.n // 2
    with np.errstate(all="ignore"):
        tables = symbol_tables(grid.frequencies()[:half + 1], params)
        for table in tables:
            table[half] = abs(table[half])
    inverse, kernel = tables
    if not (np.isfinite(inverse).all() and np.isfinite(kernel).all() and kernel.all()):
        raise ValueError(f"Lambda or G(x0, .) is not finite and nonzero for {params} on {grid}")
    for table in tables:
        table.flags.writeable = False
    return tables


def _mirrored(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The n-bin table of a ``_tables`` table in each row of ``out``, new if not given.

    Bins 0 ... n/2 are ``values``, and bin n - k is the conjugate of bin k.
    """
    half = len(values) - 1
    table = np.empty(2 * half, complex) if out is None else out
    table[..., :half + 1] = values
    np.conjugate(values[half - 1:0:-1], out=table[..., half + 1:])
    return table


def synthesize_data(f: RealSignal, params: MediumParams) -> RealSignal:
    """Exact measurement at the sensor: ``y`` with ``y_hat = G(x0, .) f_hat``."""
    return _synthesize(dft(f), _tables(params, f.grid)[1])


def _synthesize(f_hat: Spectrum, kernel: np.ndarray) -> RealSignal:
    """``synthesize_data`` of the source whose transform is ``f_hat``, through ``kernel``.

    The product and its inverse transform overwrite ``f_hat``'s buffer; the
    n-bin kernel is gone before the transform.
    """
    np.multiply(f_hat.coeffs, _mirrored(kernel), out=f_hat.coeffs)
    return _inverse(f_hat, f_hat.coeffs)


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


def _gain(
    inverse: np.ndarray, grid: TimeGrid, kind: FilterKind | None, mu=None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """``Lambda``, or ``Lambda`` times the ``kind`` filter at ``mu`` (a column for a stack).

    The gain is made in ``work``, new if not given: the half table ``inverse``
    mirrored onto the grid's n bins, then the filter factor on the grid's own
    frequencies.  r2's factor (``xi**4``) is not bitwise even, so it is not mirrored.
    """
    if work is None:
        work = np.empty((np.shape(mu)[:-1] if kind else ()) + (grid.n,), complex)
    gain = _mirrored(inverse, work)
    if kind is not None:
        gain *= attenuation(kind, grid.frequencies(), mu)
    return gain


def _invert(spectrum: Spectrum, gain: np.ndarray, work: np.ndarray | None = None) -> RealSignal:
    """The inverse transform of ``spectrum`` times ``gain``, made in ``work``.

    Without ``work`` the product overwrites the spectrum's own buffer.
    """
    product = np.multiply(spectrum.coeffs, gain, out=spectrum.coeffs if work is None else work)
    return _inverse(Spectrum(spectrum.grid, product), product)


def invert_naive(y_noisy: RealSignal, params: MediumParams) -> RealSignal:
    """Unstabilized inversion ``f_est = idft(Lambda * dft(y_noisy))``.

    Exact on noise-free data; amplifies high-frequency noise otherwise.
    """
    return _invert(dft(y_noisy), _gain(_tables(params, y_noisy.grid)[0], y_noisy.grid, None))


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
    grid = y_noisy.grid
    return _invert(dft(y_noisy), _gain(_tables(params, grid)[0], grid, kind, mu)), mu


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
    lengths = np.fromiter(map(len, entropies), int, len(entropies))
    width = int(lengths.max(initial=_POOL))
    pad = [0] * width
    entropy = np.fromiter(itertools.chain.from_iterable(words + pad[len(words):]
                                                        for words in entropies),
                          np.uint32, len(entropies) * width).reshape(-1, width).T
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


def _limbs(values: list[int]) -> np.ndarray:
    """128-bit integers as a ``(4, len)`` uint64 array: high word, low word, and its two halves."""
    hi = np.array([value >> 64 for value in values], np.uint64)
    lo = np.array([value & 0xFFFFFFFFFFFFFFFF for value in values], np.uint64)
    return np.stack([hi, lo, lo & 0xFFFFFFFF, lo >> 32])


def _mul_add(a, bh: np.ndarray, bl: np.ndarray, ch, cl) -> tuple[np.ndarray, np.ndarray]:
    """``a * b + c`` mod 2^128 in uint64 words ``(high, low)``; ``a`` as ``_limbs`` gives it.

    ``b``'s words have the result's shape, and ``bl`` is overwritten; ``a`` and ``c`` broadcast.
    """
    ah, al, a0, a1 = a
    b0 = bl & 0xFFFFFFFF
    b1 = bl >> 32
    t = a0 * b0
    t >>= 32
    np.multiply(a1, b0, out=b0)
    t += b0  # a1 b0 + (a0 b0 >> 32), which fits
    hi = a1 * b1
    np.multiply(a0, b1, out=b1)
    np.bitwise_and(t, 0xFFFFFFFF, out=b0)
    b1 += b0  # a0 b1 + the low half of t, which fits
    t >>= 32
    hi += t
    b1 >>= 32
    hi += b1  # the high word of al * bl
    np.multiply(ah, bl, out=t)
    hi += t
    np.multiply(al, bh, out=t)
    hi += t
    hi += ch
    lo = np.multiply(al, bl, out=bl)
    lo += cl
    hi += lo < cl
    return hi, lo


def _pcg_states(seeds: list[int]) -> np.ndarray:
    """The PCG64 state and increment that ``default_rng(seed)`` starts from, of each seed.

    A ``(seeds, 4)`` uint64 array: the state's high and low word, then the
    increment's.  NumPy seeds PCG64 from ``SeedSequence(seed).generate_state(4,
    np.uint64)``: words 0-1 are ``initstate`` and 2-3 ``initseq``, high word
    first; ``inc = 2 initseq + 1`` and ``state = (inc + initstate) * M + inc``.
    """
    words = _hash([_words(seed) for seed in seeds], 4)
    inc_hi = words[:, 2] << 1 | words[:, 3] >> 63
    inc_lo = words[:, 3] << 1 | 1
    lo = inc_lo + words[:, 1]
    hi = inc_hi + words[:, 0] + (lo < inc_lo)
    hi, lo = _mul_add(_limbs([_PCG_MULT]), hi, lo, inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo], axis=1)


@functools.cache
def _zig_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ki + 2^52`` and ``wi`` signed, by a draw's low 9 bits (layer, then sign); ``fi``."""
    tables = binascii.a2b_base64(_ZIGGURAT)
    wi, fi = np.frombuffer(tables, float, 256), np.frombuffer(tables, float, 256, 4096)
    ki = np.frombuffer(tables, np.uint64, 256, 2048)
    return np.tile(ki + 2.0 ** 52, 2), np.concatenate([wi, -wi]), fi


@functools.cache
def _jumps(chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``_limbs`` of ``M^k`` and ``S_k = 1 + M + ... + M^(k-1)``, so that ``k`` steps
    from state ``s`` reach ``M^k s + S_k inc``.

    Returns the rows ``M^(_JUMP q)``, ``S_(_JUMP q)`` for ``q < chunk / _JUMP``, then ``S_k``
    for ``k = 1 ... _JUMP``, as one ``(4, 2 chunk / _JUMP + _JUMP)`` array; and ``M^k``
    for ``k = 1 ... _JUMP``, which broadcasts over a pass's jumps.
    """
    mult, total, steps = 1, 0, []
    for _ in range(_JUMP):
        mult, total = mult * _PCG_MULT & _MASK128, (total * _PCG_MULT + 1) & _MASK128
        steps.append((mult, total))
    starts, (m, t) = [], (1, 0)
    for _ in range(chunk // _JUMP):  # a jump of _JUMP steps at a time
        starts.append((m, t))
        m, t = m * mult & _MASK128, (t * mult + total) & _MASK128
    far = [m for m, _ in starts] + [t for _, t in starts] + [t for _, t in steps]
    return _limbs(far), _limbs([m for m, _ in steps])


def _pcg_block(states: np.ndarray, blocks: int) -> np.ndarray:
    """The next ``blocks * _JUMP`` PCG64 outputs of each row of ``states``, rows one after another.

    The states ``_JUMP q`` steps on come from one product per row and ``q``, and the
    state ``k`` steps past each from one more: ``M^k s + S_k inc``.  An output is the
    XSL-RR of its state: its words' xor, rotated right by the state's top 6 bits.
    """
    rows, chunk = len(states), max(_CHUNK, blocks * _JUMP)  # wider only for a stalled row
    far, near = _jumps(chunk)
    span = chunk // _JUMP
    a = np.concatenate([far[:, :blocks], far[:, span:span + blocks], far[:, 2 * span:]], axis=1)
    bh, bl = np.empty((2, rows, a.shape[1]), np.uint64)
    bh[:, :blocks], bh[:, blocks:] = states[:, :1], states[:, 2:3]
    bl[:, :blocks], bl[:, blocks:] = states[:, 1:2], states[:, 3:]
    hi, lo = _mul_add(a, bh, bl, 0, 0)  # M^(J q) s, S_(J q) inc and S_k inc by row
    lo_q = lo[:, :blocks] + lo[:, blocks:2 * blocks]
    hi_q = hi[:, :blocks] + hi[:, blocks:2 * blocks] + (lo_q < lo[:, :blocks])
    bh, bl, ch, cl = np.empty((4, rows, blocks, _JUMP), np.uint64)
    bh[...], bl[...] = hi_q[:, :, None], lo_q[:, :, None]
    ch[...], cl[...] = hi[:, None, 2 * blocks:], lo[:, None, 2 * blocks:]
    hi, lo = _mul_add(near, bh, bl, ch, cl)
    del bh, bl, ch, cl
    out = np.bitwise_xor(hi, lo, out=lo)
    np.right_shift(hi, 58, out=hi)
    spill = out << (64 - hi)
    out >>= hi
    out |= spill
    return out.reshape(-1)


def _ziggurat(draws: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, list, dict]:
    """NumPy's ``random_standard_normal`` over rows of ``width`` draws, one row after another.

    Returns each position's value, the mask of the positions whose values a row
    gives in stream order, each row's count of positions the mask drops, and the
    rows that stop before their end: an attempt there needs draws past it.  The
    fast test is vectorized; its rejections, 1-2% of draws, are walked in stream
    order, with ``math.exp`` and ``math.log1p`` as NumPy's C calls them.
    """
    limit, signed, fi = _zig_tables()
    layer = draws.view(np.int64) & 511  # bits 0-7 the layer, bit 8 the sign
    x = draws >> 9
    x &= (1 << 52) - 1
    x |= 0x4330000000000000
    x = x.view(float)  # 2^52 + the draw's 52-bit magnitude, exactly
    keep = x < limit.take(layer)
    x -= 2.0 ** 52
    x *= signed.take(layer)
    rejected = np.flatnonzero(~keep)
    keep[:] = True
    dropped, stops = [0] * (len(draws) // width), {}
    if not rejected.size:
        return x, keep, dropped, stops
    layer = layer[rejected] & 255
    u = (draws[np.minimum(rejected + 1, len(draws) - 1)] >> 11) * 2.0 ** -53
    edge = x[rejected]
    edge = [math.exp(v) for v in (-0.5 * edge * edge).tolist()]
    wedge = ((fi[layer - 1] - fi[layer]) * u + fi[layer] < edge).tolist()
    p = 0  # the position of the next attempt
    for q, tail, passes in zip(rejected.tolist(), (layer == 0).tolist(), wedge):
        if q < p:
            continue  # an earlier attempt drew it
        row, at = divmod(q, width)
        end = q - at + width
        if not tail and q + 1 < end:  # a wedge: the next draw decides
            keep[q], keep[q + 1] = passes, False
            dropped[row] += 2 - passes
            p = q + 2
            continue
        p = q + 1
        while tail and p + 1 < end:  # the tail: pairs of draws until one passes
            xx = -_ZIG_INV_R * math.log1p(-(int(draws[p]) >> 11) * 2.0 ** -53)
            yy = -math.log1p(-(int(draws[p + 1]) >> 11) * 2.0 ** -53)
            p += 2
            if yy + yy > xx * xx:
                x[q] = -(_ZIG_R + xx) if int(draws[q]) >> 17 & 1 else _ZIG_R + xx
                break
        else:  # the attempt needs draws past its row's end: the row stops before it
            stops[row], p, keep[q] = at, end, False
            dropped[row] += 1
        keep[q + 1:p] = False
        dropped[row] += p - q - 1
    return x, keep, dropped, stops


def _advance(state: np.ndarray, steps: int) -> None:
    """Step one ``_pcg_states`` row ``steps`` draws on, in place."""
    s, inc = int(state[0]) << 64 | int(state[1]), int(state[2]) << 64 | int(state[3])
    total = (pow(_PCG_MULT, steps, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1)  # S_steps
    s = (pow(_PCG_MULT, steps, 1 << 128) * s + total * inc) & _MASK128
    state[:2] = s >> 64, s & 0xFFFFFFFFFFFFFFFF


def _normals(states: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """``Generator(PCG64).normal(0.0, sigma, n)`` from each ``_pcg_states`` row, bit for bit.

    A pass draws the next positions of as many rows as fit in ``_CHUNK`` positions: a
    little more than each row still needs, ``_CHUNK`` at most, so its arrays do not grow
    with ``n``.  A row that gets fewer values than it needs continues in a later pass
    from where it stopped.
    """
    out = np.empty((len(states), n))
    states = states.copy()
    rows, done, widen = list(range(len(states))), [0] * len(states), 0
    while rows:
        need = max(n - done[row] for row in rows)
        blocks = max(min(-(-(need + need // 64 + 8) // _JUMP), _CHUNK // _JUMP), widen)
        width = blocks * _JUMP
        group = rows[:max(1, _CHUNK // width)]
        x, keep, dropped, stops = _ziggurat(_pcg_block(states[group], blocks), width)
        counts = [width - k for k in dropped]
        values = x[keep]
        start, widen, left = 0, 0, []
        for k, row in enumerate(group):
            got = min(counts[k], n - done[row])
            out[row, done[row]:done[row] + got] = values[start:start + got]
            start += counts[k]
            done[row] += got
            if done[row] < n:
                stop = stops.get(k, width)
                _advance(states[row], stop)
                widen = widen if stop else 2 * blocks  # its first attempt needs a longer row
                left.append(row)
        rows = left + rows[len(group):]
    with np.errstate(over="ignore"):  # NumPy's C raises no flag
        out *= sigma
        out += 0.0  # loc 0: a draw of -0.0 becomes +0.0
    return out


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
    inverse: np.ndarray  # Lambda of (params, grid) on bins 0 ... n/2


def _measure(
    f_true: RealSignal, params: MediumParams, p: float, filters: tuple[str, ...]
) -> _Run:
    """A sweep's ``_Run``, with ``y`` and the source's ``H^p`` norm from one transform of it."""
    f_hat = dft(f_true)
    with np.errstate(all="ignore"):  # only filtered rows read it, and error_bound checks it
        c_bound = float(hp_norm(f_hat, p))
    inverse, kernel = _tables(params, f_true.grid)
    y = _synthesize(f_hat, kernel)  # in f_hat's buffer, which hp_norm has read
    return _Run(f_true, y, c_bound, params, p, filters, inverse)


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
    """A noise level whose rows cannot be scored; the message names it."""


def _run_cells(
    run: _Run, epsilon: float, seeds: list[tuple[int, int]], states: np.ndarray
) -> list[CellResult]:
    """Score one level's cells, ``(seed id, rng seed)`` each with its ``_pcg_states`` row."""
    _check_filters(run.filters)
    NoiseSpec(epsilon, 0)  # checks the level; each row is drawn as add_noise draws it
    stack = _normals(states, epsilon, run.y.grid.n)  # the noise, then y_noisy
    with np.errstate(over="ignore"):  # _score refuses an overflowed sum
        noise_sq = np.sum(stack * stack, axis=-1)
    stack += run.y.samples
    try:
        y_noisy = RealSignal(run.y.grid, stack)
        delta, delta_max, mu, bounds = _score(run, noise_sq)
    except ValueError as exc:
        raise _Unscorable(f"eps: noise level {epsilon:g} is too large to score: {exc}") from exc
    spectrum = dft(y_noisy)
    kinds = [None] * ("naive" in run.filters) + list(bounds)  # None: naive
    # the level's workspace holds each estimator's gain, then its product; the last
    # product takes the spectrum's own buffer, so one estimator needs no workspace
    work = np.empty(stack.shape, complex) if len(kinds) > 1 else None
    mus = np.array(mu)[:, None]
    columns = {}  # label -> (estimate stack, and per cell mu, rel_err, bound)
    for i, kind in enumerate(kinds):
        gain = _gain(run.inverse, run.y.grid, kind, mus, work)
        if i < len(kinds) - 1:
            estimate = _invert(spectrum, gain, work)
        else:  # the workspace is freed before the last inverse transform
            np.multiply(spectrum.coeffs, gain, out=spectrum.coeffs)
            gain = work = None
            estimate = _inverse(spectrum, spectrum.coeffs)
        with np.errstate(over="ignore"):  # an overflowed error is refused below
            rel_err = relative_error(estimate, run.f_true).tolist()
        # each row's error and bound, and the errors' sum in seed order that the summary divides
        if not all(map(math.isfinite, rel_err + [sum(rel_err)] + bounds.get(kind, []))):
            raise _Unscorable(f"the errors overflow at noise level {epsilon:g}: rel_err or "
                              f"theory_bound is not finite for {run.params} on {run.y.grid}")
        if kind is None:
            none = [None] * len(seeds)
            columns["naive"] = (estimate, none, rel_err, none)
        else:
            columns[kind.value] = (estimate, mu, rel_err, bounds[kind])
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
    inverse = _tables(params, y.grid)[0]  # y is given: G(x0, .) is not used
    run = _Run(f_true, y, c_bound, params, p, filters, inverse)
    return _run_cells(run, epsilon, [(seed_id, rng_seed)], _pcg_states([rng_seed]))[0]


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
    states = _pcg_states(rng_seeds)
    cells = []
    for i_eps, epsilon in enumerate(eps_list):
        level = slice(i_eps * len(seed_ids), (i_eps + 1) * len(seed_ids))
        cells += _run_cells(run, epsilon, list(zip(seed_ids, rng_seeds[level])), states[level])
    return cells


# NumPy's ziggurat_constants.h: the bytes of the wi_double, ki_double and fi_double symbols
# of NumPy's random/_generator extension, 256 float64, uint64 and float64 values each
_ZIGGURAT = (
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0cnRaL6ydPMPV"
    "TC1IMp88rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N"
    "7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2Y"
    "pzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8"
    "MBYQbq20qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3"
    "gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcNrzyI9thU"
    "9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2v"
    "sDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEbqLE8"
    "yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNou"
    "uGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv"
    "3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8NsNmnt96"
    "tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8"
    "eF9VDgB0tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsm"
    "twSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycPtzzGFGlR"
    "jiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7ItvzTM+3POfec4zW6rc8H+qGpGcG"
    "uDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8"
    "j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0"
    "byvs4bk8StL6JnL+uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrN"
    "eMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1"
    "uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8"
    "kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENsovTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J"
    "/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2"
    "I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788C/YYwVn4"
    "vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8"
    "xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsu"
    "YEhkVcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASd"
    "vBPCPO7Tb3pHLcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3u"
    "wjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBezJ8/DPHX0YKrb8sM8"
    "2uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwnWmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvk"
    "SqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY86moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglW"
    "lXnHPIzO1vQt1Mc8NPIpBQM5yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7"
    "zTxq7yWAPfMOAAAAAAAAAAAAqMb7mL4IDABCgb36VKMNAOruwX72UQ4AfvfT6VWyDgC5yn6BS+8OAKpE+gpHGQ8A"
    "GMv/Ye03DwBcJWGVRk8PAJajG+SlYQ8ApJZTdXpwDwCaRCjssnwPANNXYwzxhg8A3iWDV6aPDwDa0E3HJJcPAAn1"
    "2wepnQ8AdPqB9WCjDwD4S1veb6gPANxU02DxrA8AD7kYZ/uwDwDGdFONn7QPAHf+ZiPstw8ADuWh6ey6DwDtCwSd"
    "q70PAFds/2AwwA8ASKI3EILCDwDRW+J6psQPADHuepeixg8ApJYoqXrIDwCF3kteMsoPABojAunMyw8AxDn4Ek3N"
    "DwCZ7I9Ntc4PADDJHb8H0A8A5sTWTUbRDwBQ9OKoctIPAB7J8E+O0w8AeLSQmZrUDwBTD5K4mNUPAOyZjsCJ1g8A"
    "MujIqW7XDwDoCHtUSNgPAIwsrYsX2Q8A0q2nB93ZDwCMXhBwmdoPACAuwF1N2w8A0PxbXPnbDwB9mrnrndwPAJ1y"
    "GIE73Q8AkC80iNLdDwBknzZkY94PAE5RjXDu3g8ALrSmAXTfDwBA7Zll9N8PAPIkvORv4A8AWKIlwubgDwBMuCg8"
    "WeEPAJk/vIzH4Q8Aqhzb6THiDwCRG9qFmOIPAIZBtY/74g8ASo1VM1vjDwAqANCZt+MPAH+tnukQ5A8ANHfURmfk"
    "DwBcCUzTuuQPACSV0q4L5Q8AeLxO91nlDwASEuTIpeUPAImGEz7v5Q8AeBDZbzbmDwB41cZ1e+YPAKoRHma+5g8A"
    "8vTlVf/mDwACpwBZPucPADmePoJ75w8AonBw47bnDwBDQneN8OcPAIzwU5Ao6A8AOhc1+17oDwBkCITck+gPALzO"
    "8EHH6A8A9k59OPnoDwAdm4fMKekPAOqI0wlZ6Q8AopqT+4bpDwBmSHGss+kPANW2lCbf6Q8AfOarcwnqDwCkZvGc"
    "MuoPACyVMqta6g8AGnTVpoHqDwDwHN6Xp+oPACDZ84XM6g8APOZlePDqDwAT7C92E+sPAEoq/oU16w8AtGIxrlbr"
    "DwD6hOL0dusPABQg5l+W6w8AfJ3P9LTrDwDQSfS40usPAD4ubrHv6w8A6L0e4wvsDwAVWrFSJ+wPANOvnQRC7A8A"
    "lvEp/VvsDwD07mxAdewPALQMUNKN7A8AEh+RtqXsDwD+J8TwvOwPABX7VITT7A8As8iIdOnsDwC3kX/E/uwPACiF"
    "NXcT7Q8AA0mEjyftDwBMLyQQO+0PAG5YrftN7Q8A3cOYVGDtDwDoT0Edcu0PAIKp5FeD7Q8AyCykBpTtDwAEt4Ur"
    "pO0PALRqdMiz7Q8AUmZB38LtDwBSbqRx0e0PANOKPIHf7Q8AgJmQD+3tDwAU1A8e+u0PAMRLEq4G7g8ABlrZwBLu"
    "DwDgBpBXHu4PACRlS3Mp7g8AvOQKFTTuDwA8m7g9Pu4PAPSCKe5H7g8AhrAdJ1HuDwBBf0DpWe4PAC60KDVi7g8A"
    "8ZdYC2ruDwB6Bz5sce4PAIJ7Mlh47g8AugZ7z37uDwCySkjShO4PAENjtmCK7g8AUcjMeo/uDwDaJX4glO4PAOop"
    "qFGY7g8AXEgTDpzuDwD0c3JVn+4PAK7MYiei7g8ArEJrg6TuDwBxLfxopu4PAPrWbten7g8ACvoEzqjuDwA7M+hL"
    "qe4PABBkKVCp7g8AXgfA2ajuDwBUdonnp+4PACQdSHim7g8Ag56iiqTuDwDa5CIdou4PACQgNS6f7g8ALq8mvJvu"
    "DwDk8iTFl+4PADoKPEeT7g8AFnVVQI7uDwB6nDauiO4PAP09f46C7g8AiLin3nvuDwD/N/+bdO4PAF69qcNs7g8A"
    "fgCeUmTuDwCIKKNFW+4PALZXTplR7g8AzwYASkfuDwBQLOFTPO4PANgq4LIw7g8ABYKtYiTuDwBaPLheF+4PAEcU"
    "KqIJ7g8AzEnjJ/vtDwBsIXbq6+0PAH4EIuTb7Q8A0znODsvtDwD0LARkue0PAMk46dym7Q8Ajek3cpPtDwA2qDgc"
    "f+0PACvAudJp7Q8AAK4GjVPtDwAipN5BPO0PANgvaucj7Q8AROYvcwrtDwA0/gfa7+wPALi3DhDU7A8AtG6VCLfs"
    "DwDBMBK2mOwPAHipDQp57A8A/jEP9VfsDwBiyYZmNewPADWztEwR7A8A0G+OlOvrDwCStqApxOsPANwM7vWa6w8A"
    "QoXJ4W/rDwCeH63TQusPAEstC7AT6w8A6QIaWeLqDwBXIpmuruoPACbjjo146g8A5XP9zz/qDwD22Y1MBOoPADtW"
    "L9bF6Q8ApEepO4TpDwAoRx1HP+kPANbFdr326A8A5ujEXaroDwDqsXrgWegPAECpkPYE6A8AwDOCSKvnDwClah91"
    "TOcPAAKiKhDo5g8A2Ku2oH3mDwB+MDifDOYPAEL3OHOU5Q8AgHKXcBTlDwBY9DbUi+QPADce/b/54w8AnLHuNV3j"
    "DwD+5C8SteIPAFdVmQMA4g8AFIN4gjzhDwCwZ+7EaOAPAKpxK7CC3w8Aqv5+xYfeDwD9O8YJdd0PABO/KeVG3A8A"
    "ggIu+PjaDwB1urLhhdkPAATPSO/m1w8AC2W9rRPWDwAS8OJJAdQPAKzHtKeh0Q8Anh92BOLODwCyEV7YqMsPACIt"
    "zW7Sxw8A7SIeLyvDDwA6uMCBZb0PADRUAMQGtg8AdCgqWECsDwCYRQEel54PAPwdpEj6iQ8ALDDw98VmDwBKHDNL"
    "WhoPAAAAAAAAAPA/h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO9"
    "7D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/"
    "D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8"
    "N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOe"
    "WMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT"
    "5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/"
    "ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXN"
    "k47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYS"
    "BWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL"
    "4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/"
    "hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gs"
    "HW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDq"
    "y0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv"
    "2D/ZDap/TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/"
    "4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6Kc"
    "EFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN"
    "6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ9"
    "0T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/"
    "NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1Pf"
    "cZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/"
    "0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/FkeWfmDz"
    "xj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2Mt"
    "qOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZh"
    "tdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQ"
    "uT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/"
    "hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVu"
    "bCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz"
    "6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoS"
    "nj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/"
    "rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3"
    "ubYFplQ/"
)
