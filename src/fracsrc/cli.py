"""Command-line front end: presets, free-form sweeps, CSV outputs.

``fracsrc run`` executes a deterministic sweep over noise levels and seeds
and writes three kinds of plain-CSV files into the output directory:

* ``errors.csv``    one row per (noise level, seed, estimator);
* ``summary.csv``   seed-averaged relative error per (noise level, filter);
* ``signals_<eps>_<seed>.csv``  plot-ready dump of the true source, the
  clean and noisy measurements, and every selected reconstruction.

Every run setting is declared once, in :data:`SETTINGS`; its flag, its JSON
config key and its parsing all come from that entry.  Floats are serialized
with 17 significant digits, so identical configurations produce
byte-identical files.  Exit codes: 0 on success, 2 on configuration errors,
noise levels too loud to score, errors that overflow and unwritable outputs,
3 when an internal consistency guard fires (a :class:`SymmetryError` or another
library ``ValueError``) or the run does not fit in memory.  :func:`run_experiment`
scores the least-noise row of ``pipeline._measure``'s record before any noise,
then reports the first level, in level order, that ``_sweep`` refuses: its drawn
rows or its errors cannot be scored.  No file is written before that.
With more than one CPU, a forked child writes the signals rows from one past
the middle and then a completion mark, on the CPUs the run may use other than
the one it ran on at the fork; without the mark, or with no child (the fork
failing too), the run writes them.  Both processes format the signals
floats with NumPy into the bytes of ``"%.17g"``, and hand to ``"%.17g"`` itself
the values they cannot place: zeros, magnitudes outside [1e-280, 1e280], and
near-ties at the 17th digit.  Under glibc, :func:`main` first sets malloc's
mmap threshold to 32 MiB and its trim threshold to 64 MiB, so the n-point
arrays one stage frees stay in the heap for the next instead of going back to
the kernel, to be faulted in again as zeroed pages; library calls, such as
:func:`run_experiment`, leave their caller's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pipeline import CellResult, ErrorRow, _Unscorable, _check_filters, _measure, _score, _sweep
from .regularize import FilterKind
from .spectral import RealSignal, SymmetryError, TimeGrid, dft, hp_norm
from .symbols import MediumParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "preset_source",
    "run_experiment",
    "main",
]

EXAMPLE_PRESETS = {
    1: {
        "omega": 0.1, "beta": 0.9, "nu": 1.0, "alpha": 0.9, "x0": 0.5,
        "source": "square", "p": 1.0,
    },
    2: {
        "omega": 0.01, "beta": 0.5, "nu": 1.51, "alpha": 0.3, "x0": 10.0,
        "source": "exp", "p": 2.0,
    },
}


class ConfigError(Exception):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Run settings, each checked on its own; ``run_experiment`` checks the run's data."""

    params: MediumParams
    n: int
    t_max: float
    pad_factor: int
    source: str
    p: float
    eps_list: tuple[float, ...]
    seed_ids: tuple[int, ...]
    filters: tuple[str, ...]
    master_seed: int
    out_dir: Path

    def __post_init__(self) -> None:
        if self.source not in ("square", "exp"):
            raise ConfigError(f"unknown source preset {self.source!r}")
        if not self.eps_list:
            raise ConfigError("eps list must not be empty")
        for eps in self.eps_list:
            if not math.isfinite(eps):
                raise ConfigError(f"noise levels must be finite, got {eps!r}")
            if math.copysign(1.0, eps) < 0.0:  # -0 too
                raise ConfigError(f"noise levels must be nonnegative, got {eps!r}")
        # signals files are named by the level's 6-digit form
        labels = {f"{eps:g}" for eps in self.eps_list}
        if len(labels) < len(self.eps_list):
            raise ConfigError(
                f"noise levels must differ in 6 significant digits, got {self.eps_list}"
            )
        if not self.seed_ids:
            raise ConfigError("seed list must not be empty")
        if len(set(self.seed_ids)) < len(self.seed_ids) or min(self.seed_ids) < 0:
            raise ConfigError(
                f"seed identifiers must be distinct and nonnegative, got {self.seed_ids}"
            )
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be nonnegative, got {self.master_seed}")
        if not self.filters:
            raise ConfigError("filter set must not be empty")
        if len(set(self.filters)) < len(self.filters):
            raise ConfigError(f"filter labels must be distinct, got {self.filters}")
        try:  # the library's checks raise ValueError
            _check_filters(self.filters)
            if not (self.p > 0.0 and math.isfinite(self.p)):
                raise ConfigError(f"smoothness order p must be positive, got {self.p!r}")
            if not (isinstance(self.pad_factor, int) and self.pad_factor >= 1
                    and self.pad_factor & (self.pad_factor - 1) == 0):  # then n * pad is one too
                raise ConfigError(
                    f"pad factor must be a power of two >= 1, got {self.pad_factor!r}")
            TimeGrid(self.n, self.t_max)  # as typed; pad scales n to a power of two >= 8 too
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        samples = self.n * self.pad_factor
        if samples * 16 > sys.maxsize:  # bytes of one complex array on the grid
            raise ConfigError(
                f"n and pad: a grid of n * pad = {samples} samples is too large for any array"
            )
        if math.isinf(self.t_max * self.pad_factor):  # pad < 2**63 here, so a float
            raise ConfigError(f"t_max and pad: the padded window t_max * pad overflows, "
                              f"got t_max = {self.t_max!r} and pad = {self.pad_factor}")

    def grid(self) -> TimeGrid:
        """Sampling grid, window and sample count scaled by the pad factor."""
        return TimeGrid(self.n * self.pad_factor, self.t_max * self.pad_factor)


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple[CellResult, ...]
    rows: tuple[ErrorRow, ...]
    summary: tuple[dict, ...]
    files: tuple[Path, ...]


# Values a "%.17g" call takes: as many as test_writer_memory_does_not_grow_with_the_grid allows.
_SIGNALS_BLOCK = 7168
_TABLES: dict[str, np.ndarray] = {}  # the formatter's, built by _tables on first use


def preset_source(preset_id: str, grid: TimeGrid) -> RealSignal:
    """Sample one of the two benchmark sources on ``grid``.

    ``square``: unit square wave on [0, 10] switching sign at 2.5, 5 and 7.5
    (left-closed branches, -1 on [0, 2.5)), zero elsewhere.
    ``exp``: 6.51 exp(-t) on [0, 10], zero elsewhere.
    """
    times = grid.times()
    if preset_id == "square":
        low = ((0.0 <= times) & (times < 2.5)) | ((5.0 <= times) & (times < 7.5))
        inside = (0.0 <= times) & (times <= 10.0)
        return RealSignal(grid, np.where(low, -1.0, np.where(inside, 1.0, 0.0)))
    if preset_id == "exp":
        # math.exp, not np.exp: the two differ in the last bit on some samples.  A
        # memoryview yields Python floats, which math.exp takes faster than NumPy
        # scalars, and builds no n-long list.
        decay = np.fromiter(map(math.exp, memoryview(np.negative(times))), float, grid.n)
        decay *= 6.51
        return RealSignal(grid, np.where((0.0 <= times) & (times <= 10.0), decay, 0.0))
    raise ConfigError(f"unknown source preset {preset_id!r}")


# "%.17g" % x and f"{x:.17g}" give the same bytes (PyOS_double_to_string).
def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _mean(value: float) -> str:
    """A summary mean with 4 decimals, or in exponent form where that is over 24 characters."""
    fixed = f"{value:.4f}"
    return fixed if len(fixed) <= 24 else f"{value:.4e}"


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Stream a header and rows of formatted fields to ``path``."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _pow10(k: int) -> tuple[float, float, float, float]:
    """``hi + lo = 10**k`` within 2**-106 of it, and ``hi`` split into 26-bit halves (Dekker)."""
    p, q = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = p / q  # int / int rounds correctly
    num, den = hi.as_integer_ratio()
    head = hi * 134217729.0 - (hi * 134217729.0 - hi)
    return hi, head, hi - head, (p * den - num * q) / (q * den)


def _tables() -> dict[str, np.ndarray]:
    # Built from Python and numpy fills: other numpy loops map more of numpy's library in.
    if not _TABLES:
        # A field's 32 bytes: sign, "0.000", digit, dot, 16 digits, "e+-", 3 digits, 2 spare, the
        # separator's.  Template [layout, digits - 1, sign] has 255 where a digit goes; layouts
        # 0..20 are fixed, of exponent layout - 4 (1..15 dotted by _format), 21..24 exponent form.
        template = np.zeros((25, 17, 2, 32), np.uint8)
        template[:, :, 1, 0], template[:, :, :, 6] = ord("-"), 255
        dotted = np.zeros((25, 17, 2), bool)  # the templates whose dot _format places
        dot = np.zeros((3, 17, 24), np.uint8)  # by exponent k, bytes 8..31: below, above, dot
        for k in range(17):
            template[:, k, :, 8:8 + k] = 255  # k + 1 significant digits
            template[k + 4, :, :, 8:8 + k] = 255  # exponent k: k + 1 integer digits
            dotted[k + 4, k + 1:] = 0 < k < 16  # and a dot at byte 8 + k, if digits follow
            dot[0, k, :k], dot[1, k, k + 1:], dot[2, k, k] = 255, 255, 46
        for x in range(1, 5):  # exponent -x: "0." and x - 1 zeros
            template[4 - x, :, :, 1:2 + x] = [*b"0.000"[:1 + x]]
        template[[4, 21, 22, 23, 24], 1:, :, 7] = 46  # the first digit's dot, if others follow
        template[21:, :, :, 24:29] = [*b"e-\xff\xff\xff"]  # "e-" and 3 exponent digits
        template[23:, :, :, 25], template[21::2, :, :, 26] = 43, 0  # "e+", and 2 exponent digits
        pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
        quads = np.empty((100, 100, 2), np.uint16)  # of 4 digits "abcd": pairs "ab", "cd"
        quads[:, :, 0], quads[:, :, 1] = pairs[:, None], pairs
        sig = np.full(10000, 10)  # by 4 digits "abcd": 2 s + 2, s the digits up to the last
        sig[::10], sig[::100], sig[::1000], sig[0] = 8, 6, 4, -100  # nonzero one; see _format
        _TABLES.update(
            template=template.reshape(-1, 32),
            dotted=dotted.ravel(),
            dot=dot.view(np.uint64),
            # by exponent e + 300: 34 layout - 2, the template less 2 digits + sign
            layout=np.array([34 * (e + 4 if -4 <= e <= 16 else 21 + 2 * (e > 0) + (abs(e) > 99)) - 2
                             for e in range(-300, 301)]),
            exponent=np.frombuffer(b"".join(  # bytes 24..31, by exponent e + 300
                b"\xff\xff%03d\xff\xff\xff" % abs(e) for e in range(-300, 301)), np.uint64),
            lead=np.frombuffer(b"".join(b"\xff\xff%d\xff" % d for d in [*range(10), 1]), np.uint32),
            quads=quads.view(np.uint32).ravel(),
            sig=sig,
            pow10=np.full((4, 601), np.nan),  # filled as exponents e + 300 turn up
        )
    return _TABLES


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as ``p + r``: ``p`` the rounded product, ``r`` to about 1e-14."""
    pow10 = _TABLES["pow10"]
    for i in set(e[np.isnan(pow10[0].take(e))].tolist()):  # exponents not met before
        pow10[:, i] = _pow10(316 - i)
    hi, head, tail, lo = pow10.take(e, axis=1)
    p = a * hi  # its exact error is Dekker's two-product's
    a_head = a * 134217729.0
    a_head -= np.subtract(a_head, a, out=hi)
    a_tail = np.subtract(a, a_head, out=hi)
    r = a_head * head - p  # (((that + a_head tail) + a_tail head) + a_tail tail) + a lo
    for u, v in ((a_head, tail), (head, a_tail), (tail, a_tail), (lo, a)):
        r += np.multiply(u, v, out=u)
    return p, r


def _format(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each value, spread over 32 bytes with zeros to drop.

    Each ``|v|`` in [1e-280, 1e280] is scaled exactly enough to round to 17 digits; a zero,
    any other ``|v|``, and a scaled fraction within 1e-6 of a half (every exact tie) go to
    ``"%.17g"`` itself.  From 10 to 1e16, the digits after a dot move one byte to make room.
    """
    tables = _tables()
    x = values.ravel()
    a = np.abs(x)
    outside = ~((a >= 1e-280) & (a <= 1e280))  # nan too
    np.copyto(a, 1.0, where=outside)
    e = np.floor(np.log10(a)).astype(np.intp) + 300  # the exponent, maybe one off, + 300
    p, r = _scaled(a, e)
    low, high = (p - 1e16) + r < 0, (p - 1e17) + r >= 0  # exact signs: p - 1e16 is exact
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        e[low] -= 1
        e[high] += 1
        p[wrong], r[wrong] = _scaled(a[wrong], e[wrong])
    np.copyto(r, 0.5, where=outside)  # a tie, to hand back
    whole = np.rint(r)
    ties = np.flatnonzero(abs(r - whole) > 0.5 - 1e-6).tolist()
    d = p.astype(np.int64) + whole.astype(np.int64)  # 17 digits, or 10**17 when they round up
    del a, p, r, whole, low, high, outside
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    quads = np.empty((4, d.size), np.int64)  # the 16 digits after the first, 4 at a time
    np.floor_divide(d, 10 ** 8, out=quads[1])
    np.subtract(d, quads[1] * 10 ** 8, out=quads[3])
    np.floor_divide(quads[1::2], 10 ** 4, out=quads[::2])
    quads[1::2] -= quads[::2] * 10 ** 4
    e += lead // 10  # where the 17 digits round up to 10**17
    sig = np.full(d.size, 2)  # max over groups j of 2 s + 8 j, s the digits up to group j's
    for j, group in enumerate(quads):  # last nonzero one
        top = tables["sig"].take(group)
        top += 8 * j
        np.maximum(sig, top, out=sig)
    t = tables["layout"].take(e) + sig + (x < 0)
    del sig, top, d
    out = tables["template"].take(t, axis=0)
    words = out.view(np.uint64)
    out.view(np.uint32)[:, 1] &= tables["lead"].take(lead)  # bytes 4..7; "1" where lead is 10
    words[:, 3] &= tables["exponent"].take(e)
    for j, group in enumerate(quads, 2):  # one 2-d &= is slower
        out.view(np.uint32)[:, j] &= tables["quads"].take(group)
    rows = np.flatnonzero(tables["dotted"].take(t))
    if rows.size:  # a dot after digit k + 1 of exponent k: the digits after it move one byte
        moved = np.roll(out[rows], 1, axis=1).view(np.uint64)  # the last digit to byte 24
        below, above, dot = tables["dot"].take(e.take(rows) - 300, axis=1)
        words[rows, 1:] = words[rows, 1:] & below | moved[:, 1:] & above | dot
    for i in ties:
        out[i] = np.frombuffer((b"%.17g" % x[i]).ljust(32, b"\0"), np.uint8)
    return out.reshape(values.shape + (32,))


def _write_rows(
    lo: int, hi: int, paths: list[Path | int], header: str,
    shared: list[np.ndarray], own: list[list[np.ndarray]],
) -> None:
    """Write rows ``[lo, hi)`` of the signals files, block by block, one file open at a time.

    A block formats the ``shared`` columns once for every file, and file ``f`` its ``own[f]``.
    A file's first row opens it "wb", dropping an earlier run's rows, under the header, and
    a later block reopens it "ab".  A path may be an open descriptor, which stays open; only
    such a file may begin before ``lo``.  The file written last stays open until the next.
    """
    n, width = len(shared[0]), len(own[0])
    step = max(1, _SIGNALS_BLOCK // max(width, 3))  # rows a formatter call takes
    files = range(lo // n, (hi - 1) // n + 1)
    fh = held = None  # the file written last, and its index
    try:
        for start in range(max(0, lo - files[-1] * n), min(n, hi - files[0] * n), step):
            stop = min(start + step, n, hi - files[0] * n)
            prefixes = _format(np.stack([column[start:stop] for column in shared], axis=1))
            for f in files:
                a, b = max(start, lo - f * n), min(stop, hi - f * n)
                if a >= b:
                    continue
                fields = _format(np.stack([column[a:b] for column in own[f]], axis=1))
                # a row of fields a row of the file; a field's last byte takes its separator
                buf = bytearray((b - a) * (3 + width) * 32)
                block = np.frombuffer(buf, np.uint8).reshape(b - a, 3 + width, 32)
                block[:, :3] = prefixes[a - start:b - start]
                block[:, 3:] = fields
                block[:, :, 31] = ord(",")
                block[:, -1, 31] = ord("\n")
                del fields  # before the text
                if f != held:
                    if fh is not None:
                        fh.close()
                    fh, held = open(paths[f], "ab" if a else "wb",
                                    closefd=not isinstance(paths[f], int)), f
                    if not a:
                        fh.write(header.encode())
                fh.write(buf.translate(None, b"\0"))
                del buf, block  # before the next file's
    finally:
        if fh is not None:
            fh.close()


def _cpu_count() -> int:
    """CPUs this process may run on (Linux)."""
    return len(os.sched_getaffinity(0))


def _this_cpu() -> int:
    """The CPU this process runs on, or -1 (the C library's ``sched_getcpu``; Linux)."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return -1
    getcpu.argtypes, getcpu.restype = (), ctypes.c_int
    return getcpu()


def _reap(pid: int, stop: bool) -> None:
    """Wait until the forked child ``pid`` has ended, killing it first if ``stop``.

    A child the kernel has reaped already (it does when SIGCHLD is ignored) is
    not an error, and a wait that fails kills the child.
    """
    try:
        if stop:
            os.kill(pid, 9)  # SIGKILL, without importing signal (4-12 kB of peak RSS)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):  # ECHILD, ESRCH: it is gone
        pass
    except OSError:  # the wait failed: stop the child
        if stop:
            raise
        _reap(pid, stop=True)


def _write_signals(
    paths: list[Path], header: str, shared: list[np.ndarray], own: list[list[np.ndarray]]
) -> None:
    """Write the signals files with ``_write_rows``, which takes the same arguments.

    With more than one CPU on Linux, a forked child writes the rows from one past
    the middle, always inside a file, and this process the rows before.  The child
    first leaves the CPU this process ran on at the fork, for the others it may use:
    where the kernel does not balance the processes' CPUs, it would otherwise share
    that one CPU with this process for as long as both write.  The child
    writes that file's rows to an anonymous file's descriptor, left open, and then
    appends a NUL, which no row holds: a mark that a lost exit status (SIGCHLD
    ignored) does not lose.  This process appends the anonymous file less the
    mark to the file once the child is done.  Without the mark it rewrites the
    child's rows from that file's first row, and with no child it writes every
    row, so the bytes and errors are one process's.
    """
    args = (header, shared, own)
    n = len(shared[0])
    total = len(paths) * n
    split = total // 2 + 1  # n / 2 divides total // 2, so split % n is 1 or n / 2 + 1
    tail = pid = None
    _tables()  # before the fork, so a child inherits the tables
    try:
        if sys.platform == "linux" and _cpu_count() > 1:  # fork, memfd_create, sendfile to a file
            try:  # either failing leaves no child, and this process writes every row
                tail = os.memfd_create("signals-tail")
                cpu = _this_cpu()
                with warnings.catch_warnings():
                    # numpy's BLAS threads make Python >= 3.12 warn; the child calls none
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                pass
            if pid == 0:  # the child: no atexit handler runs, no inherited buffer is flushed
                status = 1
                try:
                    try:  # a child starts on its parent's CPU, and may stay there
                        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
                    except OSError:  # such as no other CPU: it runs where it is
                        pass
                    paths = [*paths[:split // n], tail, *paths[split // n + 1:]]
                    _write_rows(split, total, paths, *args)
                    os.write(tail, b"\0")
                    status = 0
                finally:
                    os._exit(status)
        _write_rows(0, split if pid else total, paths, *args)  # with no child, every row
        if pid is not None:
            _reap(pid, stop=False)
            pid = None
            size = os.fstat(tail).st_size - 1  # the child's rows, then its mark
            if size < 0 or os.pread(tail, 1, size) != b"\0":  # rewrites whole files, no tail
                _write_rows(split - split % n, total, paths, *args)
            else:
                with paths[split // n].open("r+b") as fh:  # sendfile refuses an O_APPEND target
                    fh.seek(0, os.SEEK_END)
                    offset = 0
                    while offset < size:
                        offset += os.sendfile(fh.fileno(), tail, offset, size - offset)
    finally:
        if pid:  # this process failed while the child runs
            _reap(pid, stop=True)
        if tail is not None:
            os.close(tail)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Check the run's data, then run the sweep and write ``errors/summary/signals`` CSVs."""
    grid = cfg.grid()
    f_true = preset_source(cfg.source, grid)
    try:  # _measure refuses a degenerate medium or grid first
        run = _measure(f_true, cfg.params, cfg.p, cfg.filters)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:  # the sweep's scoring of the least-noise row: mu grows with delta, so can p score it?
        _score(run, [0.0])
    except ValueError as exc:
        reason = str(exc)
        if not math.isfinite(run.c_bound):  # a filtered row met an overflowed norm
            with np.errstate(all="ignore"):  # the norm at the least p > 0, as _measure takes it
                if not math.isfinite(hp_norm(dft(f_true), 5e-324)):
                    raise ConfigError("t_max: the source's H^p norm overflows at every p > 0 "
                                      f"with t_max = {cfg.t_max:g} and n = {cfg.n}") from exc
            reason = f"its H^p norm overflows at p = {cfg.p:g}"
        raise ConfigError(f"smoothness order p is too large for this source: {reason}") from exc
    try:  # every level is judged, in level order, before any file is written
        cells = _sweep(run, cfg.eps_list, cfg.seed_ids, cfg.master_seed)
    except _Unscorable as exc:
        raise ConfigError(str(exc)) from exc
    y = run.y
    del run  # its Lambda table: nothing after the sweep reads it
    rows = tuple(row for cell in cells for row in cell.rows)
    # naive first in errors and signals, as run_cell orders estimates; last in summary
    selected = list(cells[0].estimates)
    summary_labels = sorted(selected, key="naive".__eq__)

    errors: dict = {}  # rel_err by (epsilon, filter) in row order, one per seed
    for r in rows:
        errors.setdefault((r.epsilon, r.filter), []).append(r.rel_err)
    summary = [{"epsilon": epsilon, **{label: sum(errors[epsilon, label]) / len(cfg.seed_ids)
                                       for label in summary_labels}} for epsilon in cfg.eps_list]

    signal_paths = [cfg.out_dir / f"signals_{cell.epsilon:g}_{cell.seed}.csv" for cell in cells]
    files = [cfg.out_dir / "errors.csv", cfg.out_dir / "summary.csv", *signal_paths]
    # a failed write leaves the files written before it
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(
            files[0],
            ["epsilon", "seed", "filter", "mu", "delta", "delta_max", "rel_err", "theory_bound"],
            (
                [_fmt(r.epsilon), str(r.seed), r.filter, _fmt(r.mu), _fmt(r.delta),
                 _fmt(r.delta_max), _fmt(r.rel_err), _fmt(r.theory_bound)]
                for r in rows
            ),
        )
        _write_csv(
            files[1],
            ["epsilon"] + [f"rel_err_{label}" for label in summary_labels],
            ([_fmt(e["epsilon"])] + [_fmt(e[label]) for label in summary_labels] for e in summary),
        )
        _write_signals(
            signal_paths,
            ",".join(["t", "f_true", "y", "y_noisy"] + [f"f_{label}" for label in selected]) + "\n",
            [grid.times(), f_true.samples, y.samples],  # the same in every file
            [[cell.y_noisy.samples] + [cell.estimates[label].samples for label in selected]
             for cell in cells],
        )
    except OSError as exc:
        raise ConfigError(f"out: cannot write to {cfg.out_dir}: {exc}") from exc

    return ExperimentReport(
        config=cfg, cells=tuple(cells), rows=rows, summary=tuple(summary),
        files=tuple(files),
    )


# Parsers take a flag's text or a JSON value; they raise TypeError or
# ValueError, which _parse reports as a ConfigError naming the key.


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _list(item: Callable) -> Callable:
    """Parser of a JSON list, or of comma-separated text, of ``item`` values."""

    def parse(value) -> tuple:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        elif not isinstance(value, list):
            raise TypeError(f"expected a list or comma-separated text, got {value!r}")
        return tuple(item(v) for v in value)

    return parse


def _out(value) -> Path:
    if value == "":  # Path("") is the working directory
        raise ValueError("expected a directory, got empty text")
    return Path(value)


def _seeds(value) -> tuple[int, ...]:
    """A count expands to identifiers 0..count-1; a list is taken as is."""
    if isinstance(value, list) or (isinstance(value, str) and "," in value):
        return _list(_int)(value)
    count = _int(value)
    if count < 0:
        raise ValueError(f"seed count must be nonnegative, got {count}")
    return tuple(range(count))


class Setting(NamedTuple):
    parse: Callable
    default: object  # None: required, from a flag, a config file or an example preset
    help: str
    field: str = ""  # ExperimentConfig field, when it is not the key


# One entry per run setting, in --help order.  The flag is the key with
# dashes for underscores, and the JSON config key is the key itself; the
# keys of MediumParams' fields build ``params``.  Overlay order: defaults <
# example preset < config file < flags.
SETTINGS = {
    "alpha": Setting(_float, None, "fractional time order in (0, 1]"),
    "omega": Setting(_float, None, "diffusivity"),
    "beta": Setting(_float, None, "convection speed"),
    "nu": Setting(_float, None, "reaction rate"),
    "x0": Setting(_float, None, "sensor position"),
    "p": Setting(_float, None, "assumed Sobolev smoothness of the source"),
    "t_max": Setting(_float, 10.0, "window length"),
    "n": Setting(_int, 256, "sample count (power of two)"),
    "pad": Setting(_int, 1, "zero-padding factor for the window", "pad_factor"),
    "source": Setting(str, None, "source preset: square or exp"),
    "filters": Setting(
        _list(str), ",".join(kind.value for kind in FilterKind),
        "comma list from r1,r2,r3,naive",
    ),
    "eps": Setting(_list(_float), "0.1,0.01,0.001,0.0001,1e-05",
                   "comma list of noise levels", "eps_list"),
    "seeds": Setting(_seeds, 20, "seed count, or comma list of seed identifiers", "seed_ids"),
    "master_seed": Setting(_int, 12345, "root of the per-cell noise seeds"),
    "out": Setting(_out, "fracsrc-out", "output directory", "out_dir"),
}


def _parse(key: str, parse: Callable, value):
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    loaded: dict = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for key in loaded:
            if key not in SETTINGS and key != "example":
                raise ConfigError(f"{path}: unknown config key {key!r}")

    settings = {key: s.default for key, s in SETTINGS.items() if s.default is not None}
    example = loaded.pop("example", args.example)  # --example and --config exclude each other
    if example is not None:
        example = _parse("example", _int, example)
        if example not in EXAMPLE_PRESETS:
            raise ConfigError(f"example: unknown preset {example}")
        settings.update(EXAMPLE_PRESETS[example])
    settings.update(loaded)
    settings.update((key, value) for key, value in vars(args).items() if key in SETTINGS)

    missing = [key for key in SETTINGS if key not in settings]
    if missing:
        raise ConfigError(
            f"not set: {', '.join(missing)} (use flags, a config file, or --example)"
        )
    values = {key: _parse(key, SETTINGS[key].parse, value) for key, value in settings.items()}
    try:
        params = MediumParams(**{f.name: values.pop(f.name) for f in fields(MediumParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        params=params, **{SETTINGS[key].field or key: value for key, value in values.items()}
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsrc",
        description="Estimate a time-dependent source from noisy sensor data "
        "with spectral regularization filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment sweep and write CSV tables")
    preset = run.add_mutually_exclusive_group()
    preset.add_argument("--example", metavar="{1,2}",
                        help="benchmark preset: 1 square-wave source, 2 decaying exponential")
    preset.add_argument("--config", help="JSON config file (flags override it)")
    for key, setting in SETTINGS.items():
        help_text = setting.help
        if setting.default is not None:
            help_text += f" (default {setting.default})"
        run.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                         help=help_text)
    return parser


def _keep_freed_memory() -> None:
    """Have glibc keep a run's freed arrays in its heap, for the next stage to reuse.

    By default glibc maps large blocks apart and trims the heap's free top,
    under thresholds that start small and grow only as blocks are freed, so
    the n-point arrays of one stage are handed back to the kernel and the next
    stage faults in fresh zeroed pages.  Setting both thresholds fixes them:
    blocks below 32 MiB come from the heap, and its top is trimmed only past
    64 MiB free.  Setting either one alone stops glibc from raising the other.
    A libc other than glibc, or a refused setting, changes nothing.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr, name or symbol
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; 0 if refused, then nothing is set
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _keep_freed_memory()  # a command-line run's own process: library calls leave malloc alone
    where = "while building the run settings"
    try:
        # floating-point trouble ends in an error or a guard failure, not a warning
        with np.errstate(all="ignore"):
            cfg = _build_config(args)
            where = f"on a grid of {cfg.grid().n} samples"
            report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # such as a seed count too large to expand, or a grid too large
        print(f"guard failure: out of memory {where}", file=sys.stderr)
        return 3
    except (SymmetryError, ValueError) as exc:
        print(f"guard failure: {exc}", file=sys.stderr)
        return 3

    labels = list(report.summary[0])[1:]
    table = [["epsilon", *labels]] + [
        [f"{entry['epsilon']:g}", *(_mean(entry[label]) for label in labels)]
        for entry in report.summary
    ]
    widths = [max(10, *map(len, column)) for column in zip(*table)]
    try:
        print("seed-averaged relative errors")
        for row in table:
            print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        print(f"wrote {len(report.files)} files to {cfg.out_dir}", flush=True)
    except OSError as exc:  # such as a closed pipe or a full disk
        # Python flushes stdout again at exit: send what is left to devnull (signal's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: stdout: cannot write the summary: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
