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
byte-identical files.  Exit codes: 0 on success, 2 on configuration errors
and unwritable outputs, 3 when an internal consistency guard fires (a
:class:`SymmetryError`, or a numeric precondition of the library raising
``ValueError``, such as a noise draw far louder than its level's expected
norm) or the run does not fit in memory.  :class:`ExperimentConfig` checks the
settings; :func:`run_experiment` checks the run's data before any noise or file
with the sweep's own ``pipeline._measure`` (medium, grid, source norm) and
``pipeline._score`` (the least-noise row and the loudest level's expected row).
With more than one CPU, a forked child writes the signals rows from one past
the middle; if it fails, or there is no child (the fork failing too), the run writes
them.  Both processes format the signals floats with NumPy into the bytes of
``"%.17g"``, and hand to ``"%.17g"`` itself the values they cannot place: zeros,
magnitudes outside [1e-280, 1e280], and near-ties at the 17th digit.
"""

from __future__ import annotations

import argparse
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

from .pipeline import CellResult, ErrorRow, _check_filters, _measure, _score, _sweep
from .regularize import FilterKind
from .spectral import RealSignal, SymmetryError, TimeGrid
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
            if not (math.isfinite(eps) and math.copysign(1.0, eps) > 0.0):  # -0 too
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


# Values a "%.17g" formatter call takes; it bounds the signals writer's arrays and text.
_SIGNALS_BLOCK = 1536
_OPEN_FILES = 32  # signals files a process keeps open at once
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
        # math.exp, not np.exp: the two differ in the last bit on some samples
        decay = np.fromiter(map(math.exp, np.negative(times)), float, grid.n)
        decay *= 6.51
        return RealSignal(grid, np.where((0.0 <= times) & (times <= 10.0), decay, 0.0))
    raise ConfigError(f"unknown source preset {preset_id!r}")


# "%.17g" % x and f"{x:.17g}" give the same bytes (PyOS_double_to_string).
def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


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
        # A field's 48 bytes: sign, "0.000", digits 0..16 each with a dot slot after, "e+-", 3
        # exponent digits, 2 spare.  Template [layout, digits - 1, sign] has 255 where a digit
        # goes; layouts 0..20 are fixed, of exponent layout - 4, 21..24 the exponent form.
        template = np.zeros((25, 17, 2, 48), np.uint8)
        template[:, :, 1, 0] = ord("-")
        for k in range(17):
            template[:, k, :, 6:8 + 2 * k:2] = 255  # k + 1 significant digits
            template[k + 4, :, :, 6:8 + 2 * k:2] = 255  # exponent k: k + 1 integer digits
            template[k + 4, k + 1:, :, 7 + 2 * k] = ord(".")  # and a dot, if digits follow
        for x in range(1, 5):  # exponent -x: "0." and x - 1 zeros
            template[4 - x, :, :, 1:2 + x] = [*b"0.000"[:1 + x]]
        template[21:, 1:, :, 7], template[21:, :, :, 40], template[21:, :, :, 44:46] = 46, 101, 255
        template[21:23, :, :, 42], template[23:, :, :, 41], template[22::2, :, :, 43] = 45, 43, 255
        pairs = np.frombuffer(b"".join(  # of 2 digits "ab": a, -, b, -
            b"%c\xff%c\xff" % (48 + i // 10, 48 + i % 10) for i in range(100)), np.uint32)
        quads = np.empty((100, 100, 2), np.uint32)  # of 4 digits "abcd": pairs "ab", "cd"
        quads[:, :, 0], quads[:, :, 1] = pairs[:, None], pairs
        sig = np.full(10000, 10)  # by 4 digits "abcd": 2 s + 2, s the digits up to the last
        sig[::10], sig[::100], sig[::1000], sig[0] = 8, 6, 4, -100  # nonzero one; see _format
        _TABLES.update(
            template=template.reshape(-1, 48),
            # by exponent e + 300: 34 layout - 2, the template less 2 digits + sign
            layout=np.array([34 * (e + 4 if -4 <= e <= 16 else 21 + 2 * (e > 0) + (abs(e) > 99)) - 2
                             for e in range(-300, 301)]),
            exponent=np.frombuffer(b"".join(  # bytes 40..47, by exponent e + 300
                b"\xff\xff\xff%03d\xff\xff" % abs(e) for e in range(-300, 301)), np.uint64),
            lead=pairs.take([*range(10), 1]),  # "0d" by the leading digit, and "01" for 10
            quads=quads.view(np.uint64).ravel(),
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
    """The bytes of ``"%.17g" % v`` for each value, spread over 48 bytes with zeros to drop.

    Each ``|v|`` in [1e-280, 1e280] is scaled exactly enough to round to 17
    digits; a zero, any other ``|v|``, and a scaled fraction within 1e-6 of a
    half (every exact tie among them) are formatted by ``"%.17g"`` itself.
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
    sig = tables["sig"].take(quads)  # + 8 j: 2 s, s the digits up to group j's last nonzero one
    sig += np.arange(0, 32, 8)[:, None]
    t = tables["layout"].take(e) + sig.max(axis=0, initial=2) + (x < 0)
    del sig, d
    out = tables["template"].take(t, axis=0)
    words = out.view(np.uint64)
    words[:, 5] &= tables["exponent"].take(e)
    out.view(np.uint32)[:, 1] &= tables["lead"].take(lead)  # its "0" meets "0.000"
    for j, group in enumerate(quads, 1):  # one 2-d &= is slower
        words[:, j] &= tables["quads"].take(group)
    for i in ties:
        out[i] = np.frombuffer((b"%.17g" % x[i]).ljust(48, b"\0"), np.uint8)
    return out.reshape(values.shape + (48,))


def _write_rows(
    lo: int, hi: int, paths: list[Path | int], header: str,
    shared: list[np.ndarray], own: list[list[np.ndarray]],
) -> None:
    """Write rows ``[lo, hi)`` of the signals files, opening each file once.

    Every file has the ``shared`` columns, formatted once per block of rows and
    ``_OPEN_FILES`` files, and file ``f`` its ``own[f]``, formatted per block.
    A path may be an open descriptor, which is closed after its file's last row;
    only such a file may begin before ``lo``, and it gets no header (a name opens "wb").
    """
    n, width = len(shared[0]), len(own[0])
    step = max(1, _SIGNALS_BLOCK // max(width, 3))  # rows a formatter call takes
    ends, handles = (hi - 1) // n + 1, {}  # the open files, by index
    try:
        for first in range(lo // n, ends, _OPEN_FILES):
            last = min(first + _OPEN_FILES, ends) - 1
            for start in range(max(0, lo - last * n), min(n, hi - first * n), step):
                stop = min(start + step, n, hi - first * n)
                prefixes = _format(np.stack([column[start:stop] for column in shared], axis=1))
                for f in range(first, last + 1):
                    a, b = max(start, lo - f * n), min(stop, hi - f * n)
                    if a >= b:
                        continue
                    fields = _format(np.stack([column[a:b] for column in own[f]], axis=1))
                    # a row of fields a row of the file; a field's last byte takes its separator
                    buf = bytearray((b - a) * (3 + width) * 48)
                    block = np.frombuffer(buf, np.uint8).reshape(b - a, 3 + width, 48)
                    block[:, :3] = prefixes[a - start:b - start]
                    block[:, 3:] = fields
                    block[:, :, 47] = ord(",")
                    block[:, -1, 47] = ord("\n")
                    del fields  # before the text
                    if f not in handles:  # "w" drops an earlier run's rows
                        handles[f] = open(paths[f], "wb")
                        if not a:
                            handles[f].write(header.encode())
                    handles[f].write(buf.translate(None, b"\0"))
                    del buf, block  # before the next file's
                    if b == min(n, hi - f * n):  # its last row here
                        handles.pop(f).close()
    finally:
        for fh in handles.values():
            fh.close()


def _cpu_count() -> int:
    """CPUs this process may run on (Linux)."""
    return len(os.sched_getaffinity(0))


def _reap(pid: int, stop: bool) -> int:
    """Reap the forked child ``pid``, killed first if ``stop``: its wait status, 0 on success.

    A child the kernel has reaped already (it does when SIGCHLD is ignored) is
    not an error.  Its status is lost, as is a killed child's, and a wait that
    fails kills the child; a lost status is 1, a failed child's.
    """
    try:
        if stop:
            os.kill(pid, 9)  # SIGKILL, without importing signal (4-12 kB of peak RSS)
        status = os.waitpid(pid, 0)[1]
        return 1 if stop else status
    except (ChildProcessError, ProcessLookupError):  # ECHILD, ESRCH: it is gone
        return 1
    except OSError:  # the wait failed, and the status with it: stop the child
        if stop:
            raise
        return _reap(pid, stop=True)


def _write_signals(
    paths: list[Path], header: str, shared: list[np.ndarray], own: list[list[np.ndarray]]
) -> None:
    """Write the signals files with ``_write_rows``, which takes the same arguments.

    With more than one CPU on Linux, a forked child writes the rows from one past
    the middle, always inside a file, and this process the rows before.  The child
    is given an anonymous file as that file's path; this process appends it to
    the file once the child is done.  If the child fails, this process rewrites
    its rows from that file's first row, and with no child it writes every row,
    so the bytes and errors are one process's.
    """
    args = (header, shared, own)
    n = len(shared[0])
    total = len(paths) * n
    split = total // 2 + 1  # n / 2 divides total // 2, so split % n is 1 or n / 2 + 1
    tail = pid = None
    status = 1  # until a child has written rows [split, total)
    _tables()  # before the fork, so a child inherits the tables
    try:
        if sys.platform == "linux" and _cpu_count() > 1:  # fork, memfd_create, sendfile to a file
            try:  # either failing leaves no child, and this process writes every row
                tail = os.memfd_create("signals-tail")
                with warnings.catch_warnings():
                    # numpy's BLAS threads make Python >= 3.12 warn; the child calls none
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                pass
            if pid == 0:  # the child: no atexit handler runs, no inherited buffer is flushed
                try:  # the tail is closed after its last row; the run keeps its own
                    paths = [*paths[:split // n], tail, *paths[split // n + 1:]]
                    _write_rows(split, total, paths, *args)
                    status = 0
                finally:
                    os._exit(status)
        _write_rows(0, split if pid else total, paths, *args)  # with no child, every row
        if pid is not None:
            status = _reap(pid, stop=False)
            pid = None
            if status:  # rewrites whole files from their first row and drops the tail
                _write_rows(split - split % n, total, paths, *args)
            else:
                with paths[split // n].open("r+b") as fh:  # sendfile refuses an O_APPEND target
                    fh.seek(0, os.SEEK_END)
                    offset, size = 0, os.fstat(tail).st_size
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
        y, c_bound = _measure(f_true, cfg.params, cfg.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the sweep's scoring of the least-noise row (mu grows with delta: can p score it?)
    # and of the loudest level's expected row, whose sum(eta^2) is n eps^2
    loudest = max(cfg.eps_list)
    for noise_sq, refusal in ((0.0, "smoothness order p is too large for this source"),
                              (grid.n * loudest * loudest,
                               f"eps: noise level {loudest:g} is too large to score")):
        try:
            _score(grid, [noise_sq], cfg.p, cfg.filters, c_bound, cfg.params)
        except ValueError as exc:
            if noise_sq or math.isfinite(c_bound):  # else a filtered row met an overflowed norm
                raise ConfigError(f"{refusal}: {exc}") from exc
            if math.isfinite(_measure(f_true, cfg.params, 5e-324)[1]):  # at the least p > 0
                raise ConfigError(f"{refusal}: its H^p norm overflows at p = {cfg.p:g}") from exc
            raise ConfigError(
                "t_max: the source's H^p norm overflows at every p > 0 "
                f"with t_max = {cfg.t_max:g} and n = {cfg.n}"
            ) from exc
    cells = _sweep(
        f_true, y, cfg.params, cfg.p, cfg.eps_list, cfg.seed_ids, cfg.filters, cfg.master_seed,
        c_bound,
    )
    rows = tuple(row for cell in cells for row in cell.rows)
    # naive first in errors and signals, as run_cell orders estimates; last in summary
    selected = list(cells[0].estimates)
    summary_labels = sorted(selected, key="naive".__eq__)

    summary = []
    for epsilon in cfg.eps_list:
        entry: dict = {"epsilon": epsilon}
        for label in summary_labels:
            errs = [r.rel_err for r in rows if r.epsilon == epsilon and r.filter == label]
            entry[label] = sum(errs) / len(errs)
        summary.append(entry)

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
            [grid.times(), f_true.samples, cells[0].y.samples],  # the same in every file
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


def _seeds(value) -> tuple[int, ...]:
    """A count expands to identifiers 0..count-1; a list is taken as is."""
    if isinstance(value, list) or (isinstance(value, str) and "," in value):
        return _list(_int)(value)
    return tuple(range(_int(value)))


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
    "out": Setting(Path, "fracsrc-out", "output directory", "out_dir"),
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    try:
        print("seed-averaged relative errors")
        print("  ".join(["epsilon".rjust(10)] + [label.rjust(10) for label in labels]))
        for entry in report.summary:
            cells = [f"{entry[label]:>10.4f}" for label in labels]
            print("  ".join([f"{entry['epsilon']:>10.3g}", *cells]))
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
