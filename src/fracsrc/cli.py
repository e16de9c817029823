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
With more than one CPU, a forked child writes the second half of the signals
rows; if it fails, or there is no child, the run writes them.
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
from itertools import chain
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
            samples = self.grid().n  # checks n and t_max
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if samples * 16 > sys.maxsize:  # bytes of one complex array on the grid
            raise ConfigError(
                f"n and pad: a grid of n * pad = {samples} samples is too large for any array"
            )

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


# Rows of a signals file formatted, and source samples evaluated, at a time;
# it bounds the text and the Python floats in memory.
_SIGNALS_BLOCK = 4096


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
        # math.exp, not np.exp: the two differ in the last bit on some samples;
        # a block at a time, so no n-long list of Python floats is ever alive
        decay = np.empty(grid.n)
        for start in range(0, grid.n, _SIGNALS_BLOCK):
            block = times[start:start + _SIGNALS_BLOCK].tolist()
            decay[start:start + len(block)] = [6.51 * math.exp(-t) for t in block]
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


def _write_rows(
    lo: int, hi: int, tail: int | None, paths: list[Path], header: str,
    shared: list[np.ndarray], own: list[list[np.ndarray]],
) -> None:
    """Write rows ``[lo, hi)`` of the signals files, taken file after file.

    Every file has the ``shared`` columns, formatted once per block, and file
    ``f`` its ``own[f]``.  A file begun before ``lo`` gets its rows, without
    the header, at the end of the open descriptor ``tail``, or of its file
    when ``tail`` is None.
    """
    n = len(shared[0])
    first, last = lo // n, (hi - 1) // n
    rows = range(lo - first * n, hi - last * n) if first == last else range(n)
    for start in range(rows.start, rows.stop, _SIGNALS_BLOCK):
        stop = min(start + _SIGNALS_BLOCK, rows.stop)
        shared_rows = zip(*(column[start:stop].tolist() for column in shared))
        prefixes = ["%.17g,%.17g,%.17g" % row for row in shared_rows]
        for f in range(first, last + 1):
            a, b = max(start, lo - f * n), min(stop, hi - f * n)
            if a >= b:
                continue
            own_rows = (column[a:b].tolist() for column in own[f])
            values = chain.from_iterable(zip(prefixes[a - start:b - start], *own_rows))
            text = (("%s" + ",%.17g" * len(own[f]) + "\n") * (b - a)) % tuple(values)
            # "w" on a file's first row drops whatever an earlier run left in it
            with (open(tail, "w", closefd=False) if tail is not None and f * n < lo
                  else paths[f].open("a" if a else "w")) as fh:
                if not a:
                    fh.write(header)
                fh.write(text)


def _cpu_count() -> int:
    """CPUs this process may run on (Linux)."""
    return len(os.sched_getaffinity(0))


def _write_signals(
    paths: list[Path], header: str, shared: list[np.ndarray], own: list[list[np.ndarray]]
) -> None:
    """Write the signals files with ``_write_rows``, which takes the same arguments.

    This process writes the first half of the rows; with more than one CPU on
    Linux, a forked child writes the second.  The file that straddles the split
    gets its tail from the child through an anonymous file, appended once the
    child is done.  If the child fails, or there is none, this process writes the
    second half itself, so the bytes and errors are one process's.
    """
    args = (paths, header, shared, own)
    n = len(shared[0])
    total = len(paths) * n
    split = total // 2
    tail = pid = None
    status = 1  # until a child has written rows [split, total)
    try:
        if sys.platform == "linux" and _cpu_count() > 1:  # fork, memfd_create, sendfile to a file
            tail = os.memfd_create("signals-tail") if split % n else None
            with warnings.catch_warnings():
                # numpy's BLAS threads make Python >= 3.12 warn; the child calls no threaded code
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: no atexit handler runs, no inherited buffer is flushed
                try:
                    _write_rows(split, total, tail, *args)
                    status = 0
                finally:
                    os._exit(status)
        _write_rows(0, split, None, *args)
        if pid is not None:
            status = os.waitpid(pid, 0)[1]
            pid = None
        if status:  # rewrites whole files from their first row and drops the tail
            _write_rows(split, total, None, *args)
        elif tail is not None:
            with paths[split // n].open("r+b") as fh:  # sendfile refuses an O_APPEND target
                fh.seek(0, os.SEEK_END)
                offset, size = 0, os.fstat(tail).st_size
                while offset < size:
                    offset += os.sendfile(fh.fileno(), tail, offset, size - offset)
    finally:
        if pid:  # this process failed while the child runs
            os.kill(pid, 9)  # SIGKILL: importing signal would add 0.17 MB to the peak RSS
            os.waitpid(pid, 0)
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
    print("seed-averaged relative errors")
    print("  ".join(["epsilon".rjust(10)] + [label.rjust(10) for label in labels]))
    for entry in report.summary:
        cells = [f"{entry['epsilon']:>10.3g}"] + [f"{entry[label]:>10.4f}" for label in labels]
        print("  ".join(cells))
    print(f"wrote {len(report.files)} files to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
