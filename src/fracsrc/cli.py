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
3 when an internal consistency guard fires during the run (a
:class:`SymmetryError`, or a numeric precondition of the library raising
``ValueError``, such as a noise level whose realized norm overflows).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .pipeline import ESTIMATOR_LABELS, CellResult, ErrorRow, _tables, run_sweep
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
            if not (math.isfinite(eps) and eps >= 0.0):
                raise ConfigError(f"noise levels must be nonnegative, got {eps!r}")
        # signals files are named by the level's 6-digit form
        labels = {f"{eps:g}" for eps in self.eps_list}
        if min(len(labels), len(set(self.eps_list))) < len(self.eps_list):
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
        for label in self.filters:
            if label not in ESTIMATOR_LABELS:
                raise ConfigError(
                    f"unknown filter {label!r}; choose from {', '.join(ESTIMATOR_LABELS)}"
                )
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise ConfigError(f"smoothness order p must be positive, got {self.p!r}")
        if not (isinstance(self.pad_factor, int) and self.pad_factor >= 1):
            raise ConfigError(f"pad factor must be an integer >= 1, got {self.pad_factor!r}")
        # a degenerate medium or grid ends in a ConfigError, not a numpy warning
        with np.errstate(all="ignore"):
            try:
                grid = self.grid()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            # the run reuses these cached tables
            tables = _tables(self.params, grid)
        if not (np.isfinite(tables.inverse).all() and np.isfinite(tables.kernel).all()
                and tables.kernel.all()):
            raise ConfigError(
                f"Lambda or G(x0, .) is not finite and nonzero for {self.params} on {grid}"
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
        samples = [6.51 * math.exp(-t) if 0.0 <= t <= 10.0 else 0.0 for t in times]
        return RealSignal(grid, samples)
    raise ConfigError(f"unknown source preset {preset_id!r}")


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Stream a header and rows of formatted fields to ``path``."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the configured sweep and write ``errors/summary/signals`` CSVs."""
    grid = cfg.grid()
    f_true = preset_source(cfg.source, grid)
    cells = run_sweep(
        f_true, cfg.params, cfg.p, cfg.eps_list, cfg.seed_ids, cfg.filters, cfg.master_seed
    )
    rows = tuple(row for cell in cells for row in cell.rows)
    # naive first in errors and signals, as run_cell orders estimates; last in summary
    selected = list(cells[0].estimates)
    summary_labels = sorted(selected, key="naive".__eq__)

    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create {cfg.out_dir}: {exc}") from exc
    files = [cfg.out_dir / "errors.csv", cfg.out_dir / "summary.csv"]

    _write_csv(
        files[0],
        ["epsilon", "seed", "filter", "mu", "delta", "delta_max", "rel_err", "theory_bound"],
        (
            [_fmt(r.epsilon), str(r.seed), r.filter, _fmt(r.mu), _fmt(r.delta),
             _fmt(r.delta_max), _fmt(r.rel_err), _fmt(r.theory_bound)]
            for r in rows
        ),
    )

    summary = []
    for epsilon in cfg.eps_list:
        entry: dict = {"epsilon": epsilon}
        for label in summary_labels:
            errs = [r.rel_err for r in rows if r.epsilon == epsilon and r.filter == label]
            entry[label] = sum(errs) / len(errs)
        summary.append(entry)
    _write_csv(
        files[1],
        ["epsilon"] + [f"rel_err_{label}" for label in summary_labels],
        ([_fmt(e["epsilon"])] + [_fmt(e[label]) for label in summary_labels] for e in summary),
    )

    times = grid.times()
    header = ["t", "f_true", "y", "y_noisy"] + [f"f_{label}" for label in selected]
    for cell in cells:
        signal_path = cfg.out_dir / f"signals_{cell.epsilon:g}_{cell.seed}.csv"
        columns = np.column_stack(
            [times, f_true.samples, cell.y.samples, cell.y_noisy.samples]
            + [cell.estimates[label].samples for label in selected]
        )
        _write_csv(signal_path, header, ([f"{v:.17g}" for v in row.tolist()] for row in columns))
        files.append(signal_path)

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
    try:
        # floating-point trouble ends in an error or a guard failure, not a warning
        with np.errstate(all="ignore"):
            cfg = _build_config(args)
            report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
