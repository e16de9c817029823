"""Command-line front end: presets, free-form sweeps, CSV outputs.

``fracsrc run`` executes a deterministic sweep over noise levels and seeds
and writes three kinds of plain-CSV files into the output directory:

* ``errors.csv``    one row per (noise level, seed, estimator);
* ``summary.csv``   seed-averaged relative error per (noise level, filter);
* ``signals_<eps>_<seed>.csv``  plot-ready dump of the true source, the
  clean and noisy measurements, and every selected reconstruction.

Floats are serialized with 17 significant digits, so identical
configurations produce byte-identical files.  Exit codes: 0 on success, 2 on
configuration errors, 3 when an internal consistency guard fires.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pipeline import ESTIMATOR_LABELS, CellResult, ErrorRow, run_sweep, synthesize_data
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

DEFAULT_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_MASTER_SEED = 12345
DEFAULT_FILTERS = ("r1", "r2", "r3")
SUMMARY_COLUMN_ORDER = ("r1", "r2", "r3", "naive")

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
        if not self.seed_ids:
            raise ConfigError("seed list must not be empty")
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
        try:
            self.grid()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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
        samples = []
        for t in times:
            if 0.0 <= t < 2.5 or 5.0 <= t < 7.5:
                samples.append(-1.0)
            elif 2.5 <= t < 5.0 or 7.5 <= t <= 10.0:
                samples.append(1.0)
            else:
                samples.append(0.0)
        return RealSignal(grid, samples)
    if preset_id == "exp":
        samples = [6.51 * math.exp(-t) if 0.0 <= t <= 10.0 else 0.0 for t in times]
        return RealSignal(grid, samples)
    raise ConfigError(f"unknown source preset {preset_id!r}")


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _selected(filters: tuple[str, ...]) -> list[str]:
    return [label for label in ESTIMATOR_LABELS if label in filters]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the configured sweep and write ``errors/summary/signals`` CSVs."""
    grid = cfg.grid()
    f_true = preset_source(cfg.source, grid)
    cells = run_sweep(
        f_true,
        cfg.params,
        cfg.p,
        cfg.eps_list,
        cfg.seed_ids,
        tuple(_selected(cfg.filters)),
        cfg.master_seed,
    )
    rows = tuple(row for cell in cells for row in cell.rows)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []

    errors_path = cfg.out_dir / "errors.csv"
    _write_csv(
        errors_path,
        ["epsilon", "seed", "filter", "mu", "delta", "delta_max", "rel_err", "theory_bound"],
        [
            [_fmt(r.epsilon), str(r.seed), r.filter, _fmt(r.mu), _fmt(r.delta),
             _fmt(r.delta_max), _fmt(r.rel_err), _fmt(r.theory_bound)]
            for r in rows
        ],
    )
    files.append(errors_path)

    summary_labels = [label for label in SUMMARY_COLUMN_ORDER if label in cfg.filters]
    summary = []
    for epsilon in cfg.eps_list:
        entry: dict = {"epsilon": epsilon}
        for label in summary_labels:
            errs = [r.rel_err for r in rows if r.epsilon == epsilon and r.filter == label]
            entry[label] = sum(errs) / len(errs)
        summary.append(entry)
    summary_path = cfg.out_dir / "summary.csv"
    _write_csv(
        summary_path,
        ["epsilon"] + [f"rel_err_{label}" for label in summary_labels],
        [[_fmt(e["epsilon"])] + [_fmt(e[label]) for label in summary_labels] for e in summary],
    )
    files.append(summary_path)

    times = grid.times()
    y = synthesize_data(f_true, cfg.params)
    selected = _selected(cfg.filters)
    header = ",".join(["t", "f_true", "y", "y_noisy"] + [f"f_{label}" for label in selected])
    for cell in cells:
        signal_path = cfg.out_dir / f"signals_{cell.epsilon:g}_{cell.seed}.csv"
        columns = np.column_stack(
            [times, f_true.samples, y.samples, cell.y_noisy.samples]
            + [cell.estimates[label].samples for label in selected]
        )
        with signal_path.open("w") as fh:
            fh.write(header + "\n")
            for row in columns:
                fh.write(",".join([f"{v:.17g}" for v in row.tolist()]) + "\n")
        files.append(signal_path)

    return ExperimentReport(
        config=cfg, cells=tuple(cells), rows=rows, summary=tuple(summary),
        files=tuple(files),
    )


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} list {text!r}: {exc}") from exc


def _parse_seeds(value) -> tuple[int, ...]:
    """A bare count expands to identifiers 0..count-1; a list is taken as is."""
    if isinstance(value, int):
        if value < 1:
            raise ConfigError(f"seed count must be >= 1, got {value}")
        return tuple(range(value))
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    text = str(value)
    if "," in text:
        try:
            return tuple(int(part) for part in text.split(",") if part.strip() != "")
        except ValueError as exc:
            raise ConfigError(f"could not parse seed list {text!r}") from exc
    try:
        return _parse_seeds(int(text))
    except ValueError as exc:
        raise ConfigError(f"could not parse seeds {text!r}") from exc


def _parse_filters(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        labels = [str(v) for v in value]
    else:
        labels = [part.strip() for part in str(value).split(",") if part.strip() != ""]
    seen: list[str] = []
    for label in labels:
        if label not in seen:
            seen.append(label)
    return tuple(seen)


_MEDIUM_KEYS = ("omega", "beta", "nu", "alpha", "x0")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {
        "n": 256, "t_max": 10.0, "pad": 1,
        "eps": DEFAULT_EPS, "seeds": 20,
        "filters": DEFAULT_FILTERS, "master_seed": DEFAULT_MASTER_SEED,
        "out": "fracsrc-out",
    }

    if args.config is not None:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        example = loaded.pop("example", None)
        if example is not None:
            if example not in EXAMPLE_PRESETS:
                raise ConfigError(f"{path}: unknown example preset {example!r}")
            settings.update(EXAMPLE_PRESETS[example])
        for key, value in loaded.items():
            if key not in settings and key not in (
                *_MEDIUM_KEYS, "source", "p", "eps", "seeds", "filters",
            ):
                raise ConfigError(f"{path}: unknown config key {key!r}")
            settings[key] = value
    elif args.example is not None:
        settings.update(EXAMPLE_PRESETS[args.example])

    flag_map = {
        "omega": args.omega, "beta": args.beta, "nu": args.nu,
        "alpha": args.alpha, "x0": args.x0, "n": args.n, "t_max": args.t_max,
        "pad": args.pad, "p": args.p, "source": args.source,
        "filters": args.filters, "eps": args.eps, "seeds": args.seeds,
        "master_seed": args.master_seed, "out": args.out,
    }
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value

    missing = [key for key in _MEDIUM_KEYS if key not in settings]
    if missing:
        raise ConfigError(
            "medium parameters missing: " + ", ".join(missing)
            + " (set them with flags, a config file, or --example)"
        )
    if "source" not in settings:
        raise ConfigError("no source selected (use --source, a config file, or --example)")
    if "p" not in settings:
        raise ConfigError("no smoothness order selected (use --p, a config file, or --example)")

    eps = settings["eps"]
    if isinstance(eps, str):
        eps = _parse_float_list(eps, "eps")
    try:
        params = MediumParams(
            omega=float(settings["omega"]), beta=float(settings["beta"]),
            nu=float(settings["nu"]), alpha=float(settings["alpha"]),
            x0=float(settings["x0"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        params=params,
        n=int(settings["n"]),
        t_max=float(settings["t_max"]),
        pad_factor=int(settings["pad"]),
        source=str(settings["source"]),
        p=float(settings["p"]),
        eps_list=tuple(float(e) for e in eps),
        seed_ids=_parse_seeds(settings["seeds"]),
        filters=_parse_filters(settings["filters"]),
        master_seed=int(settings["master_seed"]),
        out_dir=Path(settings["out"]),
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
    preset.add_argument("--example", type=int, choices=(1, 2),
                        help="benchmark preset: 1 square-wave source, 2 decaying exponential")
    preset.add_argument("--config", type=str, help="JSON config file (flags override it)")
    for key, doc in (
        ("alpha", "fractional time order in (0, 1]"),
        ("omega", "diffusivity"), ("beta", "convection speed"),
        ("nu", "reaction rate"), ("x0", "sensor position"),
        ("p", "assumed Sobolev smoothness of the source"),
        ("t-max", "window length"),
    ):
        run.add_argument(f"--{key}", type=float, default=None, help=doc)
    run.add_argument("--n", type=int, default=None, help="sample count (power of two)")
    run.add_argument("--pad", type=int, default=None,
                     help="zero-padding factor for the window (default 1)")
    run.add_argument("--source", choices=("square", "exp"), default=None)
    run.add_argument("--filters", type=str, default=None,
                     help="comma list from r1,r2,r3,naive")
    run.add_argument("--eps", type=str, default=None, help="comma list of noise levels")
    run.add_argument("--seeds", type=str, default=None,
                     help="seed count, or comma list of seed identifiers")
    run.add_argument("--master-seed", type=int, default=None, dest="master_seed")
    run.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymmetryError as exc:
        print(f"guard failure: {exc}", file=sys.stderr)
        return 3

    labels = [label for label in SUMMARY_COLUMN_ORDER if label in cfg.filters]
    print("seed-averaged relative errors")
    print("  ".join(["epsilon".rjust(10)] + [label.rjust(10) for label in labels]))
    for entry in report.summary:
        cells = [f"{entry['epsilon']:>10.3g}"] + [f"{entry[label]:>10.4f}" for label in labels]
        print("  ".join(cells))
    print(f"wrote {len(report.files)} files to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
