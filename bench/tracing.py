"""Outside-in per-layer trace of fracsrc, installed by patching module globals.

A layer is a fracsrc module.  Every function in a layer's ``__all__`` is
wrapped in its defining module and in every fracsrc module that bound it with
``from ... import``, because callers look it up there.  Most wrappers record
a span (name, parent, start, end, size); the per-bin scalar symbols are only
counted, one per scalar call or one per element of an array argument.  The
spans stay in memory until :meth:`Tracer.write` and the layer metrics are
derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("symbols", "spectral", "regularize", "pipeline", "cli")

# Per-bin scalar functions: metric name and position of the ``xi`` argument.
COUNTED = {
    "symbols.inverse_symbol": ("symbols.lambda_evals", 0),
    "symbols.forward_kernel": ("symbols.kernel_evals", 1),
    "regularize.filter_value": ("regularize.filter_evals", 1),
}
# Building blocks that inverse_symbol and forward_kernel call once or twice
# per bin.  Wrapping them would add several wrapper calls per bin to the
# traced run and feed no metric, so they stay untouched.
UNTRACED = {"symbols.frac_power", "symbols.sym_z", "symbols.sym_h"}

# Spans whose size is the number of grid points they handle.
SIZED = {"spectral.multiplier_values", "spectral.dft", "spectral.idft"}


def _grid_size(first) -> int:
    """Points of the grid passed as a TimeGrid, or as a signal or spectrum on one."""
    return getattr(first, "grid", first).n


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, size]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._lambda_keys: set[tuple[int, float]] = set()
        self._params_by_id: dict[int, object] = {}

    def install(self) -> None:
        """Wrap the layers' public functions wherever fracsrc modules bound them."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fracsrc.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name in UNTRACED:
                    continue
                if name == "symbols.inverse_symbol":
                    replacements[id(fn)] = self._lambda_counter(fn)
                elif name in COUNTED:
                    replacements[id(fn)] = self._counter(fn, *COUNTED[name])
                else:
                    replacements[id(fn)] = self._span(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fracsrc" and not mod_name.startswith("fracsrc."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = _grid_size(args[0] if args else next(iter(kwargs.values()))) if sized else 0
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, size]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, fn, metric, xi_pos):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            xi = args[xi_pos] if len(args) > xi_pos else kwargs["xi"]
            counts[metric] += 1 if isinstance(xi, float) else int(np.size(xi))
            return fn(*args, **kwargs)

        return wrapper

    def _lambda_counter(self, fn):
        """Count Lambda evaluations and remember which (medium, xi) they were for."""
        counts, keys, params_by_id = self.counts, self._lambda_keys, self._params_by_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            xi = args[0] if args else kwargs["xi"]
            params = args[1] if len(args) > 1 else kwargs["params"]
            pid = id(params)
            if pid not in params_by_id:
                params_by_id[pid] = params  # the reference keeps the id unique
            if isinstance(xi, float):
                counts["symbols.lambda_evals"] += 1
                keys.add((pid, xi))
            else:
                flat = np.ravel(xi).tolist()
                counts["symbols.lambda_evals"] += len(flat)
                keys.update((pid, v) for v in flat)
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, tagged with the file's name as request id."""
        request = path.stem
        with path.open("w") as fh:
            for index, (name, parent, start, end, size) in enumerate(self.spans):
                fh.write(json.dumps({
                    "request": request, "id": index, "parent": parent, "name": name,
                    "start": start, "end": end, "size": size,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s) and counts of one traced execution.

        ``*_s`` metrics named after functions are inclusive busy times;
        ``*.self_s`` subtracts the intervals covered by child spans.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        size: Counter[str] = Counter()
        for index, (name, _, start, end, n) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[index]
            calls[name] += 1
            size[name] += n
        noise = ("pipeline.add_noise", "pipeline.cell_seed")
        not_self = set(noise) | {"pipeline.synthesize_data"}
        fft = ("spectral.dft", "spectral.idft")
        lambda_needed = len({(self._params_by_id[pid], xi) for pid, xi in self._lambda_keys})
        lambda_evals = self.counts["symbols.lambda_evals"]
        return {
            "cli.self_s": own["cli.main"] + own["cli.run_experiment"],
            "cli.preset_source_s": incl["cli.preset_source"],
            "pipeline.self_s": sum(
                t for name, t in own.items()
                if name.startswith("pipeline.") and name not in not_self
            ),
            "pipeline.noise_s": sum(incl[name] for name in noise),
            "pipeline.cells": calls["pipeline.run_cell"],
            "pipeline.synthesize_s": incl["pipeline.synthesize_data"],
            "pipeline.synthesize_calls": calls["pipeline.synthesize_data"],
            "spectral.table_s": incl["spectral.multiplier_values"],
            "spectral.table_builds": calls["spectral.multiplier_values"],
            "spectral.table_bins": size["spectral.multiplier_values"],
            "spectral.fft_s": sum(incl[name] for name in fft),
            "spectral.fft_calls": sum(calls[name] for name in fft),
            "spectral.fft_points": sum(size[name] for name in fft),
            "spectral.norm_s": incl["spectral.l2_norm"] + incl["spectral.hp_norm"],
            "regularize.filter_evals": self.counts["regularize.filter_evals"],
            "regularize.bound_s": incl["regularize.error_bound"],
            "symbols.lambda_evals": lambda_evals,
            "symbols.kernel_evals": self.counts["symbols.kernel_evals"],
            "symbols.lambda_useful_ratio": lambda_needed / lambda_evals if lambda_evals else 0.0,
        }
