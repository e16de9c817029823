"""fracsrc: recover a time-dependent source from noisy sensor data.

A measurement taken at one position of a fractional convection-diffusion-
reaction medium determines the driving source through a frequency-domain
multiplier that grows with frequency, so plain inversion amplifies noise.
This package evaluates the exact symbols, stabilizes the inversion with
three spectral filter families and an a priori parameter rule, and ships a
deterministic benchmark harness (library and ``fracsrc`` CLI) around two
reference sources.
"""

from .cli import ConfigError, ExperimentConfig, ExperimentReport, main, preset_source, run_experiment
from .pipeline import (
    DELTA_FLOOR,
    CellResult,
    ErrorRow,
    NoiseSpec,
    add_noise,
    cell_seed,
    delta_max_rule,
    invert_naive,
    invert_regularized,
    relative_error,
    run_cell,
    run_sweep,
    synthesize_data,
)
from .regularize import (
    FilterKind,
    RegParams,
    attenuation,
    choose_mu,
    const_cap_n,
    const_m,
    const_n,
    error_bound,
    filter_factor_gap,
    filter_value,
)
from .spectral import (
    RealSignal,
    Spectrum,
    SymmetryError,
    TimeGrid,
    apply_multiplier,
    dft,
    hp_norm,
    idft,
    l2_norm,
    multiplier_values,
)
from .symbols import (
    MediumParams,
    decay_exponent,
    forward_kernel,
    frac_power,
    inverse_symbol,
    lambda_envelope,
    sym_h,
    sym_z,
    symbol_tables,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CellResult",
    "ConfigError",
    "DELTA_FLOOR",
    "ErrorRow",
    "ExperimentConfig",
    "ExperimentReport",
    "FilterKind",
    "MediumParams",
    "NoiseSpec",
    "RealSignal",
    "RegParams",
    "Spectrum",
    "SymmetryError",
    "TimeGrid",
    "add_noise",
    "apply_multiplier",
    "attenuation",
    "cell_seed",
    "choose_mu",
    "const_cap_n",
    "const_m",
    "const_n",
    "decay_exponent",
    "delta_max_rule",
    "dft",
    "error_bound",
    "filter_factor_gap",
    "filter_value",
    "forward_kernel",
    "frac_power",
    "hp_norm",
    "idft",
    "inverse_symbol",
    "invert_naive",
    "invert_regularized",
    "l2_norm",
    "lambda_envelope",
    "main",
    "multiplier_values",
    "preset_source",
    "relative_error",
    "run_cell",
    "run_experiment",
    "run_sweep",
    "sym_h",
    "sym_z",
    "symbol_tables",
    "synthesize_data",
]
