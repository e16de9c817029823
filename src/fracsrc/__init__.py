"""fracsrc: recover a time-dependent source from noisy sensor data.

A measurement taken at one position of a fractional convection-diffusion-
reaction medium determines the driving source through a frequency-domain
multiplier that grows with frequency, so plain inversion amplifies noise.
This package evaluates the exact symbols, stabilizes the inversion with
three spectral filter families and an a priori parameter rule, and ships a
deterministic benchmark harness (library and ``fracsrc`` CLI) around two
reference sources.

The package exports the ``__all__`` of each of its five modules.
"""

from . import cli, pipeline, regularize, spectral, symbols

__version__ = "0.1.0"

_MODULES = (cli, pipeline, regularize, spectral, symbols)
globals().update({name: getattr(module, name) for module in _MODULES for name in module.__all__})
__all__ = ["__version__", *sorted(name for module in _MODULES for name in module.__all__)]
