"""Uniform time grid, scaled FFT pair, and discrete L2 / Sobolev norms.

Conventions, fixed once and used everywhere:

* samples sit at ``t_k = k dt`` with ``dt = t_max / n``;
* bin ``k`` carries the angular frequency ``xi_k = 2 pi k~ / (n dt)`` with
  ``k~ = k`` for ``k < n/2`` and ``k~ = k - n`` otherwise, so for even ``n``
  the Nyquist bin ``n/2`` sits at the most negative frequency ``-pi/dt``;
* the forward transform is ``coeffs = dt / sqrt(2 pi) * FFT(samples)``, the
  Riemann-sum approximation of the unitary continuous transform;
* quadrature weights are ``dt`` per time sample and ``dxi = 2 pi / t_max``
  per frequency bin.  With this pairing the discrete Parseval identity
  ``l2_norm(s)^2 == sum_k dxi |dft(s)_k|^2`` holds exactly (up to rounding).

Multipliers (transfer functions sampled on the bin frequencies) become
tables through :func:`multiplier_values`, which forces a real gain on the
Nyquist bin: that bin aliases the pair ``+-pi/dt``, a real signal cannot
carry phase there, and using the modulus keeps reciprocal symbol pairs
exactly inverse to each other through a forward/backward round trip.
:func:`apply_multiplier` multiplies a spectrum by such a table.

Signals and spectra may be stacks of rows along the last axis, shape
``(rows, n)``: the transforms, the norms and the symmetry guard act on each
row on its own, and give each row the same bits as a one-row call.

Both transforms run in place on one complex buffer of their own: :func:`dft`
copies the samples into a new complex buffer, transforms it with
``np.fft.fft(c, out=c)`` and scales it in place; :func:`idft` transforms into a
new buffer and scales it in place, and only then makes the samples' float
buffer, which first holds ``|x|^2`` of the transformed values for the guard's
norm (the spectrum's, by Parseval), so no buffer of its own is idle under the
transform.  Neither touches its argument.
``_inverse`` is :func:`idft` for a caller that owns the spectrum's buffer and
may have it overwritten, so no second complex buffer is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymmetryError",
    "TimeGrid",
    "RealSignal",
    "Spectrum",
    "dft",
    "idft",
    "l2_norm",
    "hp_norm",
    "multiplier_values",
    "apply_multiplier",
]

# Relative size of the imaginary residue tolerated when a spectrum is
# brought back to the time domain.
_IMAG_GUARD = 1e-8


class SymmetryError(RuntimeError):
    """A spectrum expected to be Hermitian produced a complex time signal."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of the window ``[0, t_max)`` with ``n`` points.

    ``n`` must be a power of two, at least 8.
    """

    n: int
    t_max: float

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n!r}")
        if not (math.isfinite(self.t_max) and self.t_max / self.n > 0.0):
            raise ValueError(
                f"t_max must be a positive finite real with a nonzero step t_max / n, "
                f"got {self.t_max!r}"
            )

    @property
    def dt(self) -> float:
        return self.t_max / self.n

    @property
    def dxi(self) -> float:
        """Frequency-bin quadrature weight ``2 pi / t_max``."""
        return 2.0 * math.pi / self.t_max

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    def frequencies(self) -> np.ndarray:
        """Angular bin frequencies in FFT storage order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dt)


@dataclass(frozen=True)
class RealSignal:
    """Real-valued samples on a :class:`TimeGrid`, or a stack of rows of them."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape[-1:] != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal samples must all be finite")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT coefficients in FFT storage order on a :class:`TimeGrid`.

    Spectra obtained from :func:`dft` of a :class:`RealSignal` are Hermitian,
    ``coeffs[n-k] == conj(coeffs[k])``; :func:`idft` enforces that through
    its imaginary-residue guard.  A stack holds one spectrum per row.
    """

    grid: TimeGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape[-1:] != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} coefficients, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs.view(float))):
            raise ValueError("spectrum coefficients must all be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies()


def _row_views(stack: RealSignal) -> list[RealSignal]:
    """The rows of a checked stack as signals sharing its memory, not checked again."""
    views = []
    for samples in stack.samples:
        view = object.__new__(RealSignal)
        object.__setattr__(view, "grid", stack.grid)
        object.__setattr__(view, "samples", samples)
        views.append(view)
    return views


def dft(signal: RealSignal) -> Spectrum:
    """Forward transform, ``coeffs = dt / sqrt(2 pi) * FFT(samples)``."""
    scale = signal.grid.dt / math.sqrt(2.0 * math.pi)
    coeffs = signal.samples.astype(complex)
    np.fft.fft(coeffs, out=coeffs)
    coeffs *= scale
    return Spectrum(signal.grid, coeffs)


def idft(spectrum: Spectrum) -> RealSignal:
    """Inverse transform back to real samples.

    Raises :class:`SymmetryError` when the largest imaginary residue of a
    row's inverse transform exceeds ``1e-8`` times that row's spectrum norm,
    which happens whenever its coefficients are not Hermitian.  The samples
    are a copy, so they do not hold the complex buffer.
    """
    return _inverse(spectrum)


def _inverse(spectrum: Spectrum, values: np.ndarray | None = None) -> RealSignal:
    """:func:`idft` with the complex transform in ``values``, new if not given.

    ``values`` may be ``spectrum.coeffs``, which is then overwritten.  The
    samples' buffer is made after the transform: it holds ``|x|^2`` of the
    transformed values first, whose ``sqrt(dt sum |x|^2)`` is the spectrum's
    norm ``sqrt(dxi sum |c|^2)`` by Parseval (taken over ``|x|`` scaled by each
    row's largest where ``|x|^2`` overflows or underflows, so that a norm is
    below 1e-150 or not finite), then ``|Im|`` for the residue, then the real parts.
    """
    grid = spectrum.grid
    values = np.fft.ifft(spectrum.coeffs, out=values)
    values *= math.sqrt(2.0 * math.pi) / grid.dt
    samples = np.abs(values)
    with np.errstate(over="ignore", invalid="ignore"):  # a zero row scaled reads nan
        np.square(samples, out=samples)
        norm = np.sqrt(grid.dt * np.sum(samples, axis=-1))  # the spectrum's, by Parseval
        if not (np.isfinite(norm) & (norm >= 1e-150)).all():  # |x|^2 overflowed or underflowed
            top = np.max(np.abs(values, out=samples), axis=-1, keepdims=True)
            samples /= top
            np.square(samples, out=samples)
            norm = top[..., 0] * np.sqrt(grid.dt * np.sum(samples, axis=-1))
    residual = np.max(np.abs(values.imag, out=samples), axis=-1)
    broken = residual > _IMAG_GUARD * norm
    if np.any(broken):
        row = np.argmax(broken)  # the first broken row
        raise SymmetryError(
            f"imaginary residue {residual.flat[row]:.3e} exceeds {_IMAG_GUARD:g} * "
            f"spectrum norm {norm.flat[row]:.3e}; coefficients are not Hermitian"
        )
    np.copyto(samples, values.real)
    return RealSignal(grid, samples)


def l2_norm(signal: RealSignal) -> float | np.ndarray:
    """Rectangle-rule L2 norm, ``sqrt(dt * sum(samples^2))``, one per row."""
    return np.sqrt(signal.grid.dt * np.sum(signal.samples**2, axis=-1))


def hp_norm(spectrum: Spectrum, p: float) -> float | np.ndarray:
    """Discrete Sobolev norm ``sqrt(sum_k dxi |c_k|^2 (1 + xi_k^2)^p)``, one per row.

    ``p = 0`` reduces to the Parseval partner of :func:`l2_norm`.
    """
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError(f"smoothness order p must be >= 0, got {p!r}")
    xi = spectrum.frequencies()
    weights = (1.0 + xi * xi) ** p
    return np.sqrt(spectrum.grid.dxi * np.sum(weights * np.abs(spectrum.coeffs) ** 2, axis=-1))


def multiplier_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Turn a symbol sampled on ``grid.frequencies()`` into a multiplier table.

    Returns a complex copy of ``values`` whose Nyquist bin is replaced by its
    modulus (see the module docstring for why a real gain is required).
    """
    table = np.array(values, dtype=complex)
    if table.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} symbol values, got shape {table.shape}")
    half = grid.n // 2
    table[half] = abs(table[half])
    return table


def apply_multiplier(spectrum: Spectrum, values: np.ndarray) -> Spectrum:
    """Multiply a spectrum bin-wise by a :func:`multiplier_values` table, or one per row."""
    if np.shape(values) not in ((spectrum.grid.n,), spectrum.coeffs.shape):
        raise ValueError(
            f"expected {spectrum.grid.n} multiplier values, got shape {np.shape(values)}"
        )
    return Spectrum(spectrum.grid, spectrum.coeffs * values)
