"""Frequency-domain symbols of the fractional convection-diffusion-reaction operator.

The scalar functions here are exact, pure evaluations in the frequency
variable ``xi``; :func:`symbol_tables` evaluates the same formulas over a
whole NumPy array of frequencies, and the scalar functions are its tested
reference.  The building blocks are

    z(xi)  = nu + (i xi)^alpha
    h(xi)  = (-beta + sqrt(beta^2 + 4 omega z(xi))) / (2 omega)
    G(x, xi) = (1 - exp(-h(xi) x)) / z(xi)        forward kernel
    Lambda(xi) = z(xi) / (1 - exp(-h(xi) x0))     inverse multiplier

with the fractional power pinned to the explicit branch

    (i xi)^alpha = |xi|^alpha (cos(alpha pi/2) + i sign(xi) sin(alpha pi/2)),

never to a generic complex power, so the cut at negative frequencies is
fixed and conjugate symmetry f(-xi) = conj(f(xi)) holds exactly.

``Lambda`` grows like ``|xi|^alpha``: reconstructing a source by plain
multiplication with it amplifies high-frequency measurement error, which is
why the filters in :mod:`fracsrc.regularize` exist.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MediumParams",
    "frac_power",
    "sym_z",
    "sym_h",
    "inverse_symbol",
    "forward_kernel",
    "symbol_tables",
    "decay_exponent",
    "lambda_envelope",
]


@dataclass(frozen=True)
class MediumParams:
    """Physical coefficients of the medium and the sensor position.

    Attributes
    ----------
    omega : float
        Diffusivity, strictly positive.
    beta : float
        Convection speed, strictly positive.
    nu : float
        Reaction rate, strictly positive.  ``nu == 0`` is rejected: it can
        make the inverse multiplier's denominator vanish at ``xi = 0``.
    alpha : float
        Fractional time order, in ``(0, 1]``.  ``alpha == 1`` recovers the
        classical first-order time derivative.
    x0 : float
        Position of the measurement sensor, strictly positive.
    """

    omega: float
    beta: float
    nu: float
    alpha: float
    x0: float

    def __post_init__(self) -> None:
        for name in ("omega", "beta", "nu", "x0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")


def frac_power(xi: float, alpha: float) -> complex:
    """Fractional power ``(i xi)^alpha`` on the pinned branch.

    Returns ``|xi|^alpha (cos(alpha pi/2) + i sin(alpha pi/2))`` for
    ``xi >= 0`` and its complex conjugate for ``xi < 0``; exactly ``0`` at
    ``xi = 0``.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if xi == 0.0:
        return 0j
    mag = abs(xi) ** alpha
    half = 0.5 * alpha * math.pi
    re = mag * math.cos(half)
    im = mag * math.sin(half)
    return complex(re, im if xi > 0.0 else -im)


def sym_z(xi: float, params: MediumParams) -> complex:
    """Reaction-shifted fractional symbol ``nu + (i xi)^alpha``.

    Its real part is at least ``nu`` for every real ``xi`` because
    ``cos(alpha pi/2) >= 0`` on ``(0, 1]``.
    """
    return params.nu + frac_power(xi, params.alpha)


def sym_h(xi: float, params: MediumParams) -> complex:
    """Spatial decay rate ``(-beta + sqrt(beta^2 + 4 omega z(xi))) / (2 omega)``.

    The principal square root is safe: the radicand has real part at least
    ``beta^2 + 4 omega nu > beta^2``, which forces ``Re h > 0`` (the root's
    real part exceeds ``sqrt(Re radicand) > beta``).
    """
    radicand = params.beta * params.beta + 4.0 * params.omega * sym_z(xi, params)
    return (-params.beta + cmath.sqrt(radicand)) / (2.0 * params.omega)


def inverse_symbol(xi: float, params: MediumParams) -> complex:
    """Inverse multiplier ``Lambda(xi) = z(xi) / (1 - exp(-h(xi) x0))``.

    Finite for every real ``xi``: ``Re h > 0`` gives ``|exp(-h x0)| < 1`` so
    the denominator never vanishes.  Satisfies
    ``inverse_symbol(-xi) == conj(inverse_symbol(xi))``.
    """
    z = sym_z(xi, params)
    h = sym_h(xi, params)
    return z / (1.0 - cmath.exp(-h * params.x0))


def forward_kernel(x: float, xi: float, params: MediumParams) -> complex:
    """Forward transfer factor ``G(x, xi) = (1 - exp(-h(xi) x)) / z(xi)``.

    Maps the source spectrum to the field spectrum at position ``x``.
    ``G(0, xi) = 0`` (the boundary is held at zero) and
    ``G(x0, xi) * inverse_symbol(xi) = 1`` up to rounding.
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"position x must be a nonnegative finite real, got {x!r}")
    if x == 0.0:
        return 0j
    z = sym_z(xi, params)
    h = sym_h(xi, params)
    return (1.0 - cmath.exp(-h * x)) / z


def symbol_tables(xi: np.ndarray, params: MediumParams) -> tuple[np.ndarray, np.ndarray]:
    """``inverse_symbol`` and ``forward_kernel(x0, .)`` over an array of frequencies.

    Both tables come from one evaluation of ``z``, ``h`` and ``exp(-h x0)``
    on the pinned branch.  They agree with the scalar functions to rounding,
    not bit for bit: NumPy's complex square root, exponential and division
    round differently from :mod:`cmath`'s.
    """
    xi = np.asarray(xi, dtype=float)
    half = 0.5 * params.alpha * math.pi
    mag = np.abs(xi) ** params.alpha
    im = mag * math.sin(half)
    z = (params.nu + mag * math.cos(half)) + 1j * np.where(xi < 0.0, -im, im)
    radicand = params.beta * params.beta + 4.0 * params.omega * z
    h = (-params.beta + np.sqrt(radicand)) / (2.0 * params.omega)
    gap = 1.0 - np.exp(-h * params.x0)
    return z / gap, gap / z


def decay_exponent(params: MediumParams) -> float:
    """``N = (x0 / 2 omega)(-beta + sqrt(beta^2 + 4 omega nu))``, the value of ``x0 h(0)``.

    ``exp(-N)`` is the largest modulus of ``exp(-h(xi) x0)`` over real ``xi``.
    """
    return (params.x0 / (2.0 * params.omega)) * (
        -params.beta
        + math.sqrt(params.beta * params.beta + 4.0 * params.omega * params.nu)
    )


def lambda_envelope(xi: float, params: MediumParams) -> tuple[float, float]:
    """Analytic lower/upper envelope of ``|inverse_symbol(xi)|``.

    lower = |z(xi)| / (1 + exp(-x0 Re h(xi)))
    upper = (nu + |xi|^alpha) / (1 - exp(-N)),
            N = (x0 / 2 omega) (-beta + sqrt(beta^2 + 4 omega nu))

    ``lower <= |Lambda(xi)| <= upper`` for every real ``xi``; the upper bound
    is attained at ``xi = 0``.  For large ``|xi|`` the upper envelope grows
    like ``|xi|^alpha / (1 - exp(-N))``, which is the growth rate that makes
    the inversion unstable.
    """
    z = sym_z(xi, params)
    radicand = params.beta * params.beta + 4.0 * params.omega * z
    re_exponent = (params.x0 / (2.0 * params.omega)) * (
        -params.beta + cmath.sqrt(radicand).real
    )
    lower = abs(z) / (1.0 + math.exp(-re_exponent))
    upper = (params.nu + abs(xi) ** params.alpha) / (1.0 - math.exp(-decay_exponent(params)))
    return lower, upper
