"""Spectral regularization filters, the a priori parameter rule, and bounds.

Three one-parameter filter families tame the growth of the inverse
multiplier ``Lambda`` (see :mod:`fracsrc.symbols`):

    R_mu[r1](xi) = Lambda(xi) / (1 + mu^2 xi^2)      rational, quadratic
    R_mu[r2](xi) = Lambda(xi) / (1 + mu^2 xi^4)      rational, quartic
    R_mu[r3](xi) = Lambda(xi) * exp(-mu^2 xi^2 / 4)  Gaussian

All three converge pointwise to ``Lambda`` as ``mu -> 0``.  The parameter is
chosen a priori from the noise level alone,

    mu = (delta / delta_max)^(1 / (p + 2)),

where ``delta`` is the realized L2 noise norm, ``delta_max`` the tolerated
maximum and ``p`` the assumed Sobolev smoothness of the source.

The analytic constants used by the error bound are exposed as checkable
functions:

* ``const_n``     peak constants ``n_i(alpha)`` of the filtered power
                  envelopes ``rho^alpha / denom_i < n_i / mu^2``;
* ``const_cap_n`` decay exponent ``N = (x0/2 omega)(-beta + sqrt(beta^2 +
                  4 omega nu))`` of the inverse multiplier's denominator;
* ``const_m``     filter sup bounds ``M_i = 2 (nu + n_i) max(1, 1/N)`` with
                  ``|R_mu(xi)| < M_i / mu^2``;
* ``filter_factor_gap``  Sobolev-weighted distance of the filter factor from
                  one, bounded by ``max(mu^p, mu^2, mu^(p-2))``;
* ``error_bound`` the resulting estimate-error bound
                  ``K_i max(r^(2/(p+2)), r^(p/(p+2)), r^((p-2)/(p+2)))`` with
                  ``r = delta/delta_max`` and ``K_i = C + delta_max M_i``.

For ``p < 2`` the third exponent is negative, so the bound degrades as the
noise shrinks; at ``p = 2`` it is exactly zero and the bound does not vanish
with the noise.  Both regimes are reported as computed, not patched.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .symbols import MediumParams, decay_exponent, inverse_symbol

__all__ = [
    "FilterKind",
    "RegParams",
    "filter_value",
    "attenuation",
    "choose_mu",
    "const_n",
    "const_cap_n",
    "const_m",
    "filter_factor_gap",
    "error_bound",
]


class FilterKind(enum.Enum):
    """The three filter families; values double as CLI labels."""

    RATIONAL2 = "r1"
    RATIONAL4 = "r2"
    GAUSSIAN = "r3"


@dataclass(frozen=True)
class RegParams:
    """Regularization inputs: parameter, smoothness, noise level, tolerance."""

    mu: float
    p: float
    delta: float
    delta_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.mu < 1.0):
            raise ValueError(f"mu must lie in (0, 1), got {self.mu!r}")
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be a positive finite real, got {self.p!r}")
        if not (0.0 < self.delta < self.delta_max):
            raise ValueError(
                f"need 0 < delta < delta_max, got delta={self.delta!r}, "
                f"delta_max={self.delta_max!r}"
            )


def _attenuation(kind: FilterKind, xi: float, mu: float) -> float:
    """Real attenuation factor R_mu(xi) / Lambda(xi), in (0, 1]."""
    if kind is FilterKind.RATIONAL2:
        return 1.0 / (1.0 + mu * mu * xi * xi)
    if kind is FilterKind.RATIONAL4:
        return 1.0 / (1.0 + mu * mu * xi**4)
    return math.exp(-mu * mu * xi * xi / 4.0)


def filter_value(kind: FilterKind, xi: float, mu: float, params: MediumParams) -> complex:
    """Filtered inverse multiplier ``R_mu(xi)`` for the chosen family.

    Finite for every real ``xi``; equals ``inverse_symbol(0, params)`` at
    ``xi = 0`` for every family, and inherits the conjugate symmetry of the
    inverse multiplier.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be a positive finite real, got {mu!r}")
    return inverse_symbol(xi, params) * _attenuation(kind, xi, mu)


def attenuation(kind: FilterKind, xi: np.ndarray, mu: float) -> np.ndarray:
    """Real attenuation factor ``R_mu(xi) / Lambda(xi)`` over an array of frequencies.

    The array form of the factor inside :func:`filter_value`, which stays the
    scalar reference.  Real and in ``[0, 1]``, so multiplying a sampled
    ``Lambda`` by it keeps a real Nyquist gain real.
    """
    if kind is FilterKind.RATIONAL2:
        return 1.0 / (1.0 + mu * mu * xi * xi)
    if kind is FilterKind.RATIONAL4:
        return 1.0 / (1.0 + mu * mu * xi**4)
    return np.exp(-mu * mu * xi * xi / 4.0)


def choose_mu(delta: float, delta_max: float, p: float) -> float:
    """A priori parameter rule ``mu = (delta / delta_max)^(1/(p+2))``.

    Strictly increasing in ``delta`` and tending to zero with it.  Requires
    ``0 < delta < delta_max`` so that ``mu < 1``.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"p must be a positive finite real, got {p!r}")
    if not (0.0 < delta < delta_max):
        raise ValueError(
            f"need 0 < delta < delta_max, got delta={delta!r}, delta_max={delta_max!r}"
        )
    return (delta / delta_max) ** (1.0 / (p + 2.0))


def const_n(kind: FilterKind, alpha: float) -> float:
    """Peak constant ``n_i(alpha)`` of the attenuated fractional power.

    n1 = ((2-alpha)/2) (alpha/(2-alpha))^(alpha/2)
    n2 = ((4-alpha)/4) (alpha/(4-alpha))^(alpha/4)
    n3 = (2 alpha)^(alpha/2) / e^(alpha/2)

    For every ``rho > 0`` and ``mu`` in ``(0, 1)``:
    ``rho^alpha / (1 + rho^2 mu^2) < n1 / mu^2`` and likewise for the other
    two families with their denominators.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if kind is FilterKind.RATIONAL2:
        return (2.0 - alpha) / 2.0 * (alpha / (2.0 - alpha)) ** (alpha / 2.0)
    if kind is FilterKind.RATIONAL4:
        return (4.0 - alpha) / 4.0 * (alpha / (4.0 - alpha)) ** (alpha / 4.0)
    return (2.0 * alpha) ** (alpha / 2.0) / math.exp(alpha / 2.0)


def const_cap_n(params: MediumParams) -> float:
    """Denominator decay exponent ``N = (x0/2 omega)(-beta + sqrt(beta^2 + 4 omega nu))``."""
    return decay_exponent(params)


def const_m(kind: FilterKind, alpha: float, params: MediumParams) -> float:
    """Filter sup constant ``M_i = 2 (nu + n_i(alpha)) max(1, 1/N)``.

    Guarantees ``|filter_value(kind, xi, mu, params)| < M_i / mu^2`` for all
    real ``xi`` and ``mu`` in ``(0, 1)``.
    """
    cap_n = const_cap_n(params)
    return 2.0 * (params.nu + const_n(kind, alpha)) * max(1.0, 1.0 / cap_n)


def filter_factor_gap(kind: FilterKind, xi: float, mu: float, p: float) -> float:
    """Sobolev-weighted gap ``(1 + xi^2)^(-p/2) |1 - R_mu(xi) / Lambda(xi)|``.

    The ratio of filter to inverse multiplier collapses to the real
    attenuation factor, so the medium does not enter.  Bounded by
    ``max(mu^p, mu^2, mu^(p-2))``.
    """
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"p must be a positive finite real, got {p!r}")
    return (1.0 + xi * xi) ** (-p / 2.0) * (1.0 - _attenuation(kind, xi, mu))


def error_bound(
    kind: FilterKind, c_bound: float, reg: RegParams, params: MediumParams
) -> float:
    """Estimate-error bound for the filtered reconstruction.

    ``K max(r^(2/(p+2)), r^(p/(p+2)), r^((p-2)/(p+2)))`` with
    ``r = delta / delta_max`` and ``K = c_bound + delta_max * M_i``.

    ``c_bound`` must dominate the Sobolev ``H^p`` norm of the true source;
    when the source is known (synthetic experiments) pass its measured norm,
    otherwise supply an a priori bound explicitly.  The bound is on the
    absolute L2 estimation error, not on the relative one.
    """
    if not (c_bound > 0.0 and math.isfinite(c_bound)):
        raise ValueError(f"c_bound must be a positive finite real, got {c_bound!r}")
    ratio = reg.delta / reg.delta_max
    exponents = (2.0 / (reg.p + 2.0), reg.p / (reg.p + 2.0), (reg.p - 2.0) / (reg.p + 2.0))
    max_term = max(ratio**e for e in exponents)
    k_const = c_bound + reg.delta_max * const_m(kind, params.alpha, params)
    return k_const * max_term
