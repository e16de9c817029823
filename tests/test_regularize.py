import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsrc.regularize import (
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
from fracsrc.spectral import TimeGrid
from fracsrc.symbols import MediumParams, inverse_symbol

EX1 = MediumParams(omega=0.1, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)
EX2 = MediumParams(omega=0.01, beta=0.5, nu=1.51, alpha=0.3, x0=10.0)
KINDS = tuple(FilterKind)

# grids prescribed for the inequality suites
RHO_GRID = np.logspace(-3, 6, 121)
MU_GRID = (0.9, 0.5, 0.1, 0.01, 0.001)
ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))
XI_GRID = np.concatenate([[0.0], np.logspace(-3, 6, 46), -np.logspace(-3, 6, 46)])
GUARD = 1e-12


def random_params(count, seed=123):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        draws.append(
            MediumParams(
                omega=float(rng.uniform(0.01, 5.0)),
                beta=float(rng.uniform(0.01, 5.0)),
                nu=float(rng.uniform(0.01, 5.0)),
                alpha=float(rng.uniform(0.05, 1.0)),
                x0=float(rng.uniform(0.01, 5.0)),
            )
        )
    return draws


class TestConstants:
    def test_peak_constants_at_alpha_one(self):
        assert const_n(FilterKind.RATIONAL2, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert const_n(FilterKind.RATIONAL4, 1.0) == pytest.approx(
            0.5698767642386944, rel=1e-12
        )
        assert const_n(FilterKind.GAUSSIAN, 1.0) == pytest.approx(
            0.8577638849607068, rel=1e-12
        )

    def test_peak_constants_reject_bad_alpha(self):
        with pytest.raises(ValueError):
            const_n(FilterKind.RATIONAL2, 0.0)

    def test_decay_exponent_example1_exact(self):
        assert const_cap_n(EX1) == pytest.approx(0.5, rel=1e-12)

    def test_decay_exponent_example2(self):
        assert const_cap_n(EX2) == pytest.approx(28.567765543682387, rel=1e-12)

    def test_decay_exponent_vanishes_with_reaction(self):
        previous = const_cap_n(EX1)
        for nu in (1e-2, 1e-4, 1e-6):
            current = const_cap_n(
                MediumParams(omega=0.1, beta=0.9, nu=nu, alpha=0.9, x0=0.5)
            )
            assert 0.0 < current < previous
            previous = current

    def test_sup_constant_collapses_for_large_exponent(self):
        for kind in KINDS:
            expected = 2.0 * (EX2.nu + const_n(kind, 0.3))
            assert const_m(kind, 0.3, EX2) == pytest.approx(expected, rel=1e-14)

    def test_sup_constant_example1_value(self):
        assert const_m(FilterKind.RATIONAL2, 0.9, EX1) == pytest.approx(
            6.010041859359855, rel=1e-12
        )


class TestChooseMu:
    def test_reference_value(self):
        assert choose_mu(0.01, 1.01, 1.0) == pytest.approx(
            0.21473007480965667, rel=1e-12
        )

    def test_monotone_and_vanishing(self):
        deltas = [1e-8, 1e-6, 1e-4, 1e-2, 0.5]
        mus = [choose_mu(d, 1.0 + d, 2.0) for d in deltas]
        assert mus == sorted(mus)
        assert mus[0] < 1e-2
        assert all(0.0 < mu < 1.0 for mu in mus)

    @pytest.mark.parametrize("delta,delta_max", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_domain_errors(self, delta, delta_max):
        with pytest.raises(ValueError):
            choose_mu(delta, delta_max, 1.0)


class TestFilterValue:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_frequency_equals_inverse_symbol(self, kind):
        assert filter_value(kind, 0.0, 0.37, EX1) == pytest.approx(
            inverse_symbol(0.0, EX1), rel=1e-14
        )

    def test_rational2_definition(self):
        xi, mu = 4.2, 0.3
        expected = inverse_symbol(xi, EX1) / (1.0 + mu * mu * xi * xi)
        assert filter_value(FilterKind.RATIONAL2, xi, mu, EX1) == pytest.approx(
            expected, rel=1e-14
        )

    def test_gaussian_reference_value(self):
        # Lambda(2) exp(-0.25) for the square-wave medium, high-precision reference
        value = filter_value(FilterKind.GAUSSIAN, 2.0, 0.5, EX1)
        expected = complex(2.1045566846683704, 1.1113746704947647)
        assert abs(value - expected) < 1e-12 * abs(expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugate_symmetry(self, kind):
        for xi in (0.3, 2.0, 57.0, 1e4):
            a = filter_value(kind, -xi, 0.2, EX1)
            b = filter_value(kind, xi, 0.2, EX1).conjugate()
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            filter_value(FilterKind.RATIONAL2, 1.0, 0.0, EX1)


class TestAttenuation:
    EXPRESSIONS = {
        FilterKind.RATIONAL2: lambda xi, mu: 1.0 / (1.0 + mu * mu * xi * xi),
        FilterKind.RATIONAL4: lambda xi, mu: 1.0 / (1.0 + mu * mu * xi**4),
        FilterKind.GAUSSIAN: lambda xi, mu: np.exp(-mu * mu * xi * xi / 4.0),
    }

    @pytest.mark.parametrize("kind", list(FilterKind))
    @pytest.mark.parametrize("mu", [0.37, np.array([[1e-3], [0.5], [0.999]])])
    def test_in_place_factor_is_the_expression_and_keeps_its_arguments(self, kind, mu):
        xi = TimeGrid(1024, 10.0).frequencies()
        kept = xi.tobytes(), np.asarray(mu).tobytes()
        factor = attenuation(kind, xi, mu)
        assert (xi.tobytes(), np.asarray(mu).tobytes()) == kept
        expected = self.EXPRESSIONS[kind](xi, mu)
        assert factor.shape == expected.shape
        assert factor.tobytes() == expected.tobytes()


class TestInequalitySuites:
    def test_peak_inequalities(self):
        # rho^alpha / denom_i(rho, mu) < n_i / mu^2, strictly, on the full grid
        for alpha in ALPHA_GRID:
            powers = RHO_GRID**alpha
            for mu in MU_GRID:
                lhs = {
                    FilterKind.RATIONAL2: powers / (1.0 + RHO_GRID**2 * mu**2),
                    FilterKind.RATIONAL4: powers / (1.0 + RHO_GRID**4 * mu**2),
                    FilterKind.GAUSSIAN: powers * np.exp(-(RHO_GRID**2) * mu**2 / 4.0),
                }
                for kind in KINDS:
                    bound = const_n(kind, alpha) / mu**2
                    assert np.all(lhs[kind] < bound * (1.0 + GUARD)), (kind, alpha, mu)

    def test_filter_sup_bound(self):
        draws = [EX1, EX2] + random_params(4)
        for params in draws:
            for mu in (0.9, 0.5, 0.1, 0.01):
                for kind in KINDS:
                    bound = const_m(kind, params.alpha, params)
                    observed = max(
                        mu * mu * abs(filter_value(kind, float(xi), mu, params))
                        for xi in XI_GRID
                    )
                    assert observed < bound * (1.0 + GUARD), (kind, mu, params)

    def test_weighted_gap_bound(self):
        for p in (0.5, 1.0, 2.0, 3.0, 5.0):
            for mu in MU_GRID:
                cap = max(mu**p, mu**2, mu ** (p - 2.0))
                for kind in KINDS:
                    for xi in XI_GRID:
                        gap = filter_factor_gap(kind, float(xi), mu, p)
                        assert gap <= cap * (1.0 + GUARD), (kind, p, mu, xi)

    def test_exponential_denominator_function_below_two(self):
        x = np.concatenate([np.logspace(-9, 0, 200, endpoint=False), np.linspace(1.0, 50.0, 4901)])
        g = np.where(x < 1.0, x / (1.0 - np.exp(-x)), 1.0 / (1.0 - np.exp(-x)))
        assert np.all(g < 2.0)

    @given(
        re=st.floats(min_value=1e-3, max_value=50.0),
        im=st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_complex_denominator_and_root_inequalities(self, re, im):
        z = complex(re, im)
        lhs = abs(1.0 / (1.0 - cmath.exp(-z)))
        rhs = 1.0 / (1.0 - math.exp(-re))
        assert lhs <= rhs * (1.0 + GUARD)
        root = cmath.sqrt(z)
        assert root.real >= math.sqrt(re) * (1.0 - GUARD)


class TestPointwiseConvergence:
    @pytest.mark.parametrize("params", [EX1, EX2])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("xi", [0.3, 1.0, 2.0])
    def test_filters_converge_monotonically(self, params, kind, xi):
        target = inverse_symbol(xi, params)
        gaps = [
            abs(filter_value(kind, xi, 2.0**-j, params) - target) for j in range(1, 21)
        ]
        for previous, current in zip(gaps, gaps[1:]):
            assert current <= previous * (1.0 + GUARD)
        assert gaps[-1] < 1e-10 * abs(target)


class TestFilterFactorGap:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_frequency_gap_is_zero(self, kind):
        assert filter_factor_gap(kind, 0.0, 0.5, 1.0) == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_vanishes_with_mu(self, kind):
        gaps = [filter_factor_gap(kind, 3.0, mu, 1.0) for mu in (0.5, 0.05, 0.005)]
        assert gaps == sorted(gaps, reverse=True)
        assert filter_factor_gap(kind, 3.0, 1e-8, 1.0) < 1e-10

    def test_reference_value_at_cutoff(self):
        # quadratic filter at xi = 1/mu: attenuation gap 1/2, weight 1/101
        gap = filter_factor_gap(FilterKind.RATIONAL2, 10.0, 0.1, 2.0)
        assert gap == pytest.approx(0.0049504950495049506, rel=1e-14)
        assert gap <= 0.1**2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            filter_factor_gap(FilterKind.RATIONAL2, 1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            filter_factor_gap(FilterKind.RATIONAL2, 1.0, 0.5, -1.0)


class TestErrorBound:
    def test_smoothness_two_freezes_bound(self):
        # at p = 2 the ratio exponents are (1/2, 1/2, 0): the max term is one
        # and the bound equals the constant K, independent of delta
        for delta in (1e-2, 1e-5):
            reg = RegParams(mu=choose_mu(delta, 1.0 + delta, 2.0), p=2.0,
                            delta=delta, delta_max=1.0 + delta)
            expected = 3.0 + reg.delta_max * const_m(FilterKind.RATIONAL2, EX1.alpha, EX1)
            assert error_bound(FilterKind.RATIONAL2, 3.0, reg, EX1) == pytest.approx(
                expected, rel=1e-12
            )

    def test_vanishes_with_noise_above_two(self):
        # at p = 3 the max term is (delta/delta_max)^(1/5), a slow decay
        bounds = []
        for delta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            reg = RegParams(mu=choose_mu(delta, 1.0 + delta, 3.0), p=3.0,
                            delta=delta, delta_max=1.0 + delta)
            bounds.append(error_bound(FilterKind.GAUSSIAN, 2.0, reg, EX1))
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] < 0.02 * bounds[0]

    def test_reference_value_smoothness_one(self):
        # p = 1: the (p-2)/(p+2) exponent is negative, so the max term is
        # (delta/delta_max)^(-1/3) and the bound grows as the noise shrinks
        reg = RegParams(mu=choose_mu(0.01, 1.01, 1.0), p=1.0, delta=0.01, delta_max=1.01)
        assert error_bound(FilterKind.RATIONAL2, 1.0, reg, EX1) == pytest.approx(
            32.925719809955101, rel=1e-12
        )

    def test_rejects_bad_source_bound(self):
        reg = RegParams(mu=0.3, p=2.0, delta=0.01, delta_max=1.01)
        with pytest.raises(ValueError):
            error_bound(FilterKind.RATIONAL2, 0.0, reg, EX1)


class TestRegParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, p=1.0, delta=0.1, delta_max=1.1),
            dict(mu=1.0, p=1.0, delta=0.1, delta_max=1.1),
            dict(mu=0.5, p=0.0, delta=0.1, delta_max=1.1),
            dict(mu=0.5, p=1.0, delta=0.0, delta_max=1.1),
            dict(mu=0.5, p=1.0, delta=1.2, delta_max=1.1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RegParams(**kwargs)
