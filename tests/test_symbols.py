import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsrc.regularize import FilterKind, attenuation, filter_value
from fracsrc.spectral import TimeGrid
from fracsrc.symbols import (
    MediumParams,
    forward_kernel,
    frac_power,
    inverse_symbol,
    lambda_envelope,
    symbol_tables,
    sym_h,
    sym_z,
)

EX1 = MediumParams(omega=0.1, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)
EX2 = MediumParams(omega=0.01, beta=0.5, nu=1.51, alpha=0.3, x0=10.0)

# reusable strategies for randomized parameter draws
alphas = st.floats(min_value=0.05, max_value=1.0)
positives = st.floats(min_value=1e-2, max_value=10.0)
frequencies = st.floats(min_value=-1e6, max_value=1e6)


def params_strategy():
    return st.builds(
        MediumParams, omega=positives, beta=positives, nu=positives,
        alpha=alphas, x0=positives,
    )


def assert_close(actual, expected, rel=1e-12):
    scale = max(abs(expected), 1.0)
    assert abs(actual - expected) <= rel * scale, f"{actual!r} != {expected!r}"


class TestMediumParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega=0.0, beta=1, nu=1, alpha=0.5, x0=1),
            dict(omega=1, beta=-1, nu=1, alpha=0.5, x0=1),
            dict(omega=1, beta=1, nu=0.0, alpha=0.5, x0=1),
            dict(omega=1, beta=1, nu=1, alpha=0.5, x0=0.0),
            dict(omega=1, beta=1, nu=1, alpha=0.0, x0=1),
            dict(omega=1, beta=1, nu=1, alpha=1.2, x0=1),
            dict(omega=math.nan, beta=1, nu=1, alpha=0.5, x0=1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MediumParams(**kwargs)


class TestFracPower:
    def test_zero_frequency(self):
        assert frac_power(0.0, 0.9) == 0j

    def test_alpha_one_reduces_to_i_xi(self):
        assert_close(frac_power(5.0, 1.0), 5j)

    def test_negative_branch_is_conjugate(self):
        assert frac_power(-3.0, 0.5) == frac_power(3.0, 0.5).conjugate()

    def test_unit_frequency_value(self):
        # cos(0.45 pi) + i sin(0.45 pi), high-precision reference
        assert_close(
            frac_power(1.0, 0.9),
            complex(0.15643446504023087, 0.9876883405951378),
        )

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            frac_power(1.0, alpha)


class TestSymZ:
    def test_zero_frequency_is_nu(self):
        assert sym_z(0.0, EX1) == EX1.nu

    def test_alpha_one(self):
        p = MediumParams(omega=1, beta=1, nu=2.0, alpha=1.0, x0=1)
        assert_close(sym_z(3.0, p), 2.0 + 3j)

    def test_unit_frequency_value(self):
        assert_close(
            sym_z(1.0, EX1), complex(1.15643446504023087, 0.9876883405951378)
        )

    @given(xi=frequencies, params=params_strategy())
    def test_real_part_at_least_nu(self, xi, params):
        assert sym_z(xi, params).real >= params.nu - 1e-12


class TestSymH:
    def test_zero_frequency_exact(self):
        # (-0.9 + sqrt(1.21)) / 0.2 = 1 exactly
        assert_close(sym_h(0.0, EX1), 1.0)

    @given(xi=frequencies, params=params_strategy())
    def test_positive_real_part(self, xi, params):
        assert sym_h(xi, params).real > 0.0

    @given(xi=frequencies, params=params_strategy())
    def test_conjugate_symmetry(self, xi, params):
        a = sym_h(-xi, params)
        b = sym_h(xi, params).conjugate()
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestInverseSymbol:
    def test_zero_frequency_value(self):
        assert_close(inverse_symbol(0.0, EX1), 2.541494082536798)

    def test_example2_zero_frequency(self):
        expected = EX2.nu / (1.0 - math.exp(-28.567765543682387))
        assert_close(inverse_symbol(0.0, EX2), expected)

    @given(xi=frequencies, params=params_strategy())
    def test_conjugate_symmetry(self, xi, params):
        a = inverse_symbol(-xi, params)
        b = inverse_symbol(xi, params).conjugate()
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @given(xi=frequencies, params=params_strategy())
    def test_finite_everywhere(self, xi, params):
        value = inverse_symbol(xi, params)
        assert cmath.isfinite(value)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("xi", [1.0, 5.0])
    def test_pure_diffusion_limit(self, alpha, xi):
        # with x0 = 1, omega = 1 and vanishing beta, nu the multiplier
        # approaches (i xi)^alpha / (1 - exp(-(i xi)^(alpha/2)))
        params = MediumParams(omega=1.0, beta=1e-8, nu=1e-8, alpha=alpha, x0=1.0)
        ia = frac_power(xi, alpha)
        ia_half = frac_power(xi, alpha / 2.0) if alpha / 2.0 > 0 else 0j
        limit = ia / (1.0 - cmath.exp(-ia_half))
        value = inverse_symbol(xi, params)
        assert abs(value - limit) / abs(limit) < 1e-6


class TestForwardKernel:
    def test_boundary_position_is_zero(self):
        assert forward_kernel(0.0, 17.3, EX1) == 0j

    def test_sensor_position_value(self):
        assert_close(forward_kernel(0.5, 0.0, EX1), 0.39346934028736658)

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError):
            forward_kernel(-0.1, 1.0, EX1)

    @pytest.mark.parametrize("params", [EX1, EX2])
    def test_inverse_relation_on_grid(self, params):
        for xi in np.concatenate([[0.0], np.logspace(-3, 6, 60), -np.logspace(-3, 6, 60)]):
            product = forward_kernel(params.x0, float(xi), params) * inverse_symbol(
                float(xi), params
            )
            assert abs(product - 1.0) < 1e-12


class TestSymbolTables:
    # NumPy's complex sqrt, exp and division round differently from cmath's,
    # so the tables match the scalar oracle to a few ulps, not bit for bit.
    REL = 1e-12

    @given(
        params=params_strategy(),
        n=st.sampled_from([8, 64, 256, 1024]),
        t_max=st.floats(min_value=0.1, max_value=100.0),
        mu=st.floats(min_value=1e-3, max_value=0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_tables_match_scalar_oracle(self, params, n, t_max, mu):
        xi = TimeGrid(n, t_max).frequencies()
        inverse, kernel = symbol_tables(xi, params)
        expected_inverse = np.array([inverse_symbol(float(v), params) for v in xi])
        expected_kernel = np.array([forward_kernel(params.x0, float(v), params) for v in xi])
        assert np.all(np.abs(inverse - expected_inverse) <= self.REL * np.abs(expected_inverse))
        assert np.all(np.abs(kernel - expected_kernel) <= self.REL * np.abs(expected_kernel))
        for kind in FilterKind:
            table = inverse * attenuation(kind, xi, mu)
            expected = np.array([filter_value(kind, float(v), mu, params) for v in xi])
            # a Gaussian gain can underflow; relative error means nothing there
            normal = np.abs(expected) >= np.finfo(float).tiny
            assert np.all(
                np.abs(table - expected)[normal] <= self.REL * np.abs(expected[normal])
            )
            assert np.all(np.abs(table[~normal]) < np.finfo(float).tiny)

    @pytest.mark.parametrize("params", [EX1, EX2, MediumParams(3.0, 0.02, 4.5, 1.0, 0.05)])
    @pytest.mark.parametrize("n, t_max", [(8, 0.37), (256, 10.0), (4096, 1000.0)])
    def test_in_place_chain_is_the_expressions_bit_for_bit(self, params, n, t_max):
        # the chain of in-place ufuncs rounds as the plain expressions do, and keeps xi
        xi = TimeGrid(n, t_max).frequencies()
        kept = xi.tobytes()
        inverse, kernel = symbol_tables(xi, params)
        assert xi.tobytes() == kept
        half = 0.5 * params.alpha * math.pi
        mag = np.abs(xi) ** params.alpha
        im = mag * math.sin(half)
        z = (params.nu + mag * math.cos(half)) + 1j * np.where(xi < 0.0, -im, im)
        radicand = params.beta * params.beta + 4.0 * params.omega * z
        h = (-params.beta + np.sqrt(radicand)) / (2.0 * params.omega)
        gap = 1.0 - np.exp(-h * params.x0)
        assert inverse.tobytes() == (z / gap).tobytes()
        assert kernel.tobytes() == (gap / z).tobytes()

    def test_sensor_values(self):
        inverse, kernel = symbol_tables(np.array([0.0]), EX1)
        assert_close(inverse[0], 2.541494082536798)
        assert_close(kernel[0], 0.39346934028736658)


class TestLambdaEnvelope:
    def test_upper_attained_at_zero(self):
        lower, upper = lambda_envelope(0.0, EX1)
        assert_close(upper, 2.541494082536798)
        assert_close(abs(inverse_symbol(0.0, EX1)), upper)
        assert lower <= upper

    @given(xi=frequencies, params=params_strategy())
    @settings(max_examples=200)
    def test_envelope_brackets_modulus(self, xi, params):
        lower, upper = lambda_envelope(xi, params)
        modulus = abs(inverse_symbol(xi, params))
        slack = 1e-12 * max(1.0, modulus)
        assert lower <= modulus + slack
        assert modulus <= upper + slack

    def test_asymptotic_slope_of_upper(self):
        # upper / |xi|^alpha -> 1 / (1 - exp(-N)) on a log-sampled grid
        cap_n = 0.5
        target = 1.0 / (1.0 - math.exp(-cap_n))
        ratios = [
            lambda_envelope(xi, EX1)[1] / xi**EX1.alpha
            for xi in np.logspace(4, 8, 9)
        ]
        deviations = [abs(r - target) for r in ratios]
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 1e-6 * target


class TestGrowth:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0])
    def test_log_log_slope_matches_order(self, alpha):
        params = MediumParams(
            omega=EX1.omega, beta=EX1.beta, nu=EX1.nu, alpha=alpha, x0=EX1.x0
        )
        xi = np.logspace(2, 6, 200)
        moduli = np.array([abs(inverse_symbol(float(v), params)) for v in xi])
        slope = np.polyfit(np.log(xi), np.log(moduli), 1)[0]
        assert abs(slope - alpha) < 0.05
