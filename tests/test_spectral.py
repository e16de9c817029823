import math

import numpy as np
import pytest

from fracsrc.spectral import (
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

GRID = TimeGrid(256, 10.0)


def random_signal(grid=GRID, seed=0):
    rng = np.random.default_rng(seed)
    return RealSignal(grid, rng.standard_normal(grid.n))


def naive_dft_coeffs(signal):
    """O(n^2) direct-summation transform, independent of numpy.fft."""
    n = signal.grid.n
    k = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return signal.grid.dt / math.sqrt(2.0 * math.pi) * (kernel @ signal.samples)


class TestTimeGrid:
    @pytest.mark.parametrize("n", [4, 7, 100, 0])
    def test_rejects_bad_sample_count(self, n):
        with pytest.raises(ValueError):
            TimeGrid(n, 10.0)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf])
    def test_rejects_bad_window(self, t_max):
        with pytest.raises(ValueError):
            TimeGrid(256, t_max)

    def test_frequency_map(self):
        xi = GRID.frequencies()
        assert xi[0] == 0.0
        # even n: the extreme bin is the most negative frequency -pi/dt
        assert xi[GRID.n // 2] == pytest.approx(-math.pi / GRID.dt, rel=1e-15)
        for k in (1, 17, 100, GRID.n // 2 - 1):
            assert xi[GRID.n - k] == pytest.approx(-xi[k], rel=1e-15)

    def test_sample_placement(self):
        times = GRID.times()
        assert times[0] == 0.0
        assert times[1] == pytest.approx(GRID.dt)
        assert len(times) == GRID.n


class TestSignalValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RealSignal(GRID, np.zeros(5))

    def test_nonfinite_samples(self):
        bad = np.zeros(GRID.n)
        bad[3] = math.nan
        with pytest.raises(ValueError):
            RealSignal(GRID, bad)

    def test_nonfinite_coeffs(self):
        bad = np.zeros(GRID.n, dtype=complex)
        bad[3] = complex(math.inf, 0)
        with pytest.raises(ValueError):
            Spectrum(GRID, bad)


class TestTransforms:
    def test_constant_signal_concentrates_at_zero(self):
        spectrum = dft(RealSignal(GRID, np.full(GRID.n, 3.7)))
        others = np.delete(np.abs(spectrum.coeffs), 0)
        assert np.all(others < 1e-12 * abs(spectrum.coeffs[0]))

    def test_round_trip(self):
        signal = random_signal()
        back = idft(dft(signal))
        assert np.max(np.abs(back.samples - signal.samples)) < 1e-12

    def test_matches_direct_summation(self):
        signal = random_signal(seed=3)
        expected = naive_dft_coeffs(signal)
        actual = dft(signal).coeffs
        assert np.max(np.abs(actual - expected)) < 1e-10 * np.max(np.abs(expected))

    def test_parseval_identity(self):
        signal = random_signal(seed=5)
        coeffs = naive_dft_coeffs(signal)
        time_energy = l2_norm(signal) ** 2
        freq_energy = GRID.dxi * float(np.sum(np.abs(coeffs) ** 2))
        assert abs(time_energy - freq_energy) < 1e-10 * time_energy

    def test_linearity(self):
        a, b = random_signal(seed=7), random_signal(seed=8)
        combined = dft(RealSignal(GRID, 2.0 * a.samples - 0.5 * b.samples))
        direct = 2.0 * dft(a).coeffs - 0.5 * dft(b).coeffs
        assert np.max(np.abs(combined.coeffs - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_delta_spike_gives_constant(self):
        coeffs = np.zeros(GRID.n, dtype=complex)
        coeffs[0] = 2.0
        signal = idft(Spectrum(GRID, coeffs))
        assert np.max(np.abs(signal.samples - signal.samples[0])) < 1e-12

    def test_broken_symmetry_raises(self):
        spectrum = dft(random_signal(seed=11))
        perturbed = spectrum.coeffs.copy()
        perturbed[1] += 0.01
        with pytest.raises(SymmetryError):
            idft(Spectrum(GRID, perturbed))


class TestNorms:
    def test_l2_zero(self):
        assert l2_norm(RealSignal(GRID, np.zeros(GRID.n))) == 0.0

    def test_l2_constant_exact(self):
        assert l2_norm(RealSignal(GRID, np.ones(GRID.n))) == pytest.approx(
            math.sqrt(10.0), rel=1e-14
        )

    def test_l2_square_wave(self):
        from fracsrc.cli import preset_source

        # |f| = 1 on all of [0, 10): the norm is sqrt(10) exactly
        assert l2_norm(preset_source("square", GRID)) == pytest.approx(
            math.sqrt(10.0), rel=1e-14
        )

    def test_hp_zero_spectrum(self):
        assert hp_norm(Spectrum(GRID, np.zeros(GRID.n, dtype=complex)), 2.0) == 0.0

    def test_hp_at_zero_order_is_parseval(self):
        signal = random_signal(seed=13)
        assert hp_norm(dft(signal), 0.0) == pytest.approx(l2_norm(signal), rel=1e-12)

    def test_hp_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hp_norm(dft(random_signal()), -1.0)

    def test_hp_gaussian_bump_against_quadrature(self):
        # f(t) = exp(-(t-5)^2 / (2 s^2)), s = 1/2: the transform is
        # s exp(-s^2 xi^2 / 2) times a unit-modulus phase, so the weighted
        # energy integral can be computed by fine-grid quadrature without
        # touching the package's transform.
        s = 0.5
        times = GRID.times()
        f = RealSignal(GRID, np.exp(-((times - 5.0) ** 2) / (2.0 * s * s)))
        xi = np.linspace(-80.0, 80.0, 400001)
        integrand = (s * np.exp(-(s * s) * xi * xi / 2.0)) ** 2 * (1.0 + xi * xi) ** 2
        oracle = math.sqrt(np.trapezoid(integrand, xi))
        assert oracle == pytest.approx(3.88147623111322, rel=1e-9)
        assert hp_norm(dft(f), 2.0) == pytest.approx(oracle, rel=0.01)


class TestMultipliers:
    def test_nyquist_gain_forced_real(self):
        values = multiplier_values(GRID, np.full(GRID.n, complex(0.3, -1.7)))
        nyquist = values[GRID.n // 2]
        assert nyquist.imag == 0.0
        assert nyquist.real == pytest.approx(abs(complex(0.3, -1.7)), rel=1e-15)

    def test_identity_multiplier_round_trips(self):
        signal = random_signal(seed=17)
        back = idft(apply_multiplier(dft(signal), multiplier_values(GRID, np.ones(GRID.n))))
        assert np.max(np.abs(back.samples - signal.samples)) < 1e-12

    def test_reciprocal_pair_is_exact(self):
        signal = random_signal(seed=19)
        symbol = 2.0 + 1j * GRID.frequencies() / 50.0
        forward = apply_multiplier(dft(signal), multiplier_values(GRID, symbol))
        back = idft(apply_multiplier(forward, multiplier_values(GRID, 1.0 / symbol)))
        assert np.max(np.abs(back.samples - signal.samples)) < 1e-12

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            multiplier_values(GRID, np.ones(GRID.n - 1))
        with pytest.raises(ValueError):
            apply_multiplier(dft(random_signal()), np.ones(1))
