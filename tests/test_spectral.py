import math
import re
import tracemalloc

import numpy as np
import pytest

from fracsrc.spectral import (
    RealSignal,
    Spectrum,
    SymmetryError,
    TimeGrid,
    _inverse,
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

    def test_guard_message_names_the_residue_and_the_spectrum_norm(self):
        # the guard takes the norm from the transformed values, by Parseval
        coeffs = dft(random_signal(seed=11)).coeffs.copy()
        coeffs[1] += 0.01
        norm = math.sqrt(GRID.dxi * float(np.sum(np.abs(coeffs) ** 2)))
        expected = r"^imaginary residue \d\.\d{3}e[-+]\d+ " + re.escape(
            f"exceeds 1e-08 * spectrum norm {norm:.3e}; coefficients are not Hermitian") + "$"
        with pytest.raises(SymmetryError, match=expected):
            idft(Spectrum(GRID, coeffs))

    @pytest.mark.parametrize("scale, broken", [(1e150, True), (1e300, True), (1e300, False),
                                               (1e-200, True), (1e-200, False),
                                               (1e-300, True), (1e-300, False)])
    def test_guard_sees_a_norm_whose_square_overflows(self, scale, broken):
        # at 1e300, sum |x|^2 overflows, and at 1e-200 and 1e-300 it underflows to 0; the
        # guard's norm must stay finite and nonzero all the same
        grid = TimeGrid(8, 10.0)
        coeffs = np.full(grid.n, scale, complex)
        coeffs[[1, 2, 3]] *= np.exp([0.5j, 1j, 2j])
        coeffs[[7, 6, 5]] = coeffs[[1, 2, 3]].conj()
        if broken:
            coeffs[1] += scale * 0.1j
            with pytest.raises(SymmetryError):
                idft(Spectrum(grid, coeffs))
        else:
            assert np.isfinite(idft(Spectrum(grid, coeffs)).samples).all()

    @pytest.mark.parametrize("scale", [1e-200, 1e-300])
    def test_round_trip_of_a_tiny_signal_passes_the_guard(self, scale):
        # sum |x|^2 underflows to 0, but the transform's rounding leaves a residue, which
        # must be measured against the norm of the scaled values, not against 0
        samples = scale * random_signal(seed=5).samples
        back = idft(dft(RealSignal(GRID, samples)))
        assert np.max(np.abs(back.samples - samples)) < 1e-12 * scale

    @pytest.mark.parametrize("rows", [1, 3])
    def test_transforms_keep_their_arguments(self, rows):
        # dft and idft transform and scale buffers of their own, in place
        samples = np.stack([random_signal(seed=s).samples for s in range(rows)])
        kept = samples.tobytes()
        spectrum = dft(RealSignal(GRID, samples))
        assert samples.tobytes() == kept
        kept = spectrum.coeffs.tobytes()
        back = idft(spectrum)
        assert spectrum.coeffs.tobytes() == kept
        assert np.allclose(back.samples, samples, rtol=0.0, atol=1e-12)

    def test_each_transform_peaks_at_its_one_new_buffer(self):
        # dft's one n-point buffer is its complex output, 16 B per bin; _inverse, given
        # the buffer to transform in, makes only the samples' float buffer, 8 B per bin.
        # The margins, 4 and 2 B per bin, hold the finiteness checks' masks (2 and 1 B
        # per bin).  dft as scale * np.fft.fft(samples) peaks at 32 B per bin.
        n = 1 << 16
        signal = random_signal(TimeGrid(n, 10.0))
        idft(dft(random_signal()))  # one-time allocations are not a transform's
        tracemalloc.start()
        try:
            spectrum = dft(signal)
            dft_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _inverse(spectrum, spectrum.coeffs)
            inverse_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert dft_peak / n <= 20.0
        assert inverse_peak / n <= 10.0

    def test_inverse_samples_own_their_memory(self):
        # a view into the complex inverse would keep twice the estimate alive
        assert idft(dft(random_signal(seed=23))).samples.flags.owndata


class TestStacks:
    ROWS = 20

    def stack(self):
        return RealSignal(GRID, np.stack([random_signal(seed=s).samples for s in range(self.ROWS)]))

    def test_rows_match_one_row_calls_bit_for_bit(self):
        signals = self.stack()
        table = multiplier_values(GRID, 2.0 + 1j * GRID.frequencies() / 50.0)
        spectra = dft(signals)
        gains = np.stack([table * (row + 1) for row in range(self.ROWS)])
        for gain in (table, gains):
            back = idft(apply_multiplier(spectra, gain))
            norms = l2_norm(back)
            assert back.samples.shape == norms.shape + (GRID.n,) == (self.ROWS, GRID.n)
            for row in range(self.ROWS):
                one = dft(RealSignal(GRID, signals.samples[row]))
                assert one.coeffs.tobytes() == spectra.coeffs[row].tobytes()
                single = idft(apply_multiplier(one, gain[row] if gain.ndim == 2 else gain))
                assert single.samples.tobytes() == back.samples[row].tobytes()
                assert l2_norm(single) == norms[row]

    def test_shape_checks_read_the_last_axis(self):
        with pytest.raises(ValueError):
            RealSignal(GRID, np.zeros((3, GRID.n - 1)))
        with pytest.raises(ValueError):
            Spectrum(GRID, np.zeros((GRID.n, 3), dtype=complex))
        with pytest.raises(ValueError):
            apply_multiplier(dft(self.stack()), np.ones((self.ROWS - 1, GRID.n)))

    def test_guard_checks_each_row_against_its_own_norm(self):
        # row 0 carries a norm a million times larger than row 5's, so a guard
        # that set the stack's largest residue against the stack's norm would
        # miss the broken row 5
        coeffs = dft(self.stack()).coeffs
        coeffs[0] *= 1e6
        coeffs[5] = dft(random_signal(seed=11)).coeffs
        coeffs[5, 1] += 0.01
        with pytest.raises(SymmetryError):
            idft(Spectrum(GRID, coeffs))
        coeffs[5, 1] -= 0.01
        idft(Spectrum(GRID, coeffs))


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

    def test_table_keeps_its_values(self):
        values = 2.0 + 1j * GRID.frequencies()
        kept = values.tobytes()
        table = multiplier_values(GRID, values)
        assert values.tobytes() == kept
        assert table[GRID.n // 2] == abs(values[GRID.n // 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            multiplier_values(GRID, np.ones(GRID.n - 1))
        with pytest.raises(ValueError):
            apply_multiplier(dft(random_signal()), np.ones(1))
