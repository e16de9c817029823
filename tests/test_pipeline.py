import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracsrc.pipeline as pipeline
from fracsrc.cli import preset_source
from fracsrc.pipeline import (
    DELTA_FLOOR,
    _tables,
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
from fracsrc.regularize import FilterKind, RegParams, attenuation, choose_mu, error_bound
from fracsrc.spectral import RealSignal, TimeGrid, dft, hp_norm, l2_norm
from fracsrc.symbols import MediumParams, forward_kernel

EX1 = MediumParams(omega=0.1, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)
EX2 = MediumParams(omega=0.01, beta=0.5, nu=1.51, alpha=0.3, x0=10.0)
DEGENERATE = MediumParams(omega=1e-300, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)
GRID = TimeGrid(256, 10.0)
ALL_ESTIMATORS = ("naive", "r1", "r2", "r3")
FILTER_LABELS = ("r1", "r2", "r3")


@pytest.fixture(scope="module")
def square():
    return preset_source("square", GRID)


@pytest.fixture(scope="module")
def exponential():
    return preset_source("exp", GRID)


class TestDeltaMaxRule:
    def test_values(self):
        assert delta_max_rule(0.0) == 1.0
        assert delta_max_rule(0.3162) == pytest.approx(1.3162, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            delta_max_rule(-0.1)

    def test_ratio_always_admissible(self):
        for delta in (1e-12, 0.5, 3.0, 1e6):
            assert 0.0 < delta / delta_max_rule(delta) < 1.0


class TestAddNoise:
    def test_zero_sigma_is_identity(self, square):
        y = synthesize_data(square, EX1)
        noisy, delta = add_noise(y, NoiseSpec(0.0, 42))
        assert np.array_equal(noisy.samples, y.samples)
        assert delta == 0.0

    def test_fixed_seed_is_bit_exact(self, square):
        y = synthesize_data(square, EX1)
        first, delta_a = add_noise(y, NoiseSpec(0.1, 42))
        second, delta_b = add_noise(y, NoiseSpec(0.1, 42))
        assert np.array_equal(first.samples, second.samples)
        assert delta_a == delta_b

    def test_realized_level_is_l2_of_injected_noise(self, square):
        y = synthesize_data(square, EX1)
        noisy, delta = add_noise(y, NoiseSpec(0.1, 7))
        eta = RealSignal(GRID, noisy.samples - y.samples)
        assert delta == pytest.approx(l2_norm(eta), rel=1e-12)

    def test_mean_realized_level_matches_expectation(self, square):
        # E[delta] = sigma sqrt(t_max); the mean over 100 seeds must land
        # within 15 percent of it
        y = synthesize_data(square, EX1)
        deltas = [add_noise(y, NoiseSpec(0.1, seed))[1] for seed in range(100)]
        expected = 0.1 * math.sqrt(10.0)
        assert abs(np.mean(deltas) - expected) < 0.15 * expected

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0)
        with pytest.raises(ValueError):
            NoiseSpec(-0.0, 0)


class TestTables:
    @pytest.mark.parametrize("params", [EX1, EX2])
    @pytest.mark.parametrize("grid", [GRID, TimeGrid(8, 10.0), TimeGrid(4096, 160.0)])
    def test_nyquist_gain_of_every_table_is_real(self, params, grid):
        tables = _tables(params, grid)
        half = grid.n // 2
        filtered = [tables.inverse * attenuation(kind, tables.xi, 0.5) for kind in FilterKind]
        for table in (tables.inverse, tables.kernel, *filtered):
            assert table[half].imag == 0.0
            assert table[half].real > 0.0

    @pytest.mark.parametrize(
        "entry",
        [
            lambda f: synthesize_data(f, DEGENERATE),
            lambda f: run_sweep(f, DEGENERATE, 1.0, (0.1,), (0,), ALL_ESTIMATORS, 7),
        ],
        ids=["synthesize_data", "run_sweep"],
    )
    def test_degenerate_medium_raises_without_warning(self, square, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("Lambda or G(x0, .)")):
                entry(square)

    def test_shared_and_read_only(self):
        tables = _tables(EX1, TimeGrid(256, 10.0))
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestSynthesize:
    def test_zero_source_gives_zero_measurement(self):
        y = synthesize_data(RealSignal(GRID, np.zeros(GRID.n)), EX1)
        assert np.max(np.abs(y.samples)) < 1e-14

    def test_noiseless_linearity(self, square):
        y = synthesize_data(square, EX1)
        scaled = synthesize_data(RealSignal(GRID, 2.5 * square.samples), EX1)
        assert np.max(np.abs(scaled.samples - 2.5 * y.samples)) < 1e-10

    def test_measurement_bounded_by_kernel_sup(self, exponential):
        y = synthesize_data(exponential, EX2)
        sup_gain = max(
            abs(forward_kernel(EX2.x0, float(xi), EX2)) for xi in GRID.frequencies()
        )
        assert l2_norm(y) < sup_gain * l2_norm(exponential)


class TestRoundTrips:
    @pytest.mark.parametrize("params,name", [(EX1, "square"), (EX2, "exp")])
    def test_naive_inversion_is_exact_without_noise(self, params, name):
        f = preset_source(name, GRID)
        estimate = invert_naive(synthesize_data(f, params), params)
        assert relative_error(estimate, f) < 1e-6

    @pytest.mark.parametrize("params,name,p", [(EX1, "square", 1.0), (EX2, "exp", 2.0)])
    @pytest.mark.parametrize("kind", tuple(FilterKind))
    def test_regularized_inversion_consistent_without_noise(self, params, name, p, kind):
        f = preset_source(name, GRID)
        y = synthesize_data(f, params)
        delta = DELTA_FLOOR
        estimate, mu = invert_regularized(y, params, kind, p, delta, delta_max_rule(delta))
        assert mu < 2e-5
        assert relative_error(estimate, f) < 1e-3

    def test_zero_noise_full_cell(self, square):
        y = synthesize_data(square, EX1)
        cell = run_cell(
            square, y, EX1, 1.0, 0.0, 0, 99, ALL_ESTIMATORS, hp_norm(dft(square), 1.0)
        )
        assert cell.delta == DELTA_FLOOR
        for row in cell.rows:
            assert row.rel_err < 1e-3


class TestInversionOrdering:
    def test_naive_error_dominates_filters_on_square_wave(self, square):
        # strongly amplifying medium, loudest noise level: the unstabilized
        # estimate loses to every filter on every seed
        y = synthesize_data(square, EX1)
        c2 = hp_norm(dft(square), 1.0)
        for seed in range(12):
            cell = run_cell(square, y, EX1, 1.0, 0.1, seed, 1000 + seed, ALL_ESTIMATORS, c2)
            errors = {row.filter: row.rel_err for row in cell.rows}
            for label in FILTER_LABELS:
                assert errors[label] < errors["naive"]

    def test_filters_give_distinct_estimates(self, square):
        y = synthesize_data(square, EX1)
        noisy, delta = add_noise(y, NoiseSpec(0.1, 5))
        estimates = {}
        for kind in FilterKind:
            estimate, _ = invert_regularized(
                noisy, EX1, kind, 1.0, delta, delta_max_rule(delta)
            )
            estimates[kind] = estimate.samples
        assert np.max(np.abs(estimates[FilterKind.RATIONAL2] - estimates[FilterKind.RATIONAL4])) > 1e-3
        assert np.max(np.abs(estimates[FilterKind.RATIONAL2] - estimates[FilterKind.GAUSSIAN])) > 1e-3

    def test_quadratic_filter_error_scale_on_square_wave(self, square):
        # loudest noise level: relative error lands within a factor three of 0.2275
        y = synthesize_data(square, EX1)
        c2 = hp_norm(dft(square), 1.0)
        errs = []
        for seed in range(5):
            cell = run_cell(square, y, EX1, 1.0, 0.1, seed, 2000 + seed, ("r1",), c2)
            errs.append(cell.rows[0].rel_err)
        assert 0.075 <= np.mean(errs) <= 0.68

    def test_zero_measurement_inverts_to_zero(self):
        estimate = invert_naive(RealSignal(GRID, np.zeros(GRID.n)), EX1)
        assert np.max(np.abs(estimate.samples)) < 1e-14


class TestRelativeError:
    def test_identity(self, square):
        assert relative_error(square, square) == 0.0

    def test_doubling(self, square):
        doubled = RealSignal(GRID, 2.0 * square.samples)
        assert relative_error(doubled, square) == pytest.approx(1.0, rel=1e-12)

    def test_constant_offset_closed_form(self, exponential):
        c = 0.7
        shifted = RealSignal(GRID, exponential.samples + c)
        expected = c * math.sqrt(10.0) / l2_norm(exponential)
        assert relative_error(shifted, exponential) == pytest.approx(expected, rel=1e-12)

    def test_rejects_zero_truth(self):
        zero = RealSignal(GRID, np.zeros(GRID.n))
        with pytest.raises(ValueError):
            relative_error(zero, zero)

    def test_rejects_grid_mismatch(self, square):
        other = RealSignal(TimeGrid(128, 10.0), np.zeros(128))
        with pytest.raises(ValueError):
            relative_error(other, square)


class TestSweep:
    def test_monotone_robustness(self):
        # seed-averaged filtered error shrinks with the noise level
        eps_list = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
        for params, name, p in ((EX1, "square", 1.0), (EX2, "exp", 2.0)):
            f = preset_source(name, GRID)
            cells = run_sweep(f, params, p, eps_list, tuple(range(10)), FILTER_LABELS, 7)
            for label in FILTER_LABELS:
                averages = []
                for eps in eps_list:
                    errs = [
                        row.rel_err
                        for cell in cells
                        for row in cell.rows
                        if cell.epsilon == eps and row.filter == label
                    ]
                    averages.append(np.mean(errs))
                for louder, quieter in zip(averages, averages[1:]):
                    assert quieter <= louder, (name, label, averages)

    def test_theory_bound_holds_for_smooth_source(self, exponential):
        cells = run_sweep(
            exponential, EX2, 2.0, (1e-1, 1e-3), tuple(range(5)), FILTER_LABELS, 11
        )
        norm = l2_norm(exponential)
        for cell in cells:
            for row in cell.rows:
                assert row.rel_err * norm <= row.theory_bound

    def test_rows_share_cell_noise(self, square):
        cells = run_sweep(square, EX1, 1.0, (1e-2,), (0, 1), ALL_ESTIMATORS, 3)
        for cell in cells:
            assert len(cell.rows) == 4
            assert len({row.delta for row in cell.rows}) == 1
            naive_rows = [row for row in cell.rows if row.filter == "naive"]
            assert naive_rows[0].mu is None and naive_rows[0].theory_bound is None
            for row in cell.rows:
                if row.filter != "naive":
                    assert 0.0 < row.mu < 1.0
                    assert row.theory_bound > 0.0

    def test_sweep_is_deterministic(self, square):
        first = run_sweep(square, EX1, 1.0, (1e-2,), (0, 1, 2), FILTER_LABELS, 123)
        second = run_sweep(square, EX1, 1.0, (1e-2,), (0, 1, 2), FILTER_LABELS, 123)
        assert [cell.rows for cell in first] == [cell.rows for cell in second]

    def test_sweep_is_run_cell_on_a_stack(self, square, monkeypatch):
        # one scoring path: every cell equals run_cell's, bit for bit, and the
        # sweep transforms each noise level's seeds once
        real_dft = pipeline.dft
        calls = []
        monkeypatch.setattr(pipeline, "dft", lambda signal: calls.append(signal) or real_dft(signal))
        eps_list = (0.0, 0.1)
        cells = run_sweep(square, EX1, 1.0, eps_list, (0, 1, 2), ALL_ESTIMATORS, 7)
        assert len(calls) <= 2 + len(eps_list)
        y = synthesize_data(square, EX1)
        c_bound = hp_norm(dft(square), 1.0)
        for cell in cells:
            single = run_cell(
                square, y, EX1, 1.0, cell.epsilon, cell.seed, cell.rng_seed, ALL_ESTIMATORS,
                c_bound,
            )
            assert single.rows == cell.rows
            assert single.y_noisy.samples.tobytes() == cell.y_noisy.samples.tobytes()
            assert list(single.estimates) == list(cell.estimates) == list(ALL_ESTIMATORS)
            for label, estimate in cell.estimates.items():
                assert single.estimates[label].samples.tobytes() == estimate.samples.tobytes()

    @pytest.mark.parametrize(
        "p, filters, expected_norms",
        [(1.0, ALL_ESTIMATORS, [1.0]), (1000.0, ("naive",), [1000.0])],
    )
    def test_sweep_measures_the_source_once(self, square, monkeypatch, p, filters,
                                            expected_norms):
        # one dft, one synthesis and one norm of the source, also where the norm
        # overflows, as it does for the square wave at p = 1000
        transforms, syntheses, norms = [], [], []
        real_dft, real_synthesize, real_norm = pipeline.dft, pipeline._synthesize, pipeline.hp_norm

        def counted_dft(signal):
            if signal.samples.ndim == 1:  # the source; noisy measurements come as stacks
                transforms.append(signal.grid)
            return real_dft(signal)

        def counted_synthesize(f_hat, params):
            syntheses.append(f_hat.grid)
            return real_synthesize(f_hat, params)

        monkeypatch.setattr(pipeline, "dft", counted_dft)
        monkeypatch.setattr(pipeline, "_synthesize", counted_synthesize)
        monkeypatch.setattr(pipeline, "hp_norm",
                            lambda f_hat, p: norms.append(p) or real_norm(f_hat, p))
        run_sweep(square, EX1, p, (0.1, 0.01), (0, 1), filters, 7)
        assert len(transforms) == len(syntheses) == 1
        assert norms == expected_norms

    @pytest.mark.parametrize("params,name", [(EX1, "square"), (EX2, "exp")])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_level_arrays_match_the_scalar_reference(self, params, name, p):
        # every row equals, bit for bit, the scalar functions on that cell
        f = preset_source(name, GRID)
        cells = run_sweep(f, params, p, (0.0, 0.1, 1e-3, 1e-5), tuple(range(5)), ALL_ESTIMATORS, 3)
        y = synthesize_data(f, params)
        c_bound = float(hp_norm(dft(f), p))
        for cell in cells:
            noisy, realized = add_noise(y, NoiseSpec(cell.epsilon, cell.rng_seed))
            assert cell.y_noisy.samples.tobytes() == noisy.samples.tobytes()
            for row in cell.rows:
                assert row.delta == cell.delta == max(realized, DELTA_FLOOR)
                assert row.delta_max == cell.delta_max == delta_max_rule(row.delta)
                if row.filter == "naive":
                    continue
                assert row.mu == choose_mu(row.delta, row.delta_max, p)
                kind, reg = FilterKind(row.filter), RegParams(row.mu, p, row.delta, row.delta_max)
                assert row.theory_bound == error_bound(kind, c_bound, reg, params)

    @pytest.mark.parametrize(
        "p, eps_list, seed_ids",
        [
            (1.0, (0.1, 1e300), (0, 1, 2)),  # delta overflows: delta_max_rule
            (1.0, (1e308,), (0, 1, 2)),  # the noisy samples overflow
            (1.0, (-0.1,), (0, 1)),  # NoiseSpec
            (1.0, (3e15,), (1, 2, 0)),  # delta == delta_max on a later row: choose_mu
            (1.0, (2e15,), (0, 1, 2)),  # mu rounds to 1: RegParams
            (1e300, (0.1,), (0, 1)),  # RegParams
            (0.0, (0.0, 0.1), (0, 1)),  # choose_mu's p check
        ],
    )
    def test_level_checks_raise_the_scalar_errors(self, square, p, eps_list, seed_ids):
        # the first error of the scalar calls, cell by cell in the sweep's order
        y = synthesize_data(square, EX1)
        with np.errstate(all="ignore"):
            c_bound = float(hp_norm(dft(square), p))
        with np.errstate(all="ignore"), pytest.raises(ValueError) as scalar:
            for i_eps, eps in enumerate(eps_list):
                noisy = [add_noise(y, NoiseSpec(eps, cell_seed(7, i_eps, s))) for s in seed_ids]
                deltas = [max(realized, DELTA_FLOOR) for _, realized in noisy]
                d_maxes = [delta_max_rule(delta) for delta in deltas]
                mus = [choose_mu(d, d_max, p) for d, d_max in zip(deltas, d_maxes)]
                for mu, d, d_max in zip(mus, deltas, d_maxes):
                    error_bound(FilterKind.RATIONAL2, c_bound, RegParams(mu, p, d, d_max), EX1)
        message = re.escape(str(scalar.value))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            run_sweep(square, EX1, p, eps_list, seed_ids, ALL_ESTIMATORS, 7)

    def test_validation_scales_with_levels_and_estimators_not_cells(self, square, monkeypatch):
        # one check per stack, not per cell
        real_check = RealSignal.__post_init__
        calls = []
        monkeypatch.setattr(RealSignal, "__post_init__", lambda s: calls.append(s) or real_check(s))
        eps_list = (0.0, 0.1)
        counts = []
        for seed_ids in ((0,), tuple(range(10))):
            calls.clear()
            run_sweep(square, EX1, 1.0, eps_list, seed_ids, ALL_ESTIMATORS, 7)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 1 + len(eps_list) * (1 + 2 * len(ALL_ESTIMATORS))

    def test_noise_level_is_checked_without_seeds(self, square):
        with pytest.raises(ValueError, match="sigma must be a nonnegative finite real"):
            run_sweep(square, EX1, 1.0, (-0.1,), (), ALL_ESTIMATORS, 7)

    @pytest.mark.parametrize("eps_list, seed_ids", [((), (0, 1)), ((0.1,), ())])
    def test_empty_sweep_has_no_cells(self, square, eps_list, seed_ids):
        # no level or no seed: no cell to seed, hash or draw
        assert run_sweep(square, EX1, 1.0, eps_list, seed_ids, ALL_ESTIMATORS, 7) == []

    def test_naive_only_sweep_warns_nothing_about_the_bound(self, square):
        # the Sobolev norm overflows at p = 1000, but only filtered rows read it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = run_sweep(square, EX1, 1000.0, (0.1,), (0,), ("naive",), 7)
            assert len(cells) == 1
            with pytest.raises(ValueError, match="c_bound must be a positive finite real"):
                run_sweep(square, EX1, 1000.0, (0.1,), (0,), ("naive", "r1"), 7)

    @pytest.mark.parametrize("entry", ["run_sweep", "run_cell"])
    def test_unknown_filter_label_raises_before_any_noise(self, square, entry, monkeypatch):
        def no_draws(*args):
            raise AssertionError("noise drawn before the labels were checked")

        monkeypatch.setattr(pipeline, "_draw", no_draws)
        message = re.escape("unknown filter 'R1'; choose from naive, r1, r2, r3")
        with pytest.raises(ValueError, match=message):
            if entry == "run_sweep":
                run_sweep(square, EX1, 1.0, (0.1,), (0, 1), ("R1", "naive"), 7)
            else:
                y = synthesize_data(square, EX1)
                run_cell(square, y, EX1, 1.0, 0.1, 0, 7, ("R1",), 1.0)

    def test_theory_bound_recomputed_from_the_formulas(self):
        # Each filtered row's bound from the paper's formulas with NumPy alone:
        # K max(r^(2/(p+2)), r^(p/(p+2)), r^((p-2)/(p+2))), r = delta / delta_max,
        # K = c_bound + delta_max M_i, M_i = 2 (nu + n_i(alpha)) max(1, 1/N), and
        # c_bound the source's H^p norm under the scaling dt / sqrt(2 pi) * FFT.
        def peak(label, a):  # n_i(alpha)
            if label == "r1":
                return (2 - a) / 2 * (a / (2 - a)) ** (a / 2)
            if label == "r2":
                return (4 - a) / 4 * (a / (4 - a)) ** (a / 4)
            return (2 * a) ** (a / 2) / np.exp(a / 2)

        rng = np.random.default_rng(20261019)
        checked = 0
        for trial in range(32):  # media log-uniform over two decades a coefficient
            params = MediumParams(
                omega=10 ** rng.uniform(-2, 0), beta=10 ** rng.uniform(-2, 0),
                nu=10 ** rng.uniform(-1, 1), alpha=rng.uniform(0.05, 1.0),
                x0=10 ** rng.uniform(-1, 1),
            )
            pad = int(rng.choice([1, 2]))
            grid = TimeGrid(int(rng.choice([64, 256, 1024])) * pad, 10.0 * pad)
            p = rng.uniform(0.25, 4.0)
            f = preset_source(("square", "exp")[trial % 2], grid)
            cells = run_sweep(f, params, p, (0.1, 0.01, 0.0), (0, 1), FILTER_LABELS, trial)
            xi = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dt)
            coeffs = grid.dt / np.sqrt(2 * np.pi) * np.fft.fft(f.samples)
            c_bound = np.sqrt(2 * np.pi / grid.t_max * np.sum((1 + xi * xi) ** p
                                                              * np.abs(coeffs) ** 2))
            cap_n = params.x0 / (2 * params.omega) * (
                -params.beta + np.sqrt(params.beta ** 2 + 4 * params.omega * params.nu))
            norm = np.sqrt(grid.dt * np.sum(f.samples ** 2))
            for row in (row for cell in cells for row in cell.rows):
                m = 2 * (params.nu + peak(row.filter, params.alpha)) * max(1.0, 1.0 / cap_n)
                r = row.delta / row.delta_max
                bound = (c_bound + row.delta_max * m) * max(
                    r ** (2 / (p + 2)), r ** (p / (p + 2)), r ** ((p - 2) / (p + 2)))
                assert row.theory_bound == pytest.approx(bound, rel=1e-12, abs=0), row
                assert row.rel_err * norm <= row.theory_bound, row
                checked += 1
        assert checked == 32 * 3 * 2 * 3

    # Master seeds of one word, of more (>= 2**32), and of more words than the
    # pool (>= 2**128, mixed in after it); seed ids of one word and of two or
    # three, whose keys are longer, in one sweep.
    @settings(max_examples=60, deadline=None)
    @given(
        master=st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                         st.integers(2**128, 2**200)),
        levels=st.integers(1, 3),
        seed_ids=st.lists(st.one_of(st.integers(0, 50), st.integers(2**32, 2**80)),
                          min_size=1, max_size=4, unique=True),
    )
    @example(master=0, levels=3, seed_ids=[0, 1])
    @example(master=2**130, levels=1, seed_ids=[2**32, 7])
    @example(master=2**64 + 5, levels=2, seed_ids=[2**64, 3, 2**32 - 1])
    def test_one_pass_seeds_states_and_noise_are_numpys(self, master, levels, seed_ids):
        seed_ids = tuple(seed_ids)
        cells = [(i_eps, seed_id) for i_eps in range(levels) for seed_id in seed_ids]
        seeds = pipeline._cell_seeds(master, levels, seed_ids)
        assert seeds == [cell_seed(master, i_eps, seed_id) for i_eps, seed_id in cells]
        assert [np.random.PCG64(words).state for words in pipeline._pcg_words(seeds)] == [
            np.random.default_rng(seed).bit_generator.state for seed in seeds]
        grid = TimeGrid(8, 10.0)
        f = preset_source("square", grid)
        eps_list = (0.1, 0.0, 1e-3)[:levels]
        y = synthesize_data(f, EX1)
        swept = run_sweep(f, EX1, 1.0, eps_list, seed_ids, ("naive",), master)
        for (i_eps, _), seed, cell in zip(cells, seeds, swept):
            noisy, _ = add_noise(y, NoiseSpec(eps_list[i_eps], seed))
            assert cell.rng_seed == seed
            assert cell.y_noisy.samples.tobytes() == noisy.samples.tobytes()

    def test_cell_seeds_are_distinct(self):
        seeds = {cell_seed(9, i, j) for i in range(5) for j in range(20)}
        assert len(seeds) == 100
        assert cell_seed(9, 2, 3) == cell_seed(9, 2, 3)
        assert cell_seed(9, 2, 3) != cell_seed(10, 2, 3)

    def test_states_of_long_rng_seeds(self, square):
        # a sweep's seeds fit in 64 bits; longer rng seeds hash past the pool, each
        # column with its own word count, in one call
        seeds = [0, 5, 2**32 + 1, 2**64 + 3, 2**100, 2**128 + 9, 2**200 + 1]
        words = pipeline._pcg_words(seeds)
        assert [np.random.PCG64(row).state for row in words] == [
            np.random.default_rng(seed).bit_generator.state for seed in seeds]
        for seed, row in zip(seeds, words):
            assert pipeline._draw(row, 0.1, 8).tobytes() == (
                np.random.default_rng(seed).normal(0.0, 0.1, 8).tobytes()), seed
        y = synthesize_data(square, EX1)
        cell = run_cell(square, y, EX1, 1.0, 0.1, 0, 2**130 + 7, ("naive",), 1.0)
        noisy, _ = add_noise(y, NoiseSpec(0.1, 2**130 + 7))
        assert cell.y_noisy.samples.tobytes() == noisy.samples.tobytes()

    def test_import_loads_no_numpy_random(self):
        # _pcg_words registers _Hashed with numpy.random on first use, so that an
        # import, which every run's setup pays, does not load it
        env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).resolve().parents[1]))
        code = 'import fracsrc, sys; assert "numpy.random" not in sys.modules'
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_unregistered_hashed_words_are_refused(self):
        # PCG64 hashes an unregistered tuple as entropy and seeds another stream;
        # a _Hashed, built before _pcg_words registers its class, must raise instead
        env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).resolve().parents[1]))
        code = (
            "import numpy as np\n"
            "from fracsrc import pipeline\n"
            "words = pipeline._Hashed(pipeline._hash([[12345]], 4)[0])\n"
            "try:\n"
            "    np.random.PCG64(words)\n"
            "except TypeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('PCG64 took unregistered words')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_a_sweep_holds_no_tables_after_it_returns():
    # a run's record is the only holder of its tables, so nothing of a sweep stays
    # live once it returns; at 2^16 its tables alone are about 2.6 MB
    def held(sizes):
        gc.collect()
        tracemalloc.start()
        try:
            for n in sizes:
                grid = TimeGrid(n, 10.0)
                run_sweep(preset_source("exp", grid), EX2, 2.0, (0.1,), (0,), ("naive",), 7)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held([256])  # one-time allocations, such as lazy imports, are not a sweep's
    assert held([1 << k for k in range(12, 17)]) <= 0.1e6
    assert held([1 << 16]) <= 0.1e6


def test_traced_peak_per_bin_of_a_one_cell_run():
    # Example 2 as one cell with all four estimators, as the large benchmark run.
    # The bounds sit between this code's peaks (about 27 and 145 B per bin here,
    # 25 and 145 at n = 2^20) and those of a source built from n-long lists and
    # gain tables alive through the inverse FFT (72.6 and 161.2).
    def one_cell(grid):
        f_true = preset_source("exp", grid)
        source_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_sweep(f_true, EX2, 2.0, (0.1,), (0,), ALL_ESTIMATORS, 12345)
        return source_peak, tracemalloc.get_traced_memory()[1]  # the sweep's counts f_true

    one_cell(GRID)  # one-time allocations, such as lazy imports, are not per bin
    n = 1 << 16
    tracemalloc.start()
    try:
        source_peak, sweep_peak = one_cell(TimeGrid(n, 10.0))
    finally:
        tracemalloc.stop()
    assert source_peak / n <= 32.0
    assert sweep_peak / n <= 150.0
