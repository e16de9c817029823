import builtins
import errno
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracsrc
import fracsrc.cli as cli
import fracsrc.pipeline as pipeline
from fracsrc.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    preset_source,
    run_experiment,
)
from fracsrc.spectral import SymmetryError, TimeGrid
from fracsrc.symbols import MediumParams

EX1_PARAMS = MediumParams(omega=0.1, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)

# n = 64 over a 16-unit window puts every breakpoint of the presets on a
# sample: dt = 0.25
BREAKPOINT_GRID = TimeGrid(64, 16.0)


# Tests that poll for forked children themselves; os.fork and os.WNOHANG are POSIX-only.
polls_children = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "WNOHANG")), reason="needs os.fork and os.WNOHANG"
)


def sample_at(signal, t):
    times = signal.grid.times()
    index = int(round(t / signal.grid.dt))
    assert math.isclose(times[index], t), "breakpoint not on the grid"
    return signal.samples[index]


class TestPresetSource:
    def test_square_branch_values(self):
        f = preset_source("square", BREAKPOINT_GRID)
        assert sample_at(f, 0.0) == -1.0
        assert sample_at(f, 1.0) == -1.0
        assert sample_at(f, 2.5) == 1.0  # left-closed switch
        assert sample_at(f, 5.0) == -1.0
        assert sample_at(f, 7.5) == 1.0
        assert sample_at(f, 10.0) == 1.0  # right endpoint included
        assert sample_at(f, 10.25) == 0.0
        assert sample_at(f, 15.0) == 0.0

    def test_exponential_values(self):
        f = preset_source("exp", BREAKPOINT_GRID)
        assert sample_at(f, 0.0) == 6.51
        assert sample_at(f, 2.0) == pytest.approx(6.51 * math.exp(-2.0), rel=1e-15)
        assert sample_at(f, 10.0) == pytest.approx(6.51 * math.exp(-10.0), rel=1e-15)
        assert sample_at(f, 12.0) == 0.0

    @pytest.mark.parametrize("grid", [TimeGrid(256, 10.0), TimeGrid(65536, 10.0),
                                      TimeGrid(65536, 40.0), TimeGrid(8192 * 2, 10.0 * 2)])
    def test_exponential_matches_the_scalar_loop_bit_for_bit(self, grid):
        expected = [6.51 * math.exp(-t) if 0.0 <= t <= 10.0 else 0.0 for t in grid.times()]
        assert preset_source("exp", grid).samples.tobytes() == np.array(expected).tobytes()

    def test_exponential_blocks_need_not_divide_the_grid(self):
        # n = 2^13 at pad 2: the times pass 10, where the source ends
        grid = TimeGrid(8192 * 2, 10.0 * 2)
        times = grid.times()
        decay = [6.51 * math.exp(-t) for t in times.tolist()]
        expected = np.where((0.0 <= times) & (times <= 10.0), decay, 0.0)
        assert preset_source("exp", grid).samples.tobytes() == expected.tobytes()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_source("triangle", BREAKPOINT_GRID)

    def test_square_on_default_grid(self):
        f = preset_source("square", TimeGrid(256, 10.0))
        assert f.samples[0] == -1.0
        assert f.samples[64] == 1.0  # t = 2.5
        assert f.samples[255] == 1.0


class TestConfigValidation:
    def base_kwargs(self, **overrides):
        kwargs = dict(
            params=EX1_PARAMS, n=256, t_max=10.0, pad_factor=1, source="square",
            p=1.0, eps_list=(0.1,), seed_ids=(0,), filters=("r1",),
            master_seed=1, out_dir=None,
        )
        kwargs.update(overrides)
        return kwargs

    def test_accepts_valid(self, tmp_path):
        cfg = ExperimentConfig(**self.base_kwargs(out_dir=tmp_path))
        assert cfg.grid().n == 256
        # the Sobolev weight (1 + xi^2)^p stays finite at n = 256 up to p = 80.9
        ExperimentConfig(**self.base_kwargs(out_dir=tmp_path, p=80.0))
        # p sets no mu and no bound without a filter
        for p in (1000.0, 1e300):
            ExperimentConfig(**self.base_kwargs(out_dir=tmp_path, p=p, filters=("naive",)))

    def test_pad_factor_scales_grid(self, tmp_path):
        cfg = ExperimentConfig(**self.base_kwargs(out_dir=tmp_path, pad_factor=4))
        assert cfg.grid() == TimeGrid(1024, 40.0)
        f = preset_source(cfg.source, cfg.grid())
        # the padded tail carries no source
        assert np.all(f.samples[cfg.grid().n // 4 + 1 :] == 0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(filters=()),
            dict(filters=("r1", "bogus")),
            dict(eps_list=()),
            dict(eps_list=(-0.1,)),
            dict(seed_ids=()),
            dict(source="triangle"),
            dict(p=0.0),
            dict(pad_factor=0),
            dict(n=100),
            dict(seed_ids=(-1, 2)),
            dict(master_seed=-5),
            dict(seed_ids=(1, 1)),
            dict(eps_list=(0.1, 0.1)),
            dict(eps_list=(0.1, 0.1000001)),  # both name signals_0.1_<seed>.csv
            dict(t_max=5e-324),
            dict(eps_list=(-0.0,)),
            dict(filters=("naive", "r1", "naive")),
        ],
    )
    def test_rejects_invalid(self, tmp_path, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**self.base_kwargs(out_dir=tmp_path, **overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(p=1e300),  # the rule's mu rounds to 1 even at DELTA_FLOOR
            dict(params=MediumParams(omega=1e-300, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)),
            dict(t_max=1e-320),
            dict(p=81.0),  # the square wave's Sobolev norm overflows at n = 256
            dict(eps_list=(0.1, 1e300)),  # the loudest level's expected norm overflows
            dict(eps_list=(1e300,), filters=("naive",)),  # ... also without a filter
        ],
    )
    def test_run_refuses_the_data_before_any_file(self, tmp_path, overrides):
        out = tmp_path / "out"
        cfg = ExperimentConfig(**self.base_kwargs(out_dir=out, **overrides))
        with pytest.raises(ConfigError):
            run_experiment(cfg)
        assert not out.exists()

    def test_grid_is_refused_where_a_complex_array_passes_maxsize(self, tmp_path):
        # the largest power of two of complex samples that sys.maxsize bytes hold;
        # a config allocates nothing, so neither grid is built here
        fits = 1 << ((sys.maxsize // 16).bit_length() - 1)
        cfg = ExperimentConfig(**self.base_kwargs(out_dir=tmp_path, n=8, pad_factor=fits // 8))
        assert cfg.grid().n == fits
        with pytest.raises(ConfigError, match=f"^n and pad: a grid of n \\* pad = {2 * fits} "):
            ExperimentConfig(**self.base_kwargs(out_dir=tmp_path, n=8, pad_factor=fits // 4))

    def test_building_a_config_samples_no_tables(self, tmp_path, monkeypatch):
        def sampled(*args):
            raise AssertionError("tables sampled")

        monkeypatch.setattr(pipeline, "_tables", sampled)
        cfg = ExperimentConfig(**self.base_kwargs(out_dir=tmp_path / "out"))
        with pytest.raises(AssertionError, match="tables sampled"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(params=MediumParams(omega=1e-300, beta=0.9, nu=1.0, alpha=0.9, x0=0.5)),
            dict(t_max=1e-320),
        ],
    )
    def test_degenerate_medium_or_grid_warns_nothing(self, tmp_path, overrides):
        out = tmp_path / "out"
        cfg = ExperimentConfig(**self.base_kwargs(out_dir=out, **overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                run_experiment(cfg)
        assert not out.exists()


class TestMainExitCodes:
    def test_empty_filter_set_is_config_error(self, tmp_path, capsys):
        rc = main(["run", "--example", "1", "--filters", "", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_free_form_without_source_is_config_error(self, tmp_path):
        rc = main([
            "run", "--alpha", "0.9", "--omega", "0.1", "--beta", "0.9",
            "--nu", "1", "--x0", "0.5", "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_bad_sample_count_is_config_error(self, tmp_path):
        rc = main(["run", "--example", "1", "--n", "100", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, config, code, prefix",
        [
            (["--omega", "1e-300"], None, 2, "error: Lambda or G(x0, .)"),
            (["--t-max", "1e-320"], None, 2, "error: Lambda or G(x0, .)"),
            (["--seeds=-1,2"], None, 2, "error: seed identifiers"),
            # a negative count is named as such, not as the empty list it would expand to
            (["--seeds", "-3"], None, 2, "error: seeds: seed count must be nonnegative, got -3\n"),
            ([], {"seeds": -1}, 2, "error: seeds: seed count must be nonnegative, got -1\n"),
            (["--master-seed", "-5"], None, 2, "error: master seed"),
            (["--seeds", "1,1"], None, 2, "error: seed identifiers"),
            (["--eps", "0.1,0.1"], None, 2, "error: noise levels"),
            (["--n", "abc"], None, 2, "error: n:"),
            (["--example", "3"], None, 2, "error: example:"),
            (["--eps", "1e300"], None, 2, "error: eps: noise level 1e+300 is too large"),
            (["--p", "1e300"], None, 2, "error: smoothness order p"),
            (["--p", "1e17"], None, 2, "error: smoothness order p"),
            ([], {"n": "abc"}, 2, "error: n:"),
            ([], {"eps": [0.1, "x"]}, 2, "error: eps:"),
            ([], {"eps": 0.1}, 2, "error: eps:"),
            ([], {"pad": 1.5}, 2, "error: pad:"),
            ([], {"seeds": [True]}, 2, "error: seeds:"),
            ([], {"example": True}, 2, "error: example:"),
            ([], {"out": 5}, 2, "error: out:"),
            # Path("") is the working directory: empty text names none
            (["--out", ""], None, 2, "error: out: expected a directory, got empty text\n"),
            ([], {"out": ""}, 2, "error: out: expected a directory, got empty text\n"),
            (["--p", "400"], None, 2, "error: smoothness order p"),
            (["--eps", "2e15"], None, 2, "error: eps: noise level 2e+15 is too large"),
            # the drawn row's 1 + delta rounds down to delta
            (["--eps", "3e15"], None, 2, "error: eps: noise level 3e+15 is too large to score: "
             "need 0 < delta < delta_max, got delta=1.1345862096215944e+16, "
             "delta_max=1.1345862096215944e+16\n"),
            # here it rounds up to delta + 2, and mu < 1 at p = 0.1: whether it does is chance
            (["--eps", "2.5e15", "--p", "0.1"], None, 2, "error: eps: noise level 2.5e+15 is too "
             "large to score: delta must be below 2**53, got 9454885080179954.0\n"),
            (["--eps", "inf"], None, 2, "error: noise levels must be finite, got inf\n"),
            (["--eps", "nan"], None, 2, "error: noise levels must be finite, got nan\n"),
            ([], {"p": True}, 2, "error: p: expected a number"),
            (["--alpha", "1.5"], None, 2, "error: alpha must lie in (0, 1]"),
            # the Sobolev weight is finite at p = 356 on this grid, but not the weighted
            # sum of the exponential source's coefficients; p = 355 runs
            ([], {"example": 2, "n": 8, "seeds": 1, "eps": [0.1], "p": 356}, 2,
             "error: smoothness order p"),
            (["--n", "256", "--p", "81"], None, 2, "error: smoothness order p"),
            # no p > 0 passes on these windows: the norm overflows at p = 5e-324
            (["--t-max", "1e-300"], None, 2, "error: t_max:"),
            (["--t-max", "1e300"], None, 2, "error: t_max:"),
            (["--t-max", "1e-160"], None, 2, "error: t_max:"),
            (["--pad", "4611686018427387904"], None, 2, "error: n and pad:"),
            ([], {"example": 2, "n": 8, "seeds": 1, "eps": [1e17]}, 2,
             "error: eps: noise level 1e+17 is too large"),
            (["--eps=-0"], None, 2, "error: noise levels must be nonnegative, got -0.0"),
            # no row reads the overflowing norm at p = 1000: the noise level is blamed
            (["--filters", "naive", "--p", "1000", "--eps", "1e300"], None, 2,
             "error: eps: noise level 1e+300 is too large to score: delta must be"),
            # n * pad would be a power of two only by chance: pad is named, not n
            (["--pad", "3"], None, 2, "error: pad factor must be a power of two"),
            # n and t_max are checked as typed, before pad scales them
            (["--n", "12", "--pad", "2"], None, 2,
             "error: n must be a power of two >= 8, got 12\n"),
            (["--n", "4", "--pad", "2"], None, 2,
             "error: n must be a power of two >= 8, got 4\n"),
            (["--t-max", "-1", "--pad", "2"], None, 2, "error: t_max must be a positive finite "
             "real with a nonzero step t_max / n, got -1.0\n"),
            (["--t-max", "1e308", "--pad", "4"], None, 2, "error: t_max and pad: the padded "
             "window t_max * pad overflows, got t_max = 1e+308 and pad = 4\n"),
            (["--pad", str(2**1100)], None, 2, "error: n and pad:"),
            (["--filters", "naive,r1,naive"], None, 2,
             "error: filter labels must be distinct, got ('naive', 'r1', 'naive')\n"),
        ],
    )
    def test_bad_input_exits_with_one_line(self, tmp_path, monkeypatch, capsys, flags, config,
                                           code, prefix):
        monkeypatch.chdir(tmp_path)  # where an empty output directory would write
        argv = ["run", "--n", "8", "--seeds", "1", "--eps", "0.1"]
        if config is None:
            argv += ["--example", "1", "--out", str(tmp_path / "out"), *flags]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"example": 1, "out": str(tmp_path / "out"), **config}))
            argv = ["run", "--config", str(path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("master_seed", [1, 12345, 2**70])
    @pytest.mark.parametrize("example", [1, 2])
    def test_loud_levels_run_then_are_refused_naming_eps(self, tmp_path, capsys, example,
                                                        master_seed):
        # past the loudest level whose drawn rows the rule can score, every level exits 2
        argv = ["run", "--example", str(example), "--n", "8", "--seeds", "3",
                "--master-seed", str(master_seed), "--out", str(tmp_path / "out")]
        codes = ""
        for eps in np.logspace(14, 17, 61):
            codes += str(main(argv + ["--eps", repr(float(eps))]))
            err = capsys.readouterr().err
            if codes[-1] == "0":
                assert err == "", (eps, err)
            else:
                assert err.startswith(f"error: eps: noise level {eps:g} is too large to score: ")
                assert err.count("\n") == 1, err
        zeros = codes.count("0")
        assert codes == "0" * zeros + "2" * (61 - zeros) and 0 < zeros < 61, codes

    @pytest.mark.parametrize("flags", [["--eps", "3e15"], ["--t-max", "1e300"]])
    def test_naive_rows_are_scored_at_any_finite_delta(self, tmp_path, flags):
        # delta < delta_max is the filters' rule; naive inversion does not read it
        assert main(["run", "--example", "1", "--n", "8", "--seeds", "1", "--eps", "0.1",
                     "--filters", "naive", *flags, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "example, n, runs, refused",
        [(1, 8, 356.5, 357), (2, 8, 355.5, 356), (1, 256, 80.5, 81), (2, 256, 80.5, 81)],
    )
    def test_p_is_refused_exactly_where_the_sobolev_norm_overflows(
        self, tmp_path, capsys, example, n, runs, refused
    ):
        argv = ["run", "--example", str(example), "--n", str(n), "--seeds", "1", "--eps", "0.1"]
        assert main(argv + ["--p", str(runs), "--out", str(tmp_path / "runs")]) == 0
        assert main(argv + ["--p", str(refused), "--out", str(tmp_path / "refused")]) == 2
        assert capsys.readouterr().err == (
            "error: smoothness order p is too large for this source: "
            f"its H^p norm overflows at p = {refused}\n"
        )
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read config file"), ("{bad", "invalid JSON"),
         ("[1]", "top level must be a JSON object")],
    )
    def test_bad_config_file_exits_with_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_out_path_that_is_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["run", "--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "1",
                   "--out", str(taken)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: out:")

    @pytest.mark.parametrize("squatted", ["errors.csv", "signals_0.1_0.csv"])
    def test_unwritable_output_file_is_config_error(self, tmp_path, capsys, squatted):
        out = tmp_path / "out"
        (out / squatted).mkdir(parents=True)
        rc = main(["run", "--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out:") and err.count("\n") == 1, err

    def test_summary_table_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--example", "1", "--n", "8", "--seeds", "1", "--eps", "0.1",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "seed-averaged relative errors\n"
            "   epsilon          r1          r2          r3\n"
            "       0.1      0.3437      0.4564      0.2268\n"
            f"wrote 3 files to {out}\n"
        )

    def test_summary_table_aligns_wide_values(self, tmp_path, capsys):
        # naive inversion at a loud level averages to a 22-character error
        assert main(["run", "--example", "1", "--filters", "naive", "--eps", "3e15,0.1",
                     "--n", "8", "--seeds", "2", "--out", str(tmp_path / "out")]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[1:-1]
        assert len(rows) == 2 and max(map(len, rows[0].split())) > 10, rows
        assert {len(line) for line in [header, *rows]} == {len(header)}

        def ends(line):
            return [match.end() for match in re.finditer(r"\S+", line)]

        assert [ends(line) for line in rows] == [ends(header)] * 2  # each value under its header

    def test_summary_labels_are_the_file_labels(self, tmp_path, capsys):
        # levels equal to 3 digits but not to 6 write distinct files, so distinct rows
        out = tmp_path / "out"
        assert main(["run", "--example", "1", "--n", "8", "--seeds", "1", "--eps",
                     "0.1,0.1001,1.23456e-7,1.23457e-7", "--out", str(out)]) == 0
        labels = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:-1]]
        assert labels == ["0.1", "0.1001", "1.23456e-07", "1.23457e-07"]
        assert sorted(path.name for path in out.glob("signals_*")) == sorted(
            f"signals_{label}_0.csv" for label in labels)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate", "1"])
        assert exc.value.code == 2

    # argparse's layout varies across Python minor versions and with the width
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digest taken on Python 3.11")
    def test_run_help_is_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "b074e82b66e55523d30a971469001ac050e033f596d5e3be6dd361e8b8f493e6"

    def test_guard_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise SymmetryError("synthetic guard trip")

        monkeypatch.setattr(cli, "run_experiment", boom)
        rc = main(["run", "--example", "1", "--out", str(tmp_path)])
        assert rc == 3
        assert "guard failure" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["_measure", "_sweep"])
    def test_out_of_memory_exits_three_naming_the_grid(self, tmp_path, monkeypatch, capsys,
                                                       target):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        rc = main(["run", "--example", "1", "--n", "64", "--pad", "2", "--eps", "0.1",
                   "--seeds", "1", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "guard failure: out of memory on a grid of 128 samples\n"
        )

    def test_out_of_memory_building_the_settings_exits_three(self, tmp_path, monkeypatch,
                                                            capsys):
        def exhausted(args):
            raise MemoryError  # as _seeds' tuple(range(count)) raises it, without a message

        monkeypatch.setattr(cli, "_build_config", exhausted)
        assert main(["run", "--example", "1", "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "guard failure: out of memory while building the run settings\n"
        )

    def test_guard_failure_inside_idft_exits_three(self, tmp_path, monkeypatch, capsys):
        real_tables = pipeline._tables

        def rotated_bin(params, grid):
            tables = real_tables(params, grid)
            inverse = tables.inverse.copy()
            inverse[1] *= 1j  # bin 1 no longer mirrors bin n-1
            return tables._replace(inverse=inverse)

        monkeypatch.setattr(pipeline, "_tables", rotated_bin)
        rc = main(["run", "--example", "1", "--n", "64", "--eps", "0.1", "--seeds", "1",
                   "--filters", "naive", "--out", str(tmp_path)])
        assert rc == 3
        assert "guard failure:" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fracsrc", "run", "--example", "1",
             "--n", "8", "--eps", "0.1", "--seeds", "1", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "errors.csv").exists()

    # Under glibc's default thresholds each freed n-point array goes back to the kernel,
    # and the next stage faults in fresh pages: about 0.13 faults a sample at n = 2**16.
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's thresholds")
    def test_a_run_reuses_its_freed_memory(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        n = 2**16
        script = (
            "import resource, sys\n"
            "import fracsrc.cli as cli\n"
            "cli._cpu_count = lambda: 1\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", "--example", "2", "--n", str(n),
             "--eps", "0.1", "--seeds", "1", "--filters", "naive,r1,r2,r3",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stderr)
        assert faults <= 0.1 * n, faults

    # The trim threshold is set only after the mmap threshold is taken, and only main
    # sets either: a library run leaves its caller's allocator alone.
    @pytest.mark.parametrize("taken", [1, 0])
    def test_thresholds_are_set_by_main_alone(self, tmp_path, monkeypatch, taken):
        calls = []

        def mallopt(*args):
            calls.append(args)
            return taken

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        argv = ["run", "--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "1"]
        cfg = cli._build_config(cli._build_parser().parse_args(argv + ["--out", str(tmp_path)]))
        run_experiment(cfg)
        assert calls == []
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)][:1 + taken]

    # The read end is closed before the run starts, so the summary meets a broken
    # pipe, written through at once or, buffered, flushed at the end of main.
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_pipe_exits_two_with_one_line(self, tmp_path, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fracsrc", "run", "--example", "1", "--n", "8",
                 "--eps", "0.1", "--seeds", "1", "--out", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (
            2, "error: stdout: cannot write the summary: [Errno 32] Broken pipe\n")

    def test_full_stdout_exits_two_with_one_line(self, tmp_path, monkeypatch, capsys):
        class Full(io.TextIOWrapper):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with Full(open(tmp_path / "stdout", "wb")) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["run", "--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "1",
                         "--out", str(tmp_path / "out")])
            # what is left is flushed to devnull, as Python flushes stdout at exit
            stdout.buffer.write(b"unflushed")
            stdout.flush()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stdout: cannot write the summary: [Errno 28] No space left on device\n")
        assert (tmp_path / "stdout").read_bytes() == b""


class TestRunExperiment:
    def run_tiny(self, tmp_path, **overrides):
        argv = [
            "run", "--example", "1", "--n", "64", "--eps", "0.1,0.01",
            "--seeds", "2", "--out", str(tmp_path),
        ]
        for key, value in overrides.items():
            argv.extend([f"--{key}", str(value)])
        assert main(argv) == 0

    def test_outputs_exist_with_expected_shapes(self, tmp_path):
        self.run_tiny(tmp_path)
        errors = (tmp_path / "errors.csv").read_text().splitlines()
        # header + 2 eps x 2 seeds x 3 default filters
        assert errors[0] == "epsilon,seed,filter,mu,delta,delta_max,rel_err,theory_bound"
        assert len(errors) == 1 + 2 * 2 * 3
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "epsilon,rel_err_r1,rel_err_r2,rel_err_r3"
        assert len(summary) == 1 + 2
        signals = sorted(p.name for p in tmp_path.glob("signals_*.csv"))
        assert signals == [
            "signals_0.01_0.csv", "signals_0.01_1.csv",
            "signals_0.1_0.csv", "signals_0.1_1.csv",
        ]

    def test_default_noise_grid_matches_table_shape(self, tmp_path):
        # default eps grid: five noise levels, one summary row each, one
        # column per regularization filter
        assert main(["run", "--example", "1", "--n", "64", "--seeds", "1",
                     "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "epsilon,rel_err_r1,rel_err_r2,rel_err_r3"
        assert len(summary) == 1 + 5

    def test_window_and_pad_flags(self, tmp_path):
        assert main(["run", "--example", "1", "--n", "64", "--t-max", "10",
                     "--pad", "2", "--eps", "0.1", "--seeds", "1",
                     "--out", str(tmp_path)]) == 0
        signals = (tmp_path / "signals_0.1_0.csv").read_text().splitlines()
        # padded grid doubles the sample count
        assert len(signals) == 1 + 128

    def test_naive_column_appended_when_selected(self, tmp_path):
        self.run_tiny(tmp_path, filters="naive,r1,r2,r3")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "epsilon,rel_err_r1,rel_err_r2,rel_err_r3,rel_err_naive"
        signals = (tmp_path / "signals_0.1_0.csv").read_text().splitlines()
        assert signals[0] == "t,f_true,y,y_noisy,f_naive,f_r1,f_r2,f_r3"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        self.run_tiny(first)
        self.run_tiny(second)
        for name in ("errors.csv", "summary.csv", "signals_0.1_1.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "example": 1, "n": 64, "eps": [0.5], "seeds": 1,
            "out": str(tmp_path / "ignored"),
        }))
        rc = main(["run", "--config", str(config), "--eps", "0.25",
                   "--out", str(tmp_path / "used")])
        assert rc == 0
        body = (tmp_path / "used" / "errors.csv").read_text().splitlines()[1:]
        assert all(line.startswith("0.25,") for line in body)
        assert not (tmp_path / "ignored").exists()

    def test_config_file_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"example": 1, "wavelength": 3}))
        assert main(["run", "--config", str(config)]) == 2

    def test_run_synthesizes_the_measurement_once(self, tmp_path, monkeypatch):
        calls, transforms, norms = [], [], []
        real, real_dft, real_norm = pipeline._synthesize, pipeline.dft, pipeline.hp_norm

        def counted(f_hat, params):
            calls.append(f_hat.grid)
            return real(f_hat, params)

        def counted_dft(signal):
            if signal.samples.ndim == 1:  # the source; noisy measurements come as stacks
                transforms.append(signal.grid)
            return real_dft(signal)

        monkeypatch.setattr(pipeline, "_synthesize", counted)
        monkeypatch.setattr(pipeline, "dft", counted_dft)
        monkeypatch.setattr(pipeline, "hp_norm",
                            lambda f_hat, p: norms.append(p) or real_norm(f_hat, p))
        assert main(["run", "--example", "1", "--n", "8", "--eps", "0.1,0.01",
                     "--seeds", "2", "--out", str(tmp_path)]) == 0
        assert len(calls) == len(transforms) == 1
        assert norms == [1.0]  # the norm at p is finite: no second norm at the least p

    @pytest.mark.parametrize(
        "entry",
        [
            lambda out, f: main(["run", "--example", "1", "--n", "8", "--eps", "0.1,0.01",
                                 "--seeds", "2", "--out", str(out)]) == 0,
            # refused: the source's norm overflows at every p, read without a second _measure
            lambda out, f: main(["run", "--example", "1", "--n", "8", "--t-max", "1e300",
                                 "--out", str(out)]) == 2,
            lambda out, f: main(["run", "--example", "1", "--n", "8", "--t-max", "1e-300",
                                 "--out", str(out)]) == 2,
            lambda out, f: pipeline.run_sweep(f, EX1_PARAMS, 1.0, (0.1, 0.01), (0, 1),
                                              ("naive", "r1", "r2", "r3"), 7),
            # the source stands in for its measurement: only the tables are counted
            lambda out, f: pipeline.run_cell(f, f, EX1_PARAMS, 1.0, 0.1, 0, 7,
                                             ("naive", "r1", "r2", "r3"), 1.0),
        ],
        ids=["cli", "cli-t-max-1e300", "cli-t-max-1e-300", "run_sweep", "run_cell"],
    )
    def test_a_run_samples_its_tables_once(self, tmp_path, monkeypatch, entry):
        # a run's record holds its tables, so none of its stages samples them again
        f = preset_source("square", TimeGrid(8, 10.0))
        sampled, real = [], pipeline.symbol_tables
        monkeypatch.setattr(pipeline, "symbol_tables",
                            lambda xi, params: sampled.append(xi.size) or real(xi, params))
        assert entry(tmp_path, f)
        assert sampled == [8]

    def test_report_object(self, tmp_path):
        cfg = ExperimentConfig(
            params=EX1_PARAMS, n=64, t_max=10.0, pad_factor=1, source="square",
            p=1.0, eps_list=(0.1,), seed_ids=(0, 1), filters=("naive", "r1"),
            master_seed=5, out_dir=tmp_path,
        )
        report = run_experiment(cfg)
        assert len(report.cells) == 2
        assert len(report.rows) == 4
        assert report.summary[0]["epsilon"] == 0.1
        assert set(report.summary[0]) == {"epsilon", "r1", "naive"}
        assert all(path.exists() for path in report.files)

    def test_signals_rows_hold_the_report_samples(self, tmp_path):
        cfg = ExperimentConfig(
            params=EX1_PARAMS, n=64, t_max=10.0, pad_factor=1, source="square",
            p=1.0, eps_list=(0.1,), seed_ids=(3,), filters=("naive", "r1"),
            master_seed=5, out_dir=tmp_path,
        )
        cell = run_experiment(cfg).cells[0]
        lines = (tmp_path / "signals_0.1_3.csv").read_text().splitlines()
        assert lines[0] == "t,f_true,y,y_noisy,f_naive,f_r1"
        rows = [line.split(",") for line in lines[1:]]
        assert all(field == f"{float(field):.17g}" for row in rows for field in row)
        columns = np.array(rows, dtype=float).T
        assert np.array_equal(columns[0], cfg.grid().times())
        assert np.array_equal(columns[2], cell.y.samples)
        assert np.array_equal(columns[3], cell.y_noisy.samples)
        assert np.array_equal(columns[4], cell.estimates["naive"].samples)
        assert np.array_equal(columns[5], cell.estimates["r1"].samples)


def _reference_signals(f_true, cell, labels) -> str:
    """One signals file as a row-at-a-time writer of f"{v:.17g}" fields builds it."""
    columns = np.column_stack(
        [f_true.grid.times(), f_true.samples, cell.y.samples, cell.y_noisy.samples]
        + [cell.estimates[label].samples for label in labels]
    )
    lines = [",".join(["t", "f_true", "y", "y_noisy"] + [f"f_{label}" for label in labels])]
    lines += [",".join(f"{v:.17g}" for v in row.tolist()) for row in columns]
    return "\n".join(lines) + "\n"


class TestSignalsWriter:
    @settings(max_examples=1000, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072014e-308)
    @example(1.7976931348623157e308)
    def test_percent_17g_is_format_17g(self, x):
        assert "%.17g" % x == f"{x:.17g}"

    # 8192 rows a file: several blocks at the module's block size (None), and a
    # ragged last block at 3000.  Two CPUs split the rows one row into a file, just
    # past a file boundary (4 cells: file 2), inside a file and a block (3 cells),
    # and inside the one file (1 cell).
    @pytest.mark.parametrize("block", [None, 3000])
    @pytest.mark.parametrize(
        "eps_list, seed_ids",
        [((0.0, 0.1), (0, 1)), ((0.1,), (0, 1, 2)), ((0.1,), (0,))],
        ids=["file-boundary", "mid-file", "one-file"],
    )
    def test_blocks_match_the_reference_writer(self, tmp_path, monkeypatch, block, eps_list,
                                               seed_ids):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
        if block is not None:
            monkeypatch.setattr(cli, "_SIGNALS_BLOCK", block)
        cfg = ExperimentConfig(
            params=EX1_PARAMS, n=1024, t_max=10.0, pad_factor=8, source="square",
            p=1.0, eps_list=eps_list, seed_ids=seed_ids,
            filters=("naive", "r1", "r2", "r3"), master_seed=5, out_dir=tmp_path,
        )
        report = run_experiment(cfg)
        f_true = preset_source(cfg.source, cfg.grid())
        signals = [path for path in report.files if path.name.startswith("signals_")]
        assert len(signals) == len(report.cells) == len(eps_list) * len(seed_ids)
        for path, cell in zip(signals, report.cells):
            assert path.name == f"signals_{cell.epsilon:g}_{cell.seed}.csv"
            expected = _reference_signals(f_true, cell, list(cell.estimates))
            assert path.read_text().splitlines() == expected.splitlines()

    @staticmethod
    def run_on(cpus, monkeypatch, argv) -> int:
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        return main(["run", *argv])

    # 6 cells of 8 rows split one row into file 3, just past a file boundary,
    # 3 cells of 128 inside a file, and one file of 16384 rows inside a block
    @pytest.mark.parametrize("run", [
        ["--example", "1", "--n", "8", "--eps", "0.1,0.01", "--seeds", "3"],
        ["--example", "2", "--n", "64", "--pad", "2", "--seeds", "3", "--eps", "0.1,0"],
        ["--example", "2", "--n", "16384", "--seeds", "1", "--eps", "0.1",
         "--filters", "naive,r3"],
    ])
    def test_two_processes_write_the_bytes_of_one(self, tmp_path, monkeypatch, run):
        written = []
        for cpus in (2, 1):
            out = tmp_path / str(cpus)
            assert self.run_on(cpus, monkeypatch, [*run, "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1]

    def test_no_fork_outside_linux(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked outside Linux")

        written = []
        for cpus, platform in ((2, "darwin"), (1, sys.platform)):
            monkeypatch.setattr(sys, "platform", platform)
            monkeypatch.setattr(os, "fork", no_fork)
            out = tmp_path / str(cpus)
            assert self.run_on(cpus, monkeypatch, [*self.THREE_FILES, "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1]

    # 3 cells of 8 rows: the split falls in signals_0.1_1.csv, and the child
    # writes all of signals_0.1_2.csv
    THREE_FILES = ["--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "3"]
    THREE_FILE_NAMES = {"errors.csv", "summary.csv", "signals_0.1_0.csv", "signals_0.1_1.csv",
                        "signals_0.1_2.csv"}

    @polls_children
    @pytest.mark.parametrize("squatted", ["signals_0.1_2.csv", "signals_0.1_1.csv"])
    def test_unwritable_file_on_either_side_fails_as_in_one_process(
        self, tmp_path, monkeypatch, capsys, squatted
    ):
        out = tmp_path / "out"
        errors = []
        for cpus in (2, 1):
            (out / squatted).mkdir(parents=True)
            assert self.run_on(cpus, monkeypatch, [*self.THREE_FILES, "--out", str(out)]) == 2
            errors.append(capsys.readouterr().err)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert {path.name for path in out.iterdir()} <= self.THREE_FILE_NAMES
            shutil.rmtree(out)
        assert errors[0] == errors[1], errors
        assert errors[0].startswith(f"error: out: cannot write to {out}: [Errno 21]")
        assert squatted in errors[0] and errors[0].count("\n") == 1

    # With SIGCHLD ignored, a setting a process inherits across exec, the kernel
    # reaps the child itself and its status is lost: the run keeps the child's
    # rows by its mark, or writes them where the child failed on a squatted file.
    @polls_children
    @pytest.mark.parametrize("squatted", [None, "signals_0.1_0.csv", "signals_0.1_2.csv"])
    def test_child_reaped_by_the_kernel_is_a_failed_child(self, tmp_path, monkeypatch, capsys,
                                                          squatted):
        results = []
        for cpus in (2, 1):
            out = tmp_path / str(cpus)
            if squatted:
                (out / squatted).mkdir(parents=True)
            handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            try:
                code = self.run_on(cpus, monkeypatch, [*self.THREE_FILES, "--out", str(out)])
            finally:
                signal.signal(signal.SIGCHLD, handler)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            err = capsys.readouterr().err.replace(str(out), "OUT")
            files = None if squatted else {path.name: path.read_bytes() for path in out.iterdir()}
            results.append((code, err, files))
        assert results[0] == results[1], results
        assert results[0][0] == (2 if squatted else 0)
        if squatted:
            assert results[0][1].startswith("error: out: cannot write to OUT: [Errno 21]")

    # The child's mark survives a lost status: the run writes no row from the
    # split on, once mid-file (3 cells of 8 rows) and once one row into a file
    # (4 cells of 8 rows).
    @polls_children
    @pytest.mark.parametrize("run, split", [
        (THREE_FILES, 13),
        (["--example", "1", "--n", "8", "--eps", "0.1,0.01", "--seeds", "2"], 17),
    ], ids=["mid-file", "file-boundary"])
    def test_child_reaped_by_the_kernel_keeps_its_rows(self, tmp_path, monkeypatch, run, split):
        real, test_pid, calls = cli._write_rows, os.getpid(), []

        def logged(lo, hi, *args):
            if os.getpid() == test_pid:
                calls.append((lo, hi))
            return real(lo, hi, *args)

        monkeypatch.setattr(cli, "_write_rows", logged)
        written = []
        for cpus in (2, 1):
            calls.clear()
            out = tmp_path / str(cpus)
            handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            try:
                assert self.run_on(cpus, monkeypatch, [*run, "--out", str(out)]) == 0
            finally:
                signal.signal(signal.SIGCHLD, handler)
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
            if cpus == 2:
                assert calls == [(0, split)]
        assert written[0] == written[1]

    @polls_children
    @pytest.mark.parametrize("failure, code, message", [
        (MemoryError, 3, "guard failure: out of memory on a grid of 8 samples\n"),
    ])
    def test_failed_child_ends_the_run_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                     failure, code, message):
        real = cli._write_rows

        def second_half_fails(lo, hi, *args):
            if lo:
                raise failure()
            real(lo, hi, *args)

        monkeypatch.setattr(cli, "_write_rows", second_half_fails)
        argv = [*self.THREE_FILES, "--out", str(tmp_path / "out")]
        assert self.run_on(2, monkeypatch, argv) == code
        err = capsys.readouterr().err
        assert err.endswith(message) and err.count("\n") == 1, err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # The child writes the first rows of its half, then fails; the run writes
    # the child's rows itself.  The failure is injected in the child only: the
    # run's own rewrite calls the same _write_rows, inside this test process.
    # 3 cells of 8 rows split in the middle of file 1, and 4 cells one row into
    # file 2, just past a file boundary.
    @pytest.mark.parametrize("failure", [
        MemoryError,
        lambda: OSError(28, "No space left on device"),
        lambda: os._exit(5),
        lambda: os.kill(os.getpid(), 9),  # as the OOM killer ends a process
    ], ids=["MemoryError", "OSError", "exit", "killed"])
    @pytest.mark.parametrize("run", [
        THREE_FILES,
        ["--example", "1", "--n", "8", "--eps", "0.1,0.01", "--seeds", "2"],
    ], ids=["mid-file", "file-boundary"])
    def test_failed_child_leaves_its_rows_to_the_run(self, tmp_path, monkeypatch, capsys, run,
                                                     failure):
        real, test_pid = cli._write_rows, os.getpid()

        def child_fails(lo, hi, *args):
            if os.getpid() == test_pid:
                return real(lo, hi, *args)
            real(lo, lo + (hi - lo) // 2 + 1, *args)  # a file or a tail begun, not ended
            raise failure()

        monkeypatch.setattr(cli, "_write_rows", child_fails)
        written = []
        for cpus in (2, 1):
            out = tmp_path / str(cpus)
            assert self.run_on(cpus, monkeypatch, [*run, "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert capsys.readouterr().err == ""
        assert written[0] == written[1]

    # One file of 2^14 rows on one CPU, and 3 files of 2048 rows on two, split in
    # the middle file: every file spans many formatter calls.  5 files of 8 rows on
    # two, split in file 2: one block of rows holds several files.
    @polls_children
    @pytest.mark.parametrize("cpus, files, n", [(1, 1, 2**14), (2, 3, 2048), (2, 5, 8)])
    def test_one_signals_file_is_open_at_a_time(self, tmp_path, monkeypatch, cpus, files, n):
        log, handles = tmp_path / "opens", []

        def counted(file, mode, *args, **kwargs):  # a forked child's opens land in the log too
            name = "tail" if isinstance(file, int) else Path(file).name
            already = sum(not fh.closed for fh in handles)  # in this process
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{os.getpid()} {name} {mode} {already}\n".encode())
            finally:
                os.close(fd)
            handles.append(open(file, mode, *args, **kwargs))
            return handles[-1]

        rng = np.random.default_rng(n)
        shared = [np.arange(n) * (10 / n), rng.normal(size=n), rng.normal(size=n)]
        own = [[rng.normal(size=n) for _ in range(5)] for _ in range(files)]
        written = []
        for counting in (False, True):  # one process and nothing patched, then counted
            out = tmp_path / str(counting)
            out.mkdir()
            paths = [out / f"{f}.csv" for f in range(files)]
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_cpu_count", lambda: cpus if counting else 1)
                if counting:
                    patch.setattr(cli, "open", counted, raising=False)
                cli._write_signals(paths, "h\n", shared, own)
            written.append([path.read_bytes() for path in paths])
        assert written[0] == written[1]
        opens = [line.split() for line in log.read_text().splitlines()]
        assert len({pid for pid, _, _, _ in opens}) == cpus
        assert {int(already) for _, _, _, already in opens} == {0}, opens
        # every file, and the tail of the middle one in the child
        expected = {f"{f}.csv" for f in range(files)} | ({"tail"} if cpus > 1 else set())
        assert {name for _, name, _, _ in opens} == expected, opens
        modes: dict = {}  # by process and file, in order
        for pid, name, mode, _ in opens:
            modes.setdefault((pid, name), []).append(mode)
        for (_, name), taken in modes.items():  # a process starts a named file at its first row
            assert taken == ["ab" if name == "tail" else "wb"] + ["ab"] * (len(taken) - 1), opens
        blocks = -(-n // (cli._SIGNALS_BLOCK // 5))
        if files == 1 or blocks == 1:
            assert {len(taken) for taken in modes.values()} == {1}, opens
        assert max(map(len, modes.values())) <= blocks

    # 40 files of 2 blocks each under a limit of 16 descriptors: a process that kept
    # each file it writes open across blocks would run out of them.
    @pytest.mark.skipif(sys.platform == "win32", reason="sets a POSIX resource limit")
    def test_many_multi_block_files_under_a_low_descriptor_limit(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        script = (
            "import resource, sys\n"
            "import fracsrc.cli as cli\n"
            "if sys.argv[1] == 'limited':\n"
            "    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "    resource.setrlimit(resource.RLIMIT_NOFILE, (16, hard))\n"
            "cli._cpu_count = lambda: 2\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        written = []
        for limit in ("limited", "unlimited"):
            out = tmp_path / limit
            # 40 files of 2048 rows, 1,433 rows a formatter call: 2 blocks each
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-c", script, limit, "run",
                 "--example", "1", "--n", "2048", "--eps", "0.1,0.01", "--seeds", "20",
                 "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(written[0]) == 42
        assert written[0] == written[1]

    # sha256 of every file of this run, taken from the row-at-a-time writer
    # before the signals files were written in blocks
    SMALL_RUN = ["--example", "2", "--n", "64", "--pad", "2", "--seeds", "2", "--eps", "0.1,0"]
    SMALL_RUN_SHA256 = {
        "errors.csv": "c022c2b64a03821f1689c042093e062dd01b6eaa34c05a8c978d0d2daf971fcb",
        "summary.csv": "08f890da01c5757b62edc5b4e895721c057f5db056909f89de9baaeff24a4886",
        "signals_0.1_0.csv":
            "14ae535265efe2c06d7db3259418a1a674e423de54eee854d725c54b9f1e7af0",
        "signals_0.1_1.csv":
            "433b98874ca61c23b58f8a41b7f56473e333c77ed4e0067ea0d556252f14cb3b",
        "signals_0_0.csv":
            "d16b9e3a525a35381804f9e61afd14548a0a3a36df1b6d6f116a3f4a45d1d9c0",
        "signals_0_1.csv":
            "d16b9e3a525a35381804f9e61afd14548a0a3a36df1b6d6f116a3f4a45d1d9c0",
    }

    def test_small_run_bytes_are_pinned(self, tmp_path):
        assert main(["run", *self.SMALL_RUN, "--out", str(tmp_path)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == self.SMALL_RUN_SHA256

    def test_rerun_truncates_longer_files(self, tmp_path):
        run = ["run", "--example", "1", "--eps", "0.1,0.01", "--seeds", "2"]
        assert main([*run, "--n", "256", "--out", str(tmp_path / "reused")]) == 0
        assert main([*run, "--n", "64", "--out", str(tmp_path / "reused")]) == 0
        assert main([*run, "--n", "64", "--out", str(tmp_path / "fresh")]) == 0
        names = sorted(path.name for path in (tmp_path / "fresh").iterdir())
        assert sorted(path.name for path in (tmp_path / "reused").iterdir()) == names
        for name in names:
            reused, fresh = tmp_path / "reused" / name, tmp_path / "fresh" / name
            assert reused.read_bytes() == fresh.read_bytes()


def _fields(values) -> list[bytes]:
    """``cli._format``'s fields, their zero bytes dropped."""
    return [bytes(field).replace(b"\0", b"") for field in cli._format(np.asarray(values, float))]


def _percent_17g(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, float).tolist()]


def _digits_and_layout(text: bytes) -> tuple:
    """Significant digits, layout and sign of a ``"%.17g"`` text.

    The layout is the exponent in fixed notation, or the exponent's sign and
    digit count in exponent form.
    """
    mantissa, _, exponent = text.lstrip(b"-").partition(b"e")
    if exponent:
        layout = (exponent[:1], len(exponent) - 1)
    else:
        whole, _, fraction = mantissa.partition(b".")
        zeros = len(fraction) - len(fraction.lstrip(b"0"))
        layout = len(whole) - 1 if whole != b"0" else -1 - zeros
    return len(mantissa.replace(b".", b"").strip(b"0")), layout, text.startswith(b"-")


class TestFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_any_finite_double(self, values):  # subnormals included
        assert _fields(values) == _percent_17g(values)

    EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-280, 1e280, 1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1),
        9.9999999999999995e-05, 1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0),
        1e17, np.nextafter(1e17, 0), 1.0, -1.0, 0.5, 6.51, 123.456, -9.87654321e-200,
        # just below a power of ten: the 17 digits round up into 10**17
        1e-14, 1e98, -1e-70, np.nextafter(1.0, 0), np.nextafter(10.0, 0),
        # exact ties at the 17th digit, rounded half to even
        *(k * 2.0 ** -23 for k in range(9, 20, 2)),
    ]

    def test_edges(self):
        assert _fields(self.EDGES) == _percent_17g(self.EDGES)
        assert _fields([9 * 2.0 ** -23]) == [b"1.0728836059570312e-06"]

    def test_every_decade_in_one_batch(self):
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-300, 300, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        assert _fields(values) == _percent_17g(values)

    def test_shape_and_no_warning(self):
        values = np.array([[0.0, -0.0, 5e-324, 1e-300], [1e300, math.inf, -math.inf, math.nan],
                           [1e-5, -123.456, 6.51e279, 9 * 2.0 ** -23]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fields = cli._format(values)
        assert fields.shape == (3, 4, 32)
        assert _fields(values.ravel()) == _percent_17g(values.ravel())

    def test_every_digit_count_in_every_layout(self):
        # Counts 5, 9 and 13 end a value's digits at a 4-digit group's boundary.  The
        # doubles nearest to k-digit decimals give those k digits back from "%.17g"
        # when they lie within half a unit of the 17th digit; 40 tries a cell find
        # each count in each layout and sign, which the last assert checks.
        rng = np.random.default_rng(17)
        exponents = [-279, -200, -100, -99, -60, -5, *range(-4, 17), 17, 22, 60, 99, 100, 200,
                     279]
        texts = []
        for exponent in exponents:
            for k in range(1, 18):
                for _ in range(40):
                    digits = "".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, k - 1)]))
                    digits = digits[:-1] + str(rng.integers(1, 10)) if k > 1 else digits
                    texts.append(f"{digits[0]}.{digits[1:]}e{exponent}")
        values = np.array(texts, float)
        values = np.concatenate([values, -values])
        expected = _percent_17g(values)
        assert _fields(values) == expected
        layouts = [*range(-4, 17), (b"-", 2), (b"-", 3), (b"+", 2), (b"+", 3)]
        cells = {(k, layout, sign) for k in range(1, 18) for layout in layouts
                 for sign in (False, True)}
        assert cells - {_digits_and_layout(text) for text in expected} == set()

    # Every fixed-notation exponent, both exponent forms and both signs, through the
    # writer.  A block of 40 values, 13 rows of 2 own columns, cuts rows in the middle
    # of formatter calls; on two CPUs the split, row 33 of file 1, falls inside one too.
    # The last column holds 17-digit values at exponent 15: the dot moves their last
    # digit next to the newline.
    @polls_children
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_every_layout_through_the_writer(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "_SIGNALS_BLOCK", 40)
        rng = np.random.default_rng(24)
        n, files = 64, 3

        def decimals(exponents):  # 1 to 17 significant digits, either sign
            return np.array([f"{rng.choice(['', '-'])}{rng.integers(1, 10)}."
                             f"{''.join(map(str, rng.integers(0, 10, rng.integers(0, 17))))}e{k}"
                             for k in exponents.tolist()], float)

        fixed = np.arange(n) % 21 - 4
        signs = rng.choice([-1, 1], (2, n))
        shared = [decimals(fixed), decimals(rng.integers(5, 100, n) * signs[0]),
                  decimals(rng.integers(100, 280, n) * signs[1])]
        own = [[decimals(np.roll(fixed, 7 * f + 1)), rng.uniform(1e15, 1.1e15, n) * signs[f % 2]]
               for f in range(files)]
        paths = [tmp_path / f"{f}.csv" for f in range(files)]
        cli._write_signals(paths, "h\n", shared, own)
        texts = []
        for path, columns in zip(paths, own):
            rows = [[b"%.17g" % v for v in row] for row in np.stack(shared + columns, 1).tolist()]
            assert path.read_bytes() == b"h\n" + b"".join(b",".join(row) + b"\n" for row in rows)
            texts += [text for row in rows for text in row]
        layouts = {layout for _, layout, _ in map(_digits_and_layout, texts)}
        assert layouts >= {*range(-4, 17), (b"-", 2), (b"-", 3), (b"+", 2), (b"+", 3)}
        last = {_digits_and_layout(b"%.17g" % v) for columns in own for v in columns[-1].tolist()}
        assert {(17, 15, False), (17, 15, True)} <= last

    def test_writer_memory_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        # one file of n rows, the ex2-large shape, written by this process alone;
        # tracemalloc makes the writer about nine times slower, hence the small grids
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        cli._tables()
        peaks = []
        for n in (2**14, 2**16):
            rng = np.random.default_rng(n)
            shared = [np.arange(n) * (10 / n), rng.normal(size=n), rng.normal(size=n)]
            own = [[rng.normal(size=n) for _ in range(5)]]
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli._write_signals([tmp_path / f"{n}.csv"], "h\n", shared, own)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 8 * 1024, peaks
        assert max(peaks) <= 2**20, peaks

    def test_writer_memory_does_not_grow_with_the_files(self, tmp_path, monkeypatch):
        # files of 256 rows, the ex1-sweep shape, written by this process alone: a file
        # is closed when the next one opens, so no two files, each with its own write
        # buffer, are open at once
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        cli._tables()
        n, peaks = 256, []
        rng = np.random.default_rng(n)
        shared = [np.arange(n) * (10 / n), rng.normal(size=n), rng.normal(size=n)]
        for files in (4, 64):
            own = [[rng.normal(size=n) for _ in range(5)] for _ in range(files)]
            paths = [tmp_path / f"{files}_{f}.csv" for f in range(files)]
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli._write_signals(paths, "h\n", shared, own)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 * 1024, peaks

    # ex1-sweep's shape, 100 files of 256 rows with 4 own columns, in one process: one
    # call formats a file's own columns, and one the shared columns of every file, at
    # the old block and the module's (None).  So the block's size does not reach this
    # shape, and a larger block costs it no memory.
    @pytest.mark.parametrize("block", [1536, None])
    def test_one_formatter_call_per_file_at_the_sweep_shape(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        if block is not None:
            monkeypatch.setattr(cli, "_SIGNALS_BLOCK", block)
        real, shapes = cli._format, []

        def counted(values):
            shapes.append(values.shape)
            return real(values)

        monkeypatch.setattr(cli, "_format", counted)
        n, files = 256, 100
        rng = np.random.default_rng(n)
        shared = [np.arange(n) * (10 / n), rng.normal(size=n), rng.normal(size=n)]
        own = [[rng.normal(size=n) for _ in range(4)] for _ in range(files)]
        cli._write_signals([tmp_path / f"{f}.csv" for f in range(files)], "h\n", shared, own)
        assert sorted(shapes) == [(n, 3)] + [(n, 4)] * files


# every system call the signals writer makes
_WRITER_CALLS = ("mkdir", "open", "write", "memfd_create", "fork", "waitpid", "sendfile", "fstat",
                 "pread")
_FAULTS = {
    **{name: (lambda code=code: OSError(code, os.strerror(code)))
       for name, code in (("EIO", errno.EIO), ("ENOSPC", errno.ENOSPC),
                          ("EAGAIN", errno.EAGAIN), ("EMFILE", errno.EMFILE))},
    "MemoryError": MemoryError,
}
# the fork and what serves it only: a failure there leaves the run one process
_OPTIONAL = {"memfd_create", "fork", "waitpid"}


class _FailingWrites:
    """A file whose first ``write`` raises ``fault``."""

    def __init__(self, fh, fault):
        self.fh, self.fault = fh, fault

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.fault:
            fault, self.fault = self.fault, None
            raise fault()
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


@polls_children
class TestWriterFaults:
    # 3 cells of 8 rows: the split falls in signals_0.1_1.csv, so the run makes
    # every call, memfd_create, sendfile, fstat and pread too
    RUN = ["run", "--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "3"]

    @pytest.fixture(scope="class")
    def one_cpu(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("one-cpu")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_cpu_count", lambda: 1)
            assert main([*self.RUN, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    @staticmethod
    def inject(monkeypatch, call, fault, child, fired: Path):
        """Make the first ``call`` on the signals files, in the child or in this process, fail.

        The failing process creates ``fired``.
        """
        test_pid, armed = os.getpid(), [True]

        def fires(target=None) -> bool:
            signals = isinstance(target, int) or Path(str(target)).name.startswith("signals_")
            if armed[0] and (os.getpid() != test_pid) == child and (target is None or signals):
                armed[0] = False
                fired.touch()
                return True
            return False

        if call in ("open", "write"):
            real_open = open

            def patched(file, *args, **kwargs):
                if call == "open" and fires(file):
                    raise fault()
                fh = real_open(file, *args, **kwargs)
                return _FailingWrites(fh, fault if call == "write" and fires(file) else None)

            monkeypatch.setattr(builtins, "open", patched)
            monkeypatch.setattr(io, "open", patched)
        else:
            real = getattr(os, call)

            def patched(*args, **kwargs):
                if fires():
                    raise fault()
                return real(*args, **kwargs)

            monkeypatch.setattr(os, call, patched)

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("side, call", [("parent", call) for call in _WRITER_CALLS]
                             + [("child", "open"), ("child", "write")])
    def test_fault(self, tmp_path, monkeypatch, capsys, one_cpu, side, call, fault):
        child = side == "child"
        monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
        self.inject(monkeypatch, call, _FAULTS[fault], child, tmp_path / "fired")
        out = tmp_path / "out"
        code = main([*self.RUN, "--out", str(out)])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert (tmp_path / "fired").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if child or (call in _OPTIONAL and fault != "MemoryError"):
            assert (code, err) == (0, "")
            assert {path.name: path.read_bytes() for path in out.iterdir()} == one_cpu
            return
        assert code == (3 if fault == "MemoryError" else 2), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        cause = "out of memory" if fault == "MemoryError" else os.strerror(getattr(errno, fault))
        assert cause in err, err


class TestGoldenFile:
    # Frozen output of one tiny run.  The noise values pin the PCG64
    # generator stream of the installed numpy; regenerate the literal if that
    # stream policy ever changes.
    GOLDEN_ERRORS = """\
epsilon,seed,filter,mu,delta,delta_max,rel_err,theory_bound
0.10000000000000001,0,naive,,0.28630907706272735,1.2863090770627275,0.27559239571936234,
0.10000000000000001,0,r1,0.60603344793802205,0.28630907706272735,1.2863090770627275,0.36710768007239358,21.136278209371429
0.10000000000000001,0,r2,0.60603344793802205,0.28630907706272735,1.2863090770627275,0.46969748785332444,21.851436731894886
0.10000000000000001,0,r3,0.60603344793802205,0.28630907706272735,1.2863090770627275,0.21452188249068035,23.92254746144987
"""

    def test_tiny_run_matches_golden(self, tmp_path):
        rc = main([
            "run", "--example", "1", "--n", "8", "--eps", "0.1", "--seeds", "1",
            "--filters", "naive,r1,r2,r3", "--master-seed", "7",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "errors.csv").read_text() == self.GOLDEN_ERRORS


class TestPackageExports:
    def test_all_is_the_union_of_the_modules(self):
        modules = (cli, pipeline, fracsrc.regularize, fracsrc.spectral, fracsrc.symbols)
        names = [name for module in modules for name in module.__all__]
        assert len(set(names)) == len(names)  # no name exported by two modules
        assert sorted(fracsrc.__all__) == sorted(["__version__", *names])
        assert all(hasattr(fracsrc, name) for name in fracsrc.__all__)


class TestSettingsTable:
    def test_json_key_and_flag_give_the_same_config(self, tmp_path):
        values = {
            "alpha": 0.5, "omega": 0.2, "beta": 1.0, "nu": 0.5, "x0": 2.0, "p": 2.0,
            "t_max": 8.0, "n": 16, "pad": 2, "source": "exp", "filters": ["naive", "r3"],
            "eps": [0.1, 0.01], "seeds": [4, 2], "master_seed": 9,
            "out": str(tmp_path / "out"),
        }
        assert set(values) == set(cli.SETTINGS)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        flags = [f"--{key.replace('_', '-')}={_flag_text(v)}" for key, v in values.items()]
        parser = cli._build_parser()
        from_json = cli._build_config(parser.parse_args(["run", "--config", str(config)]))
        from_flags = cli._build_config(parser.parse_args(["run", *flags]))
        assert from_json == from_flags
        assert from_json.pad_factor == 2 and from_json.seed_ids == (4, 2)
        assert from_json.out_dir == tmp_path / "out"

    def test_integral_float_in_json_is_the_integer(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"example": 1, "n": 64.0, "seeds": 1, "eps": [0.1], "out": str(tmp_path / "out")}
        ))
        flags = ["--example", "1", "--n", "64", "--seeds", "1", "--eps", "0.1",
                 "--out", str(tmp_path / "out")]
        parser = cli._build_parser()
        from_json = cli._build_config(parser.parse_args(["run", "--config", str(config)]))
        assert from_json == cli._build_config(parser.parse_args(["run", *flags]))
        assert type(from_json.n) is int
        assert main(["run", "--config", str(config)]) == 0


# JSON values for each run setting: well-typed ones, and ill-typed,
# negative, duplicate and extreme ones.  n <= 256 and pad <= 4 keep
# n * pad <= 1024 (no bad value is a larger power of two), and eps and seeds
# hold at most three entries, so no draw allocates a large grid or runs long.
_BAD_NUMBERS = [0.0, -1.0, 5e-324, 1e-300, 1e300, math.inf, math.nan, True, None, "abc", [1.0]]
_GOOD = {
    "alpha": st.floats(0.05, 1.0),
    **{key: st.floats(1e-2, 10.0) for key in ("omega", "beta", "nu", "x0")},
    "p": st.floats(0.1, 4.0),
    "t_max": st.floats(0.5, 50.0),
    "n": st.sampled_from([8, 16, 64, 256]),
    "pad": st.sampled_from([1, 2, 4]),
    "source": st.sampled_from(["square", "exp"]),
    "filters": st.lists(st.sampled_from(["naive", "r1", "r2", "r3"]), min_size=1, max_size=4),
    "eps": st.lists(st.sampled_from([0.0, 1e-5, 1e-3, 1e-2, 0.1, 0.5]),
                    min_size=1, max_size=3, unique=True),
    "seeds": st.one_of(st.integers(1, 3),
                       st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True)),
    "master_seed": st.integers(0, 2**64),
}
_BAD = {
    **{key: st.sampled_from(_BAD_NUMBERS)
       for key in ("alpha", "omega", "beta", "nu", "x0", "p", "t_max")},
    "n": st.sampled_from([0, -8, 100, 10**30, 1.5, True, "x", None]),
    "pad": st.sampled_from([0, -1, 1.5, 10**30, True, "x"]),
    "source": st.sampled_from(["triangle", 5, None]),
    "filters": st.sampled_from([[], ["bogus"], ["r1", "r1"], 5, None, {"a": 1}]),
    "eps": st.sampled_from([[], [0.1, 0.1], [0.1, 0.1000001], [-0.1], [-0.0], [1e17],
                            [1e300], [math.inf], [math.nan], ["x"], [True], 0.1, None]),
    "seeds": st.sampled_from([0, -1, [], [1, 1], [-2, 1], [2**64], [True], [1.5], 1.5,
                              None, "x"]),
    "master_seed": st.sampled_from([-5, 1.5, True, "x", None]),
}


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@st.composite
def _invocations(draw):
    """(use a config file, example preset, JSON settings, flag settings)."""
    layer = st.fixed_dictionaries({}, optional=_GOOD)
    from_json, from_flags = draw(layer), draw(layer)
    for key in ("eps", "seeds"):  # their defaults span 100 cells
        if key not in from_json and key not in from_flags:
            from_flags[key] = draw(_GOOD[key])
    for key in draw(st.lists(st.sampled_from(sorted(_BAD)), max_size=2)):
        draw(st.sampled_from([from_json, from_flags]))[key] = draw(_BAD[key])
    example = draw(st.sampled_from([None, 1, 2, 1, 2, 3, True, "1"]))
    if draw(st.integers(0, 9)) == 0:
        from_json["wavelength"] = 3
    return draw(st.booleans()), example, from_json, from_flags


@settings(max_examples=100, deadline=None)
@given(_invocations())
def test_fuzzed_invocations_exit_0_2_or_3(invocation):
    use_config, example, from_json, from_flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--out", str(Path(tmp) / "out")]
        if use_config:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(
                from_json if example is None else {"example": example, **from_json}
            ))
            argv += ["--config", str(config)]
        elif example is not None:
            argv.append(f"--example={example}")
        argv += [f"--{key.replace('_', '-')}={_flag_text(value)}"
                 for key, value in from_flags.items()]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code in (0, 2, 3), argv
