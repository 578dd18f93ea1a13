import csv
import hashlib
import math
import os
import runpy
from importlib import metadata
from pathlib import Path

import pytest

from conftest import fresh_interpreter
from rpsde import analysis, cli
from rpsde.cli import main
from rpsde.integrator import ThetaScheme
from rpsde.models import MODEL_NAMES, catalog_entry
from rpsde.periodic import pullback_converge


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# a value each key's reader rejects: 1.5 for an integer, abc for a number or a list; a
# tuple gives more than one, and 6;7 is a list whose separator is not a comma
_SCHEME_BAD = {"theta": "abc", "dt": "abc"}
MALFORMED = {
    "simulate": {**_SCHEME_BAD, "seed": "1.5", "k": "1.5", "horizon": "abc",
                 "initial_values": "abc"},
    "pullback": {**_SCHEME_BAD, "seed": "1.5", "t_eval": "abc", "xi": "abc",
                 "tolerance": "abc", "k_max": "1.5", "ensemble": "1.5"},
    "periodicity": {**_SCHEME_BAD, "seed": "1.5", "k": "1.5", "window": "abc", "xi": "abc",
                    "x0": "abc", "horizon": "abc"},
    "converge": {"theta": "abc", "seed": "1.5", "levels": ("abc", "6;7"),
                 "reference_level": "1.5", "ensemble": "1.5", "t_start": "abc",
                 "t_end": "abc", "xi": "abc"},
    "contraction": {**_SCHEME_BAD, "seed": "1.5", "xi": "abc", "eta": "abc", "k": "1.5",
                    "ensemble": "1.5"},
}


class TestConfig:
    def test_bad_set_exit_code(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--set", "oops"])
        assert rc == 2

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("simulate", ["--set", "ensembel=5"]),  # mistyped key
            ("converge", ["--set", "dt=0.1"]),  # a key converge does not read
            ("simulate", ["--set", "model.bogus=1"]),  # unknown model parameter
            # Newton stalls at a residual of 4 from 1e9
            ("simulate", ["--set", "initial_values=1e9", "--set", "k=1"]),
            # the cubic model has period 2: -10,-9 ends within the first period
            ("periodicity", ["--set", "k=5", "--set", "window=-10,-9"]),
            ("periodicity", ["--set", "window=-2,-4"]),
            ("periodicity", ["--set", "horizon=-2"]),
            ("simulate", ["--set", "k=-1"]),
            ("contraction", ["--set", "k=0"]),
            ("pullback", ["--set", "ensemble=0"]),
            ("converge", ["--set", "ensemble=0"]),
            ("converge", ["--set", "levels="]),
            ("periodicity", ["--set", "x0=0.1,0.2"]),
            ("pullback", ["--set", "xi=0.1,0.2"]),
            ("converge", ["--set", "levels=4,4,5"]),
            ("contraction", ["--set", "xi=0.1,0.2"]),
            ("contraction", ["--set", "ensemble=100000000000000000000"]),
            ("pullback", ["--set", "tolerance=nan"]),
            # Newton's tolerance is the constant integrator._NEWTON_TOL, not a key
            ("simulate", ["--set", "newton_tol=inf"]),
            ("simulate", ["--set", "newton_tol=nan"]),
            ("periodicity", ["--set", "x0=nan"]),
            ("periodicity", ["--set", "model=linear_ou", "--set", "x0=nan"]),
            ("periodicity", ["--set", "window=1"]),
            ("periodicity", ["--set", "window=-4,0,7"]),
            ("pullback", ["--set", "t_eval=inf"]),
            ("simulate", ["--set", "horizon=inf"]),
            ("converge", ["--set", "t_start=-inf"]),
            ("simulate", ["--set", "horizon=nan"]),
            ("periodicity", ["--set", "window=nan,0"]),
            ("simulate", ["--set", "model.lam=nan"]),
            ("simulate", ["--set", "model.a=nan"]),
            # the periodicity gate is the constant periodic.THRESHOLD, not a key
            ("periodicity", ["--set", "threshold=nan"]),
            ("periodicity", ["--set", "threshold=-1"]),
            ("simulate", ["--set", "level=8"]),  # dt=2^-L replaces the level key
            ("converge", ["--set", "levels=0,1"]),
            ("converge", ["--set", "reference_level=31"]),
            ("pullback", ["--set", "k_max=0"]),
            ("pullback", ["--set", "k_max=1"]),  # depth 1 has no gap to meet a finite tolerance
            ("periodicity", ["--set", "horizon=3"]),  # not a multiple of the period 2
            ("converge", ["--set", "t_start=1", "--set", "t_end=1"]),
            ("simulate", ["--set", "horizon=-20"]),  # before the start -k*period = -10
            ("periodicity", ["--set", "horizon=0"]),  # shorter than the burn-in
        ],
        ids=["mistyped-key", "converge-dt", "model-param", "newton-failure",
             "window-first-period", "window-reversed", "negative-horizon",
             "simulate-negative-k", "contraction-zero-k", "pullback-zero-ensemble",
             "converge-zero-ensemble", "converge-no-levels", "periodicity-x0-dim",
             "pullback-xi-dim", "converge-level-twice", "contraction-xi-dim",
             "contraction-huge-ensemble", "pullback-nan-tolerance", "newton-tol-inf",
             "newton-tol-nan",
             "periodicity-nan-x0-cubic", "periodicity-nan-x0-linear-ou",
             "window-one-number", "window-three-numbers", "pullback-inf-t-eval",
             "simulate-inf-horizon", "converge-minus-inf-t-start", "simulate-nan-horizon",
             "window-nan", "model-nan-lam", "model-nan-a", "unknown-key-threshold-nan",
             "unknown-key-threshold-negative", "level-removed", "converge-level-zero",
             "converge-reference-above-30", "pullback-zero-k-max", "pullback-one-k-max",
             "periodicity-horizon-off-period", "converge-empty-window",
             "simulate-horizon-before-start", "periodicity-zero-horizon"],
    )
    def test_bad_input_one_line_exit_code(self, tmp_path, capsys, command, bad):
        rc = main([command, "--out", str(tmp_path), *bad])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, bad, names",
        [
            # k is checked before the start -k*period that it places
            ("simulate", ["--set", "k=-1"], "error: k must be >= 0, got -1\n"),
            ("simulate", ["--set", "k=-1", "--set", "horizon=5"],
             "error: k must be >= 0, got -1\n"),
            ("contraction", ["--set", "k=0"], "k and ensemble must be"),
            ("contraction", ["--set", "ensemble=0"], "k and ensemble must be"),
            ("pullback", ["--set", "ensemble=0"], "ensemble must be"),
            ("converge", ["--set", "ensemble=0"], "ensemble must be"),
            ("converge", ["--set", "levels="], "levels must"),
            ("converge", ["--set", "levels=6"], "levels must"),
            ("converge", ["--set", "levels=5,5"], "levels must"),
            ("converge", ["--set", "levels=4,4,5"], "levels name 4 more than once"),
            ("contraction", ["--set", "eta=0.1,0.2"],
             "eta has 2 values; the model's state_dim is 1"),
            ("periodicity", ["--set", "x0=0.1,0.2"], "x0 has 2 values; the model's state_dim is 1"),
            ("pullback", ["--set", "xi=0.1,0.2"], "xi has 2 values; the model's state_dim is 1"),
            ("periodicity", ["--set", "xi=0.1,0.2"], "xi has 2 values; the model's state_dim is 1"),
            ("contraction", ["--set", "xi=0.1,0.2"], "xi has 2 values; the model's state_dim is 1"),
            ("converge", ["--set", "xi=0.1,0.2"], "xi has 2 values; the model's state_dim is 1"),
            ("converge", ["--set", "levels=0,1"], "levels must be at least 1, got 0"),
            ("converge", ["--set", "reference_level=31"],
             "reference_level must be at most 30, got 31"),
            ("simulate", ["--set", "initial_values="], "initial_values"),
            ("pullback", ["--set", "t_eval=-2.5"], "t_eval"),
            ("pullback", ["--set", "t_eval=-2"], "t_eval"),
            ("pullback", ["--set", "model=linear_ou", "--set", "t_eval=-1.5"], "t_eval"),
            ("pullback", ["--set", "t_eval=inf"], "t_eval must be finite, got inf"),
            ("simulate", ["--set", "horizon=nan"], "error: horizon must be finite, got nan\n"),
            ("converge", ["--set", "t_start=-inf"], "t_start must be finite, got -inf"),
            ("periodicity", ["--set", "window=nan,0"], "window start must be finite, got nan"),
            ("simulate", ["--set", "model.lam=nan"], "model.lam must be finite, got nan"),
            ("simulate", ["--set", "model.a=nan"], "model.a must be finite, got nan"),
            # zero steps from -2, which is not on the grid of 0.8
            ("simulate", ["--set", "dt=0.8", "--set", "k=1", "--set", "horizon=-2"],
             "error: k*period must be grid-aligned: 2.0 is not a multiple of the stepsize 0.8\n"),
            ("simulate", ["--set", "horizon=0.05"],
             "error: horizon must be grid-aligned: 0.05 is not a multiple of the stepsize 0.1\n"),
            ("simulate", ["--set", "initial_values=nan"], "initial_values must be"),
            ("pullback", ["--set", "model=linear_ou", "--set", "xi=nan"], "xi must be"),
            ("contraction", ["--set", "eta=inf"], "eta must be"),
            ("periodicity", ["--set", "x0=nan"], "x0 must be"),
            ("simulate", ["--seed", "-1"], "error: seed must be in [0, 2^64), got -1\n"),
            # k is checked before the window that it places
            ("periodicity", ["--set", "k=0"], "error: k must be >= 2, got 0\n"),
            ("periodicity", ["--set", "k=-1"], "error: k must be >= 2, got -1\n"),
            # no pair of the pull-back curve ends past the burn-in of 2 periods
            ("periodicity", ["--set", "horizon=0"],
             "error: horizon must be at least 2 periods, got 0.0\n"),
            # Newton's iteration cap and tolerance are constants, not keys
            ("simulate", ["--set", "newton_max_iter=0"],
             "error: unknown key newton_max_iter for simulate; accepted: dt, horizon, "
             "initial_values, k, model, seed, theta, model.<param>\n"),
            ("converge", ["--set", "newton_tol=0"],
             "error: unknown key newton_tol for converge; accepted: ensemble, levels, model, "
             "reference_level, seed, t_end, t_start, theta, xi, model.<param>\n"),
            # step counts that once overflowed round(), np.empty or the block loop
            # k*period is checked before horizon
            ("simulate", ["--set", "dt=1e-300", "--set", "horizon=1e300"],
             "error: k*period = 10.0 spans 1e+301 steps of 1e-300; "
             "a run takes fewer than 2^62\n"),
            ("simulate", ["--set", "dt=1e-10", "--set", "horizon=1e300"],
             "error: horizon = 1e+300 spans inf steps of 1e-10; a run takes fewer than 2^62\n"),
            ("pullback", ["--set", "t_eval=1e300"],
             "error: t_eval = 1e+300 spans 1e+301 steps of 0.1; a run takes fewer than 2^62\n"),
            ("simulate", ["--set", "dt=1e-300", "--set", "k=1"],
             "error: k*period = 2.0 spans 2e+300 steps of 1e-300; "
             "a run takes fewer than 2^62\n"),
            ("converge", ["--set", "t_end=1e300"],
             "error: t_end = 1e+300 spans 6.4e+301 steps of 0.015625; "
             "a run takes fewer than 2^62\n"),
            ("converge", ["--set", "levels=6;7"],
             "error: levels must be integers separated by commas, got '6;7'\n"),
            # each end is within 2^62 steps, the whole run is not
            ("simulate", ["--set", "dt=0.5", "--set", "horizon=2e18",
                          "--set", "k=1000000000000000000"],
             "error: horizon + k*period = 4e+18 spans 8e+18 steps of 0.5; "
             "a run takes fewer than 2^62\n"),
            # the shifted check names the window end or the k*period that is at fault
            ("periodicity", ["--set", "window=-3.95,0"],
             "error: window start must be grid-aligned: -3.95 is not a multiple of the "
             "stepsize 0.1\n"),
            ("periodicity", ["--set", "k=10000000000000000000"],
             "error: k*period = 2e+19 spans 2e+20 steps of 0.1; a run takes fewer than 2^62\n"),
            # a path index is an int64
            ("contraction", ["--set", "ensemble=100000000000000000000"],
             "error: ensemble must be below 2^63, got 100000000000000000000\n"),
            ("pullback", ["--set", "ensemble=100000000000000000000"],
             "error: ensemble must be below 2^63, got 100000000000000000000\n"),
            ("converge", ["--set", "ensemble=100000000000000000000"],
             "error: ensemble must be below 2^63, got 100000000000000000000\n"),
            # a k that no float holds once ended in an OverflowError traceback
            ("simulate", ["--set", f"k={10**400}"],
             f"error: k must be at most 1.79769e+308, got {10**400}\n"),
            ("periodicity", ["--set", f"k={10**400}"],
             f"error: k must be at most 1.79769e+308, got {10**400}\n"),
            ("contraction", ["--set", f"k={10**400}"],
             f"error: k must be at most 1.79769e+308, got {10**400}\n"),
            # 0.256 coarse cells off: a tolerance that grows with |t| would snap it to -10^7
            ("converge", ["--set", "t_start=-9999999.996", "--set", "t_end=-9999999",
                          "--set", "levels=6,7", "--set", "reference_level=8",
                          "--set", "ensemble=20"],
             "error: t_start must be grid-aligned: -9999999.996 is not a multiple of the "
             "stepsize 0.015625\n"),
        ],
        ids=["simulate-negative-k", "simulate-negative-k-horizon-5", "contraction-zero-k",
             "contraction-zero-ensemble", "pullback-zero-ensemble", "converge-zero-ensemble", "converge-no-levels",
             "converge-one-level", "converge-repeated-level", "converge-level-twice",
             "contraction-eta-dim",
             "periodicity-x0-dim", "pullback-xi-dim", "periodicity-xi-dim", "contraction-xi-dim",
             "converge-xi-dim", "converge-level-zero", "converge-reference-above-30",
             "simulate-no-initial-values",
             "pullback-t-eval-before-period", "pullback-t-eval-at-period",
             "pullback-linear-t-eval-before-period", "pullback-inf-t-eval",
             "simulate-nan-horizon", "converge-minus-inf-t-start", "window-nan", "model-nan-lam",
             "model-nan-a", "simulate-zero-steps-off-grid", "simulate-horizon-off-grid",
             "simulate-nan-initial-values", "pullback-nan-xi", "contraction-inf-eta",
             "periodicity-nan-x0", "seed-negative", "periodicity-zero-k",
             "periodicity-negative-k", "periodicity-zero-horizon",
             "simulate-zero-newton-max-iter",
             "converge-zero-newton-tol", "simulate-infinite-steps", "simulate-huge-horizon",
             "pullback-huge-t-eval",
             "simulate-tiny-dt", "converge-huge-t-end", "converge-levels-semicolon",
             "simulate-huge-run", "periodicity-window-start-off-grid",
             "periodicity-huge-k", "contraction-huge-ensemble", "pullback-huge-ensemble",
             "converge-huge-ensemble", "simulate-float-overflowing-k",
             "periodicity-float-overflowing-k", "contraction-float-overflowing-k",
             "converge-distant-t-start-off-grid"],
    )
    def test_bad_count_message_names_the_key(self, tmp_path, capsys, command, bad, names):
        # these used to reach numpy and fail with its message
        assert main([command, "--out", str(tmp_path), *bad]) == 2
        assert names in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, key", [("simulate", "initial_values"), ("pullback", "xi"),
                         ("contraction", "xi"), ("periodicity", "xi"), ("converge", "xi")],
    )
    def test_overflow_fails_in_one_line(self, tmp_path, capsys, command, key):
        # numpy's overflow warnings, made errors here, once printed before the error line
        assert main([command, "--out", str(tmp_path), "--set", f"{key}=1e200"]) == 2
        assert capsys.readouterr().err == "error: non-finite state in Newton iteration\n"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_statistic_warns_nothing(self, tmp_path, capsys):
        # the gap series overflows; the run fails its check and says only that
        args = ["contraction", "--set", "model=linear_ou", "--set", "xi=1e200"]
        assert main([*args, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("contraction: c_delta=0.833472 (FAIL)\n", "")

    def test_huge_t_end_draws_no_noise(self, tmp_path, capsys, monkeypatch):
        # the block loop would run about 10^300 blocks; the count is rejected first
        def no_draw(*args, **kwargs):
            raise AssertionError("ms_error drew noise before checking its window")

        monkeypatch.setattr(analysis, "ensemble_increments", no_draw)
        assert main(["converge", "--out", str(tmp_path), "--set", "t_end=1e300"]) == 2
        assert "t_end = 1e+300" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("contraction", ["--set", "k=0"]),
            ("contraction", ["--set", "ensemble=0"]),
            ("converge", ["--set", "levels=6"]),
            ("periodicity", ["--set", "window=-2,-4"]),
            ("periodicity", ["--set", "xi=0.1,0.2"]),
            ("simulate", ["--set", "initial_values=1e9", "--set", "k=1"]),
            ("converge", ["--set", "levels=1,2", "--set", "reference_level=24"]),
            # a seed outside [0, 2^64) once aliased another modulo 2^64
            ("simulate", ["--seed", "-1"]),
            ("simulate", ["--seed", "18446744073709551616"]),
            ("periodicity", ["--set", "k=0"]),
            # a negative depth once wrote a pull-back that starts after time 0
            ("simulate", ["--set", "k=-1", "--set", "horizon=5"]),
        ],
        ids=["contraction-zero-k", "contraction-zero-ensemble", "converge-one-level",
             "window-reversed", "periodicity-xi-dim", "newton-failure",
             "memory-error", "seed-negative", "seed-2-64", "periodicity-zero-k",
             "simulate-negative-k-horizon-5"],
    )
    def test_rejected_inside_the_library_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, bad
    ):
        # the library rejects these after the output directory is made, except
        # periodicity-xi-dim, which _settings rejects before it
        if "reference_level=24" in bad:
            # one coarsest cell of 200 paths at level 24 is a 12.5 GiB block; the
            # draw fails as numpy's allocation would, without allocating it
            def out_of_memory(seed, paths, first_cell, n_cells, noise_dim, *args, **kwargs):
                gib = n_cells * len(paths) * noise_dim * 8 / 2**30
                raise MemoryError(f"Unable to allocate {gib:.3g} GiB")

            monkeypatch.setattr(analysis, "ensemble_increments", out_of_memory)
        assert main([command, "--out", str(tmp_path), *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, key, value, via",
        [
            (command, key, value, "--set")
            for command, keys in MALFORMED.items()
            for key, values in keys.items()
            for value in ((values,) if isinstance(values, str) else values)
        ]
        + [(command, "seed", "1.5", "--seed") for command in MALFORMED],
        ids=lambda v: str(v).lstrip("-"),
    )
    def test_malformed_value_names_the_key(self, tmp_path, capsys, command, key, value, via):
        out = tmp_path / "out"
        args = ["--set", f"{key}={value}"] if via == "--set" else ["--seed", value]
        assert main([command, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1, err
        assert not out.exists()  # a setting is read before anything is written

    @pytest.mark.parametrize("command", MALFORMED)
    def test_malformed_cases_cover_every_key(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path), "--set", "nokey=1"]) == 2
        accepted = capsys.readouterr().err.split("accepted: ", 1)[1].strip().split(", ")
        # a model name is checked against the catalog, not read as a number
        assert sorted(MALFORMED[command]) == sorted(set(accepted) - {"model", "model.<param>"})

    @pytest.mark.parametrize(
        "command, accepted",
        [
            ("simulate", "dt, horizon, initial_values, k, model, seed, theta"),
            ("pullback", "dt, ensemble, k_max, model, seed, t_eval, theta, tolerance, xi"),
            ("periodicity", "dt, horizon, k, model, seed, theta, window, x0, xi"),
            ("converge", "ensemble, levels, model, reference_level, seed, t_end, t_start, "
                         "theta, xi"),
            ("contraction", "dt, ensemble, eta, k, model, seed, theta, xi"),
        ],
        ids=["simulate", "pullback", "periodicity", "converge", "contraction"],
    )
    def test_newton_tol_is_unknown_key(self, tmp_path, capsys, command, accepted):
        # Newton's tolerance is the constant integrator._NEWTON_TOL, even at its own value
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--set", "newton_tol=1e-5"]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown key newton_tol for {command}; accepted: {accepted}, model.<param>\n"
        )
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path):
        # --seed wins over a seed given with --set
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--set", "model=additive_sine", "--set", "seed=7", "--out", str(out),
             "--seed", "3", "--set", "k=2"]
        )
        assert rc == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "seed=3" in manifest and "seed=7" not in manifest
        assert "k=2" in manifest
        assert "command=simulate" in manifest


class TestSimulate:
    ARGS = ["simulate", "--set", "model=additive_sine", "--set", "k=2",
            "--set", "dt=0.1", "--set", "initial_values=0.3,0,-0.3"]

    def test_outputs(self, tmp_path):
        rc = main(self.ARGS + ["--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "trajectories.csv")
        assert rows[0][0] == "t" and len(rows[0]) == 4
        assert len(rows) == 1 + 21  # 2 periods at dt 0.1 plus initial point
        assert (tmp_path / "trajectories.gp").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()


class TestPullback:
    def test_converges(self, tmp_path):
        rc = main(
            ["pullback", "--out", str(tmp_path), "--set", "ensemble=50",
             "--set", "k_max=10", "--set", "tolerance=1e-3"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "pullback.csv")
        footer = {r[0]: r[1] for r in rows if r[0] in ("k_used", "l2_gap", "converged")}
        assert footer["converged"] == "1"
        assert int(footer["k_used"]) >= 1

    def test_gap_history_written(self, tmp_path):
        rc = main(
            ["pullback", "--out", str(tmp_path), "--set", "model=linear_ou",
             "--set", "dt=0.05", "--set", "ensemble=20", "--set", "tolerance=1e-4"]
        )
        assert rc == 0
        res = pullback_converge(
            catalog_entry("linear_ou").problem, ThetaScheme(theta=1.0, dt=0.05),
            t_eval=0.0, xi=[0.6], tolerance=1e-4, k_max=20, ensemble=20, seed=0,
        )
        rows = read_csv(tmp_path / "pullback_gaps.csv")
        assert len(rows) == res.k_used >= 4
        assert rows[0] == ["k", "l2_gap"]
        assert rows[1:] == [
            [str(k), f"{gap:.17g}"] for k, gap in enumerate(res.gap_history, start=2)
        ]

    def test_failure_exit_code(self, tmp_path):
        # barely-contracting model cannot meet the tolerance in one depth step
        rc = main(
            ["pullback", "--out", str(tmp_path), "--set", "model=linear_ou",
             "--set", "model.lam=0.01", "--set", "model.sigma=0",
             "--set", "dt=0.25", "--set", "ensemble=4", "--set", "k_max=2",
             "--set", "tolerance=1e-12", "--set", "xi=1.0"]
        )
        assert rc == 1

    def test_failure_writes_its_gaps(self, tmp_path):
        # the run of test_failure_exit_code keeps the gap history that shows why it failed
        rc = main(
            ["pullback", "--out", str(tmp_path), "--set", "model=linear_ou",
             "--set", "model.lam=0.01", "--set", "model.sigma=0",
             "--set", "dt=0.25", "--set", "ensemble=4", "--set", "k_max=2",
             "--set", "tolerance=1e-12", "--set", "xi=1.0"]
        )
        assert rc == 1
        footer = read_csv(tmp_path / "pullback.csv")[-3:]
        assert [row[0] for row in footer] == ["k_used", "l2_gap", "converged"]
        assert footer[0][1] == "2" and footer[2][1] == "0"
        # the one gap, depth 2 against depth 1, is the reported one
        assert read_csv(tmp_path / "pullback_gaps.csv") == [["k", "l2_gap"], ["2", footer[1][1]]]
        assert float(footer[1][1]) > 1e-12


class TestPeriodicity:
    def test_cubic_defaults(self, tmp_path):
        rc = main(
            ["periodicity", "--out", str(tmp_path), "--set", "k=5",
             "--set", "horizon=6", "--set", "window=-4,0"]
        )
        assert rc == 0
        assert read_csv(tmp_path / "periodicity_shifted.csv")[0] == [
            "t", "path", "shifted_path"
        ]
        rows = read_csv(tmp_path / "periodicity_pullback.csv")
        assert rows[0] == ["t", "curve"]
        assert rows[-1][0] == "period_deviation"
        assert (tmp_path / "periodicity.gp").exists()

    def test_shifted_rows_are_the_judged_ones(self, tmp_path):
        # k = 5 and dt 0.1: -k*tau = -10, and the burn-in of 2 periods ends at -6
        assert main(["periodicity", "--out", str(tmp_path), "--set", "window=-10,0"]) == 0
        rows = read_csv(tmp_path / "periodicity_shifted.csv")
        data, footer = rows[1:-1], rows[-1]
        assert len(data) == 61 and float(data[0][0]) == -6.0
        gaps = [abs(float(path) - float(shifted)) for _, path, shifted in data]
        assert footer[0] == "sup_gap" and float(footer[1]) == max(gaps) == 1.1094045890280846e-09


class TestConverge:
    def test_small_run(self, tmp_path):
        rc = main(
            ["converge", "--out", str(tmp_path), "--set", "model=additive_sine",
             "--set", "levels=5,6,7", "--set", "reference_level=9",
             "--set", "ensemble=20", "--set", "t_start=0", "--set", "t_end=1",
             "--set", "xi=0.1"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "convergence.csv")
        assert rows[0] == ["level", "dt", "rms_error", "stderr", "level_diff"]
        assert len(rows) == 1 + 3 + 2  # header, three levels, slope + intercept
        assert rows[-2][0] == "slope"
        # the coarsest level has no previous level to differ from
        assert rows[1][4] == "" and all(float(r[4]) > 0.0 for r in rows[2:4])

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_newton_failure_one_line(self, tmp_path, capfd, monkeypatch, cpus):
        # with two CPUs the reference fails in the forked child, which prints nothing itself
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        args = ["--set", "xi=1e10", "--set", "levels=6,7", "--set", "reference_level=8",
                "--set", "ensemble=20"]
        assert main(["converge", "--out", str(tmp_path), *args]) == 2
        assert capfd.readouterr() == (
            "",
            "error: Newton failed to reach tolerance 1e-05 in 50 iterations (worst residual 256)\n",
        )
        assert list(tmp_path.iterdir()) == []


class TestContraction:
    def test_deterministic_linear(self, tmp_path):
        rc = main(
            ["contraction", "--out", str(tmp_path), "--set", "model=linear_ou",
             "--set", "model.lam=2", "--set", "model.sigma=0",
             "--set", "dt=0.25",
             "--set", "xi=1", "--set", "eta=-1", "--set", "k=18",
             "--set", "ensemble=8"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "contraction.csv")
        assert rows[0] == ["step", "mean_square_gap", "envelope"]
        assert rows[-2][0] == "c_delta"
        assert rows[-1][0] == "exact_rate"

    def test_huge_lambda_rate_is_finite(self, tmp_path, capsys):
        # 2 (lambda - L_f) overflows above lambda ~ 9e307; c_delta was nan and passed
        assert main(["contraction", "--out", str(tmp_path), "--set", "model.lam=1e308"]) == 0
        assert capsys.readouterr() == ("contraction: c_delta=0.525 (pass)\n", "")
        rows = read_csv(tmp_path / "contraction.csv")
        assert rows[-2][0] == "c_delta" and 0.0 <= float(rows[-2][1]) < 1.0
        assert all(math.isfinite(float(row[2])) for row in rows[1:-2])


# (arguments, exit code, sha256 of every file in --out and of stdout and stderr):
# any change to an output byte has to change these on purpose
PINNED = {
    "simulate-defaults": (
        ["simulate"],
        0,
        {
            "manifest.txt": "916e443a1c98d98df45f66f8b340a2bbf4eded3203dd9e2e0fe7f07882d7378b",
            "trajectories.csv": "27883f106760b36b52b2f966745b339ac1a9e0aec381bec0d4f6c3f9437ef157",
            "trajectories.gp": "881027c3bd31147141100a446797dd73557f877a353f5206790956c7d8dfb7b5",
            "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "pullback-defaults": (
        ["pullback"],
        0,
        {
            "manifest.txt": "6456bbb3c1a5303c38eef655c6ac3c621c0667aa33bd1e97d6908c5472ad98ca",
            "pullback.csv": "7d47fef7aeedff6edfe9fe95dc9a52f116ce30a11af55a2f910ec0f162d6261a",
            "pullback.gp": "e4116019cfe8c25fbeda931334ac853e7b99e163b7f12dd5bc7cdaf3d8352348",
            "pullback_gaps.csv": "ed205aabe49df67e2e390d7c2eaf4698cba2fb8457045fc75ae3b93d4882fdca",
            "<stdout>": "af35ca5cfd1b87c51d4ed4b2830968eeae7439d9ed06daa3abd36a858893bbb0",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "periodicity-defaults": (
        ["periodicity"],
        0,
        {
            "manifest.txt": "b490ec266765679f83a9d00807304749b696eb50639ff45ee6147176d603c575",
            "periodicity.gp": "4f8bb225f8d69fb8a2881409a093505360a273132185c13b894022733f0e0f3b",
            "periodicity_pullback.csv": "678a45ad2c502a5ff97222c7fea25971f8df548bea0363eba161976c0a5cc978",
            "periodicity_shifted.csv": "140ae61a9b168381ced76c179f76e6be6a60c2ef93e687fe18da424c17dc2e81",
            "<stdout>": "bd049a2c052f4caaa341baff0124fe317541ffb4c698cfc78e415e87cb3b62ca",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "contraction-defaults": (
        ["contraction"],
        0,
        {
            "contraction.csv": "588cf5969537cd65ca5069e97c3e586d693051d5993df2e19418e61a3bfaf2ba",
            "contraction.gp": "3a00d1b442b58ef47aa23d6c870b4e84f937789c7f1d988955671f5f0dcc386e",
            "manifest.txt": "5a0508df9dd932bc0095bb6f72893dcefd1370e4959f7f16f67a9fc8b0b3c4cd",
            "<stdout>": "bc9c8952234685109db7cd905d4d4dc72d3e59e9f6829947134fe910eba74192",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # an affine model at theta < 1: its explicit half-step and its own stage
    "contraction-linear-theta0.75": (
        ["contraction", "--set", "model=linear_ou", "--set", "theta=0.75"],
        0,
        {
            "contraction.csv": "658b8c9d4f7d77360a3e2d22043ca8252ba066438164b23aff55eeaecc336cec",
            "contraction.gp": "3a00d1b442b58ef47aa23d6c870b4e84f937789c7f1d988955671f5f0dcc386e",
            "manifest.txt": "f1fcb2a1821f42b4c613ebd2089e31f88c2cc51a573c5eb26c5db470fd310f3f",
            "<stdout>": "9d749eb1df6b5dcfc25f681403587d8af83620d4cd2969aeed29d83369f630ad",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # the cubic model at theta < 1 over 25 paths: X and Y in one batch of 2 x 25, the
    # explicit half-step and Newton's stage
    "contraction-theta0.75-small": (
        ["contraction", "--set", "theta=0.75", "--set", "k=3", "--set", "ensemble=25",
         "--seed", "2"],
        0,
        {
            "contraction.csv": "17be16552c53758dfd413ae1c9bf14fef6bf538398c12c519b7063da47a27b34",
            "contraction.gp": "3a00d1b442b58ef47aa23d6c870b4e84f937789c7f1d988955671f5f0dcc386e",
            "manifest.txt": "5af635440f5c029ed759ac722bb87e97f38ceb892529fda1b20f7be3a910455f",
            "<stdout>": "fab777598f6d9d18788e18135e114a1f825f1617c753bcb5ba92e625c6e18bd1",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # the cubic model at theta < 1: Newton's stage after an explicit half-step
    "converge-cubic-theta0.75-small": (
        ["converge", "--set", "theta=0.75", "--set", "levels=5,6,7",
         "--set", "reference_level=9", "--set", "ensemble=20", "--set", "t_start=0",
         "--set", "t_end=1"],
        0,
        {
            "convergence.csv": "aa3458d4910c17bcf0922f86153c2f2fd9f40807e3926f1d80c1f0135b2ad04e",
            "convergence.gp": "cd8158bddd670aa538045a28cc50e192e4503e2c41f9b037b0b0d255a6140443",
            "manifest.txt": "3d5e73d8e3581728b67f1dea04c5beef6314f492324835cb2b0073fbdb43d360",
            "<stdout>": "6b7b2d6d79759531658cff98a989df22c0c24024c8b4ed5c3606005d15f3f358",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "converge-additive-small": (
        ["converge", "--set", "model=additive_sine", "--set", "levels=5,6,7",
         "--set", "reference_level=9", "--set", "ensemble=20", "--set", "t_start=0",
         "--set", "t_end=1"],
        0,
        {
            "convergence.csv": "dff615ec15221e285626ffe024e5026bc3f36129ccd2260fbab07822d9624131",
            "convergence.gp": "cd8158bddd670aa538045a28cc50e192e4503e2c41f9b037b0b0d255a6140443",
            "manifest.txt": "55931015d24aab156e3e3521c5be541ec64cea950612d88c6980773b53e6f792",
            "<stdout>": "634d335bd804f26d143174cbbb398cd3248031e04c8700ff81065ec2be6572be",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # three blocks of 6,400, 6,400 and 3,584 fine cells at the 2^17-value block
    "converge-additive-blocks": (
        ["converge", "--set", "model=additive_sine", "--set", "levels=4,5,6",
         "--set", "reference_level=12", "--set", "ensemble=20", "--set", "t_start=0",
         "--set", "t_end=4"],
        0,
        {
            "convergence.csv": "f4c5d467e04070b01e4a58abfd3237b60f160d988198fe66a35417d5d656fdbd",
            "convergence.gp": "cd8158bddd670aa538045a28cc50e192e4503e2c41f9b037b0b0d255a6140443",
            "manifest.txt": "a99fc4dc7de56f177bda33aeae1419a098c774873cf5cce25c37e7c75241e9ab",
            "<stdout>": "b5c5dbf7973fdc4a8b92410dc40ff6bd9966000000e439bcea22ca38141daee1",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "pullback-failure": (
        ["pullback", "--set", "model=linear_ou", "--set", "model.lam=0.01",
         "--set", "model.sigma=0", "--set", "dt=0.25", "--set", "ensemble=4",
         "--set", "k_max=2", "--set", "tolerance=1e-12", "--set", "xi=1.0"],
        1,
        {
            "manifest.txt": "35f2a4ec6245c36109c0f073c0dffb385e6d74fe9c51faaa81896f707fe29767",
            # written whatever the outcome; pullback.csv ends converged,0
            "pullback.csv": "3a10745bfd158e91b7907babca7f7b03ba3b8daa1763caffb6ad1f0388334fb8",
            "pullback.gp": "e4116019cfe8c25fbeda931334ac853e7b99e163b7f12dd5bc7cdaf3d8352348",
            "pullback_gaps.csv": "8ff0e7df1dca92a8348450da1fbc55175bf3414771791f67de40e35945fb031c",
            "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "<stderr>": "003e514b993ede15fa29c7645f4f062f5edc6c55c524a1a277d2a6c6a1ba3c5f",
        },
    ),
    # an affine model at theta < 1 from 0 and -0 at t = -2, an exact negative multiple of
    # the period: the forcing at a folded time that is a zero of either sign
    "simulate-additive-theta0.75-signed-zero": (
        ["simulate", "--set", "model=additive_sine", "--set", "theta=0.75", "--set", "dt=0.1",
         "--set", "k=2", "--set", "horizon=1", "--set", "initial_values=0,-0"],
        0,
        {
            "manifest.txt": "d94f3418a1e807e4c53d3976079ef56754380ff01844c0d01cbecda139e06ad0",
            "trajectories.csv": "1557426675bddfeb963e0b5ee5783fb3cf25a4d4c3fae2f9f2b3b6cdbe9b2b74",
            "trajectories.gp": "dfed5db335b07bf7b6db55ed44ad207bf4963e336b67f299f1b1fdc0fc2a81f9",
            "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # zero-length runs: horizon -10 is the start -k*period, horizon 0 an empty curve
    "simulate-zero-steps": (
        ["simulate", "--set", "horizon=-10"],
        0,
        {
            "manifest.txt": "4ef23bcb515e30cb7e1c88b3d0b330d0195e75889b0abeda466eb590827ac601",
            "trajectories.csv": "66a5ff7d70ee6364996c23a34e387f89aeb657b954462b937b44a356fcec3377",
            "trajectories.gp": "881027c3bd31147141100a446797dd73557f877a353f5206790956c7d8dfb7b5",
            "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # four starts under the one noise path from t = 0 (k = 0)
    "simulate-linear-four-starts": (
        ["simulate", "--set", "model=linear_ou", "--set", "k=0", "--set", "horizon=2",
         "--set", "initial_values=1,-1,0.3,2"],
        0,
        {
            "manifest.txt": "ea6ee550781b26ee374fafbfb4c8fc0a8c905b651be7ea9ff6614697471a29f4",
            "trajectories.csv": "de36f7242393173ca5d1f3b4f6eb3be854ac4d45be7a3cd49d8aa7c04192863d",
            "trajectories.gp": "b9ffcfa099fc4ef3917c5de4fe96295363d2fd87394d194e3b18bc23f0e0687f",
            "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
}


@pytest.mark.parametrize("case", PINNED)
def test_outputs_pinned(tmp_path, capsys, case):
    args, rc, digests = PINNED[case]
    assert main([*args, "--out", str(tmp_path)]) == rc
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    captured = capsys.readouterr()
    for name, text in (("<stdout>", captured.out), ("<stderr>", captured.err)):
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == digests


def reproduce_main():
    return runpy.run_path(str(SCRIPTS / "reproduce.py"))["main"]


# (subcommand, output subdirectory) of every run of scripts/reproduce.py, in table order
REPRODUCE_RUNS = [
    ("simulate", "initial_values"),
    ("periodicity", "periodicity"),
    ("converge", "convergence/cubic_multiplicative_theta0.75"),
    ("converge", "convergence/cubic_multiplicative_theta1"),
    ("converge", "convergence/additive_sine_theta0.75"),
    ("converge", "convergence/additive_sine_theta1"),
    ("contraction", "contraction"),
]


def test_reproduce_runs_the_table(tmp_path, monkeypatch):
    # every run's keys go through the real reader; no subcommand computes
    calls, codes = [], {}

    def stub(name):
        def run(settings, out):
            calls.append((name, out))
            if codes.get(name) == 2:
                raise ValueError("stubbed")
            return codes.get(name, 0) == 0

        return run

    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, stub(name))
    assert reproduce_main()(["--out", str(tmp_path)]) == 0
    assert calls == [(name, tmp_path / subdir) for name, subdir in REPRODUCE_RUNS]
    # the exit code is the largest of the runs', not their bitwise or (3)
    codes.update(converge=1, contraction=2)
    assert reproduce_main()(["--out", str(tmp_path)]) == 2


# sha256 of the files that the run_*.py drivers, which reproduce.py replaced, wrote
# at their defaults
REPRODUCE_DIGESTS = {
    "initial_values/manifest.txt": "94eb933671df962812232e5b70a21192b0efa29337f565b9dc041136c7394320",
    "initial_values/trajectories.csv": "c7b3b702b4bb3247392ee53e774e22bcbd69dddaa6a6cba9a891b682e697e330",
    "initial_values/trajectories.gp": "881027c3bd31147141100a446797dd73557f877a353f5206790956c7d8dfb7b5",
    "periodicity/manifest.txt": "6ab34d927c0cde38da73d0d3d1fb5385f94efaf761f0cbff636b0bce628f5e04",
    "periodicity/periodicity.gp": "4f8bb225f8d69fb8a2881409a093505360a273132185c13b894022733f0e0f3b",
    "periodicity/periodicity_pullback.csv": "b64d853e6371a090ff4ade95bce99479c761d2eab4f06ba6e6b6c732c7acebb4",
    "periodicity/periodicity_shifted.csv": "bcee81807c438b39ff16b4fc283ab19add9ef303bb11bcb1a0e465939f7f2db0",
    "contraction/contraction.csv": "fa9dbb23cec77a99ad23f8fcdaae19c1788d044ad49f2fb017b1b5c6a738b516",
    "contraction/contraction.gp": "3a00d1b442b58ef47aa23d6c870b4e84f937789c7f1d988955671f5f0dcc386e",
    "contraction/manifest.txt": "304498f3baf366f4230eb17e74f0647a985601362d9d2ebff627e748d1d45d50",
}


def test_reproduce_outputs_pinned(tmp_path, capsys):
    # convergence takes seconds a run; test_reproduce_runs_the_table covers its table
    args = ["--out", str(tmp_path), "contraction", "initial_values", "periodicity"]
    assert reproduce_main()(args) == 0
    got = {
        f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in tmp_path.rglob("*")
        if f.is_file()
    }
    assert got == REPRODUCE_DIGESTS
    # table order, whatever the order of the names
    assert capsys.readouterr().out == (
        "periodicity: shifted gap=2.78e-17 (pass), pullback deviation=9.62e-10 (pass)\n"
        "contraction: c_delta=0.875969 (pass)\n"
    )


def test_reproduce_unknown_experiment_runs_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: pytest.fail(f"ran {argv}"))
    with pytest.raises(SystemExit) as exc:
        reproduce_main()(["--out", str(tmp_path), "periodicity", "convergance"])
    assert exc.value.code == 2
    assert "unknown experiment convergance" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_kernel_timing_script_runs():
    # a tiny noise window and eight steps at batch 2 of every catalog model, through
    # the functions the script times and summarises, without its rounds or its table
    script = runpy.run_path(str(SCRIPTS / "kernel_timing.py"))
    seconds = [script["noise_run"](4, -4, 8, 0.25, None)() for _ in range(3)]
    assert all(math.isfinite(s) and s >= 0.0 for s in seconds)
    med, q1, q3 = script["quartiles"](seconds, 1e9 / (4 * 8))
    assert all(math.isfinite(v) for v in (med, q1, q3)) and 0.0 <= q1 <= med <= q3
    for name in MODEL_NAMES:
        for theta in (1.0, 0.75):
            scheme = ThetaScheme(theta=theta, dt=script["DT"])
            iters, run = script["kernel_run"](catalog_entry(name).problem, scheme, 2, 8)
            assert math.isfinite(iters) and iters >= 0.0
            med, q1, q3 = script["quartiles"]([run(), run()], 1e6 / 8)
            assert all(math.isfinite(v) for v in (med, q1, q3)) and 0.0 <= q1 <= med <= q3
    # two cold starts of the start-up row, each a new interpreter
    started, startup = script["startup_run"]()
    seconds = [startup(), startup()]
    assert all(math.isfinite(s) and s > 0.0 for s in seconds)
    assert len(started) == 2 and all(mb > 0.0 and modules > 0 for mb, modules in started)
    # the estimator row's call over one coarsest cell, (0, 2^-9), not (-4, 4)
    peak_mb, seconds = script["estimator_memory"](0.0, 2.0**-9)
    assert 0.0 < peak_mb < 4.0
    assert math.isfinite(seconds) and seconds >= 0.0


def test_import_loads_no_multiprocessing():
    # periodic.beside_child imports it when it forks; loaded at module level it adds
    # memory and start-up time to every subcommand, forking or not
    script = "import sys\nimport rpsde.cli\nprint('multiprocessing' in sys.modules)"
    done = fresh_interpreter("-c", script)
    assert (done.stdout, done.stderr, done.returncode) == ("False\n", "", 0)


def test_import_loads_ndtri_past_scipy_special():
    # rpsde loads scipy.special's _ufuncs extension without the package's __init__, and
    # noise loads numpy.random, which numpy loads lazily, at import, not at the first draw
    script = (
        "import sys\nimport rpsde.cli\n"
        "print(*(m in sys.modules for m in ('scipy.special', 'scipy.special._ufuncs',"
        " 'numpy.random', 'multiprocessing')))\n"
        "import scipy.special, rpsde.noise\nprint(scipy.special.ndtri is rpsde.noise.ndtri)"
    )
    done = fresh_interpreter("-c", script)
    assert (done.stdout, done.stderr, done.returncode) == ("False True True False\nTrue\n", "", 0), (
        f"scipy {metadata.version('scipy')}"
    )
