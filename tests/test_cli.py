import csv

import pytest

from rpsde.cli import ConfigError, load_config, main
from rpsde.integrator import ThetaScheme
from rpsde.models import catalog_entry
from rpsde.periodic import pullback_converge


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_parsing(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# comment line\n"
            "theta = 0.75\n"
            "\n"
            "dt=0.1  # trailing comment\n"
            "theta=1.0\n"
        )
        cfg = load_config(f)
        assert cfg == {"theta": "1.0", "dt": "0.1"}  # later keys win

    def test_missing_equals(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("theta 0.75\n")
        with pytest.raises(ConfigError):
            load_config(f)

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_bad_set_exit_code(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--set", "oops"])
        assert rc == 2

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("simulate", ["--set", "ensembel=5"]),  # mistyped key
            ("converge", ["--set", "dt=0.1"]),  # a key converge does not read
            ("simulate", ["--set", "model.bogus=1"]),  # unknown model parameter
            # Newton cannot reach 1e-14 in one iteration
            ("simulate", ["--set", "newton_max_iter=1", "--set", "newton_tol=1e-14"]),
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
            ("pullback", ["--set", "tolerance=nan"]),
            ("simulate", ["--set", "newton_tol=inf"]),
            ("simulate", ["--set", "newton_tol=nan"]),
            ("periodicity", ["--set", "x0=nan"]),
            ("periodicity", ["--set", "model=linear_ou", "--set", "x0=nan"]),
        ],
        ids=["mistyped-key", "converge-dt", "model-param", "newton-failure",
             "window-first-period", "window-reversed", "negative-horizon",
             "simulate-negative-k", "contraction-zero-k", "pullback-zero-ensemble",
             "converge-zero-ensemble", "converge-no-levels", "periodicity-x0-dim",
             "pullback-xi-dim", "converge-level-twice", "contraction-xi-dim",
             "pullback-nan-tolerance", "newton-tol-inf", "newton-tol-nan",
             "periodicity-nan-x0-cubic", "periodicity-nan-x0-linear-ou"],
    )
    def test_bad_input_one_line_exit_code(self, tmp_path, capsys, command, bad):
        rc = main([command, "--out", str(tmp_path), *bad])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, bad, names",
        [
            ("simulate", ["--set", "k=-1"], "-k*period"),
            ("contraction", ["--set", "k=0"], "k and ensemble must be"),
            ("contraction", ["--set", "ensemble=0"], "k and ensemble must be"),
            ("pullback", ["--set", "ensemble=0"], "ensemble must be"),
            ("converge", ["--set", "ensemble=0"], "ensemble must be"),
            ("converge", ["--set", "levels="], "levels must"),
            ("converge", ["--set", "levels=6"], "levels must"),
            ("converge", ["--set", "levels=5,5"], "levels must"),
            ("converge", ["--set", "levels=4,4,5"], "levels name 4 more than once"),
            ("contraction", ["--set", "eta=0.1,0.2"], "state_dim is 1"),
            ("periodicity", ["--set", "x0=0.1,0.2"], "state_dim is 1"),
            ("pullback", ["--set", "xi=0.1,0.2"], "state_dim is 1"),
            ("simulate", ["--set", "initial_values="], "initial_values"),
            ("pullback", ["--set", "t_eval=-2.5"], "t_eval"),
            ("pullback", ["--set", "t_eval=-2"], "t_eval"),
            ("pullback", ["--set", "model=linear_ou", "--set", "t_eval=-1.5"], "t_eval"),
        ],
        ids=["simulate-negative-k", "contraction-zero-k", "contraction-zero-ensemble",
             "pullback-zero-ensemble", "converge-zero-ensemble", "converge-no-levels",
             "converge-one-level", "converge-repeated-level", "converge-level-twice",
             "contraction-eta-dim",
             "periodicity-x0-dim", "pullback-xi-dim", "simulate-no-initial-values",
             "pullback-t-eval-before-period", "pullback-t-eval-at-period",
             "pullback-linear-t-eval-before-period"],
    )
    def test_bad_count_message_names_the_key(self, tmp_path, capsys, command, bad, names):
        # these used to reach numpy and fail with its message
        assert main([command, "--out", str(tmp_path), *bad]) == 2
        assert names in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("model=additive_sine\nk=1\nseed=7\n")
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--config", str(f), "--out", str(out), "--seed", "3",
             "--set", "k=2"]
        )
        assert rc == 0
        manifest = (out / "manifest.txt").read_text()
        assert "seed=3" in manifest
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


class TestContraction:
    def test_deterministic_linear(self, tmp_path):
        rc = main(
            ["contraction", "--out", str(tmp_path), "--set", "model=linear_ou",
             "--set", "model.lam=2", "--set", "model.sigma=0",
             "--set", "dt=0.25", "--set", "newton_tol=1e-12",
             "--set", "xi=1", "--set", "eta=-1", "--set", "k=18",
             "--set", "ensemble=8"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "contraction.csv")
        assert rows[0] == ["step", "mean_square_gap", "envelope"]
        assert rows[-2][0] == "c_delta"
        assert rows[-1][0] == "exact_rate"
