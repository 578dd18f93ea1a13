import csv
import hashlib

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
            ("periodicity", ["--set", "window=1"]),
            ("periodicity", ["--set", "window=-4,0,7"]),
            ("pullback", ["--set", "t_eval=inf"]),
            ("simulate", ["--set", "horizon=inf"]),
            ("converge", ["--set", "t_start=-inf"]),
            ("simulate", ["--set", "horizon=nan"]),
            ("periodicity", ["--set", "window=nan,0"]),
            ("simulate", ["--set", "model.lam=nan"]),
            ("simulate", ["--set", "model.a=nan"]),
            ("periodicity", ["--set", "threshold=nan"]),
            ("periodicity", ["--set", "threshold=-1"]),
        ],
        ids=["mistyped-key", "converge-dt", "model-param", "newton-failure",
             "window-first-period", "window-reversed", "negative-horizon",
             "simulate-negative-k", "contraction-zero-k", "pullback-zero-ensemble",
             "converge-zero-ensemble", "converge-no-levels", "periodicity-x0-dim",
             "pullback-xi-dim", "converge-level-twice", "contraction-xi-dim",
             "pullback-nan-tolerance", "newton-tol-inf", "newton-tol-nan",
             "periodicity-nan-x0-cubic", "periodicity-nan-x0-linear-ou",
             "window-one-number", "window-three-numbers", "pullback-inf-t-eval",
             "simulate-inf-horizon", "converge-minus-inf-t-start", "simulate-nan-horizon",
             "window-nan", "model-nan-lam", "model-nan-a", "threshold-nan",
             "threshold-negative"],
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
            ("pullback", ["--set", "t_eval=inf"], "t_eval must be finite, got inf"),
            ("simulate", ["--set", "horizon=nan"], "horizon + k*period must be finite, got nan"),
            ("converge", ["--set", "t_start=-inf"], "t_start must be finite, got -inf"),
            ("periodicity", ["--set", "window=nan,0"], "window (nan, 0.0) must be finite"),
            ("simulate", ["--set", "model.lam=nan"], "model.lam must be finite, got nan"),
            ("simulate", ["--set", "model.a=nan"], "model.a must be finite, got nan"),
            ("periodicity", ["--set", "threshold=nan"], "threshold must be positive, got nan"),
            # zero steps from -2, which is not on the grid of 0.8
            ("simulate", ["--set", "dt=0.8", "--set", "k=1", "--set", "horizon=-2"],
             "window start must be grid-aligned"),
        ],
        ids=["simulate-negative-k", "contraction-zero-k", "contraction-zero-ensemble",
             "pullback-zero-ensemble", "converge-zero-ensemble", "converge-no-levels",
             "converge-one-level", "converge-repeated-level", "converge-level-twice",
             "contraction-eta-dim",
             "periodicity-x0-dim", "pullback-xi-dim", "simulate-no-initial-values",
             "pullback-t-eval-before-period", "pullback-t-eval-at-period",
             "pullback-linear-t-eval-before-period", "pullback-inf-t-eval",
             "simulate-nan-horizon", "converge-minus-inf-t-start", "window-nan", "model-nan-lam",
             "model-nan-a", "threshold-nan", "simulate-zero-steps-off-grid"],
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


# (arguments, exit code, sha256 of every file in --out and of stdout and stderr):
# any change to an output byte has to change these on purpose
PINNED = {
    "simulate-defaults": (
        ["simulate"],
        0,
        {
            "manifest.txt": "916e443a1c98d98df45f66f8b340a2bbf4eded3203dd9e2e0fe7f07882d7378b",
            "trajectories.csv": "756d6d4f925ecf8fbf0c04c40179aacdf247607715d474ac177cc62f58970ad6",
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
            "pullback.csv": "bb456d0f91fe020e9714874f4e0f638042f95992fc77ccde55c58d739c761dec",
            "pullback.gp": "e4116019cfe8c25fbeda931334ac853e7b99e163b7f12dd5bc7cdaf3d8352348",
            "pullback_gaps.csv": "b7cec81ea6a0e674cb5f5091dc98acae8c446f63eabf33dd8d6d428a34786f56",
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
            "periodicity_pullback.csv": "7bc3538834a7f35da980c79eb9d7a09d888db194f3327ed03a65ba855d19db83",
            "periodicity_shifted.csv": "28d3770044b3f7b0a47917e91e7c372c3a12069a6e98c080fc889d48c97e16f8",
            "<stdout>": "bd049a2c052f4caaa341baff0124fe317541ffb4c698cfc78e415e87cb3b62ca",
            "<stderr>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "contraction-defaults": (
        ["contraction"],
        0,
        {
            "contraction.csv": "ee42eae28111ab37889007f8a33354ad75d739c28b5255cf7195f4379dcd9c56",
            "contraction.gp": "3a00d1b442b58ef47aa23d6c870b4e84f937789c7f1d988955671f5f0dcc386e",
            "manifest.txt": "5a0508df9dd932bc0095bb6f72893dcefd1370e4959f7f16f67a9fc8b0b3c4cd",
            "<stdout>": "bc9c8952234685109db7cd905d4d4dc72d3e59e9f6829947134fe910eba74192",
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
    "pullback-failure": (
        ["pullback", "--set", "model=linear_ou", "--set", "model.lam=0.01",
         "--set", "model.sigma=0", "--set", "dt=0.25", "--set", "ensemble=4",
         "--set", "k_max=2", "--set", "tolerance=1e-12", "--set", "xi=1.0"],
        1,
        {
            "manifest.txt": "35f2a4ec6245c36109c0f073c0dffb385e6d74fe9c51faaa81896f707fe29767",
            "<stdout>": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "<stderr>": "003e514b993ede15fa29c7645f4f062f5edc6c55c524a1a277d2a6c6a1ba3c5f",
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
    "periodicity-zero-horizon": (
        ["periodicity", "--set", "horizon=0"],
        0,
        {
            "manifest.txt": "3773e5334b79d424c4d8c870aa70481dd5e3a5fbcd3be97c38a6d14ba19fcacd",
            "periodicity.gp": "4f8bb225f8d69fb8a2881409a093505360a273132185c13b894022733f0e0f3b",
            "periodicity_pullback.csv": "176357477b09206f11bc356cc5d7502a9b92ae0928578b83a43e35242db5f069",
            "periodicity_shifted.csv": "28d3770044b3f7b0a47917e91e7c372c3a12069a6e98c080fc889d48c97e16f8",
            "<stdout>": "a031e1f61826bf3cddb4b31aa621d377f39ef0669ac1ee0d7f9b9105f90f4f88",
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
