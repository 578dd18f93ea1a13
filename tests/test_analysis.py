import math
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsde import analysis
from rpsde.analysis import (
    contraction_constant,
    fit_slope,
    ms_error,
    numerical_contraction_test,
)
from rpsde.integrator import NewtonError, ThetaScheme, simulate_ensemble
from rpsde.models import (
    build_additive_model,
    build_cubic_model,
    build_linear_model,
    catalog_entry,
)
from rpsde.noise import ensemble_increments, grid_steps, tree_fold
from test_periodic import coupled_problem

BENCH = dict(lam=5 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0)
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class MomentSeries:
    times: np.ndarray
    second_moment: np.ndarray
    stderr: np.ndarray
    growth_flag: bool


def moment_monitor(problem, scheme, k, ensemble, seed, xi=0.6):
    """Monte-Carlo second moment of the pull-back run from -k*tau to 0.

    Flags unbounded growth when the last-quarter mean exceeds 4x the
    first-quarter mean after a one-period burn-in: the paper's uniform
    moment bound, checked on the ensemble.
    """
    if ensemble < 2:
        raise ValueError("ensemble must be >= 2")
    steps_per_tau = grid_steps(problem.period, scheme.dt, "period")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    n = k * steps_per_tau
    incs = ensemble_increments(seed, range(ensemble), -n, n, problem.noise_dim, scheme.dt)
    x0 = np.broadcast_to(xi, (ensemble, xi.size))
    times, states, _ = simulate_ensemble(problem, scheme, -n, x0, incs, record=True)
    sq = np.sum(states**2, axis=-1)  # (ensemble, n_times)
    mom = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(ensemble)
    vals = mom[steps_per_tau:]
    quarter = max(1, vals.size // 4)
    flag = bool(vals[-quarter:].mean() > 4.0 * vals[:quarter].mean())
    return MomentSeries(times=times, second_moment=mom, stderr=se, growth_flag=flag)


class TestContractionConstant:
    def test_boundary_example(self):
        # lam - L_f = 1, theta = 1, p* = 21, dt = 1: branches {1/3, 21/40, 0}
        c_delta = contraction_constant(2.0, 1.0, 1.0, 21.0, 1.0)
        assert c_delta == pytest.approx(21.0 / 40.0, abs=1e-15)

    def test_third_branch_vanishes_at_theta_one(self):
        theta = 1.0
        assert (2 * theta - 1) / theta**2 == 1.0
        c_delta = contraction_constant(3.0, 0.1, theta, 4.0, 0.5)
        # with p* = 4, theta = 1: second branch = 1 - 2/6 = 2/3
        gap = 2 * (3.0 - 0.1) * 0.5
        assert c_delta == pytest.approx(max(1 - gap / (1 + gap), 2.0 / 3.0, 0.0))

    def test_exact_rate(self):
        prob = build_linear_model(2.0, 0.3)
        test = numerical_contraction_test(prob, ThetaScheme(0.8, 0.1), [0.6], [-0.6], 1, 2, seed=0)
        rate = math.exp(2 * (prob.one_sided_lipschitz - prob.lambda_min) * 0.1)
        assert test.exact_rate == rate

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            contraction_constant(1.0, 2.0, 1.0, 21.0, 0.1)  # L_f >= lambda
        with pytest.raises(ValueError):
            contraction_constant(1.0, 0.5, 0.5, 21.0, 0.1)  # theta at boundary
        with pytest.raises(ValueError):
            contraction_constant(1.0, 0.5, 1.0, 2.0, 0.1)  # p* too small
        with pytest.raises(ValueError):
            contraction_constant(1.0, 0.5, 1.0, 21.0, 0.0)  # dt out of range

    def test_property_sweep(self):
        # c_delta in [0, 1) across the valid parameter domain
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            lam = rng.uniform(0.01, 50.0)
            l_f = lam * rng.uniform(1e-6, 0.999999)
            theta = rng.uniform(0.5 + 1e-9, 1.0)
            pstar = rng.uniform(2.0 + 1e-9, 100.0)
            dt = rng.uniform(1e-9, 1.0 - 1e-9)
            c = contraction_constant(lam, l_f, theta, pstar, dt)
            assert 0.0 <= c < 1.0

    # bounds keep (lam - l_f) * theta * dt above ~1e-14 so the first branch
    # stays representable below 1.0; at smaller gaps it rounds to exactly 1.0
    @given(
        lam=st.floats(0.01, 50.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
        theta=st.floats(0.5, 1.0, exclude_min=True),
        pstar=st.floats(2.0, 100.0, exclude_min=True),
        dt=st.floats(1e-6, 1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_hypothesis(self, lam, frac, theta, pstar, dt):
        c = contraction_constant(lam, lam * frac, theta, pstar, dt)
        assert 0.0 <= c < 1.0


class TestFitSlope:
    def test_exact_order_one(self):
        h = np.array([2.0**-i for i in range(3, 9)])
        slope, _ = fit_slope(h, 7.3 * h)
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_exact_order_half(self):
        h = np.array([2.0**-i for i in range(3, 9)])
        slope, _ = fit_slope(h, 0.2 * np.sqrt(h))
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_two_point_hand_solved(self):
        # e = 8 * dt^{1/2}: log2 e = 3 + 0.5 log2 dt, so slope 1/2, intercept 3
        slope, intercept = fit_slope(
            [2.0**-3, 2.0**-5], [8 * 2.0**-1.5, 8 * 2.0**-2.5]
        )
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert intercept == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_slope([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_slope([0.5], [1.0])
        with pytest.raises(ValueError):
            fit_slope([0.5, -0.25], [1.0, 1.0])

    @given(
        order=st.floats(0.25, 2.0),
        scale=st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_law_property(self, order, scale):
        h = np.array([2.0**-i for i in range(2, 8)])
        slope, _ = fit_slope(h, scale * h**order)
        assert slope == pytest.approx(order, rel=1e-9)


class TestMsError:
    def test_self_comparison_is_zero(self):
        prob = build_linear_model(1.0, 0.3)
        # a second level, since a slope needs two; the level-5 run is the reference run
        rep = ms_error(prob, 1.0, [4, 5], 5, 8, 0.0, 1.0, seed=0, xi=[1.0])
        assert rep.rms_errors[1] == 0.0
        assert rep.rms_errors[0] > 0.0 and math.isnan(rep.fitted_slope)

    def test_linear_oracle_order_one(self):
        prob = build_linear_model(1.0, 0.3)
        rep = ms_error(prob, 0.75, [6, 7, 8, 9, 10], 12, 200, 0.0, 2.0, seed=0, xi=[1.0])
        assert 0.9 <= rep.fitted_slope <= 1.1

    def test_ensemble_stability(self):
        prob = build_additive_model()
        small = ms_error(prob, 1.0, [5, 6, 7], 9, 100, 0.0, 1.0, seed=0, xi=[0.1])
        big = ms_error(prob, 1.0, [5, 6, 7], 9, 200, 0.0, 1.0, seed=0, xi=[0.1])
        for e1, e2, se in zip(small.rms_errors, big.rms_errors, small.stderrs):
            assert abs(e1 - e2) < 3 * max(se, 1e-300)

    @pytest.mark.parametrize(
        "problem, theta, xi",
        [(build_cubic_model(**BENCH), 0.75, [0.6]), (coupled_problem(), 1.0, [0.3, -0.2])],
        ids=["cubic-theta0.75", "two-dim-theta1"],
    )
    def test_streamed_blocks_equal_unblocked_fold(self, monkeypatch, problem, theta, xi):
        # 512 fine cells at level 8 over (-1, 1), 32 per coarsest cell; room
        # for 180 cells per path, rounded down to 160: blocks of 160, 160, 160
        # and 32 cells
        ensemble, m = 5, problem.noise_dim
        monkeypatch.setattr(analysis, "_BLOCK_VALUES", ensemble * m * 180)
        windows = []

        def recording(seed, paths, first_cell, n_cells, *args, **kwargs):
            windows.append((first_cell, n_cells))
            return ensemble_increments(seed, paths, first_cell, n_cells, *args, **kwargs)

        monkeypatch.setattr(analysis, "ensemble_increments", recording)
        rep = ms_error(problem, theta, [3, 4, 6], 8, ensemble, -1.0, 1.0, seed=4, xi=xi)
        # (-1, -0.375), (-0.375, 0.25), (0.25, 0.875) and (0.875, 1) in cells of 2^-8
        assert windows == [(-256, 160), (-96, 160), (64, 160), (224, 32)]

        # one full-window draw, tree-folded to each level and run at once
        fine = ensemble_increments(4, range(ensemble), -256, 512, m, 2.0**-8, fine_level=8)
        x0 = np.broadcast_to(np.array(xi), (ensemble, len(xi)))
        finals = {}
        for lvl in (3, 4, 6, 8):
            incs = tree_fold(fine, 2 ** (8 - lvl))
            scheme = ThetaScheme(theta=theta, dt=2.0**-lvl)
            _, finals[lvl], _ = simulate_ensemble(
                problem, scheme, -(2**lvl), x0, incs, record=False
            )
        sq = [np.sum((finals[lvl] - finals[8]) ** 2, axis=-1) for lvl in (3, 4, 6)]
        rms = np.array([math.sqrt(s.mean()) for s in sq])
        stderrs = np.array(
            [s.std(ddof=1) / math.sqrt(ensemble) / (2.0 * r) for s, r in zip(sq, rms)]
        )
        assert np.array_equal(rep.rms_errors, rms)
        assert np.array_equal(rep.stderrs, stderrs)
        assert rep.fitted_slope == fit_slope([2.0**-3, 2.0**-4, 2.0**-6], rms)[0]

    @pytest.fixture(scope="class")
    def block_run_peak(self):
        # traced peak of one ms_error call, measured once for both memory tests; on one
        # CPU, so the reference is stepped in this process and traced on every host
        prob = build_linear_model(1.0, 0.3)
        with pytest.MonkeyPatch.context() as mp:
            one_cpu(mp)
            tracemalloc.start()
            try:
                ms_error(prob, 1.0, [9, 10], 12, 200, -4.0, 4.0, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peak

    def test_memory_bounded_by_block(self, block_run_peak):
        # the unblocked level-12 array of 200 paths over (-4, 4) alone is 52 MB
        assert block_run_peak < 20e6

    def test_working_set_of_one_block(self, block_run_peak):
        # a 1 MB block of 640 cells, its 0.5 MB first fold and the noise draw's
        # three 0.5 MB chunk arrays
        assert block_run_peak < 4e6

    def test_level_diffs_by_hand(self):
        prob = build_cubic_model(**BENCH)
        rep = ms_error(prob, 1.0, [2, 3, 5], 6, 4, 0.0, 1.0, seed=1, xi=[0.3])
        # each path run alone on its own grid, level by level
        finals = {lvl: [] for lvl in (2, 3, 5)}
        for p in range(4):
            fine = ensemble_increments(1, [p], 0, 64, 1, 2.0**-6, fine_level=6)
            for lvl in finals:
                incs = tree_fold(fine, 2 ** (6 - lvl))
                scheme = ThetaScheme(theta=1.0, dt=2.0**-lvl)
                _, x, _ = simulate_ensemble(prob, scheme, 0, [[0.3]], incs, record=False)
                finals[lvl].append(x[0, 0])
        for i, (fine, coarse) in enumerate([(3, 2), (5, 3)]):
            sq = (np.array(finals[fine]) - np.array(finals[coarse])) ** 2
            assert rep.level_diffs[i] == math.sqrt(sq.mean())
        assert rep.level_diffs.shape == (2,)

    @pytest.mark.parametrize("levels", [[], [6], [5, 5]])
    def test_two_distinct_levels_needed_before_any_draw(self, monkeypatch, levels):
        def no_draw(*args, **kwargs):
            raise AssertionError("ms_error drew noise before checking its levels")

        monkeypatch.setattr(analysis, "ensemble_increments", no_draw)
        with pytest.raises(ValueError, match="levels must name at least two distinct levels"):
            ms_error(build_additive_model(), 1.0, levels, 8, 10, 0.0, 1.0, seed=0)

    @pytest.mark.parametrize(
        "levels, names", [([4, 4, 5], "4"), ([6, 5, 6, 5, 7], "5, 6")], ids=["once", "twice"]
    )
    def test_repeated_level_rejected_before_any_draw(self, monkeypatch, levels, names):
        def no_draw(*args, **kwargs):
            raise AssertionError("ms_error drew noise before checking its levels")

        monkeypatch.setattr(analysis, "ensemble_increments", no_draw)
        with pytest.raises(ValueError, match=f"^levels name {names} more than once$"):
            ms_error(build_additive_model(), 1.0, levels, 8, 10, 0.0, 1.0, seed=0)

    def test_reference_must_be_finest(self):
        prob = build_additive_model()
        with pytest.raises(ValueError):
            ms_error(prob, 1.0, [5, 6], 4, 10, 0.0, 1.0, seed=0)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def forking(monkeypatch):
    """Two CPUs, whatever the host has; returns the list of the pids forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def failing(problem, theta, fail_after, error=None):
    """problem whose stage fails at each level of fail_after from stage time t_after on.

    The stage returns NaN rows, or raises error, so the step from t_after - dt
    fails; the levels tell apart by c = theta*dt.
    """
    stage = problem.stage

    def failing_stage(t, c, r):
        if any(c == theta * 2.0**-lvl and t >= t_after for lvl, t_after in fail_after.items()):
            if error is not None:
                raise error
            return np.full_like(r, np.nan)
        return stage(t, c, r)

    return replace(problem, stage=failing_stage)


class TestForkedReference:
    """ms_error steps the reference in a forked child when two CPUs are available."""

    @pytest.mark.parametrize(
        "problem, theta, levels, ref, xi",
        [
            (build_cubic_model(**BENCH), 1.0, [3, 4, 6], 8, [0.6]),
            (build_cubic_model(**BENCH), 0.75, [3, 4, 6], 8, [0.6]),
            (build_linear_model(1.0, 0.3), 1.0, [3, 4, 6], 8, [1.0]),
            (build_linear_model(1.0, 0.3), 0.75, [3, 4, 6], 8, [1.0]),
            (build_cubic_model(**BENCH), 1.0, [3, 4, 6], 6, [0.6]),
            (coupled_problem(), 1.0, [3, 5], 7, [0.3, -0.2]),
        ],
        ids=["cubic-theta1", "cubic-theta0.75", "linear-ou-theta1", "linear-ou-theta0.75",
             "reference-is-finest", "two-dim"],
    )
    def test_same_bits_as_one_process(self, monkeypatch, problem, theta, levels, ref, xi):
        # blocks of 160 cells of 2^-8 over (-1, 1), as in the streamed-blocks test
        monkeypatch.setattr(analysis, "_BLOCK_VALUES", 5 * problem.noise_dim * 180)
        args = (problem, theta, levels, ref, 5, -1.0, 1.0)
        pids = forking(monkeypatch)
        split = ms_error(*args, seed=4, xi=xi)
        assert len(pids) == 1
        one_cpu(monkeypatch)
        alone = ms_error(*args, seed=4, xi=xi)
        for name in ("stepsizes", "rms_errors", "stderrs", "level_diffs"):
            assert getattr(split, name).tobytes() == getattr(alone, name).tobytes(), name
        assert np.array([split.fitted_slope, split.intercept]).tobytes() == np.array(
            [alone.fitted_slope, alone.intercept]
        ).tobytes()
        assert split.levels == alone.levels

    @pytest.mark.parametrize(
        "fail_after, error, at",
        [
            ({6: 0.5}, None, "t=0.484375"),
            ({3: 0.375}, None, "t=0.25"),
            ({6: 0.5}, MemoryError("no room"), None),
            ({3: 0.375}, MemoryError("no room"), None),
            # one loop meets level 3 in the block from 0.25 before level 6 in the block from 0.5
            ({3: 0.375, 6: 0.75}, None, "t=0.25"),
            # both in one block, where the loop steps the finer level first, though level 3
            # (or 2) fails at an earlier time
            ({3: 0.375, 6: 0.4375}, None, "t=0.421875"),
            ({2: 0.25, 6: 0.125}, None, "t=0.109375"),
            ({6: 0.125, 4: 0.5}, None, "t=0.109375"),
        ],
        ids=["reference-only", "coarse-only", "reference-memory", "coarse-memory",
             "coarse-in-earlier-block", "reference-first-in-block", "reference-first-in-block-0",
             "reference-in-earlier-block"],
    )
    def test_failure_as_one_process_meets_it(self, monkeypatch, capfd, fail_after, error, at):
        # levels 2, 3, 4 against 6 over (0, 1): blocks of 16 cells, a quarter period each
        monkeypatch.setattr(analysis, "_BLOCK_VALUES", 4 * 16)
        problem = failing(build_linear_model(1.0, 0.3), 1.0, fail_after, error)
        args = (problem, 1.0, [2, 3, 4], 6, 4, 0.0, 1.0)
        raised = []
        for patch in (forking, one_cpu):
            patch(monkeypatch)
            with pytest.raises((NewtonError, MemoryError)) as info:
                ms_error(*args, seed=0, xi=[1.0])
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        if at is not None:
            assert raised[0] == (NewtonError, f"non-finite state after step at {at}")
        else:
            assert raised[0] == (MemoryError, "no room")
        assert capfd.readouterr() == ("", "")

    def test_child_killed_without_result(self, monkeypatch):
        # the reference's stage kills the process that runs it: the child
        stage, runner = build_linear_model(1.0, 0.3).stage, os.getpid()

        def killing(t, c, r):
            if c == 2.0**-6:
                assert os.getpid() != runner, "the reference ran in the test's own process"
                os.kill(os.getpid(), signal.SIGKILL)
            return stage(t, c, r)

        problem = replace(build_linear_model(1.0, 0.3), stage=killing)
        pids = forking(monkeypatch)
        with pytest.raises(ChildProcessError, match="ended without a result"):
            ms_error(problem, 1.0, [2, 3], 6, 4, 0.0, 1.0, seed=0, xi=[1.0])
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pids[0], os.WNOHANG)

    @pytest.mark.parametrize("interrupt", [False, True], ids=["returns", "interrupted"])
    def test_output_once_and_child_reaped(self, interrupt):
        # stdout is a pipe, so block-buffered: "before" is still in the buffer at the fork
        script = f"""
import os
import time
from dataclasses import replace
from rpsde.analysis import ms_error
from rpsde.models import build_linear_model

os.sched_getaffinity = lambda pid: {{0, 1}}
problem = build_linear_model(1.0, 0.3)
stage = problem.stage

def interrupting(t, c, r):
    if {interrupt} and c == 0.25:  # level 2, in the calling process
        raise KeyboardInterrupt
    if {interrupt} and c == 2.0**-8:  # the reference, in the child, which must be killed
        time.sleep(600)
    return stage(t, c, r)

print("before")
try:
    ms_error(replace(problem, stage=interrupting), 1.0, [2, 3], 8, 4, 0.0, 1.0, seed=0)
except KeyboardInterrupt:
    print("interrupted")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")
"""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
        )
        expected = "before\n" + ("interrupted\n" if interrupt else "") + "no child\n"
        assert (done.stdout, done.stderr, done.returncode) == (expected, "", 0)


class TestMomentMonitor:
    def test_zero_noise_decay(self):
        prob = build_linear_model(1.0, 0.0)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        series = moment_monitor(prob, sch, k=3, ensemble=4, seed=0, xi=[1.0])
        rho = 1.0 / (1.0 + 0.25)
        expected = np.array([rho ** (2 * j) for j in range(len(series.times))])
        assert series.second_moment == pytest.approx(expected, rel=1e-10)
        assert not series.growth_flag
        assert all(a >= b for a, b in zip(series.second_moment, series.second_moment[1:]))

    def test_additive_from_zero_bounded(self):
        prob = build_additive_model()
        sch = ThetaScheme(theta=1.0, dt=0.05)
        series = moment_monitor(prob, sch, k=5, ensemble=100, seed=1, xi=[0.0])
        assert not series.growth_flag
        # stationary scale sigma^2/(2 lambda) plus the deterministic periodic part
        assert series.second_moment.max() < 1e-2

    def test_cubic_bounded(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        series = moment_monitor(prob, sch, k=5, ensemble=500, seed=2)
        assert not series.growth_flag

    def test_ensemble_minimum(self):
        prob = build_additive_model()
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError):
            moment_monitor(prob, sch, k=1, ensemble=1, seed=0)

    def test_period_not_multiple_of_dt_rejected(self):
        # two periods of 0.25 are 5 steps of 0.1, but one period is 2.5 steps
        prob = replace(build_linear_model(1.0, 0.1), period=0.25)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match="multiple of the stepsize"):
            moment_monitor(prob, sch, k=2, ensemble=4, seed=0)


class TestNumericalContraction:
    def test_equal_initial_values_rejected(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError):
            numerical_contraction_test(prob, sch, [0.6], [0.6], 2, 10, seed=0)

    @pytest.mark.parametrize("xi, eta", [([0.6, 0.1], [-0.6]), ([0.6], [-0.6, 0.1])])
    def test_shape_checked_before_any_draw(self, monkeypatch, xi, eta):
        def no_draw(*args, **kwargs):
            raise AssertionError("the contraction test drew noise before checking its shapes")

        for drawer in ("rpsde.analysis.ensemble_increments", "rpsde.periodic.ensemble_increments"):
            monkeypatch.setattr(drawer, no_draw)
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match="state_dim is 1"):
            numerical_contraction_test(prob, sch, xi, eta, 2, 10, seed=0)

    def test_deterministic_linear_series(self, monkeypatch):
        monkeypatch.setattr(analysis, "_FLOOR", 1e-9)
        lam, dt = 1.0, 0.25
        prob = build_linear_model(lam, 0.0)
        sch = ThetaScheme(theta=1.0, dt=dt)
        test = numerical_contraction_test(prob, sch, [1.0], [-1.0], 13, 4, seed=0)
        rho = 1.0 / (1.0 + lam * dt)
        expected = 4.0 * rho ** (2 * test.steps.astype(float))
        assert test.gap_series == pytest.approx(expected, rel=1e-9)
        # rho^2 <= first c_delta branch, so the envelope dominates
        assert test.passed

    @pytest.mark.parametrize("lam", [1.0, 20.0, 200.0])
    @pytest.mark.parametrize("theta", [0.51, 0.75, 1.0])
    @pytest.mark.parametrize("dt", [0.05, 0.5])
    def test_linear_gap_series_is_exact(self, lam, theta, dt):
        # additive noise cancels in X - Y, so E|X_j - Y_j|^2 = |xi - eta|^2 R^(2j)
        # with R = (1 - (1 - theta) lam dt) / (1 + theta lam dt)
        prob = catalog_entry("linear_ou", lam=lam).problem
        sch = ThetaScheme(theta=theta, dt=dt)
        test = numerical_contraction_test(prob, sch, [0.6], [-0.6], 4, 50, seed=0)
        r = (1.0 - (1.0 - theta) * lam * dt) / (1.0 + theta * lam * dt)
        oracle = 1.44 * r ** (2.0 * test.steps)
        above = oracle > 1e-8
        assert above[:2].all()
        assert test.gap_series[above] == pytest.approx(oracle[above], rel=1e-12)

    def test_cubic_benchmark_setup(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        test = numerical_contraction_test(prob, sch, [0.6], [-0.6], 15, 200, seed=5)
        assert test.passed
        assert test.gap_series[0] == pytest.approx(1.44)
        assert (test.gap_series.min() <= 1e-12)

    def test_one_batch_equals_two_runs(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[2], len(args[4])))
            return simulate_ensemble(*args, **kwargs)

        monkeypatch.setattr("rpsde.periodic.simulate_ensemble", counting)
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        test = numerical_contraction_test(prob, sch, [0.6], [-0.4], 3, 25, seed=2)
        assert calls == [(-60, 60)]
        incs = ensemble_increments(2, range(25), -60, 60, 1, 0.1)
        _, xs, _ = simulate_ensemble(prob, sch, -60, np.full((25, 1), 0.6), incs)
        _, ys, _ = simulate_ensemble(prob, sch, -60, np.full((25, 1), -0.4), incs)
        gap = np.mean(np.sum((xs - ys) ** 2, axis=-1), axis=0)
        assert np.array_equal(test.gap_series, gap)
