import math
import os
import signal
import time
import tracemalloc
from contextlib import closing
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import forking, one_cpu
from rpsde import periodic
from rpsde.integrator import NewtonError, ThetaScheme, simulate_ensemble
from rpsde.models import SdeProblem, build_cubic_model, build_linear_model, catalog_entry
from rpsde.noise import ensemble_increments, grid_steps
from rpsde.periodic import (
    BURN_IN_PERIODS,
    PullbackResult,
    beside_child,
    periodicity_check_pullback,
    periodicity_check_shifted,
    pullback_converge,
    pullback_paths,
)

BENCH = dict(lam=5 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0)


def contraction_factor(theta, lam, dt):
    """Per-step decay of the deterministic theta recursion for dX = -lam X dt."""
    return (1.0 - (1.0 - theta) * lam * dt) / (1.0 + theta * lam * dt)


def coupled_problem():
    """Two states driven by two noises, coupled through drift and diffusion."""
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    lam = float(np.linalg.eigvalsh(a).min())

    def drift(t, x):
        r2 = np.sum(x * x, axis=-1, keepdims=True)
        return -(1.0 + math.sin(4.0 * math.pi * t)) * r2 * x

    def drift_jacobian(t, x):
        r2 = np.sum(x * x, axis=-1)[..., None, None]
        outer = x[..., :, None] * x[..., None, :]
        return -(1.0 + math.sin(4.0 * math.pi * t)) * (r2 * np.eye(2) + 2.0 * outer)

    def diffusion(t, x):
        g = np.empty(x.shape + (2,))
        g[..., 0, 0] = 0.5 + 0.2 * x[..., 1]
        g[..., 0, 1] = 0.1
        g[..., 1, 0] = -0.1 * x[..., 0]
        g[..., 1, 1] = 0.3 * (1.0 + math.cos(4.0 * math.pi * t))
        return g

    return SdeProblem(
        noise_dim=2,
        linear_matrix=a,
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        period=0.5,
        one_sided_lipschitz=lam / 2,
        moment_exponent=21.0,
        growth_exponent=3.0,
    )


def pullback_curve_by_definition(problem, scheme, x0, horizon, seed):
    """Curve point j on its own: j steps from x0 at time 0 under the noise shifted by -j*dt."""
    dt = scheme.dt
    n = round(horizon / dt)
    cells = ensemble_increments(seed, [0], -n, n, problem.noise_dim, dt)  # (-horizon, 0)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    curve = [x0[0]]
    for j in range(1, n + 1):
        _, final, _ = simulate_ensemble(problem, scheme, 0, x0, cells[n - j :], record=False)
        curve.append(final[0])
    return np.array(curve)


def pullback_by_definition(problem, scheme, t_eval, xi, tolerance, k_max, ensemble, seed):
    """Every depth redraws (-k*tau, t_eval) and records every state of every path."""
    dt = scheme.dt
    steps_per_tau = round(problem.period / dt)
    n_eval = round(t_eval / dt)
    xi = np.asarray(xi, dtype=float)
    x0 = np.broadcast_to(xi, (ensemble, xi.size))
    prev, gaps = None, []
    for k in range(1, k_max + 1):
        first = -k * steps_per_tau
        n_steps = k * steps_per_tau + n_eval
        incs = ensemble_increments(seed, range(ensemble), first, n_steps, problem.noise_dim, dt)
        _, states, _ = simulate_ensemble(problem, scheme, first, x0, incs, record=True)
        final = states[:, -1]
        if prev is not None:
            gaps.append(float(np.sqrt(np.mean(np.sum((final - prev) ** 2, axis=-1)))))
            if gaps[-1] <= tolerance:
                n_keep = min(steps_per_tau, n_steps)
                return dict(
                    k_used=k,
                    l2_gap=gaps[-1],
                    gap_history=gaps,
                    states=states[0, -(n_keep + 1) :],
                    sample_times=dt * np.arange(n_eval - n_keep, n_eval + 1),
                )
        prev = final
    raise AssertionError("tolerance not met")


# the exact series below is cut after this many periods; a^(40N) < 2e-17 where it is used
RPS_PERIODS = 40


def affine_factors(problem, scheme):
    """a and s of one theta step of linear_ou, x_{j+1} = a x_j + s dW_j."""
    lam = float(problem.linear_matrix[0, 0])
    sigma = float(problem.diffusion(0.0, np.zeros((1, 1)))[0, 0, 0])
    theta, h = scheme.theta, scheme.dt
    implicit = 1.0 + theta * lam * h
    return (1.0 - (1.0 - theta) * lam * h) / implicit, sigma / implicit


def exact_rps(problem, scheme, seed, paths, steps):
    """linear_ou's numerical random periodic solution X*_h at the grid steps `steps`.

    X*_h(t_n) = sum_{i>=0} a^i s dW_{n-1-i}, the state at t_n of the scheme run
    from the infinite past, on the cells of paths 0 .. paths-1, cut after
    RPS_PERIODS periods and summed exactly (math.fsum) from its rounded terms.
    Returns the values and the weights sum_i (i + 1) |a^i s dW_{n-1-i}|, both
    (len(steps), paths): a^i is off by about i ulps, and a step's rounding
    reaches t_n scaled by a^i, so eps times a weight bounds the rounding of
    the series and of a run alike.
    """
    a, s = affine_factors(problem, scheme)
    n_terms = RPS_PERIODS * grid_steps(problem.period, scheme.dt, "period")
    first = min(steps) - n_terms
    cells = ensemble_increments(seed, range(paths), first, max(steps) - first, 1, scheme.dt)
    noise = s * cells[:, :, 0]
    powers = a ** np.arange(n_terms)
    values, weights = [], []
    for n in steps:
        # term i reads cell n - 1 - i, row n - 1 - i - first
        terms = powers[:, None] * noise[n - first - 1 :: -1][:n_terms]
        values.append([math.fsum(path) for path in terms.T.tolist()])
        weights.append(np.arange(1, n_terms + 1) @ np.abs(terms))
    return np.array(values), np.array(weights)


def exact_pullback(problem, scheme, seed, paths, xi, first, steps):
    """The runs of paths 0 .. paths-1 from xi at grid step first, at the grid steps `steps`.

    Pathwise, a run differs from X*_h by a^(n - first) (xi - X*_h(t_first)) at
    grid step n. Returns the values and a rounding tolerance of each, from
    exact_rps's weights at both ends and the size of that transient.
    """
    a, _ = affine_factors(problem, scheme)
    values, weights = exact_rps(problem, scheme, seed, paths, [first, *steps])
    n = np.asarray(steps)[:, None] - first
    offset = xi - values[0]
    tol = 8 * np.finfo(float).eps * (
        weights[1:] + a**n * weights[0] + (n + 1) * a ** (n - 1) * np.abs(offset)
    )
    return values[1:] + a**n * offset, tol


# (theta, dt) of the exact pull-back tests: the implicit Euler step, and one with an explicit part
EXACT_SCHEMES = [(1.0, 0.01), (0.75, 0.1)]


class TestPullbackConverge:
    def test_cubic_converges_quickly(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        res = pullback_converge(prob, sch, 0.0, [0.6], 1e-3, 10, 100, seed=4)
        assert res.k_used <= 5
        assert res.l2_gap <= 1e-3

    def test_deterministic_linear_gap_formula(self):
        lam, dt, theta = 1.0, 0.25, 1.0
        prob = build_linear_model(lam, 0.0)
        sch = ThetaScheme(theta=theta, dt=dt)
        xi = 1.0
        tol = 1e-3
        rho = contraction_factor(theta, lam, dt)
        n = round(prob.period / dt)
        # independent oracle: gap between consecutive pull-back depths
        gaps = [abs(xi) * rho ** (k * n) * (1.0 - rho**n) for k in range(1, 60)]
        expected_k = next(k for k, g in enumerate(gaps, start=2) if g <= tol)
        res = pullback_converge(prob, sch, 0.0, [xi], tol, 60, 4, seed=1)
        assert res.k_used == expected_k
        assert res.l2_gap == pytest.approx(gaps[res.k_used - 2], rel=1e-10)

    def test_infinite_tolerance_converges_immediately(self):
        prob = build_linear_model(1.0, 0.1)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        res = pullback_converge(prob, sch, 0.0, [1.0], float("inf"), 5, 4, seed=0)
        assert res.k_used == 1

    def test_one_depth_only_at_infinite_tolerance(self):
        # depth 1 has no gap, so k_max = 1 meets no finite tolerance
        prob = build_linear_model(1.0, 0.1)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        with pytest.raises(ValueError, match="^k_max must be >= 2 for a finite tolerance, got 1$"):
            pullback_converge(prob, sch, 0.0, [1.0], 1e300, 1, 4, seed=0)
        assert pullback_converge(prob, sch, 0.0, [1.0], float("inf"), 1, 4, seed=0).converged

    def test_k_max_exceeded(self):
        prob = build_linear_model(0.01, 0.0)  # very slow contraction
        sch = ThetaScheme(theta=1.0, dt=0.25)
        res = pullback_converge(prob, sch, 0.0, [1.0], 1e-12, 2, 4, seed=0)
        # a failure is a result at the last depth run, with its gap
        assert not res.converged
        assert res.k_used == 2
        assert res.l2_gap == res.gap_history[-1] and np.isfinite(res.l2_gap)

    def test_gap_history_monotone_trend(self):
        # slow contraction so the history has several entries before the tolerance is met
        prob = build_linear_model(2.0, 0.2)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        res = pullback_converge(prob, sch, 0.0, [1.0], 1e-8, 25, 50, seed=7)
        hist = res.gap_history
        assert len(hist) >= 4
        assert hist[-1] < hist[0]
        for a, b in zip(hist, hist[1:]):
            assert b <= a * 1.5  # Monte-Carlo slack


    @pytest.mark.parametrize(
        "problem, xi, t_eval, tolerance",
        [
            (build_cubic_model(**BENCH), [0.6], 0.3, 1e-15),
            (coupled_problem(), [0.3, -0.2], 0.2, 1e-4),
            # 20k - 7 cells at depth k: the buffer grows at k = 2, 3, 4 and 7
            # and has room at k = 5, 6, 8, 9 and 10
            (build_linear_model(1.0, 0.3), [0.6], -0.35, 1e-4),
        ],
        ids=["cubic-theta0.75", "two-dim", "linear-before-zero-to-k10"],
    )
    def test_equals_definition(self, problem, xi, t_eval, tolerance):
        sch = ThetaScheme(theta=0.75, dt=0.05)
        res = pullback_converge(problem, sch, t_eval, xi, tolerance, 12, 20, seed=3)
        ref = pullback_by_definition(problem, sch, t_eval, xi, tolerance, 12, 20, seed=3)
        assert res.k_used == ref["k_used"] >= 3
        if t_eval < 0.0:
            assert res.k_used == 10
        assert res.l2_gap == ref["l2_gap"]
        assert res.gap_history == ref["gap_history"]
        for name in ("states", "sample_times"):
            assert np.array_equal(getattr(res, name), ref[name]), name

    def test_sample_times_are_grid_times(self):
        # the last period, grid steps -17 to 3; t_eval - dt*i put 11 of these 21 off s*dt,
        # grid step 0 at -5.55e-17
        dt = 0.1
        res = pullback_converge(build_cubic_model(**BENCH), ThetaScheme(theta=1.0, dt=dt), 0.3,
                                [0.6], 1e-3, 10, 4, seed=0)
        assert np.array_equal(res.sample_times, dt * np.arange(-17, 4))
        assert res.sample_times[17] == 0.0

    @pytest.mark.parametrize("theta, dt", EXACT_SCHEMES)
    def test_states_equal_the_exact_pullback(self, theta, dt):
        # path 0 over the last period, run from -k*tau at the accepted depth
        prob = catalog_entry("linear_ou").problem
        sch = ThetaScheme(theta=theta, dt=dt)
        res = pullback_converge(prob, sch, 0.0, [0.6], 1e-3, 20, 200, seed=0)
        assert res.converged
        n = round(prob.period / dt)
        steps = np.arange(-n, 1)
        assert np.array_equal(res.sample_times, dt * steps)
        exact, tol = exact_pullback(prob, sch, 0, 1, 0.6, -res.k_used * n, steps)
        assert np.all(np.abs(res.states - exact) <= tol)

    @staticmethod
    def drawn_cells(monkeypatch, tolerance, k_max):
        """The result and the sorted windows drawn, in cells."""
        windows = []

        def recording(seed, paths, first_cell, n_cells, noise_dim, dt, fine_level=None):
            assert paths == range(30)
            windows.append((first_cell, first_cell + n_cells))
            return ensemble_increments(seed, paths, first_cell, n_cells, noise_dim, dt, fine_level)

        monkeypatch.setattr("rpsde.periodic.ensemble_increments", recording)
        prob = build_linear_model(1.0, 0.3)
        dt = 0.05
        res = pullback_converge(prob, ThetaScheme(theta=1.0, dt=dt), 0.35, [0.6], tolerance,
                                k_max, 30, 1)
        cells = sorted(windows)
        # adjacent and never overlapping, the first ending at t_eval
        assert cells[-1][1] == round(0.35 / dt)
        assert all(prev[1] == nxt[0] for prev, nxt in zip(cells, cells[1:]))
        return res, [-a // round(prob.period / dt) for a, _ in cells]

    def test_each_cell_drawn_once(self, monkeypatch):
        res, depths = self.drawn_cells(monkeypatch, 1e-4, 20)
        assert res.k_used == 10
        # each draw doubles the depth: (-2tau, t_eval), (-4tau, -2tau), ...
        assert depths == [16, 8, 4, 2]

    @pytest.mark.parametrize(
        "tolerance, k_max, depths",
        [(1e-3, 20, [8, 4, 2]), (1e-4, 3, [3, 2])],
        ids=["k7-three-draws", "k-max-3-caps-the-last-draw"],
    )
    def test_draws_double_the_depth(self, monkeypatch, tolerance, k_max, depths):
        res, drawn = self.drawn_cells(monkeypatch, tolerance, k_max)
        if not res.converged:
            # runs out of depths; nothing before -k_max*tau is drawn
            assert k_max == 3
            assert res.k_used == k_max and res.l2_gap == res.gap_history[-1]
        else:
            assert 5 <= res.k_used <= 8
        assert drawn == depths

    @staticmethod
    def traced_peak(monkeypatch, cpus, ensemble):
        """The traced peak of the depth loop to k = 8, in this process."""
        cpus(monkeypatch)
        prob = catalog_entry("linear_ou").problem
        tracemalloc.start()
        try:
            res = pullback_converge(prob, ThetaScheme(theta=1.0, dt=0.01), 0.0, [0.6], 1e-3, 20,
                                    ensemble, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.k_used == 8
        return peak

    def test_memory_within_twice_the_held_cells(self, monkeypatch):
        # depth 8 holds its 800 cells of 2000 paths as drawn, 12.8 MB; the peak adds
        # the noise draw's three 0.5 MB chunk arrays (words, bits, normals) and the
        # step's small arrays, 1.17x in all
        peak = self.traced_peak(monkeypatch, one_cpu, 2000)
        assert peak < 1.25 * (8 * 100 * 2000 * 8)

    def test_memory_of_a_split_run_within_its_half(self, monkeypatch):
        # of 4000 paths this process holds the cells of paths 0 .. 1999, 12.8 MB, and the
        # same 1.17x as one process at 2000; all 4000 would be 25.6 MB
        peak = self.traced_peak(monkeypatch, forking, 4000)
        assert peak < 1.25 * (8 * 100 * 2000 * 8)


def split_and_alone(monkeypatch, *args):
    """pullback_converge(*args) with its paths split over two processes, and in one.

    Checks that the split forks once and reaps its child.
    """
    monkeypatch.setattr(periodic, "_SPLIT_PATHS", 2)
    pids = forking(monkeypatch)
    split = pullback_converge(*args)
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(pids[0], os.WNOHANG)
    one_cpu(monkeypatch)
    return split, pullback_converge(*args)


def raised_split_and_alone(monkeypatch, make_problem, *args):
    """(type, message) of what pullback_converge raises split over two processes, and in one.

    make_problem() builds the problem afresh for each run, as its stage may count calls.
    """
    monkeypatch.setattr(periodic, "_SPLIT_PATHS", 2)
    raised = []
    for patch in (forking, one_cpu):
        pids = patch(monkeypatch)
        with pytest.raises(Exception) as info:
            pullback_converge(make_problem(), *args)
        raised.append((type(info.value), str(info.value)))
        if pids is not None:
            assert len(pids) == 1
            with pytest.raises(ChildProcessError):  # reaped
                os.waitpid(pids[0], os.WNOHANG)
    return raised


class TestSplitPaths:
    """At _SPLIT_PATHS paths or more and two CPUs, pullback_converge runs half its paths in a
    forked child, with the bits and the errors of one process."""

    @pytest.mark.parametrize(
        "problem, theta, dt, t_eval, tolerance, k_max, ensemble",
        [
            (catalog_entry("linear_ou").problem, 1.0, 0.01, 0.0, 1e-3, 20, 40),
            (build_cubic_model(**BENCH), 0.75, 0.1, 0.3, 1e-3, 10, 40),
            (catalog_entry("linear_ou").problem, 1.0, 0.05, 0.0, 1e-3, 20, 7),
            (build_linear_model(0.01, 0.3), 1.0, 0.25, 0.0, 1e-12, 3, 8),
            (catalog_entry("linear_ou").problem, 1.0, 0.05, 0.0, float("inf"), 1, 8),
        ],
        ids=["linear-ou-theta1", "cubic-theta0.75-t-eval0.3", "odd-ensemble", "k-max-exhausted",
             "infinite-tolerance-k-max-1"],
    )
    def test_same_bits_as_one_process(self, monkeypatch, problem, theta, dt, t_eval, tolerance,
                                      k_max, ensemble):
        sch = ThetaScheme(theta=theta, dt=dt)
        split, alone = split_and_alone(monkeypatch, problem, sch, t_eval, [0.6], tolerance, k_max,
                                       ensemble, 5)
        assert alone.converged == (k_max != 3)
        for field in fields(PullbackResult):
            a, b = (np.asarray(getattr(r, field.name)) for r in (split, alone))
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name

    @pytest.mark.parametrize(
        "mine, childs, at",
        [(None, 0.5, 10), (0.25, 0.5, 5)],
        ids=["childs-rows", "this-process-first-in-the-depth"],
    )
    def test_nan_from_depth_3_as_one_process_meets_it(self, monkeypatch, mine, childs, at):
        # linear_ou at dt 0.05: 20 steps a period, so depths 1 and 2 take 60 steps. From
        # there the stage fails on paths 0 .. 3 at the stage phase `mine` and on paths
        # 4 .. 7, the child's, at `childs`: in the child, in this process's half, or in one
        # batch of all 8. In the second case the child fails in depth 3 too, after this
        # process, and one batch meets this process's failure
        base, runner = catalog_entry("linear_ou").problem, os.getpid()

        def make_problem():
            calls = []

            def failing_stage(t, c, r):
                calls.append(t)
                y = base.stage(t, c, r).copy()
                if len(calls) > 60:
                    halves = ([(y, childs)] if os.getpid() != runner
                              else [(y[:4], mine), (y[4:], childs)] if len(r) == 8
                              else [(y, mine)])
                    for rows, phase in halves:
                        if phase is not None and abs(t - phase) < 1e-9:
                            rows[:] = np.nan
                return y

            return replace(base, stage=failing_stage)

        args = (ThetaScheme(theta=1.0, dt=0.05), 0.0, [0.6], 1e-12, 10, 8, 0)
        split, alone = raised_split_and_alone(monkeypatch, make_problem, *args)
        assert split == alone
        assert alone == (NewtonError, f"non-finite state after step at t={(at - 61) * 0.05}")

    @pytest.mark.parametrize("seed", [1, 5], ids=["worst-in-childs-half", "worst-in-this-half"])
    def test_newton_stall_as_one_process_meets_it(self, monkeypatch, seed):
        # no path reaches 1e-300, so the first step stalls on most paths. The worst residual
        # over paths 0 .. 7 lies in the child's half, 4 .. 7, at seed 1, and in this
        # process's at seed 5, where the child's own stall has a smaller one
        monkeypatch.setattr("rpsde.integrator._NEWTON_TOL", 1e-300)
        prob = build_cubic_model(**BENCH)
        args = (ThetaScheme(theta=1.0, dt=0.1), 0.0, [0.6], 1e-3, 10)
        one_cpu(monkeypatch)
        with pytest.raises(NewtonError) as half:
            pullback_converge(prob, *args, 4, seed)
        split, alone = raised_split_and_alone(monkeypatch, lambda: prob, *args, 8, seed)
        assert split == alone
        assert alone[0] is NewtonError and alone[1].startswith("Newton failed to reach tolerance")
        assert (str(half.value) == alone[1]) == (seed == 5)

    def test_interrupt_kills_and_reaps_the_child(self, monkeypatch):
        base, runner = catalog_entry("linear_ou").problem, os.getpid()

        def interrupting(t, c, r):
            if os.getpid() == runner:
                raise KeyboardInterrupt
            time.sleep(30)  # the child, which must be killed
            return base.stage(t, c, r)

        statuses, waitpid = [], os.waitpid

        def recording(pid, options):
            done = waitpid(pid, options)
            statuses.append(done[1])
            return done

        monkeypatch.setattr(os, "waitpid", recording)
        monkeypatch.setattr(periodic, "_SPLIT_PATHS", 2)
        pids = forking(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            pullback_converge(replace(base, stage=interrupting), ThetaScheme(theta=1.0, dt=0.05),
                              0.0, [0.6], 1e-3, 10, 8, 0)
        assert len(pids) == 1 and len(statuses) == 1
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL


class TestBesideChild:
    """The fork helper's lifetime: it forks at its first pair and reaps its child once the
    pairs end or are closed."""

    def test_closed_before_its_first_pair_forks_nothing(self, monkeypatch):
        pids = forking(monkeypatch)
        with closing(beside_child(iter(range(3)), iter(range(3)), paced=True)):
            pass
        assert pids == []

    @pytest.mark.parametrize("paced", [True, False])
    def test_mine_ending_first_kills_and_reaps_the_child(self, monkeypatch, paced):
        def endless():  # the child never ends by itself
            while True:
                yield "theirs"

        statuses, waitpid = [], os.waitpid

        def recording(pid, options):
            done = waitpid(pid, options)
            statuses.append(done[1])
            return done

        monkeypatch.setattr(os, "waitpid", recording)
        pids = forking(monkeypatch)
        with closing(beside_child(iter(range(3)), endless(), paced)) as pairs:
            assert list(pairs) == [(0, "theirs"), (1, "theirs"), (2, "theirs")]
            assert len(pids) == 1 and len(statuses) == 1  # before the with block closes it
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pids[0], os.WNOHANG)


class TestPullbackPaths:
    def test_one_path_is_shared_without_a_copy(self, monkeypatch):
        seen = []

        def recording(problem, scheme, first_step, x0, increments, record=True):
            seen.append(increments)
            return simulate_ensemble(problem, scheme, first_step, x0, increments, record)

        monkeypatch.setattr("rpsde.periodic.simulate_ensemble", recording)
        prob = build_cubic_model(**BENCH)
        pullback_paths(prob, ThetaScheme(theta=1.0, dt=0.1), [0.6, 0.0, -0.6], 2, 0.0, seed=0)
        (incs,) = seen
        assert incs.shape == (40, 3, 1)
        assert incs.strides[1] == 0

    def test_rows_are_starts_by_paths(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        starts = [[0.6], [0.0], [-0.6]]
        times, states, _ = pullback_paths(prob, sch, starts, 1, 0.5, seed=4, ensemble=2)
        assert states.shape == (6, 26, 1)
        incs = ensemble_increments(4, range(2), -20, 25, 1, 0.1)
        for s, x0 in enumerate(starts):
            for e in range(2):
                alone_times, alone, _ = simulate_ensemble(prob, sch, -20, [x0], incs[:, e : e + 1])
                assert np.array_equal(states[2 * s + e], alone[0])
        assert np.array_equal(times, alone_times)

    @pytest.mark.parametrize("theta, dt", EXACT_SCHEMES)
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_paths_equal_the_exact_pullback(self, theta, dt, k):
        # every start on 200 paths, at each period's end from -k*tau to 0
        prob = catalog_entry("linear_ou").problem
        sch = ThetaScheme(theta=theta, dt=dt)
        starts = [0.6, -1.0]
        _, states, _ = pullback_paths(prob, sch, [[x] for x in starts], k, 0.0, seed=2,
                                      ensemble=200)
        n = round(prob.period / dt)
        at = np.arange(0, k * n + 1, n)
        for i, xi in enumerate(starts):
            exact, tol = exact_pullback(prob, sch, 2, 200, xi, -k * n, at - k * n)
            got = states[200 * i : 200 * (i + 1), at, 0].T
            assert np.all(np.abs(got - exact) <= tol)


class TestInitialValueIndependence:
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_cubic_benchmark_setup(self, theta):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=theta, dt=0.1)
        _, states, _ = pullback_paths(prob, sch, [[0.6], [0.0], [-0.6]], 5, 0.0, seed=11)
        # after a burn-in of two periods
        settled = states[:, 2 * round(prob.period / sch.dt) :]
        sup = max(
            float(np.linalg.norm(settled[i] - settled[j], axis=-1).max())
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert sup <= 1e-3

    def test_identical_initial_values(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        _, states, _ = pullback_paths(prob, sch, [[0.6], [0.6]], 2, 0.0, seed=0)
        assert np.array_equal(states[0], states[1])

    def test_zero_noise_linear_distance_formula(self):
        lam, dt = 1.0, 0.25
        prob = build_linear_model(lam, 0.0)
        sch = ThetaScheme(theta=1.0, dt=dt)
        k = 4
        times, states, _ = pullback_paths(prob, sch, [[1.0], [-1.0]], k, 0.0, seed=0)
        rho = contraction_factor(1.0, lam, dt)
        for t, a, b in zip(times, states[0], states[1]):
            j = round((t + k * prob.period) / dt)
            assert abs(a[0] - b[0]) == pytest.approx(2.0 * rho**j, rel=1e-12, abs=1e-300)


class TestPeriodicityShifted:
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_cubic_benchmark_setup(self, theta):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=theta, dt=0.1)
        rep = periodicity_check_shifted(prob, sch, k=5, xi=[0.6], window=(-4.0, 0.0), seed=3)
        assert rep.passed
        assert rep.sup_gap <= 1e-2

    def test_deterministic_model_gap_contracts(self):
        # g = 0: the shifted run equals a one-period-deeper pull-back, so the
        # gap is bounded by the contracted initial spread
        lam, dt, k = 2.0, 0.25, 6
        prob = build_linear_model(lam, 0.0)
        sch = ThetaScheme(theta=1.0, dt=dt)
        rep = periodicity_check_shifted(prob, sch, k=k, xi=[1.0], window=(-2.0, 0.0), seed=0)
        rho = contraction_factor(1.0, lam, dt)
        # gap at time t is rho^{(t - tau + k tau)/dt} (1 - rho^{tau/dt}); the
        # supremum over the window sits at its left edge
        j_min = round((-2.0 - prob.period + k * prob.period) / dt)
        bound = rho**j_min
        assert 0.0 < rep.sup_gap <= bound * (1.0 + 1e-10)

    @pytest.mark.parametrize(
        "theta, window",
        [(0.75, (-6.0, -1.0)), (1.0, (-6.0, -1.0)), (1.0, (-10.0, -1.0))],
        ids=["0.75", "1.0", "1.0-from-start"],
    )
    def test_equals_definition(self, theta, window):
        # P1 from -k*tau under the base noise, read at start; P2 under the
        # noise shifted by -tau, i.e. the base cells one period earlier, read
        # at start - tau. Only samples 2 periods after -k*tau are reported.
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=theta, dt=0.1)
        k, tau, dt = 5, prob.period, 0.1
        start = -k * tau
        first, shift = round(start / dt), round(tau / dt)
        n = round((window[1] - start) / dt)
        cells = ensemble_increments(3, [0], first - shift, shift + n, prob.noise_dim, dt)
        x0 = np.array([[0.6]])
        times, p1, _ = simulate_ensemble(prob, sch, first, x0, cells[shift:])
        _, p2, _ = simulate_ensemble(prob, sch, first, x0, cells[:n])
        rep = periodicity_check_shifted(prob, sch, k=k, xi=[0.6], window=window, seed=3)
        idx = np.arange(max(round((window[0] - start) / dt), BURN_IN_PERIODS * shift), n + 1)
        assert np.array_equal(rep.times, times[idx])
        assert np.array_equal(rep.reference, p1[0, idx - shift])
        assert np.array_equal(rep.shifted, p2[0, idx])
        assert rep.sup_gap == np.abs(p2[0, idx] - p1[0, idx - shift]).max()

    @pytest.mark.parametrize(
        "k, window, match",
        [
            (5, (-10.0, -9.0), "a <= b and end at least 2 periods"),  # shorter than tau
            (5, (-2.0, -4.0), "a <= b and end at least 2 periods"),  # reversed
            # ends 1.5 periods after -k*tau, so no pair lies past the burn-in
            (5, (-10.0, -7.0), "a <= b and end at least 2 periods"),
            (5, (-3.95, 0.0), "grid-aligned"),
            (5, (-12.0, 0.0), "must lie in"),
            # the window lies in [-k*tau, 0], so k = 1 leaves no pair past the burn-in
            # whatever the window: the message names k
            (1, (-2.0, 0.0), f"k must be >= {BURN_IN_PERIODS}, got 1"),
        ],
        ids=["within-first-period", "reversed", "within-burn-in", "misaligned", "before-start",
             "k-within-burn-in"],
    )
    def test_bad_window_rejected(self, k, window, match):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match=match):
            periodicity_check_shifted(prob, sch, k=k, xi=[0.6], window=window, seed=3)


class TestPeriodicityPullback:
    def test_cubic_benchmark_setup(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        rep = periodicity_check_pullback(prob, sch, [-0.2], 10.0, seed=3)
        assert rep.passed
        assert rep.sup_gap <= 1e-2

    def test_deterministic_deviation_decays(self):
        prob = build_linear_model(2.0, 0.0)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        rep = periodicity_check_pullback(prob, sch, [1.0], 6.0, seed=0)
        # zero noise: curve(t) = x0 * rho^{t/dt}, so the period deviation is
        # rho^j (1 - rho^n) exactly and shrinks geometrically
        rho = contraction_factor(1.0, 2.0, 0.25)
        n = round(prob.period / sch.dt)
        devs = np.linalg.norm(rep.reference[n:] - rep.reference[:-n], axis=-1)
        expected = (1.0 - rho**n) * rho ** np.arange(devs.size)
        assert devs == pytest.approx(expected, rel=1e-10)

    def test_period_of_whole_steps_accepted(self):
        # three periods of 0.1 at dt 0.01; a float `horizon % period` test
        # rejects this horizon
        prob = replace(build_linear_model(2.0, 0.0), period=0.1)
        sch = ThetaScheme(theta=1.0, dt=0.01)
        rep = periodicity_check_pullback(prob, sch, [1.0], 0.3, seed=0)
        assert rep.reference.shape == (31, 1)
        # zero noise: curve(t) = rho^{t/dt}; the deviation after one period
        # peaks at t = tau
        rho = contraction_factor(1.0, 2.0, 0.01)
        assert rep.sup_gap == pytest.approx(rho**10 * (1.0 - rho**10), rel=1e-10)

    def test_period_not_multiple_of_dt_rejected(self):
        # a period of 2.5 steps would be compared against a 2-step shift
        prob = replace(build_linear_model(1.0, 0.1), period=0.25)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match="multiple of the stepsize"):
            periodicity_check_pullback(prob, sch, [0.6], 0.5, seed=0)

    def test_zero_horizon_degenerate(self):
        # at 0 and at one period no pair of the curve ends past the burn-in
        prob = build_linear_model(1.0, 0.1)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        for horizon in (0.0, prob.period):
            message = f"horizon must be at least 2 periods, got {horizon}"
            with pytest.raises(ValueError, match=message):
                periodicity_check_pullback(prob, sch, [0.5], horizon, seed=0)

    def test_negative_horizon_rejected(self):
        prob = build_linear_model(1.0, 0.1)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        with pytest.raises(ValueError, match="horizon must be at least 2 periods, got -2.0"):
            periodicity_check_pullback(prob, sch, [0.5], -2.0, seed=0)

    @pytest.mark.parametrize(
        "problem, dt, x0, horizon",
        [
            (build_cubic_model(**BENCH), 0.1, [-0.2], 4.0),
            (coupled_problem(), 0.05, [0.4, -0.3], 1.0),
        ],
        ids=["cubic", "two-dim"],
    )
    def test_sweep_equals_definition(self, problem, dt, x0, horizon):
        sch = ThetaScheme(theta=0.75, dt=dt)
        rep = periodicity_check_pullback(problem, sch, x0, horizon, seed=5)
        expected = pullback_curve_by_definition(problem, sch, x0, horizon, seed=5)
        assert rep.reference.shape == expected.shape
        assert np.array_equal(rep.reference, expected)

    def test_one_sweep_of_n_steps(self, monkeypatch):
        calls = []

        def counting(problem, scheme, first_step, x0, increments, record=True):
            calls.append((first_step, len(increments)))
            return simulate_ensemble(problem, scheme, first_step, x0, increments, record)

        monkeypatch.setattr("rpsde.periodic.simulate_ensemble", counting)
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        periodicity_check_pullback(prob, sch, [-0.2], 4.0, seed=3)
        # one step per grid index, from grid step i as in a 40-step run
        assert calls == [(i, 1) for i in range(40)]


class TestPeriodicityExact:
    """Both periodicity checks of linear_ou against its exact solution, row by row."""

    @pytest.mark.parametrize("theta, dt", EXACT_SCHEMES)
    def test_shifted_rows_equal_the_exact_gap(self, theta, dt):
        # P1 runs from first = -k*N and P2 reads the cells one period earlier, so P2 is the
        # run from first - N: row i after first is P2 - P1 = a^i (xi - X*_h(first - N))
        # - a^(i-N) (xi - X*_h(first)), and each run is within exact_pullback's tolerance
        prob = catalog_entry("linear_ou").problem
        sch = ThetaScheme(theta=theta, dt=dt)
        k, xi, seed = 4, 0.6, 3
        n = grid_steps(prob.period, dt, "period")
        first = -k * n
        rep = periodicity_check_shifted(prob, sch, k, [xi], (-k * prob.period, 0.0), seed)
        i = np.arange(BURN_IN_PERIODS * n, k * n + 1)
        assert np.array_equal(rep.times, dt * (first + i))
        a, _ = affine_factors(prob, sch)
        rps, _ = exact_rps(prob, sch, seed, 1, [first - n, first])
        exact = a**i * (xi - rps[0, 0]) - a ** (i - n) * (xi - rps[1, 0])
        _, tol2 = exact_pullback(prob, sch, seed, 1, xi, first - n, first - n + i)
        _, tol1 = exact_pullback(prob, sch, seed, 1, xi, first, first + i - n)
        tol = (tol1 + tol2)[:, 0] + np.finfo(float).eps * np.abs(exact)
        assert np.all(np.abs((rep.shifted - rep.reference)[:, 0] - exact) <= tol)
        assert abs(rep.sup_gap - np.abs(exact).max()) <= tol.max()

    @pytest.mark.parametrize("theta, dt", EXACT_SCHEMES)
    def test_pullback_curve_equals_the_exact_sums(self, theta, dt):
        # point j is j steps from x0 under the cells of (-j*dt, 0):
        # curve[j] = a^j x0 + sum_{l<j} a^l s dW(cell -1-l), summed exactly (math.fsum) from
        # its rounded terms, with a tolerance of 8 eps times the weights of exact_rps
        prob = catalog_entry("linear_ou").problem
        sch = ThetaScheme(theta=theta, dt=dt)
        x0, seed = -0.2, 3
        n = grid_steps(prob.period, dt, "period")
        n_total = 5 * n
        rep = periodicity_check_pullback(prob, sch, [x0], 5 * prob.period, seed)
        a, s = affine_factors(prob, sch)
        cells = ensemble_increments(seed, range(1), -n_total, n_total, 1, dt)[::-1, 0, 0]
        terms = (a ** np.arange(n_total) * (s * cells)).tolist()  # term l reads cell -1-l
        j = np.arange(n_total + 1)
        curve = np.array([math.fsum([a**jj * x0, *terms[:jj]]) for jj in j])
        weights = np.concatenate([[0.0], np.cumsum((j[1:]) * np.abs(terms))])
        tol = 8 * np.finfo(float).eps * (weights + (j + 1) * a ** (j - 1.0) * abs(x0))
        assert np.all(np.abs(rep.reference[:, 0] - curve) <= tol)
        # curve[j + N] - curve[j], from its own terms, over the pairs past the burn-in
        js = j[(BURN_IN_PERIODS - 1) * n : -n]
        dev = np.array([math.fsum([a ** (jj + n) * x0, -(a**jj) * x0, *terms[jj : jj + n]])
                        for jj in js])
        dev_tol = tol[js] + tol[js + n] + np.finfo(float).eps * np.abs(dev)
        assert abs(rep.sup_gap - np.abs(dev).max()) <= dev_tol.max()
