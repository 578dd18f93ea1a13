import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rpsde.integrator import ThetaScheme, simulate_ensemble
from rpsde.models import SdeProblem, build_cubic_model, build_linear_model, catalog_entry
from rpsde.noise import ensemble_increments, generate_uniform
from rpsde.periodic import (
    PullbackError,
    periodicity_check_pullback,
    periodicity_check_shifted,
    pullback_converge,
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
    grid = generate_uniform(seed, 0, dt, (-horizon, horizon), problem.noise_dim)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    curve = [x0[0]]
    for j in range(1, n + 1):
        incs = grid.step_increments(-j * dt, j, dt)[:, None]
        _, final, _ = simulate_ensemble(problem, scheme, 0.0, j, x0, incs, record=False)
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
        start = -k * problem.period
        n_steps = k * steps_per_tau + n_eval
        incs = ensemble_increments(
            seed, range(ensemble), -k * steps_per_tau, n_steps, problem.noise_dim, dt
        )
        _, states, _ = simulate_ensemble(problem, scheme, start, n_steps, x0, incs, record=True)
        final = states[:, -1]
        if prev is not None:
            gaps.append(float(np.sqrt(np.mean(np.sum((final - prev) ** 2, axis=-1)))))
            if gaps[-1] <= tolerance:
                n_keep = min(steps_per_tau, n_steps)
                return dict(
                    k_used=k,
                    l2_gap=gaps[-1],
                    gap_history=gaps,
                    final_ensemble=final,
                    states=states[0, -(n_keep + 1) :],
                    sample_times=t_eval - dt * np.arange(n_keep, -1, -1),
                )
        prev = final
    raise AssertionError("tolerance not met")


class TestPullbackConverge:
    def test_cubic_converges_quickly(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        res = pullback_converge(prob, sch, 0.0, [0.6], 1e-3, 10, 100, seed=4)
        assert res.k_used <= 5
        assert res.l2_gap <= 1e-3
        assert res.final_ensemble.shape == (100, 1)

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

    def test_k_max_exceeded(self):
        prob = build_linear_model(0.01, 0.0)  # very slow contraction
        sch = ThetaScheme(theta=1.0, dt=0.25)
        with pytest.raises(PullbackError) as exc:
            pullback_converge(prob, sch, 0.0, [1.0], 1e-12, 2, 4, seed=0)
        assert np.isfinite(exc.value.last_gap)

    def test_gap_history_monotone_trend(self):
        # slow contraction so the history has several entries before the
        # tolerance is met; tight Newton tolerance keeps paired runs exact
        prob = build_linear_model(2.0, 0.2)
        sch = ThetaScheme(theta=1.0, dt=0.25, newton_tol=1e-13)
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
        for name in ("final_ensemble", "states", "sample_times"):
            assert np.array_equal(getattr(res, name), ref[name]), name

    @staticmethod
    def drawn_cells(monkeypatch, tolerance, k_max):
        """The result (None after PullbackError) and the sorted windows drawn, in cells."""
        windows = []

        def recording(seed, paths, first_cell, n_cells, noise_dim, dt, fine_level=None, out=None):
            assert paths == range(30)
            windows.append((first_cell, first_cell + n_cells))
            return ensemble_increments(seed, paths, first_cell, n_cells, noise_dim, dt, fine_level,
                                       out)

        monkeypatch.setattr("rpsde.periodic.ensemble_increments", recording)
        prob = build_linear_model(1.0, 0.3)
        dt = 0.05
        try:
            res = pullback_converge(prob, ThetaScheme(theta=1.0, dt=dt), 0.35, [0.6], tolerance,
                                    k_max, 30, 1)
        except PullbackError:
            res = None
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
        if res is None:
            assert k_max == 3  # runs out of depths; nothing before -k_max*tau is drawn
        else:
            assert 5 <= res.k_used <= 8
        assert drawn == depths

    def test_memory_within_twice_the_held_cells(self):
        # depth 8 holds 800 cells of 2000 paths; prepending each period with a
        # concatenate peaked at twice that, growing by doubling peaks at 1.5x
        prob = catalog_entry("linear_ou").problem
        tracemalloc.start()
        try:
            res = pullback_converge(prob, ThetaScheme(theta=1.0, dt=0.01), 0.0, [0.6], 1e-3, 20,
                                    2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.k_used == 8
        assert peak < 1.8 * (8 * 100 * 2000 * 8)


def shared_noise_run(problem, scheme, xis, k, seed):
    """Every initial value from -k*tau to 0 under the one noise path 0, as `rpsde simulate` runs them."""
    start = -k * problem.period
    n = round(k * problem.period / scheme.dt)
    incs = ensemble_increments(seed, range(1), -n, n, problem.noise_dim, scheme.dt)
    times, states, _ = simulate_ensemble(problem, scheme, start, n, np.array(xis, dtype=float), incs)
    return times, states


class TestInitialValueIndependence:
    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_cubic_benchmark_setup(self, theta):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=theta, dt=0.1)
        _, states = shared_noise_run(prob, sch, [[0.6], [0.0], [-0.6]], k=5, seed=11)
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
        _, states = shared_noise_run(prob, sch, [[0.6], [0.6]], k=2, seed=0)
        assert np.array_equal(states[0], states[1])

    def test_zero_noise_linear_distance_formula(self):
        lam, dt = 1.0, 0.25
        prob = build_linear_model(lam, 0.0)
        sch = ThetaScheme(theta=1.0, dt=dt)
        k = 4
        times, states = shared_noise_run(prob, sch, [[1.0], [-1.0]], k=k, seed=0)
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

    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_equals_definition(self, theta):
        # P1 from -k*tau under the base noise, read at start; P2 under the
        # noise shifted by -tau, i.e. the base cells one period earlier, read
        # at start - tau
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=theta, dt=0.1)
        k, window, tau, dt = 5, (-6.0, -1.0), prob.period, 0.1
        start = -k * tau
        n = round((window[1] - start) / dt)
        grid = generate_uniform(3, 0, dt, (start - tau, window[1]), prob.noise_dim)
        x0 = np.array([[0.6]])
        _, p1, _ = simulate_ensemble(
            prob, sch, start, n, x0, grid.step_increments(start, n, dt)[:, None]
        )
        _, p2, _ = simulate_ensemble(
            prob, sch, start, n, x0, grid.step_increments(start - tau, n, dt)[:, None]
        )
        rep = periodicity_check_shifted(prob, sch, k=k, xi=[0.6], window=window, seed=3)
        idx = np.arange(round((window[0] - start) / dt), n + 1)
        shift = round(tau / dt)
        assert np.array_equal(rep.reference, p1[0, idx - shift])
        assert np.array_equal(rep.shifted, p2[0, idx])

    @pytest.mark.parametrize(
        "window, match",
        [
            ((-10.0, -9.0), "a <= b and end at least one period"),  # shorter than tau
            ((-2.0, -4.0), "a <= b and end at least one period"),  # reversed
            ((-3.95, 0.0), "grid-aligned"),
            ((-12.0, 0.0), "must lie in"),
        ],
        ids=["within-first-period", "reversed", "misaligned", "before-start"],
    )
    def test_bad_window_rejected(self, window, match):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match=match):
            periodicity_check_shifted(prob, sch, k=5, xi=[0.6], window=window, seed=3)


@pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0])
@pytest.mark.parametrize("check", ["shifted", "pullback"])
def test_threshold_must_be_positive(monkeypatch, check, threshold):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew noise before checking the threshold")

    monkeypatch.setattr("rpsde.periodic.ensemble_increments", no_draw)
    prob = build_cubic_model(**BENCH)
    sch = ThetaScheme(theta=1.0, dt=0.1)
    with pytest.raises(ValueError, match=f"^threshold must be positive, got {threshold}$"):
        if check == "shifted":
            periodicity_check_shifted(prob, sch, 5, [0.6], (-4.0, 0.0), 3, threshold=threshold)
        else:
            periodicity_check_pullback(prob, sch, [-0.2], 4.0, 3, threshold=threshold)


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
        prob = build_linear_model(1.0, 0.1)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        rep = periodicity_check_pullback(prob, sch, [0.5], 0.0, seed=0)
        # the curve is its starting point alone, with nothing to deviate
        assert rep.sup_gap == 0.0
        assert rep.passed
        assert rep.times.tolist() == [0.0] and rep.reference.tolist() == [[0.5]]

    def test_negative_horizon_rejected(self):
        prob = build_linear_model(1.0, 0.1)
        sch = ThetaScheme(theta=1.0, dt=0.25)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
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

        def counting(problem, scheme, t_start, n_steps, x0, increments, record=True):
            calls.append((t_start, n_steps))
            return simulate_ensemble(problem, scheme, t_start, n_steps, x0, increments, record)

        monkeypatch.setattr("rpsde.periodic.simulate_ensemble", counting)
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        periodicity_check_pullback(prob, sch, [-0.2], 4.0, seed=3)
        # one step per grid index, at the same time floats as a 40-step run
        assert calls == [(i * 0.1, 1) for i in range(40)]
