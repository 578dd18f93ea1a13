import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from rpsde import integrator
from rpsde.integrator import NewtonError, ThetaScheme, simulate_ensemble
from rpsde.models import (
    SdeProblem,
    build_additive_model,
    build_cubic_model,
    build_linear_model,
    catalog_entry,
)
from rpsde.noise import ensemble_increments, grid_steps
from test_periodic import coupled_problem

BENCH = dict(lam=5 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0)


def exact_linear_step(lam, sigma, scheme, x, dw):
    """Closed-form theta step for dX = -lam X dt + sigma dW, the oracle of the Newton stage."""
    return (x * (1.0 - (1.0 - scheme.theta) * lam * scheme.dt) + sigma * dw) / (
        1.0 + scheme.theta * lam * scheme.dt
    )


def one_step(prob, sch, step, x, dw):
    """One theta step from grid step `step` of the states x (batch, d) under dw (batch, m)."""
    dw = np.asarray(dw, dtype=float)[None]
    return simulate_ensemble(prob, sch, step, x, dw, record=False)[1]


def worst_residual(exc):
    """The worst residual that a NewtonError's message names."""
    return float(re.fullmatch(r".* \(worst residual (\S+)\)", str(exc)).group(1))


def newton_linear_problem(lam, sigma):
    """build_linear_model without its own stage, so Newton solves the stage."""
    return replace(build_linear_model(lam, sigma), stage=None)


def diagonal_pair_problem():
    """A d = 2 problem: diagonal A, a drift free of the state, and its own stage."""
    diag = np.array([2.0, 5.0])

    def forcing(t):
        return np.array([math.sin(2.0 * math.pi * t), 0.5 * math.cos(2.0 * math.pi * t)])

    return SdeProblem(
        noise_dim=2,
        linear_matrix=np.diag(diag),
        drift=lambda t, x: np.zeros(x.shape) + forcing(t),
        drift_jacobian=lambda t, x: np.zeros(x.shape + (2,)),
        diffusion=lambda t, x: np.zeros(x.shape + (2,)) + np.diag([0.3, 0.1]),
        period=1.0,
        one_sided_lipschitz=1e-3,
        moment_exponent=21.0,
        growth_exponent=1.0,
        # each component's stage is its own division
        stage=lambda t, c, r: (r + c * forcing(t)) / (1.0 + c * diag),
    )


def cubic_like_problem(lam):
    """Scalar problem with drift -x^3 and negligible linear part, for root tests."""
    return SdeProblem(
        noise_dim=1,
        linear_matrix=np.array([[lam]]),
        drift=lambda t, x: -(x**3),
        drift_jacobian=lambda t, x: (-3.0 * x**2)[..., None],
        diffusion=lambda t, x: np.ones(x.shape + (1,)),
        period=1.0,
        one_sided_lipschitz=lam / 2,
        moment_exponent=21.0,
        growth_exponent=3.0,
    )


def pow_cubic_problem():
    """The catalog cubic model with its cube written x**3, as the golden bits were recorded."""
    lam, a, b, c, dcoef = BENCH["lam"], BENCH["a"], BENCH["b"], BENCH["c"], BENCH["dcoef"]

    def drift(t, x):
        return -a * x**3 * (1.0 + math.sin(math.pi * t))

    def drift_jacobian(t, x):
        return (-3.0 * a * x**2 * (1.0 + math.sin(math.pi * t)))[..., None]

    def diffusion(t, x):
        return (b + c * x + dcoef * x**2 * (1.0 + math.sin(math.pi * t)))[..., None]

    return SdeProblem(
        noise_dim=1,
        linear_matrix=np.array([[lam]]),
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        period=2.0,
        one_sided_lipschitz=3.0 * c**2 * (BENCH["pstar"] - 1.0),
        moment_exponent=BENCH["pstar"],
        growth_exponent=3.0,
    )


class TestThetaScheme:
    @pytest.mark.parametrize("theta", [0.5, 0.4, 1.01, 0.0])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError):
            ThetaScheme(theta=theta, dt=0.1)

    @pytest.mark.parametrize("dt", [0.0, 1.0, -0.1, 1.5])
    def test_dt_range(self, dt):
        with pytest.raises(ValueError):
            ThetaScheme(theta=1.0, dt=dt)

    def test_fields_are_theta_and_dt(self):
        # Newton's tolerance and iteration cap are the solver's constants, not a run's settings
        assert [f.name for f in fields(ThetaScheme)] == ["theta", "dt"]


class TestImplicitStep:
    # with dw = 0 and theta = 1, one step solves the implicit stage
    # y + theta*dt*(A y - f(t, y)) = x_j from the guess x_j

    def test_linear_scalar(self):
        # theta=1, dt=0.5, A=1, f=0, rhs=1 -> y = 1/(1+0.5) = 2/3
        prob = build_linear_model(1.0, 0.0)
        sch = ThetaScheme(theta=1.0, dt=0.5)
        y = one_step(prob, sch, 0, np.array([[1.0]]), np.zeros((1, 1)))[0]
        assert y[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_cubic_root(self, monkeypatch):
        # y + 0.1 y^3 = 1.1 has root y = 1; linear part negligible
        monkeypatch.setattr(integrator, "_NEWTON_TOL", 1e-12)
        prob = cubic_like_problem(1e-9)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        y = one_step(prob, sch, 0, np.array([[1.1]]), np.zeros((1, 1)))[0]
        assert y[0] == pytest.approx(1.0, abs=1e-8)

    def test_zero_fixed_point(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        y = one_step(prob, sch, 0, np.zeros((1, 1)), np.zeros((1, 1)))[0]
        assert y[0] == 0.0

    def test_nonfinite_rhs_rejected(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(NewtonError):
            one_step(prob, sch, 0, np.array([[np.nan]]), np.zeros((1, 1)))

    @pytest.mark.parametrize("theta", [1.0, 0.75])
    def test_nan_residual_rejected(self, theta):
        # a NaN residual used to compare as converged and return x unchanged
        prob = replace(newton_linear_problem(1.0, 0.3), drift=lambda t, x: np.full_like(x, np.nan))
        sch = ThetaScheme(theta=theta, dt=0.1)
        with pytest.raises(NewtonError):
            one_step(prob, sch, 0, np.array([[0.5]]), np.zeros((1, 1)))

    @pytest.mark.parametrize("theta", [1.0, 0.75])
    def test_nonfinite_model_stage_rejected(self, theta):
        prob = replace(build_linear_model(1.0, 0.3), stage=lambda t, c, r: np.full_like(r, np.nan))
        sch = ThetaScheme(theta=theta, dt=0.1)
        with pytest.raises(NewtonError, match="^non-finite state after step at t=0.0$"):
            one_step(prob, sch, 0, np.array([[0.5], [0.1]]), np.zeros((2, 1)))

    def test_nonconvergence_error_carries_residual(self):
        # from 1e11 Newton stalls at the rounding floor of the residual, one ulp of
        # 1e11 (2^-16), above the tolerance; more iterations never lower it
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        msg = "^Newton failed to reach tolerance 1e-05 in 50 iterations "
        with pytest.raises(NewtonError, match=msg) as exc:
            one_step(prob, sch, 0, np.array([[1e11]]), np.zeros((1, 1)))
        assert worst_residual(exc.value) == pytest.approx(2.0**-16, rel=1e-5)

    def test_frozen_row_keeps_out_of_the_residual(self):
        # row 0 is at its root from the start and stays frozen while row 1 fails
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        residuals = []
        for x in ([[1e11]], [[0.0], [1e11]]):
            with pytest.raises(NewtonError) as exc:
                one_step(prob, sch, 0, np.array(x), np.zeros((len(x), 1)))
            residuals.append(worst_residual(exc.value))
        assert residuals[1] == residuals[0]

    def test_overflow_beside_a_frozen_row_rejected(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NewtonError):
            one_step(prob, sch, 0, np.array([[0.0], [1e200]]), np.zeros((2, 1)))


class TestStep:
    def test_linear_decay(self):
        # theta=1, f=0, g=0: x' = x/(1+lam*dt); lam=1, dt=0.5, x=2 -> 4/3
        prob = build_linear_model(1.0, 0.0)
        sch = ThetaScheme(theta=1.0, dt=0.5)
        x = one_step(prob, sch, 0, np.array([[2.0]]), np.array([[0.0]]))[0]
        assert x[0] == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_equilibrium_preserved(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        x = one_step(prob, sch, 3, np.zeros((1, 1)), np.zeros((1, 1)))[0]
        # f(t,0) = 0 but g(t,0) = b, so only the dW=0 part keeps x near 0
        assert abs(x[0]) < 1e-10

    def test_additive_scheme_is_affine(self):
        prob = build_additive_model()
        sch = ThetaScheme(theta=0.75, dt=0.125)
        step = 2  # t = 0.25

        def s(x, dw):
            return one_step(prob, sch, step, np.array([[x]]), np.array([[dw]]))[0, 0]

        base = s(0.0, 0.0)
        lhs = s(0.3 + -0.7, 0.2 + 0.05) - base
        rhs = (s(0.3, 0.2) - base) + (s(-0.7, 0.05) - base)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestExactLinearStep:
    def test_closed_form(self):
        sch = ThetaScheme(theta=1.0, dt=0.5)
        assert exact_linear_step(1.0, 0.0, sch, 1.0, 0.0) == pytest.approx(2.0 / 3.0)

    def test_zero_preserved(self):
        sch = ThetaScheme(theta=0.6, dt=0.2)
        assert exact_linear_step(3.0, 0.5, sch, 0.0, 0.0) == 0.0

    def test_agreement_with_newton(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.uniform(0.51, 1.0)
            dt = rng.uniform(0.01, 0.9)
            lam = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.0, 1.0)
            x = rng.normal()
            dw = rng.normal() * math.sqrt(dt)
            prob = newton_linear_problem(lam, sigma)
            sch = ThetaScheme(theta=theta, dt=dt)
            exact = exact_linear_step(lam, sigma, sch, x, dw)
            num = one_step(prob, sch, 0, np.array([[x]]), np.array([[dw]]))[0, 0]
            assert num == pytest.approx(exact, abs=1e-10)


class TestSimulatePath:
    def test_empty_iteration(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        x0, incs = np.array([[0.6]]), np.zeros((0, 1, 1))
        times, states, iters = simulate_ensemble(prob, sch, 0, x0, incs)
        assert times.tolist() == [0.0]
        assert states.shape == (1, 1, 1) and states[0, 0, 0] == 0.6
        assert iters.size == 0

    def test_linear_oracle_recursion(self):
        lam, sigma = 2.0, 0.3
        prob = newton_linear_problem(lam, sigma)
        sch = ThetaScheme(theta=0.8, dt=2.0**-6)
        n = 1000
        incs = ensemble_increments(9, [0], 0, n, 1, sch.dt, fine_level=6)
        _, states, _ = simulate_ensemble(prob, sch, 0, np.array([[1.0]]), incs, record=True)
        incs = incs[:, 0]
        x = 1.0
        for j in range(n):
            x = exact_linear_step(lam, sigma, sch, x, incs[j, 0])
        assert states[0, -1, 0] == pytest.approx(x, abs=1e-12)

    # (3, 1): one noise path is no longer broadcast to a batch of 3
    @pytest.mark.parametrize("x_batch, inc_batch", [(1, 3), (2, 3), (3, 1)])
    def test_increment_batch_mismatch_rejected(self, x_batch, inc_batch):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match="increments have shape"):
            simulate_ensemble(prob, sch, 0, np.zeros((x_batch, 1)), np.zeros((2, inc_batch, 1)))

    # a flat batch, one path with two components, and a single state
    @pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
    def test_initial_state_shape_rejected(self, shape):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        message = re.escape(f"initial state has shape {shape}; the model's state_dim is 1")
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_ensemble(prob, sch, 0, np.zeros(shape), np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("first_step", [0.0, -1.5, np.float64(2.0)])
    def test_float_first_step_rejected(self, first_step):
        # grid time is an integer step; a float start is refused, not rounded
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(TypeError):
            simulate_ensemble(prob, sch, first_step, np.zeros((1, 1)), np.zeros((2, 1, 1)))

    def test_deterministic_replay(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        incs = ensemble_increments(4, [2], -40, 40, 1, 0.1)
        x0 = np.array([[0.6]])
        _, a, a_iters = simulate_ensemble(prob, sch, -40, x0, incs)
        _, b, b_iters = simulate_ensemble(prob, sch, -40, x0, incs)
        assert np.array_equal(a, b)
        assert np.array_equal(a_iters, b_iters)

    def test_newton_iteration_budget(self):
        # residual tolerance 1e-5; median iteration count <= 5 at dt = 0.1
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        incs = ensemble_increments(12, [0], -100, 100, 1, 0.1)
        x0 = np.array([[0.6]])
        _, _, iters = simulate_ensemble(prob, sch, -100, x0, incs)
        assert np.median(iters) <= 5


class TestGridTime:
    """A step's time is a function of its absolute grid step alone.

    Sixty steps of 0.1 from grid step -37 at theta = 0.75, so the explicit half
    runs, on the catalog cubic (period 2, Newton's stage) and on the d = m = 2
    coupled problem (period 0.5).
    """

    PROBLEMS = pytest.mark.parametrize(
        "make, x0",
        [
            (lambda: build_cubic_model(**BENCH), [[0.6], [-1.2], [3.0]]),
            (coupled_problem, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2]]),
        ],
        ids=["cubic", "two-dim"],
    )
    SCHEME, FIRST, N = ThetaScheme(theta=0.75, dt=0.1), -37, 60

    @PROBLEMS
    def test_split_run_keeps_its_bits(self, make, x0):
        prob = make()
        incs = ensemble_increments(4, range(len(x0)), self.FIRST, self.N, prob.noise_dim, 0.1)
        whole = simulate_ensemble(prob, self.SCHEME, self.FIRST, np.array(x0), incs)
        # step -20 is t = -2, a period boundary of both problems
        bounds = [self.FIRST, -30, -20, -9, 6, self.FIRST + self.N]
        x, times, states, iters = np.array(x0), [], [], []
        for a, b in zip(bounds, bounds[1:]):
            rows = incs[a - self.FIRST : b - self.FIRST]
            t, piece, it = simulate_ensemble(prob, self.SCHEME, a, x, rows)
            times.append(t[1:] if times else t)
            states.append(piece[:, 1:] if states else piece)
            iters.append(it)
            x = piece[:, -1]
        assert np.concatenate(times).tobytes() == whole[0].tobytes()
        assert np.concatenate(states, axis=1).tobytes() == whole[1].tobytes()
        assert np.concatenate(iters).tobytes() == whole[2].tobytes()

    @PROBLEMS
    def test_stage_time_is_the_next_steps_time(self, make, x0):
        prob = make()
        # per step: the explicit drift, the diffusion at the same time, then Newton's drifts
        calls = []

        def drift(t, x):
            calls.append(("drift", t))
            return prob.drift(t, x)

        def diffusion(t, x):
            calls.append(("diffusion", t))
            return prob.diffusion(t, x)

        wrapped = replace(prob, drift=drift, diffusion=diffusion)
        incs = ensemble_increments(4, range(len(x0)), self.FIRST, self.N, prob.noise_dim, 0.1)
        simulate_ensemble(wrapped, self.SCHEME, self.FIRST, np.array(x0), incs, record=False)
        marks = [i for i, (name, _) in enumerate(calls) if name == "diffusion"]
        assert len(marks) == self.N
        explicit = [calls[i - 1][1].hex() for i in marks]
        assert [calls[i][1].hex() for i in marks] == explicit
        for j in range(self.N - 1):
            stage = {t.hex() for _, t in calls[marks[j] + 1 : marks[j + 1] - 1]}
            assert stage == {explicit[j + 1]}


class TestEnsembleConsistency:
    @pytest.mark.parametrize(
        "make, theta, dt, x0",
        [
            (lambda: build_cubic_model(**BENCH), 0.75, 0.1, [[0.6], [0.0], [-0.6], [0.3]]),
            (lambda: build_cubic_model(**BENCH), 1.0, 0.25, [[5.0], [0.6], [-0.3], [-3.0]]),
            (coupled_problem, 0.75, 0.05, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2], [0.0, 0.0]]),
            (build_additive_model, 0.75, 0.1, [[0.6], [0.0], [-0.6], [0.3]]),
        ],
        ids=["cubic-theta0.75", "cubic-theta1", "two-dim-theta0.75", "additive-closed-form"],
    )
    def test_batched_equals_single(self, make, theta, dt, x0):
        prob = make()
        sch = ThetaScheme(theta=theta, dt=dt)
        n = 20
        first = grid_steps(-2.0, dt, "start")
        incs = np.stack(
            [
                ensemble_increments(3, [p], first, n, prob.noise_dim, dt)[:, 0]
                for p in range(len(x0))
            ],
            axis=1,
        )
        x0 = np.array(x0)
        _, batched, batched_iters = simulate_ensemble(prob, sch, first, x0, incs, record=True)
        single_iters = []
        for p in range(len(x0)):
            _, single, iters = simulate_ensemble(
                prob, sch, first, x0[p : p + 1], incs[:, p : p + 1], record=True
            )
            assert np.array_equal(batched[p], single[0])
            single_iters.append(iters)
        single_iters = np.array(single_iters)
        if prob.stage is not None:
            # the model's own stage takes no Newton iteration
            assert not single_iters.any()
        else:
            # paths converge at different iterations, so the batch ran Newton
            # iterations in which some of its rows were frozen
            assert (single_iters.min(axis=0) < single_iters.max(axis=0)).any()
        assert np.array_equal(batched_iters, single_iters.max(axis=0))


    @pytest.mark.parametrize(
        "make, theta",
        [
            (lambda: build_cubic_model(**BENCH), 0.75),
            (coupled_problem, 1.0),
            (build_additive_model, 0.75),
        ],
        ids=["cubic", "two-dim", "additive-closed-form"],
    )
    def test_row_major_increments_give_the_same_bits(self, make, theta):
        prob = make()
        sch = ThetaScheme(theta=theta, dt=0.05)
        incs = ensemble_increments(8, range(6), -20, 20, prob.noise_dim, 0.05)
        # the same values stored path by path, read through a time-first view
        rows = np.ascontiguousarray(incs.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert incs[0].flags.c_contiguous and not rows[0].flags.c_contiguous
        x0 = np.linspace(-0.6, 0.6, 6 * prob.state_dim).reshape(6, prob.state_dim)
        _, a, a_iters = simulate_ensemble(prob, sch, -20, x0, incs)
        _, b, b_iters = simulate_ensemble(prob, sch, -20, x0, rows)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(a_iters, b_iters)


class TestClosedFormStage:
    MODELS = [lambda: catalog_entry("linear_ou").problem, build_additive_model,
              diagonal_pair_problem]
    IDS = ["linear_ou", "additive_sine", "diagonal-pair"]

    def run(self, prob, sch, n=40, batch=8):
        x0 = np.random.default_rng(1).uniform(-1.0, 1.0, (batch, prob.state_dim))
        first = grid_steps(-1.0, sch.dt, "start")
        incs = ensemble_increments(5, range(batch), first, n, prob.noise_dim, sch.dt)
        return simulate_ensemble(prob, sch, first, x0, incs)

    @pytest.mark.parametrize("theta", [0.75, 1.0])
    @pytest.mark.parametrize("make", MODELS, ids=IDS)
    def test_equals_newton(self, monkeypatch, make, theta):
        monkeypatch.setattr(integrator, "_NEWTON_TOL", 1e-13)
        prob = make()
        assert prob.stage is not None
        sch = ThetaScheme(theta=theta, dt=0.05)
        _, closed, iters = self.run(prob, sch)
        _, newton, newton_iters = self.run(replace(prob, stage=None), sch)
        assert not iters.any() and newton_iters.all()
        np.testing.assert_allclose(closed, newton, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("make", MODELS, ids=IDS)
    def test_no_jacobian_and_no_newton_settings(self, monkeypatch, make):
        def jacobian(t, x):
            raise AssertionError("the model's stage called the Jacobian")

        prob = replace(make(), drift_jacobian=jacobian)
        _, states, iters = self.run(prob, ThetaScheme(theta=0.75, dt=0.05))
        assert iters.shape == (40,) and not iters.any()
        # Newton's tolerance has no effect on the model's stage
        monkeypatch.setattr(integrator, "_NEWTON_TOL", 1e-300)
        assert np.array_equal(self.run(prob, ThetaScheme(theta=0.75, dt=0.05))[1], states)


class TestGoldenBits:
    """Final states pinned to the float.hex of the kernel before the lean rewrite.

    Sixteen steps from t = -1.5 under ensemble_increments(seed 11). The
    two-dim rows, on the grid of 0.05, were re-recorded when step s came to
    run at s*dt instead of at the run's start plus j*dt. In
    cubic-theta0.75 the paths from 5 and -3 halve a Newton step (three
    halvings, counted in an instrumented copy of the earlier kernel), so the
    damping branch runs inside a batch whose other paths have converged.
    """

    @pytest.mark.parametrize(
        "make, theta, dt, x0, hexes, iter_sum",
        [
            (pow_cubic_problem, 1.0, 0.25, [[5.0], [0.6], [-0.3], [-3.0]],
             ["0x1.435ccedcec120p-2", "-0x1.0ac71470220b9p-4", "-0x1.34dfd5cc0ae78p-4",
              "0x1.a192f382ce03cp-9"], 41),
            (pow_cubic_problem, 0.75, 0.25, [[5.0], [0.6], [-0.3], [-3.0]],
             ["0x1.7e3b18efa2728p-2", "-0x1.2955320d2e1a5p-4", "-0x1.ef04d73f04cb6p-4",
              "-0x1.13f1aa8ef55a3p-7"], 45),
            (coupled_problem, 1.0, 0.05, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2]],
             ["0x1.7b1b98ef47259p-2", "-0x1.5d37d058cd489p-3", "0x1.55d417e0e3215p-3",
              "0x1.b2f2943f6232ap-5", "-0x1.e0c0af166edcfp-3", "0x1.09b450e513e79p-8"], 36),
            (coupled_problem, 0.75, 0.05, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2]],
             ["0x1.8066b8edcc563p-2", "-0x1.5d33e5fb4dae0p-3", "0x1.37aef557e60b7p-3",
              "0x1.7aee3bb0eb250p-5", "-0x1.e5ce90eff35f8p-3", "-0x1.e48784fa6fd44p-21"], 35),
        ],
        ids=["cubic-theta1", "cubic-theta0.75", "two-dim-theta1", "two-dim-theta0.75"],
    )
    def test_final_states(self, make, theta, dt, x0, hexes, iter_sum):
        prob = make()
        sch = ThetaScheme(theta=theta, dt=dt)
        n = 16
        first = grid_steps(-1.5, dt, "start")
        incs = ensemble_increments(11, range(len(x0)), first, n, prob.noise_dim, dt)
        _, final, iters = simulate_ensemble(prob, sch, first, np.array(x0), incs, record=False)
        assert [float(v).hex() for v in final.ravel()] == hexes
        assert iters.sum() == iter_sum

    @pytest.mark.parametrize(
        "theta, hexes, iter_sum",
        [
            (1.0, ["-0x1.305626ab5730ep-2", "-0x1.bc991908bf178p-4", "0x1.5806a2335806bp-5",
                   "-0x1.defc72a1b0b73p-5", "-0x1.a2aafc50a8c1fp-3", "-0x1.8f3a6984a27b8p-6"],
             141),
            (0.75, ["-0x1.36e8640f82fd0p-2", "-0x1.b595beccea9bap-4", "0x1.8c52c13f5a588p-5",
                    "-0x1.032b77ae77d0ep-4", "-0x1.a869e4acde1b5p-3", "-0x1.bcff117f74993p-6"],
             138),
        ],
        ids=["theta1", "theta0.75"],
    )
    def test_catalog_cubic_batch(self, theta, hexes, iter_sum):
        # 200 paths from linspace(-3, 3), 64 steps of 2^-7 from t = -1.5; pinned
        # before the kernel's constants became 0-d arrays
        prob = catalog_entry("cubic_multiplicative").problem
        dt, n = 2.0**-7, 64
        first = grid_steps(-1.5, dt, "start")
        incs = ensemble_increments(11, range(200), first, n, 1, dt)
        x0 = np.linspace(-3.0, 3.0, 200)[:, None]
        sch = ThetaScheme(theta=theta, dt=dt)
        _, final, iters = simulate_ensemble(prob, sch, first, x0, incs, record=False)
        assert [float(final[i, 0]).hex() for i in (0, 1, 66, 100, 133, 199)] == hexes
        assert iters.sum() == iter_sum
