import math
from dataclasses import replace

import numpy as np
import pytest

from rpsde.integrator import NewtonError, ThetaScheme, simulate_ensemble
from rpsde.models import (
    SdeProblem,
    build_additive_model,
    build_cubic_model,
    build_linear_model,
    catalog_entry,
)
from rpsde.noise import ensemble_increments, generate, generate_uniform, grid_steps
from test_periodic import coupled_problem

BENCH = dict(lam=5 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0)


def exact_linear_step(lam, sigma, scheme, x, dw):
    """Closed-form theta step for dX = -lam X dt + sigma dW, the oracle of the Newton stage."""
    return (x * (1.0 - (1.0 - scheme.theta) * lam * scheme.dt) + sigma * dw) / (
        1.0 + scheme.theta * lam * scheme.dt
    )


def one_step(prob, sch, t, x, dw):
    """One theta step of the states x (batch, d) under the increments dw (batch, m)."""
    dw = np.asarray(dw, dtype=float)[None]
    return simulate_ensemble(prob, sch, t, 1, x, dw, record=False)[1]


def newton_linear_problem(lam, sigma):
    """build_linear_model without the state-free flag, so Newton solves its stage."""
    return replace(build_linear_model(lam, sigma), state_free_drift=False)


def state_free_problem():
    """Two states coupled through A, two noises, and a drift f(t) free of the state."""
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    g = np.array([[0.3, 0.1], [-0.1, 0.2]])

    def drift(t, x):
        f = [math.sin(2.0 * math.pi * t), 0.5 * math.cos(2.0 * math.pi * t)]
        return np.broadcast_to(f, x.shape).copy()

    def drift_jacobian(t, x):
        return np.zeros(x.shape + (2,))

    def diffusion(t, x):
        return np.broadcast_to(g, x.shape + (2,)).copy()

    return SdeProblem(
        noise_dim=2,
        linear_matrix=a,
        drift=drift,
        drift_jacobian=drift_jacobian,
        diffusion=diffusion,
        period=1.0,
        one_sided_lipschitz=1e-3,
        moment_exponent=21.0,
        growth_exponent=1.0,
        state_free_drift=True,
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

    @pytest.mark.parametrize("tol", [0.0, -1e-5, math.inf, math.nan])
    def test_newton_tol_range(self, tol):
        # inf would accept every guess as the root, nan would accept none
        with pytest.raises(ValueError, match="invalid Newton settings"):
            ThetaScheme(theta=1.0, dt=0.1, newton_tol=tol)


class TestImplicitStep:
    # with dw = 0 and theta = 1, one step solves the implicit stage
    # y + theta*dt*(A y - f(t, y)) = x_j from the guess x_j

    def test_linear_scalar(self):
        # theta=1, dt=0.5, A=1, f=0, rhs=1 -> y = 1/(1+0.5) = 2/3
        prob = build_linear_model(1.0, 0.0)
        sch = ThetaScheme(theta=1.0, dt=0.5)
        y = one_step(prob, sch, 0.0, np.array([[1.0]]), np.zeros((1, 1)))[0]
        assert y[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_cubic_root(self):
        # y + 0.1 y^3 = 1.1 has root y = 1; linear part negligible
        prob = cubic_like_problem(1e-9)
        sch = ThetaScheme(theta=1.0, dt=0.1, newton_tol=1e-12)
        y = one_step(prob, sch, 0.0, np.array([[1.1]]), np.zeros((1, 1)))[0]
        assert y[0] == pytest.approx(1.0, abs=1e-8)

    def test_zero_fixed_point(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        y = one_step(prob, sch, 0.0, np.zeros((1, 1)), np.zeros((1, 1)))[0]
        assert y[0] == 0.0

    def test_nonfinite_rhs_rejected(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(NewtonError):
            one_step(prob, sch, 0.0, np.array([[np.nan]]), np.zeros((1, 1)))

    @pytest.mark.parametrize("theta", [1.0, 0.75])
    def test_nan_residual_rejected(self, theta):
        # a NaN residual used to compare as converged and return x unchanged
        prob = replace(build_linear_model(1.0, 0.3), drift=lambda t, x: np.full_like(x, np.nan))
        sch = ThetaScheme(theta=theta, dt=0.1)
        with pytest.raises(NewtonError):
            one_step(prob, sch, 0.0, np.array([[0.5]]), np.zeros((1, 1)))

    def test_nonconvergence_error_carries_residual(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1, newton_tol=1e-14, newton_max_iter=1)
        with pytest.raises(NewtonError) as exc:
            one_step(prob, sch, 0.0, np.array([[5.0]]), np.zeros((1, 1)))
        assert exc.value.residual is not None

    def test_frozen_row_keeps_out_of_the_residual(self):
        # row 0 is at its root from the start and stays frozen while row 1 fails
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1, newton_tol=1e-14, newton_max_iter=1)
        residuals = []
        for x in ([[5.0]], [[0.0], [5.0]]):
            with pytest.raises(NewtonError) as exc:
                one_step(prob, sch, 0.0, np.array(x), np.zeros((len(x), 1)))
            residuals.append(exc.value.residual)
        assert residuals[0] is not None and residuals[1] == residuals[0]

    def test_overflow_beside_a_frozen_row_rejected(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NewtonError):
            one_step(prob, sch, 0.0, np.array([[0.0], [1e200]]), np.zeros((2, 1)))


class TestStep:
    def test_linear_decay(self):
        # theta=1, f=0, g=0: x' = x/(1+lam*dt); lam=1, dt=0.5, x=2 -> 4/3
        prob = build_linear_model(1.0, 0.0)
        sch = ThetaScheme(theta=1.0, dt=0.5)
        x = one_step(prob, sch, 0.0, np.array([[2.0]]), np.array([[0.0]]))[0]
        assert x[0] == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_equilibrium_preserved(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        x = one_step(prob, sch, 0.3, np.zeros((1, 1)), np.zeros((1, 1)))[0]
        # f(t,0) = 0 but g(t,0) = b, so only the dW=0 part keeps x near 0
        assert abs(x[0]) < 1e-10

    def test_additive_scheme_is_affine(self):
        prob = build_additive_model()
        sch = ThetaScheme(theta=0.75, dt=0.125)
        t = 0.25

        def s(x, dw):
            return one_step(prob, sch, t, np.array([[x]]), np.array([[dw]]))[0, 0]

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
            num = one_step(prob, sch, 0.0, np.array([[x]]), np.array([[dw]]))[0, 0]
            assert num == pytest.approx(exact, abs=1e-10)


class TestSimulatePath:
    def test_empty_iteration(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        times, states, iters = simulate_ensemble(
            prob, sch, 0.0, 0, np.array([[0.6]]), np.zeros((0, 1, 1))
        )
        assert times.tolist() == [0.0]
        assert states.shape == (1, 1, 1) and states[0, 0, 0] == 0.6
        assert iters.size == 0

    def test_linear_oracle_recursion(self):
        lam, sigma = 2.0, 0.3
        prob = newton_linear_problem(lam, sigma)
        sch = ThetaScheme(theta=0.8, dt=2.0**-6)
        grid = generate(9, 0, 6, (0.0, 16.0), 1)
        n = 1000
        incs = grid.step_increments(0.0, n, sch.dt)
        _, states, _ = simulate_ensemble(
            prob, sch, 0.0, n, np.array([[1.0]]), incs[:, None], record=True
        )
        x = 1.0
        for j in range(n):
            x = exact_linear_step(lam, sigma, sch, x, incs[j, 0])
        assert states[0, -1, 0] == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("x_batch, inc_batch", [(1, 3), (2, 3)])
    def test_increment_batch_mismatch_rejected(self, x_batch, inc_batch):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        with pytest.raises(ValueError, match="increments have shape"):
            simulate_ensemble(prob, sch, 0.0, 2, np.zeros((x_batch, 1)), np.zeros((2, inc_batch, 1)))

    def test_deterministic_replay(self):
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=0.75, dt=0.1)
        grid = generate_uniform(4, 2, 0.1, (-4.0, 0.0), 1)
        incs = grid.step_increments(-4.0, 40, 0.1)
        x0 = np.array([[0.6]])
        _, a, a_iters = simulate_ensemble(prob, sch, -4.0, 40, x0, incs[:, None])
        _, b, b_iters = simulate_ensemble(prob, sch, -4.0, 40, x0, incs[:, None])
        assert np.array_equal(a, b)
        assert np.array_equal(a_iters, b_iters)

    def test_newton_iteration_budget(self):
        # residual tolerance 1e-5; median iteration count <= 5 at dt = 0.1
        prob = build_cubic_model(**BENCH)
        sch = ThetaScheme(theta=1.0, dt=0.1)
        grid = generate_uniform(12, 0, 0.1, (-10.0, 0.0), 1)
        incs = grid.step_increments(-10.0, 100, 0.1)
        x0 = np.array([[0.6]])
        _, _, iters = simulate_ensemble(prob, sch, -10.0, 100, x0, incs[:, None])
        assert np.median(iters) <= 5


class TestEnsembleConsistency:
    @pytest.mark.parametrize(
        "make, theta, dt, x0",
        [
            (lambda: build_cubic_model(**BENCH), 0.75, 0.1, [[0.6], [0.0], [-0.6], [0.3]]),
            (lambda: build_cubic_model(**BENCH), 1.0, 0.25, [[5.0], [0.6], [-0.3], [-3.0]]),
            (coupled_problem, 0.75, 0.05, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2], [0.0, 0.0]]),
            (build_additive_model, 0.75, 0.1, [[0.6], [0.0], [-0.6], [0.3]]),
            (state_free_problem, 1.0, 0.05, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2], [0.0, 0.0]]),
        ],
        ids=["cubic-theta0.75", "cubic-theta1", "two-dim-theta0.75",
             "additive-closed-form", "two-dim-closed-form"],
    )
    def test_batched_equals_single(self, make, theta, dt, x0):
        prob = make()
        sch = ThetaScheme(theta=theta, dt=dt)
        n = 20
        incs = np.stack(
            [
                generate_uniform(3, p, dt, (-2.0, -2.0 + n * dt), prob.noise_dim)
                .step_increments(-2.0, n, dt)
                for p in range(len(x0))
            ],
            axis=1,
        )
        x0 = np.array(x0)
        _, batched, batched_iters = simulate_ensemble(prob, sch, -2.0, n, x0, incs, record=True)
        single_iters = []
        for p in range(len(x0)):
            _, single, iters = simulate_ensemble(
                prob, sch, -2.0, n, x0[p : p + 1], incs[:, p : p + 1], record=True
            )
            assert np.array_equal(batched[p], single[0])
            single_iters.append(iters)
        single_iters = np.array(single_iters)
        if prob.state_free_drift:
            # the closed-form stage takes no Newton iteration
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
            (state_free_problem, 1.0),
        ],
        ids=["cubic", "two-dim", "additive-closed-form", "two-dim-closed-form"],
    )
    def test_row_major_increments_give_the_same_bits(self, make, theta):
        prob = make()
        sch = ThetaScheme(theta=theta, dt=0.05)
        incs = ensemble_increments(8, range(6), -20, 20, prob.noise_dim, 0.05)
        # the same values stored path by path, read through a time-first view
        rows = np.ascontiguousarray(incs.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert incs[0].flags.c_contiguous and not rows[0].flags.c_contiguous
        x0 = np.linspace(-0.6, 0.6, 6 * prob.state_dim).reshape(6, prob.state_dim)
        _, a, a_iters = simulate_ensemble(prob, sch, -1.0, 20, x0, incs)
        _, b, b_iters = simulate_ensemble(prob, sch, -1.0, 20, x0, rows)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(a_iters, b_iters)


class TestClosedFormStage:
    MODELS = [
        lambda: catalog_entry("linear_ou").problem,
        build_additive_model,
        state_free_problem,
    ]
    IDS = ["linear_ou", "additive_sine", "two-dim"]

    def run(self, prob, sch, n=40, batch=8):
        x0 = np.random.default_rng(1).uniform(-1.0, 1.0, (batch, prob.state_dim))
        first = grid_steps(-1.0, sch.dt, "start")
        incs = ensemble_increments(5, range(batch), first, n, prob.noise_dim, sch.dt)
        return simulate_ensemble(prob, sch, -1.0, n, x0, incs)

    @pytest.mark.parametrize("theta", [0.75, 1.0])
    @pytest.mark.parametrize("make", MODELS, ids=IDS)
    def test_equals_newton(self, make, theta):
        prob = make()
        assert prob.state_free_drift
        sch = ThetaScheme(theta=theta, dt=0.05, newton_tol=1e-13)
        _, closed, iters = self.run(prob, sch)
        _, newton, newton_iters = self.run(replace(prob, state_free_drift=False), sch)
        assert not iters.any() and newton_iters.all()
        np.testing.assert_allclose(closed, newton, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("make", MODELS, ids=IDS)
    def test_no_jacobian_and_no_newton_settings(self, make):
        def jacobian(t, x):
            raise AssertionError("the closed-form stage called the Jacobian")

        prob = replace(make(), drift_jacobian=jacobian)
        _, states, iters = self.run(prob, ThetaScheme(theta=0.75, dt=0.05))
        assert iters.shape == (40,) and not iters.any()
        # newton_tol and newton_max_iter have no effect on the closed form
        sch = ThetaScheme(theta=0.75, dt=0.05, newton_tol=1e-300, newton_max_iter=1)
        assert np.array_equal(self.run(prob, sch)[1], states)


class TestGoldenBits:
    """Final states pinned to the float.hex of the kernel before the lean rewrite.

    Sixteen steps from t = -1.5 under ensemble_increments(seed 11). In
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
             ["0x1.7b1b98ef47259p-2", "-0x1.5d37d058cd484p-3", "0x1.55d417e0e3219p-3",
              "0x1.b2f2943f62306p-5", "-0x1.e0c0af166edcfp-3", "0x1.09b450e513e43p-8"], 36),
            (coupled_problem, 0.75, 0.05, [[0.4, -0.3], [2.0, 1.5], [-1.0, 0.2]],
             ["0x1.8066b8edcc563p-2", "-0x1.5d33e5fb4dadap-3", "0x1.37aef557e60b9p-3",
              "0x1.7aee3bb0eb233p-5", "-0x1.e5ce90eff35fap-3", "-0x1.e48784fb0f05cp-21"], 35),
        ],
        ids=["cubic-theta1", "cubic-theta0.75", "two-dim-theta1", "two-dim-theta0.75"],
    )
    def test_final_states(self, make, theta, dt, x0, hexes, iter_sum):
        prob = make()
        sch = ThetaScheme(theta=theta, dt=dt)
        n = 16
        first = grid_steps(-1.5, dt, "start")
        incs = ensemble_increments(11, range(len(x0)), first, n, prob.noise_dim, dt)
        _, final, iters = simulate_ensemble(prob, sch, -1.5, n, np.array(x0), incs, record=False)
        assert [float(v).hex() for v in final.ravel()] == hexes
        assert iters.sum() == iter_sum
