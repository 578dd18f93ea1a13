import math
from dataclasses import dataclass

import numpy as np
import pytest

from rpsde.models import (
    ParameterError,
    SdeProblem,
    build_additive_model,
    build_cubic_model,
    build_linear_model,
    catalog_entry,
)

BENCH_PARAMS = dict(lam=5 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0)


@dataclass(frozen=True)
class DissipativityReport:
    sample_count: int
    box_radius: float
    max_ratio: float
    l_f: float
    passed: bool


def check_dissipativity(problem, sample_count, box_radius, rng_seed, tolerance_rel=1e-9):
    """Sampled check of the one-sided Lipschitz / monotonicity condition.

    Samples (t, x, y) uniformly in [0, tau) x [-r, r]^d and reports the
    maximum of

        (<x-y, f(t,x)-f(t,y)> + (p*-1) |g(t,x)-g(t,y)|^2) / |x-y|^2

    which dissipativity requires to stay below L_f. The callables take one
    time and a batch of states, so each sample is one call on the pair (x, y);
    the ratios are computed on the whole batch.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if box_radius <= 0.0:
        raise ParameterError("box_radius must be positive")
    rng = np.random.default_rng(rng_seed)
    d = problem.state_dim
    max_ratio = 0.0
    for done in range(0, sample_count, 4096):
        n = min(4096, sample_count - done)
        ts = rng.uniform(0.0, problem.period, size=n)
        xs = rng.uniform(-box_radius, box_radius, size=(n, d))
        ys = rng.uniform(-box_radius, box_radius, size=(n, d))
        pairs = np.stack([xs, ys], axis=1)
        f = np.array([problem.drift(t, xy) for t, xy in zip(ts, pairs)])
        g = np.array([problem.diffusion(t, xy) for t, xy in zip(ts, pairs)])
        diff = xs - ys
        nrm2 = np.sum(diff * diff, axis=-1)
        num = np.sum(diff * (f[:, 0] - f[:, 1]), axis=-1) + (
            problem.moment_exponent - 1.0
        ) * np.sum((g[:, 0] - g[:, 1]) ** 2, axis=(-2, -1))
        apart = nrm2 != 0.0
        max_ratio = max(max_ratio, float(np.max(num[apart] / nrm2[apart], initial=0.0)))
    l_f = problem.one_sided_lipschitz
    return DissipativityReport(
        sample_count=sample_count,
        box_radius=box_radius,
        max_ratio=max_ratio,
        l_f=l_f,
        passed=max_ratio <= l_f * (1.0 + tolerance_rel),
    )


class TestCubicModel:
    def test_benchmark_parameters_valid(self):
        prob = build_cubic_model(**BENCH_PARAMS)
        assert prob.one_sided_lipschitz == pytest.approx(3 * 0.25 * 20)  # 15
        assert prob.one_sided_lipschitz < prob.lambda_min
        assert prob.period == 2.0
        assert prob.growth_exponent == 3.0
        assert prob.state_dim == prob.noise_dim == 1

    def test_dcoef_constraint_rejected(self):
        # 12 * 0.5^2 * 20 = 60 > a = 3
        with pytest.raises(ParameterError, match="12"):
            build_cubic_model(5 * math.pi, 3.0, 1.5, 0.5, 0.5, 21.0)

    def test_large_c_rejected_at_construction(self):
        # L_f = 3*100*20 = 6000 >= lambda
        with pytest.raises(ParameterError):
            build_cubic_model(5 * math.pi, 3.0, 1.5, 10.0, 0.01, 21.0)

    def test_drift_diffusion_at_origin(self):
        prob = build_cubic_model(**BENCH_PARAMS)
        x0 = np.zeros(1)
        assert prob.drift(0.0, x0) == pytest.approx(0.0)
        assert prob.diffusion(0.0, x0)[0, 0] == pytest.approx(1.5)


class TestAdditiveModel:
    def test_drift_is_sine_forcing(self):
        prob = build_additive_model()
        x = np.array([7.0])
        assert prob.drift(0.25, x)[0] == pytest.approx(math.sin(math.pi / 2))
        assert prob.drift(0.25, np.array([-3.0]))[0] == prob.drift(0.25, x)[0]

    def test_period_one_symmetry(self):
        prob = build_additive_model()
        x = np.array([0.3])
        assert prob.drift(1.25, x)[0] == pytest.approx(prob.drift(0.25, x)[0])

    def test_constant_diffusion(self):
        prob = build_additive_model()
        for t, x in [(0.0, 0.0), (0.7, -5.0), (123.4, 2.0)]:
            assert prob.diffusion(t, np.array([x]))[0, 0] == 0.05


class TestLinearModel:
    def test_zero_drift_everywhere(self):
        prob = build_linear_model(1.0, 0.0)
        for t, x in [(0.0, 0.0), (3.3, -2.0), (-7.0, 10.0)]:
            assert prob.drift(t, np.array([x]))[0] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            build_linear_model(-1.0, 0.1)
        with pytest.raises(ParameterError):
            build_linear_model(1.0, -0.1)


class TestCatalog:
    def test_names(self):
        for name in ("cubic_multiplicative", "additive_sine", "linear_ou"):
            entry = catalog_entry(name)
            assert entry.name == name

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            catalog_entry("heat_equation")

    def test_unknown_parameter_names_accepted_ones(self):
        with pytest.raises(ParameterError, match="bogus.*accepted: lam, sigma"):
            catalog_entry("linear_ou", bogus=1.0)
        with pytest.raises(ParameterError, match="accepted: none"):
            catalog_entry("additive_sine", lam=1.0)

    @pytest.mark.parametrize(
        "name, key, value",
        [("linear_ou", "lam", math.nan), ("cubic_multiplicative", "a", math.nan),
         ("cubic_multiplicative", "lam", math.inf), ("linear_ou", "sigma", -math.inf)],
    )
    def test_non_finite_parameter_named(self, name, key, value):
        # nan used to fail a later check ("must be symmetric") or the first Newton solve
        with pytest.raises(ParameterError, match=f"^model.{key} must be finite, got {value}$"):
            catalog_entry(name, **{key: value})


def matrix_problem(a):
    """A problem with linear part a and nothing else."""
    d = np.shape(a)[-1]
    return SdeProblem(
        noise_dim=1,
        linear_matrix=a,
        drift=lambda t, x: np.zeros_like(x),
        drift_jacobian=lambda t, x: np.zeros(x.shape + (d,)),
        diffusion=lambda t, x: np.zeros(x.shape + (1,)),
        period=1.0,
        one_sided_lipschitz=0.5,
        moment_exponent=21.0,
        growth_exponent=1.0,
    )


class TestProblemInvariants:
    def test_nonsymmetric_matrix_rejected(self):
        with pytest.raises(ParameterError, match="symmetric"):
            matrix_problem(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ParameterError, match="square"):
            matrix_problem(np.ones((1, 2)))

    def test_dimension_and_lambda_from_matrix(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        prob = matrix_problem(a)
        assert prob.state_dim == 2
        assert prob.lambda_min == float(np.linalg.eigvalsh(a).min())
        # a 1x1 matrix gives its entry exactly
        for name, lam in [
            ("cubic_multiplicative", 5 * math.pi),
            ("additive_sine", 10 * math.pi),
            ("linear_ou", 1.0),
        ]:
            assert catalog_entry(name).problem.lambda_min == lam

    def test_caller_matrix_stays_writeable(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        prob = matrix_problem(a)
        assert a.flags.writeable
        assert prob.linear_matrix is not a
        assert not prob.linear_matrix.flags.writeable
        a[0, 0] = 9.0
        assert prob.linear_matrix[0, 0] == 4.0

    def test_moment_exponent_bound(self):
        with pytest.raises(ParameterError, match="moment"):
            build_cubic_model(5 * math.pi, 3.0, 1.5, 0.5, 0.1, pstar=10.0)

    @pytest.mark.parametrize("name", ["cubic_multiplicative", "additive_sine", "linear_ou"])
    def test_exact_periodicity(self, name):
        prob = catalog_entry(name).problem
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = rng.uniform(-10, 10)
            x = rng.uniform(-3, 3, size=(1,))
            # sin(pi (t + tau)) is only equal to sin(pi t) up to rounding of
            # the argument, so allow a few ulps scaled by the cubic growth
            scale = 1.0 + np.abs(x).max() ** 3
            assert np.abs(
                prob.drift(t + prob.period, x) - prob.drift(t, x)
            ).max() <= 1e-11 * scale
            assert np.abs(
                prob.diffusion(t + prob.period, x) - prob.diffusion(t, x)
            ).max() <= 1e-11 * scale

    @pytest.mark.parametrize("name", ["cubic_multiplicative", "additive_sine", "linear_ou"])
    def test_jacobian_matches_finite_differences(self, name):
        prob = catalog_entry(name).problem
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(100):
            t = rng.uniform(0, prob.period)
            x = rng.uniform(-2, 2, size=(1,))
            jac = prob.drift_jacobian(t, x)[0, 0]
            fd = (prob.drift(t, x + h)[0] - prob.drift(t, x - h)[0]) / (2 * h)
            assert jac == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestDissipativity:
    def test_cubic_benchmark_parameters_pass(self):
        prob = build_cubic_model(**BENCH_PARAMS)
        report = check_dissipativity(prob, 10_000, 3.0, rng_seed=0)
        assert report.passed
        assert report.max_ratio <= prob.one_sided_lipschitz

    def test_additive_ratio_is_zero(self):
        prob = build_additive_model()
        report = check_dissipativity(prob, 500, 2.0, rng_seed=0)
        assert report.max_ratio == 0.0
        assert report.passed

    def test_bad_arguments(self):
        prob = build_additive_model()
        with pytest.raises(ParameterError):
            check_dissipativity(prob, 0, 1.0, rng_seed=0)
        with pytest.raises(ParameterError):
            check_dissipativity(prob, 10, -1.0, rng_seed=0)
