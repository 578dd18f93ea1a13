import math
from dataclasses import dataclass

import numpy as np
import pytest

from rpsde.models import (
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
        raise ValueError("sample_count must be >= 1")
    if box_radius <= 0.0:
        raise ValueError("box_radius must be positive")
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
        with pytest.raises(ValueError, match=r"^need 12\*d\^2\*\(p\*-1\) <= a: 12\*0.5\^2\*20.0 "):
            build_cubic_model(5 * math.pi, 3.0, 1.5, 0.5, 0.5, 21.0)

    def test_large_c_rejected_at_construction(self):
        # L_f = 3*100*20 = 6000 >= lambda
        with pytest.raises(ValueError, match=r"^need 3\*c\^2\*\(p\*-1\) < lam: 6000.0 >= "):
            build_cubic_model(5 * math.pi, 3.0, 1.5, 10.0, 0.01, 21.0)

    @pytest.mark.parametrize("key, value", [("lam", 0.0), ("lam", -1.0), ("a", 0.0), ("a", -3.0)])
    def test_non_positive_lam_or_a_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^need {key} > 0, got {value}$"):
            build_cubic_model(**{**BENCH_PARAMS, key: value})

    def test_drift_diffusion_at_origin(self):
        prob = build_cubic_model(**BENCH_PARAMS)
        x0 = np.zeros(1)
        assert prob.drift(0.0, x0) == pytest.approx(0.0)
        assert prob.diffusion(0.0, x0)[0, 0] == pytest.approx(1.5)

    # float.hex of each callable at the states GOLDEN_X, recorded before the
    # callables' constants became 0-d arrays; t = 1.5, 1, 0.5 give the phase
    # factor 1 + sin(pi t) = 0, 1 (rounded up) and 2, and ±1e200 overflow.
    GOLDEN_X = [0.0, -0.0, 1e-200, -1e-200, 0.6, -3.0, 1e100, -1e100, 1e200, -1e200]
    GOLDEN = {
        (1.5, "drift"): "-0x0.0p+0 0x0.0p+0 -0x0.0p+0 0x0.0p+0 -0x0.0p+0 0x0.0p+0 -0x0.0p+0 "
        "0x0.0p+0 nan nan",
        (1.5, "drift_jacobian"): "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x0.0p+0 "
        "-0x0.0p+0 -0x0.0p+0 nan nan",
        (1.5, "diffusion"): "0x1.8000000000000p+0 0x1.8000000000000p+0 0x1.8000000000000p+0 "
        "0x1.8000000000000p+0 0x1.ccccccccccccdp+0 0x0.0p+0 0x1.249ad2594c37dp+331 "
        "-0x1.249ad2594c37dp+331 nan nan",
        (1.0, "drift"): "-0x0.0p+0 0x0.0p+0 -0x0.0p+0 0x0.0p+0 -0x1.4bc6a7ef9db24p-1 "
        "0x1.4400000000001p+6 -0x1.1eb2d66005836p+998 0x1.1eb2d66005836p+998 -inf inf",
        (1.0, "drift_jacobian"): "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x1.9eb851eb851edp+1 "
        "-0x1.4400000000001p+6 -0x1.783fbf2d24ea6p+667 -0x1.783fbf2d24ea6p+667 -inf -inf",
        (1.0, "diffusion"): "0x1.8000000000000p+0 0x1.8000000000000p+0 0x1.8000000000000p+0 "
        "0x1.8000000000000p+0 0x1.d604189374bc7p+0 0x1.ccccccccccccfp-1 "
        "0x1.0b8e0acac4eb0p+661 0x1.0b8e0acac4eb0p+661 inf inf",
        (0.5, "drift"): "-0x0.0p+0 0x0.0p+0 -0x0.0p+0 0x0.0p+0 -0x1.4bc6a7ef9db23p+0 "
        "0x1.4400000000000p+7 -0x1.1eb2d66005835p+999 0x1.1eb2d66005835p+999 -inf inf",
        (0.5, "drift_jacobian"): "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x0.0p+0 -0x1.9eb851eb851ebp+2 "
        "-0x1.4400000000000p+7 -0x1.783fbf2d24ea5p+668 -0x1.783fbf2d24ea5p+668 -inf -inf",
        (0.5, "diffusion"): "0x1.8000000000000p+0 0x1.8000000000000p+0 0x1.8000000000000p+0 "
        "0x1.8000000000000p+0 0x1.df3b645a1cac1p+0 0x1.ccccccccccccdp+0 "
        "0x1.0b8e0acac4eafp+662 0x1.0b8e0acac4eafp+662 inf inf",
    }
    # the affine models' callables are constant in x: (model, t) -> float.hex of
    # drift, drift_jacobian and diffusion at every GOLDEN_X, recorded before the
    # two builders became one family
    AFFINE = {
        ("additive_sine", 0.0): ("0x0.0p+0", "0x0.0p+0", "0x1.999999999999ap-5"),
        ("additive_sine", 0.25): ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.999999999999ap-5"),
        ("additive_sine", 0.75): ("-0x1.0000000000000p+0", "0x0.0p+0", "0x1.999999999999ap-5"),
        ("additive_sine", 1.5): ("0x1.a79394c9e8a0ap-52", "0x0.0p+0", "0x1.999999999999ap-5"),
        ("linear_ou", 0.0): ("0x0.0p+0", "0x0.0p+0", "0x1.3333333333333p-2"),
        ("linear_ou", 0.25): ("0x0.0p+0", "0x0.0p+0", "0x1.3333333333333p-2"),
        ("linear_ou", 0.75): ("0x0.0p+0", "0x0.0p+0", "0x1.3333333333333p-2"),
        ("linear_ou", 1.5): ("0x0.0p+0", "0x0.0p+0", "0x1.3333333333333p-2"),
    }
    CASES = {("cubic_multiplicative", *key): hexes for key, hexes in GOLDEN.items()}
    CASES.update(
        ((model, t, name), " ".join([h] * 10))
        for (model, t), hexes in AFFINE.items()
        for name, h in zip(("drift", "drift_jacobian", "diffusion"), hexes)
    )

    # the cubic cases keep their ids, "t-name", from before the affine cases joined
    @pytest.mark.parametrize(
        "model, t, name",
        [
            pytest.param(*key, id="-".join(map(str, key[key[0] == "cubic_multiplicative" :])))
            for key in sorted(CASES)
        ],
    )
    def test_catalog_callables_golden_bits(self, model, t, name):
        fn = getattr(catalog_entry(model).problem, name)
        x = np.array(self.GOLDEN_X)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            v = fn(t, x)
        assert v.shape == ((10, 1) if name == "drift" else (10, 1, 1))
        assert " ".join(float(e).hex() for e in v.ravel()) == self.CASES[model, t, name]


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
        with pytest.raises(ValueError, match="^need lam > 0, got -1.0$"):
            build_linear_model(-1.0, 0.1)
        with pytest.raises(ValueError, match="^need sigma >= 0, got -0.1$"):
            build_linear_model(1.0, -0.1)


class TestCatalog:
    def test_names(self):
        for name in ("cubic_multiplicative", "additive_sine", "linear_ou"):
            entry = catalog_entry(name)
            assert entry.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="^unknown model name 'heat_equation'; choose from"):
            catalog_entry("heat_equation")

    def test_unknown_parameter_names_accepted_ones(self):
        with pytest.raises(ValueError, match="bogus.*accepted: lam, sigma"):
            catalog_entry("linear_ou", bogus=1.0)
        with pytest.raises(ValueError, match="accepted: none"):
            catalog_entry("additive_sine", lam=1.0)

    @pytest.mark.parametrize(
        "name, key, value",
        [("linear_ou", "lam", math.nan), ("cubic_multiplicative", "a", math.nan),
         ("cubic_multiplicative", "lam", math.inf), ("linear_ou", "sigma", -math.inf)],
    )
    def test_non_finite_parameter_named(self, name, key, value):
        # nan used to fail a later check ("must be symmetric") or the first Newton solve
        with pytest.raises(ValueError, match=f"^model.{key} must be finite, got {value}$"):
            catalog_entry(name, **{key: value})


def matrix_problem(a, **overrides):
    """A problem with linear part a and nothing else; overrides replace its other fields."""
    d = np.shape(a)[-1]
    fields = dict(
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
    return SdeProblem(**{**fields, **overrides})


class TestProblemInvariants:
    def test_nonsymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="^linear_matrix must be symmetric$"):
            matrix_problem(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"^linear_matrix must be square, got shape \(1, 2\)$"):
            matrix_problem(np.ones((1, 2)))

    @pytest.mark.parametrize("a", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((1, 1))])
    def test_not_positive_definite_rejected(self, a):
        with pytest.raises(ValueError, match=r"^linear_matrix must be positive definite \(min eig"):
            matrix_problem(a)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(one_sided_lipschitz=1.0), r"^need 0 < L_f < lambda: L_f=1.0, lambda=1.0$"),
            (dict(one_sided_lipschitz=0.0), r"^need 0 < L_f < lambda: L_f=0.0, lambda=1.0$"),
            (dict(period=0.0), "^period must be positive$"),
            (dict(period=-1.0), "^period must be positive$"),
            (dict(growth_exponent=0.5), "^growth exponent must be >= 1$"),
        ],
        ids=["l-f-at-lambda", "l-f-zero", "period-zero", "period-negative", "growth-below-1"],
    )
    def test_standing_assumption_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            matrix_problem(np.eye(1), **overrides)

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
        with pytest.raises(ValueError, match=r"^moment exponent must exceed \(d\+4\)\*gamma: "):
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
        with pytest.raises(ValueError, match="^sample_count must be >= 1$"):
            check_dissipativity(prob, 0, 1.0, rng_seed=0)
        with pytest.raises(ValueError, match="^box_radius must be positive$"):
            check_dissipativity(prob, 10, -1.0, rng_seed=0)
