"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import math

import numpy as np
import pytest

from rpsde import integrator
from rpsde.analysis import contraction_constant, fit_slope, ms_error, numerical_contraction_test
from rpsde.cli import main as cli_main
from rpsde.integrator import ThetaScheme, simulate_ensemble
from rpsde.models import build_cubic_model, catalog_entry
from rpsde.noise import ensemble_increments, tree_fold
from rpsde.periodic import periodicity_check_pullback, periodicity_check_shifted
from test_analysis import moment_monitor
from test_integrator import exact_linear_step, newton_linear_problem

CUBIC = dict(lam=5 * math.pi, a=3.0, b=1.5, c=0.5, dcoef=0.1, pstar=21.0)
LEVELS = [6, 7, 8, 9, 10]
REF_LEVEL = 12
ENSEMBLE = 200
WINDOW = (-4.0, 4.0)
SEED = 0


def _report(label, ok, detail):
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'} ({detail})")


def test_1_multiplicative_convergence_order():
    prob = build_cubic_model(**CUBIC)
    slopes = {}
    for theta in (0.75, 1.0):
        rep = ms_error(
            prob, theta, LEVELS, REF_LEVEL, ENSEMBLE, *WINDOW, seed=SEED, xi=[0.6]
        )
        slopes[theta] = rep.fitted_slope
    ok = all(0.40 <= s <= 0.80 for s in slopes.values())
    _report(
        "1 multiplicative convergence order",
        ok,
        f"slope(0.75)={slopes[0.75]:.4f}, slope(1.0)={slopes[1.0]:.4f}, band [0.40, 0.80]",
    )
    assert ok


@pytest.fixture(scope="module")
def affine_report():
    """ms_error of a catalog model at the reproduce settings, each (model, theta) run once."""
    reports = {}

    def report(name, theta):
        if (name, theta) not in reports:
            reports[name, theta] = ms_error(
                catalog_entry(name).problem, theta, LEVELS, REF_LEVEL, ENSEMBLE, *WINDOW,
                seed=SEED, xi=[0.6],
            )
        return reports[name, theta]

    return report


def test_2_additive_convergence_order(affine_report):
    slopes = {theta: affine_report("additive_sine", theta).fitted_slope for theta in (0.75, 1.0)}
    ok = all(0.85 <= s <= 1.15 for s in slopes.values())
    _report(
        "2 additive convergence order",
        ok,
        f"slope(0.75)={slopes[0.75]:.4f}, slope(1.0)={slopes[1.0]:.4f}, band [0.85, 1.15]",
    )
    assert ok


def exact_rms(problem, theta, levels, reference_level, t_start, t_end, xi):
    """The rms error that ms_error estimates, exactly, for an affine model with one noise.

    One step is x_{j+1} = a x_j + b_j + s dW_j with a = (1 - (1 - theta) lam h) /
    (1 + theta lam h) and s = sigma / (1 + theta lam h), so X_h(t_end) - X_ref(t_end)
    is d + sum_i w_i dW_i over the fine cells: d is the difference of the zero-noise
    runs, and fine cell i in coarse cell j weighs s_h a_h^(N_h-1-j) - s_ref a_ref^(N_ref-1-i).
    Hence E|X_h - X_ref|^2 = d^2 + h_ref sum_i w_i^2, with no sampling.
    """
    lam = float(problem.linear_matrix[0, 0])
    sigma = float(problem.diffusion(0.0, np.zeros((1, 1)))[0, 0, 0])

    def run(level):
        """The zero-noise final state, a, s and the step count at stepsize 2^-level."""
        h = 2.0**-level
        n = round((t_end - t_start) / h)
        _, final, _ = simulate_ensemble(
            problem, ThetaScheme(theta, h), round(t_start / h), np.array([[xi]]),
            np.zeros((n, 1, 1)), record=False,
        )
        a = (1.0 - (1.0 - theta) * lam * h) / (1.0 + theta * lam * h)
        return float(final[0, 0]), a, sigma / (1.0 + theta * lam * h), n

    x_ref, a_ref, s_ref, n_ref = run(reference_level)
    i = np.arange(n_ref)
    w_ref = s_ref * a_ref ** (n_ref - 1 - i)
    out = []
    for level in levels:
        x_h, a, s, n = run(level)
        w = s * a ** (n - 1 - i // (n_ref // n)) - w_ref
        out.append(math.sqrt((x_h - x_ref) ** 2 + 2.0**-reference_level * np.sum(w * w)))
    return np.array(out)


AFFINE = [(name, theta) for name in ("additive_sine", "linear_ou") for theta in (0.75, 1.0)]


@pytest.mark.parametrize("name, theta", AFFINE)
def test_exact_affine_slope_in_band(name, theta):
    # test_2's band holds for the exact errors, not only for one seed's estimate
    exact = exact_rms(catalog_entry(name).problem, theta, LEVELS, REF_LEVEL, *WINDOW, 0.6)
    slope, _ = fit_slope([2.0**-lvl for lvl in LEVELS], exact)
    assert 0.85 <= slope <= 1.15


@pytest.mark.parametrize("name, theta", AFFINE)
def test_affine_rms_within_three_stderrs_of_exact(affine_report, name, theta):
    # the bound was fixed before the test first ran; the levels share paths, so their
    # z-scores are correlated (all five negative for additive_sine at theta = 1)
    rep = affine_report(name, theta)
    exact = exact_rms(catalog_entry(name).problem, theta, LEVELS, REF_LEVEL, *WINDOW, 0.6)
    z = (rep.rms_errors - exact) / rep.stderrs
    ok = bool(np.abs(z).max() <= 3.0)
    _report(f"exact oracle {name} theta={theta}", ok, f"z-scores {np.round(z, 2).tolist()}")
    assert ok


def test_3_oracle_equivalence(monkeypatch):
    # tight tolerance: the linear solve must not stop at the first guess
    monkeypatch.setattr(integrator, "_NEWTON_TOL", 1e-13)
    rng = np.random.default_rng(SEED)
    worst_step = 0.0
    worst_path = 0.0
    for _ in range(100):
        theta = rng.uniform(0.51, 1.0)
        dt = rng.uniform(0.001, 0.5)
        lam = rng.uniform(0.1, 10.0)
        sigma = rng.uniform(0.0, 1.0)
        # without the model's own stage, so Newton solves the linear stage
        prob = newton_linear_problem(lam, sigma)
        sch = ThetaScheme(theta=theta, dt=dt)
        dws = rng.normal(scale=math.sqrt(dt), size=1000)
        x_ora = np.empty(len(dws) + 1)
        x_ora[0] = rng.normal()
        for j, dw in enumerate(dws):
            x_ora[j + 1] = exact_linear_step(lam, sigma, sch, x_ora[j], dw)
        # one Newton step from every oracle state, as one batch
        _, per_step, _ = simulate_ensemble(
            prob, sch, 0, x_ora[:-1, None], dws[None, :, None], record=False
        )
        worst_step = max(worst_step, float(np.abs(per_step[:, 0] - x_ora[1:]).max()))
        _, x_num, _ = simulate_ensemble(
            prob, sch, 0, x_ora[None, :1], dws[:, None, None], record=False
        )
        worst_path = max(worst_path, abs(x_num[0, 0] - x_ora[-1]))
    ok = worst_step <= 1e-10 and worst_path <= 1e-8
    _report(
        "3 oracle equivalence",
        ok,
        f"max per-step gap {worst_step:.3g} (<= 1e-10), "
        f"max 1000-step gap {worst_path:.3g} (<= 1e-8)",
    )
    assert ok


def test_4_initial_value_independence(tmp_path):
    # `rpsde simulate` runs every initial value under the one noise path 0;
    # its CSV holds the floats at %.17g, which round-trips them exactly
    worst = 0.0
    for theta in (0.75, 1.0):
        out = tmp_path / f"theta{theta}"
        rc = cli_main(
            ["simulate", "--out", str(out), "--seed", "11", "--set", f"theta={theta}",
             "--set", "dt=0.1", "--set", "k=5", "--set", "initial_values=0.6,0,-0.6"]
        )
        assert rc == 0
        data = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1)
        times, trajectories = data[:, 0], data[:, 1:].T
        keep = times >= -8.0 - 1e-12
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.abs(trajectories[i, keep] - trajectories[j, keep])
                worst = max(worst, float(d.max()))
    ok = worst <= 1e-3
    _report(
        "4 initial-value independence",
        ok,
        f"max pairwise distance for t >= -8: {worst:.3g} (<= 1e-3)",
    )
    assert ok


def test_5_periodicity():
    prob = build_cubic_model(**CUBIC)
    sch = ThetaScheme(theta=1.0, dt=0.1)
    shifted = periodicity_check_shifted(
        prob, sch, k=5, xi=[0.6], window=(-4.0, 0.0), seed=3
    )
    pullback = periodicity_check_pullback(prob, sch, [-0.2], 10.0, seed=3)
    ok = shifted.passed and pullback.passed
    _report(
        "5 periodicity",
        ok,
        f"shifted gap {shifted.sup_gap:.3g}, pull-back deviation "
        f"{pullback.sup_gap:.3g} (both <= 1e-2)",
    )
    assert ok


def test_6_contraction_envelope():
    prob = build_cubic_model(**CUBIC)
    sch = ThetaScheme(theta=1.0, dt=0.1)
    test = numerical_contraction_test(prob, sch, [0.6], [-0.6], k=15, ensemble=200, seed=5)
    _report(
        "6 contraction envelope",
        test.passed,
        f"c_delta={test.c_delta:.4f}, series floor "
        f"{test.gap_series.min():.3g} (<= 1e-12), envelope dominates",
    )
    assert test.passed


def test_7_property_suites():
    # (a) contraction constant stays in [0, 1) across the valid domain
    rng = np.random.default_rng(SEED)
    c_ok = True
    for _ in range(10_000):
        lam = rng.uniform(0.01, 50.0)
        c = contraction_constant(
            lam,
            lam * rng.uniform(1e-6, 0.999999),
            rng.uniform(0.5 + 1e-9, 1.0),
            rng.uniform(2.0 + 1e-9, 100.0),
            rng.uniform(1e-9, 1.0),
        )
        c_ok = c_ok and 0.0 <= c < 1.0
    # (b) increment variance matches the cell width: the level-4 cells of (0, 6250)
    incs = ensemble_increments(2024, [0], 0, 100_000, 1, 2.0**-4, fine_level=4)[:, 0]
    var = incs.var()
    v_ok = abs(var - 2.0**-4) <= 0.03 * 2.0**-4
    # (c) dyadic telescoping is bit-exact at every level: on (-1, 1), each cell
    # of level lvl is the sum of its two cells of level lvl + 1
    fine = ensemble_increments(3, [0], -256, 512, 1, 2.0**-8, fine_level=8)[:, 0]
    folded = [tree_fold(fine, 2 ** (8 - lvl)) for lvl in range(9)]
    t_ok = all(
        np.array_equal(folded[lvl], folded[lvl + 1][0::2] + folded[lvl + 1][1::2])
        for lvl in range(8)
    )
    ok = c_ok and v_ok and t_ok
    _report(
        "7 property suites",
        ok,
        f"contraction constant range {c_ok}, variance {v_ok} "
        f"(sample {var:.5f} vs 0.0625), telescoping {t_ok}",
    )
    assert ok


def test_8_moment_boundedness():
    prob = build_cubic_model(**CUBIC)
    flags = {}
    peaks = {}
    for dt in (0.1, 0.01):
        series = moment_monitor(
            prob, ThetaScheme(theta=1.0, dt=dt), k=5, ensemble=500, seed=2, xi=[0.6]
        )
        flags[dt] = series.growth_flag
        peaks[dt] = series.second_moment.max()
    ok = not any(flags.values())
    _report(
        "8 moment boundedness",
        ok,
        f"growth flags {flags}, peak second moments "
        f"{{0.1: {peaks[0.1]:.3g}, 0.01: {peaks[0.01]:.3g}}}",
    )
    assert ok
