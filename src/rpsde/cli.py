"""Command-line front end for the random-periodic-solution experiments.

Subcommands: simulate, pullback, periodicity, converge, contraction.
Configuration is a flat key=value file, overridable by command-line flags
(flags win). Every run writes its outputs, a gnuplot script, and a manifest
(resolved config + seed + library version) into the output directory; the
exit code is 0 iff every pass/fail check in the run passed, and 2, with one
`error:` line, for an unknown key, a bad value or a failed Newton solve.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ms_error, numerical_contraction_test
from .integrator import NewtonError, ThetaScheme, simulate_ensemble
from .models import ModelCatalogEntry, catalog_entry
from .noise import ensemble_increments, grid_steps
from .periodic import (
    PullbackError,
    periodicity_check_pullback,
    periodicity_check_shifted,
    pullback_converge,
)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    """Flat key=value text; '#' starts a comment; later keys win."""
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _floats(text):
    return [float(v) for v in str(text).replace(";", ",").split(",") if v.strip()]


def _ints(text):
    return [int(v) for v in str(text).replace(";", ",").split(",") if v.strip()]


def _resolve_model(cfg) -> ModelCatalogEntry:
    name = cfg.get("model", "cubic_multiplicative")
    params = {
        key.split(".", 1)[1]: float(value)
        for key, value in cfg.items()
        if key.startswith("model.")
    }
    return catalog_entry(name, **params)


def _resolve_scheme(cfg) -> ThetaScheme:
    theta = float(cfg.get("theta", 1.0))
    if "dt" in cfg:
        dt = float(cfg["dt"])
    elif "level" in cfg:
        dt = 2.0 ** -int(cfg["level"])
    else:
        dt = 0.1
    return ThetaScheme(
        theta=theta,
        dt=dt,
        newton_tol=float(cfg.get("newton_tol", 1e-5)),
        newton_max_iter=int(cfg.get("newton_max_iter", 50)),
    )


def _write_manifest(out: Path, cfg: dict, command: str):
    lines = [f"command={command}", f"version={__version__}"]
    lines += [f"{k}={v}" for k, v in sorted(cfg.items())]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """The one writer of CSV output: every float as %.17g, any other value as csv writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(["%.17g" % v if isinstance(v, float) else v for v in row] for row in rows)


def _write_plot_script(out: Path, name: str, lines: list[str]):
    header = [
        "# gnuplot script; run: gnuplot " + name,
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    (out / name).write_text("\n".join(header + lines) + "\n")


def run_simulate(cfg: dict, out: Path) -> bool:
    entry = _resolve_model(cfg)
    problem = entry.problem
    scheme = _resolve_scheme(cfg)
    seed = int(cfg.get("seed", 0))
    k = int(cfg.get("k", 5))
    horizon = float(cfg.get("horizon", 0.0))
    xis = _floats(cfg.get("initial_values", "0.6,0,-0.6"))
    if not xis:
        raise ConfigError("initial_values must name at least one value")
    start = -k * problem.period
    n_steps = grid_steps(horizon - start, scheme.dt, "horizon + k*period")
    if n_steps < 0:
        raise ConfigError(f"horizon {horizon} precedes the start -k*period = {start}")
    first = grid_steps(start, scheme.dt, "window start")
    # every initial value runs under the one noise path 0
    incs = ensemble_increments(seed, range(1), first, n_steps, problem.noise_dim, scheme.dt)
    x0s = np.array(xis, dtype=float)[:, None]
    times, states, _ = simulate_ensemble(problem, scheme, start, n_steps, x0s, incs)
    rows = np.column_stack([times, states[:, :, 0].T]).tolist()
    _write_csv(out / "trajectories.csv", ["t"] + [f"xi_{v:.17g}" for v in xis], rows)
    _write_plot_script(
        out,
        "trajectories.gp",
        [
            "plot "
            + ", ".join(
                f"'trajectories.csv' using 1:{i + 2} with lines"
                for i in range(len(xis))
            )
        ],
    )
    return True


def run_pullback(cfg: dict, out: Path) -> bool:
    entry = _resolve_model(cfg)
    scheme = _resolve_scheme(cfg)
    seed = int(cfg.get("seed", 0))
    try:
        result = pullback_converge(
            entry.problem,
            scheme,
            t_eval=float(cfg.get("t_eval", 0.0)),
            xi=_floats(cfg.get("xi", "0.6")),
            tolerance=float(cfg.get("tolerance", 1e-3)),
            k_max=int(cfg.get("k_max", 20)),
            ensemble=int(cfg.get("ensemble", 100)),
            seed=seed,
        )
    except PullbackError as exc:
        print(f"pullback: FAILED ({exc})", file=sys.stderr)
        return False
    rows = np.column_stack([result.sample_times, result.states[:, 0]]).tolist()
    # failure raises PullbackError above, so a written result converged
    rows += [["k_used", result.k_used], ["l2_gap", result.l2_gap], ["converged", 1]]
    _write_csv(out / "pullback.csv", ["t", "x"], rows)
    # gap_history[i] compares depth i + 2 with depth i + 1
    _write_csv(out / "pullback_gaps.csv", ["k", "l2_gap"], enumerate(result.gap_history, start=2))
    _write_plot_script(out, "pullback.gp", ["plot 'pullback.csv' using 1:2 with lines"])
    print(f"pullback: converged k={result.k_used} gap={result.l2_gap:.3g}")
    return True


def run_periodicity(cfg: dict, out: Path) -> bool:
    entry = _resolve_model(cfg)
    problem = entry.problem
    scheme = _resolve_scheme(cfg)
    seed = int(cfg.get("seed", 0))
    k = int(cfg.get("k", 5))
    window = _floats(cfg.get("window", f"{-2 * problem.period},0"))
    if len(window) != 2:
        raise ConfigError(f"window must be two numbers a,b, got {cfg['window']!r}")
    shifted = periodicity_check_shifted(
        problem,
        scheme,
        k=k,
        xi=_floats(cfg.get("xi", "0.6")),
        window=tuple(window),
        seed=seed,
        threshold=float(cfg.get("threshold", 1e-2)),
    )
    pullback = periodicity_check_pullback(
        problem,
        scheme,
        x0=_floats(cfg.get("x0", "-0.2")),
        horizon=float(cfg.get("horizon", 5 * problem.period)),
        seed=seed,
        threshold=float(cfg.get("threshold", 1e-2)),
    )
    cols = [shifted.times, shifted.reference[:, 0], shifted.shifted[:, 0]]
    rows = np.column_stack(cols).tolist()
    rows.append(["sup_gap", shifted.sup_gap, ""])
    _write_csv(out / "periodicity_shifted.csv", ["t", "path", "shifted_path"], rows)
    rows = np.column_stack([pullback.times, pullback.reference[:, 0]]).tolist()
    rows.append(["period_deviation", pullback.sup_gap])
    _write_csv(out / "periodicity_pullback.csv", ["t", "curve"], rows)
    _write_plot_script(
        out,
        "periodicity.gp",
        [
            "plot 'periodicity_shifted.csv' using 1:2 with lines, "
            "'periodicity_shifted.csv' using 1:3 with lines",
            "pause -1",
            "plot 'periodicity_pullback.csv' using 1:2 with lines",
        ],
    )
    print(
        f"periodicity: shifted gap={shifted.sup_gap:.3g} "
        f"({'pass' if shifted.passed else 'FAIL'}), "
        f"pullback deviation={pullback.sup_gap:.3g} "
        f"({'pass' if pullback.passed else 'FAIL'})"
    )
    return shifted.passed and pullback.passed


def run_converge(cfg: dict, out: Path) -> bool:
    entry = _resolve_model(cfg)
    report = ms_error(
        entry.problem,
        theta=float(cfg.get("theta", 1.0)),
        levels=_ints(cfg.get("levels", "6,7,8,9,10")),
        reference_level=int(cfg.get("reference_level", 12)),
        ensemble=int(cfg.get("ensemble", 200)),
        t_start=float(cfg.get("t_start", -4.0)),
        t_end=float(cfg.get("t_end", 4.0)),
        seed=int(cfg.get("seed", 0)),
        xi=_floats(cfg.get("xi", "0.6")),
        newton_tol=float(cfg.get("newton_tol", 1e-5)),
    )
    # level_diff is rms|X_l - X_prev| against the previous level; empty on the coarsest row
    diffs = ["", *report.level_diffs.tolist()]
    rows = [*zip(report.levels, report.stepsizes, report.rms_errors, report.stderrs, diffs)]
    rows.append(["slope", report.fitted_slope, "", "", ""])
    rows.append(["intercept", report.intercept, "", "", ""])
    _write_csv(out / "convergence.csv", ["level", "dt", "rms_error", "stderr", "level_diff"], rows)
    _write_plot_script(
        out,
        "convergence.gp",
        [
            "set logscale xy 2",
            "plot 'convergence.csv' using 2:3 with linespoints",
        ],
    )
    print(f"converge: slope={report.fitted_slope:.4f} intercept={report.intercept:.4f}")
    return bool(np.isfinite(report.fitted_slope))


def run_contraction(cfg: dict, out: Path) -> bool:
    entry = _resolve_model(cfg)
    test = numerical_contraction_test(
        entry.problem,
        _resolve_scheme(cfg),
        xi=_floats(cfg.get("xi", "0.6")),
        eta=_floats(cfg.get("eta", "-0.6")),
        k=int(cfg.get("k", 15)),
        ensemble=int(cfg.get("ensemble", 200)),
        seed=int(cfg.get("seed", 0)),
    )
    rows = [*zip(test.steps.tolist(), test.gap_series.tolist(), test.envelope.tolist())]
    rows += [["c_delta", test.c_delta, ""], ["exact_rate", test.exact_rate, ""]]
    _write_csv(out / "contraction.csv", ["step", "mean_square_gap", "envelope"], rows)
    _write_plot_script(
        out,
        "contraction.gp",
        [
            "set logscale y",
            "plot 'contraction.csv' using 1:2 with lines, "
            "'contraction.csv' using 1:3 with lines",
        ],
    )
    print(
        f"contraction: c_delta={test.c_delta:.6g} "
        f"({'pass' if test.passed else 'FAIL'})"
    )
    return test.passed


_COMMANDS = {
    "simulate": run_simulate,
    "pullback": run_pullback,
    "periodicity": run_periodicity,
    "converge": run_converge,
    "contraction": run_contraction,
}

_SCHEME_KEYS = "theta dt level newton_tol newton_max_iter "
# config keys each subcommand reads, besides model, model.<param> and seed
_KEYS = {
    "simulate": _SCHEME_KEYS + "k horizon initial_values",
    "pullback": _SCHEME_KEYS + "t_eval xi tolerance k_max ensemble",
    "periodicity": _SCHEME_KEYS + "k window xi x0 horizon threshold",
    "converge": "theta newton_tol levels reference_level ensemble t_start t_end xi",
    "contraction": _SCHEME_KEYS + "xi eta k ensemble",
}


def _check_keys(cfg: dict, command: str):
    accepted = ["model", "seed", *_KEYS[command].split()]
    unknown = [k for k in cfg if k not in accepted and not k.startswith("model.")]
    if unknown:
        raise ConfigError(
            f"unknown key {', '.join(sorted(unknown))} for {command}; "
            f"accepted: {', '.join(sorted(accepted))}, model.<param>"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsde",
        description="Random periodic solutions of dissipative SDEs via theta methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=".")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {}
    try:
        if args.config:
            cfg.update(load_config(args.config))
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg[key.strip()] = value.strip()
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        _check_keys(cfg, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out, cfg, args.command)
        ok = _COMMANDS[args.command](cfg, out)
    except (ConfigError, ValueError, OSError, NewtonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
