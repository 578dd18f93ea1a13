"""Command-line front end for the random-periodic-solution experiments.

Subcommands: simulate, pullback, periodicity, converge, contraction.
Settings come from repeatable --set KEY=VALUE flags and --seed (--seed wins).
`_KEYS` gives each subcommand's keys with the reader and the default of each;
every value is read once, and a malformed one is rejected by its key before
the output directory is made. Every run writes its outputs, a gnuplot script
and, last, a manifest (the command, the library version and the keys as given)
into the output directory; the exit code is 0 iff every pass/fail check in
the run passed, and 2, with one `error:` line, for an unknown key, a bad
value, a failed Newton solve or a failed allocation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ms_error, numerical_contraction_test
from .integrator import NewtonError, ThetaScheme
from .models import catalog_entry
from .periodic import (
    periodicity_check_pullback,
    periodicity_check_shifted,
    pullback_converge,
    pullback_paths,
)

__all__ = ["main"]


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _ints(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _state(text):
    values = _floats(text)
    if not values or not np.isfinite(values).all():
        raise ValueError
    return values


def _pair(text):
    values = tuple(_floats(text))
    if len(values) != 2:
        raise ValueError
    return values


# what each reader accepts, for the error that names the key
_EXPECTED = {
    int: "an integer",
    float: "a number",
    _ints: "integers separated by commas",
    _state: "one or more finite numbers separated by commas",
    _pair: "two numbers a,b",
}
_COMMON = {"model": (str, "cubic_multiplicative"), "seed": (int, 0)}
_SCHEME = {
    "theta": (float, 1.0),
    "dt": (float, 0.1),
}
# key -> (reader, default) of each subcommand, besides _COMMON and model.<param>; a
# default may be a function of the problem. The settings of simulate, pullback, converge
# and contraction are the keyword arguments of pullback_paths, pullback_converge, ms_error
# and numerical_contraction_test, which take them whole.
_KEYS = {
    "simulate": {
        **_SCHEME,
        "k": (int, 5),
        "horizon": (float, 0.0),
        "initial_values": (_state, (0.6, 0.0, -0.6)),
    },
    "pullback": {
        **_SCHEME,
        "t_eval": (float, 0.0),
        "xi": (_state, (0.6,)),
        "tolerance": (float, 1e-3),
        "k_max": (int, 20),
        "ensemble": (int, 100),
    },
    "periodicity": {
        **_SCHEME,
        "k": (int, 5),
        "window": (_pair, lambda problem: (-2.0 * problem.period, 0.0)),
        "xi": (_state, (0.6,)),
        "x0": (_state, (-0.2,)),
        "horizon": (float, lambda problem: 5.0 * problem.period),
    },
    "converge": {
        "theta": _SCHEME["theta"],
        "levels": (_ints, (6, 7, 8, 9, 10)),
        "reference_level": (int, 12),
        "ensemble": (int, 200),
        "t_start": (float, -4.0),
        "t_end": (float, 4.0),
        "xi": (_state, (0.6,)),
    },
    "contraction": {
        **_SCHEME,
        "xi": (_state, (0.6,)),
        "eta": (_state, (-0.6,)),
        "k": (int, 15),
        "ensemble": (int, 200),
    },
}


def _settings(cfg: dict, command: str) -> argparse.Namespace:
    """The problem, the scheme (for a command with dt) and every other setting of command.

    Each value of cfg is read once; _SCHEME's keys go into the scheme alone.
    """

    def read(key, reader, default=None):
        if key not in cfg:
            return default
        try:
            return reader(cfg[key])
        except ValueError:
            raise ValueError(f"{key} must be {_EXPECTED[reader]}, got {cfg[key]!r}") from None

    table = {**_COMMON, **_KEYS[command]}
    unknown = sorted(k for k in cfg if k not in table and not k.startswith("model."))
    if unknown:
        raise ValueError(
            f"unknown key {', '.join(unknown)} for {command}; "
            f"accepted: {', '.join(sorted(table))}, model.<param>"
        )
    values = {key: read(key, *entry) for key, entry in table.items()}
    params = {k.split(".", 1)[1]: read(k, float) for k in cfg if k.startswith("model.")}
    problem = catalog_entry(values.pop("model"), **params).problem
    values = {k: v(problem) if callable(v) else v for k, v in values.items()}
    for key in ("xi", "x0", "eta"):
        if key in values and len(values[key]) != problem.state_dim:
            d = problem.state_dim
            raise ValueError(f"{key} has {len(values[key])} values; the model's state_dim is {d}")
    if "dt" in values:
        values["scheme"] = ThetaScheme(**{k: values.pop(k) for k in _SCHEME})
    return argparse.Namespace(problem=problem, **values)


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


def run_simulate(s: argparse.Namespace, out: Path) -> bool:
    # every initial value runs under the one noise path 0
    times, states, _ = pullback_paths(**vars(s))
    xis = s.initial_values
    rows = np.column_stack([times, states[:, :, 0].T]).tolist()
    _write_csv(out / "trajectories.csv", ["t"] + [f"xi_{v:.17g}" for v in xis], rows)
    plots = ", ".join(f"'trajectories.csv' using 1:{i + 2} with lines" for i in range(len(xis)))
    _write_plot_script(out, "trajectories.gp", ["plot " + plots])
    return True


def run_pullback(s: argparse.Namespace, out: Path) -> bool:
    result = pullback_converge(**vars(s))
    rows = np.column_stack([result.sample_times, result.states[:, 0]]).tolist()
    converged = 1 if result.converged else 0
    rows += [["k_used", result.k_used], ["l2_gap", result.l2_gap], ["converged", converged]]
    _write_csv(out / "pullback.csv", ["t", "x"], rows)
    # gap_history[i] compares depth i + 2 with depth i + 1
    _write_csv(out / "pullback_gaps.csv", ["k", "l2_gap"], enumerate(result.gap_history, start=2))
    _write_plot_script(out, "pullback.gp", ["plot 'pullback.csv' using 1:2 with lines"])
    if result.converged:
        print(f"pullback: converged k={result.k_used} gap={result.l2_gap:.3g}")
    else:
        gap = f"pull-back gap {result.l2_gap:g} above tolerance {s.tolerance:g}"
        print(f"pullback: FAILED ({gap} after k_max={s.k_max})", file=sys.stderr)
    return result.converged


def run_periodicity(s: argparse.Namespace, out: Path) -> bool:
    shifted = periodicity_check_shifted(
        s.problem, s.scheme, k=s.k, xi=s.xi, window=s.window, seed=s.seed
    )
    pullback = periodicity_check_pullback(
        s.problem, s.scheme, x0=s.x0, horizon=s.horizon, seed=s.seed
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


def run_converge(s: argparse.Namespace, out: Path) -> bool:
    report = ms_error(**vars(s))
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


def run_contraction(s: argparse.Namespace, out: Path) -> bool:
    test = numerical_contraction_test(**vars(s))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsde",
        description="Random periodic solutions of dissipative SDEs via theta methods",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--seed", default=None)
        p.add_argument("--out", type=str, default=".")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set a key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = {}
        for item in args.set:
            if "=" not in item:
                raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg[key.strip()] = value.strip()
        if args.seed is not None:
            cfg["seed"] = args.seed
        settings = _settings(cfg, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # an overflowing state ends in NewtonError or a non-finite statistic, not in warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ok = _COMMANDS[args.command](settings, out)
        # written last, so a run the library rejects leaves no manifest behind
        manifest = [f"command={args.command}", f"version={__version__}"]
        manifest += [f"{k}={v}" for k, v in sorted(cfg.items())]
        (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    except (ValueError, OSError, NewtonError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
