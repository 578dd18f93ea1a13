#!/usr/bin/env python3
"""Reproduce the paper's numerical experiments on its benchmark models.

  initial_values  pull-backs from three initial values collapse onto one path
  periodicity     the shifted and the pull-back periodicity checks
  convergence     mean-square slopes, cubic (order 1/2) and additive (order 1), theta 0.75 and 1
  contraction     the mean-square gap of two ensembles under the envelope C * c_delta^j

Each run is one `rpsde` call writing into OUT/<subdirectory>. Name experiments
to run only those (default: all); they run in the order above. The exit code is
the largest of the runs' exit codes.
"""

import argparse
import sys
from pathlib import Path

from rpsde.cli import main as cli_main

_CONVERGE = (
    "converge --seed 0 --set model={model} --set theta={theta} --set levels=6,7,8,9,10"
    " --set reference_level=12 --set ensemble=200 --set t_start=-4 --set t_end=4"
)
# experiment -> the (output subdirectory, rpsde arguments) of each of its runs
EXPERIMENTS = {
    "initial_values": [
        ("initial_values", "simulate --seed 0 --set theta=1.0 --set dt=0.1 --set k=5"
         " --set horizon=4 --set initial_values=0.6,0,-0.6".split()),
    ],
    "periodicity": [
        ("periodicity", "periodicity --seed 3 --set theta=1.0 --set dt=0.1 --set k=5"
         " --set window=-4,0 --set horizon=10".split()),
    ],
    "convergence": [
        (f"convergence/{model}_theta{theta:g}", _CONVERGE.format(model=model, theta=theta).split())
        for model in ("cubic_multiplicative", "additive_sine")
        for theta in (0.75, 1.0)
    ],
    "contraction": [
        ("contraction", "contraction --seed 5 --set theta=1.0 --set dt=0.1 --set k=15"
         " --set xi=0.6 --set eta=-0.6 --set ensemble=200".split()),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="results", help="output root (default: results)")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.experiments) - EXPERIMENTS.keys())
    if unknown:
        known = ", ".join(EXPERIMENTS)
        parser.error(f"unknown experiment {', '.join(unknown)}; choose from {known}")
    rc = 0
    for name, runs in EXPERIMENTS.items():
        if name in (args.experiments or EXPERIMENTS):
            for subdir, cli_args in runs:
                rc = max(rc, cli_main([*cli_args, "--out", str(Path(args.out) / subdir)]))
    return rc


if __name__ == "__main__":
    sys.exit(main())
