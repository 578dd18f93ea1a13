#!/usr/bin/env python3
"""Mean-square convergence study for both benchmark models.

For each model and theta, runs the dyadic-stepsize error measurement against
a fine reference path and writes one convergence.csv per combination. The
cubic model has multiplicative noise (order ~1/2); the additive model shows
order ~1.
"""

import argparse
import sys
from pathlib import Path

from rpsde.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/convergence")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ensemble", type=int, default=200)
    ap.add_argument(
        "--reference-level", type=int, default=12,
        help="fine reference grid level (2^-level stepsize)",
    )
    args = ap.parse_args()
    rc = 0
    for model in ("cubic_multiplicative", "additive_sine"):
        for theta in (0.75, 1.0):
            out = Path(args.out) / f"{model}_theta{theta:g}"
            rc |= cli_main(
                [
                    "converge",
                    "--out", str(out),
                    "--seed", str(args.seed),
                    "--set", f"model={model}",
                    "--set", f"theta={theta}",
                    "--set", "levels=6,7,8,9,10",
                    "--set", f"reference_level={args.reference_level}",
                    "--set", f"ensemble={args.ensemble}",
                    "--set", "t_start=-4",
                    "--set", "t_end=4",
                ]
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
