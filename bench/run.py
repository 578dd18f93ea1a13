#!/usr/bin/env python3
"""Benchmark of three rpsde CLI workloads, run from the root of a source tree.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each sample is one `rpsde.cli.main` call in a fresh process (bench/worker.py),
one at a time: a closed loop with a single client. The workload's settings are
fixed; --seed is the rpsde noise seed. Every sample's outputs are checked
against the run's own gates, against each other (runs are deterministic) and,
on the workload's default seed, against the reference values in
bench/reference.json.

--trace 0 reports the end-to-end metrics: wall_s (median of the samples),
setup_s (median time from process start to rpsde imported and the model
built) and peak_rss_mb (median peak memory of one sample's process).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones (see bench/spans.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record with the environment goes to
.bench_out/results/. Exits 2 without a result if rpsde's sources are missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

SETUP_SAMPLES = 2  # set-up-only processes per untraced run, besides the samples
RUN_LIMIT_S = 170.0  # child processes are killed this long after the run started
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _footer(rows, key):
    return next(r[1] for r in rows if r and r[0] == key)


def read_converge(out: Path) -> dict:
    rows = _csv_rows(out / "convergence.csv")
    values = {f"rms_error.level_{r[0]}": float(r[2]) for r in rows[1:] if r[0].isdigit()}
    values["slope"] = float(_footer(rows, "slope"))
    return values


def read_pullback(out: Path) -> dict:
    rows = _csv_rows(out / "pullback.csv")
    return {
        "k_used": int(_footer(rows, "k_used")),
        "l2_gap": float(_footer(rows, "l2_gap")),
        "converged": int(_footer(rows, "converged")),
    }


def read_periodicity(out: Path) -> dict:
    shifted = _csv_rows(out / "periodicity_shifted.csv")
    pullback = _csv_rows(out / "periodicity_pullback.csv")
    return {
        "sup_gap": float(_footer(shifted, "sup_gap")),
        "period_deviation": float(_footer(pullback, "period_deviation")),
    }


@dataclass(frozen=True)
class Workload:
    model: str
    cli_args: tuple
    read: object  # out dir -> dict of outputs
    gates: tuple  # (label, predicate on outputs): a failed gate fails the sample
    claims: tuple = ()  # (label, predicate): reported on every seed, not counted


WORKLOADS = {
    "converge-cubic": Workload(
        model="cubic_multiplicative",
        cli_args=(
            "converge",
            "--set", "model=cubic_multiplicative",
            "--set", "theta=1",
            "--set", "levels=6,7,8,9,10",
            "--set", "reference_level=12",
            "--set", "ensemble=200",
            "--set", "t_start=-4",
            "--set", "t_end=4",
        ),
        read=read_converge,
        gates=(("slope is finite", lambda v: math.isfinite(v["slope"])),),
        claims=(
            (
                "slope in the acceptance band [0.40, 0.80]",
                lambda v: 0.40 <= v["slope"] <= 0.80,
            ),
        ),
    ),
    "pullback-wide": Workload(
        model="linear_ou",
        cli_args=(
            "pullback",
            "--set", "model=linear_ou",
            "--set", "dt=0.01",
            "--set", "ensemble=10000",
            "--set", "tolerance=1e-3",
        ),
        read=read_pullback,
        gates=(
            ("pull-back converged", lambda v: v["converged"] == 1),
            ("l2_gap <= tolerance 1e-3", lambda v: v["l2_gap"] <= 1e-3),
        ),
    ),
    "periodicity-narrow": Workload(
        model="cubic_multiplicative",
        cli_args=(
            "periodicity",
            "--set", "model=cubic_multiplicative",
            "--set", "dt=0.01",
            "--set", "k=5",
            "--set", "window=-4,0",
            "--set", "horizon=4",
        ),
        read=read_periodicity,
        gates=(
            ("shifted sup_gap <= 1e-2", lambda v: v["sup_gap"] <= 1e-2),
            ("pull-back period deviation <= 1e-2", lambda v: v["period_deviation"] <= 1e-2),
        ),
    ),
}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


class SetupError(RuntimeError):
    """The program under test cannot be started at all; no result is printed."""


class Runner:
    """Spawns worker processes in one scratch directory inside the checkout."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.count = 0

    def spawn(self, cli: bool, spans: bool = False) -> dict:
        """Run one worker; returns its record plus the set-up time it saw."""
        self.count += 1
        tag = f"{self.count:03d}"
        result = self.work / f"result-{tag}.json"
        out = self.work / f"out-{tag}"
        cmd = [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--src", str(SRC),
            "--model", self.workload.model,
            "--result", str(result),
        ]
        if spans:
            cmd += ["--spans", str(self.work / f"spans-{tag}.npz")]
        if cli:
            cmd += ["--", *self.workload.cli_args, "--seed", str(self.seed), "--out", str(out)]
        budget = max(10.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            return {"rc": "timeout", "out": out}
        if proc.returncode == 3:
            raise SetupError(proc.stderr.strip())
        if proc.returncode != 0 or not result.exists():
            return {"rc": f"worker exit {proc.returncode}", "out": out, "stderr": proc.stderr[-2000:]}
        record = json.loads(result.read_text())
        record["setup_s"] = record.pop("setup_done") - t_spawn
        record["out"] = out
        if spans:
            record["spans"] = self.work / f"spans-{tag}.npz"
        return record


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def check(name: str, seed: int, sample: dict) -> list[str]:
    """Reasons the sample failed; empty if it passed. Fills sample['outputs']."""
    workload = WORKLOADS[name]
    if sample.get("rc") != 0:
        return [f"exit code {sample.get('rc')}"]
    try:
        values = workload.read(sample["out"])
    except (OSError, StopIteration, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    sample["outputs"] = values
    problems = [f"gate failed: {label}" for label, ok in workload.gates if not ok(values)]
    ref = REFERENCE[name]
    if seed == ref["seed"]:
        for key, expected in ref["values"].items():
            got = values.get(key)
            tol = ref["abs_tol"] + ref["rel_tol"] * abs(expected)
            if got is None or not abs(got - expected) <= tol:
                problems.append(f"{key}={got!r} differs from reference {expected!r} by more than {tol:.3g}")
    return problems


def bytes_written(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0


def run(name: str, seed: int, seconds: float, trace: bool):
    """Samples, set-up times, metrics and failure count of one run."""
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _measure(name, seed, seconds, trace, Runner(WORKLOADS[name], seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name, seed, seconds, trace, runner):
    # warm-up: compiles bytecode and fills the page cache; not timed
    warm = runner.spawn(cli=False)
    if "setup_s" not in warm:
        raise SetupError(f"set-up failed: {warm.get('rc')} {warm.get('stderr', '')}")
    t0 = time.monotonic()
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            s = runner.spawn(cli=False)
            if "setup_s" in s:
                setups.append(s["setup_s"])

    kinds = ("plain", "traced") if trace else ("plain",)
    samples = []
    durations = []
    while True:
        kind = kinds[len(samples) % len(kinds)]
        started = time.monotonic()
        s = runner.spawn(cli=True, spans=kind == "traced")
        durations.append(time.monotonic() - started)
        s["kind"] = kind
        s["problems"] = check(name, seed, s)
        if "out" in s:
            s["bytes_written"] = bytes_written(s["out"])
            if s["out"].is_dir():
                s["digest"] = digest(s["out"])
                shutil.rmtree(s["out"])
        if "setup_s" in s:
            setups.append(s["setup_s"])
        samples.append(s)
        # stop when the next sample, taking the median time, would end late
        done_kinds = len(samples) >= len(kinds)
        if done_kinds and time.monotonic() - t0 + statistics.median(durations) > seconds:
            break

    # runs are deterministic in (seed, config): every passing sample's
    # output files must match the first passing sample's byte for byte
    passing = [s for s in samples if not s["problems"]]
    for s in passing[1:]:
        if s["digest"] != passing[0]["digest"]:
            s["problems"].append("outputs differ from an earlier sample of this run")

    failed = sum(1 for s in samples if s["problems"])
    plain = [s for s in samples if s["kind"] == "plain" and not s["problems"]]
    traced = [s for s in samples if s["kind"] == "traced" and not s["problems"]]
    metrics = {}
    if not trace and plain:
        metrics["wall_s"] = (statistics.median(s["wall_s"] for s in plain), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            statistics.median(s["peak_rss_kb"] / 1024.0 for s in plain),
            "MB",
        )
    elif trace and plain and traced:
        from spans import layer_metrics

        per_sample = [layer_metrics(s["spans"]) for s in traced]
        for key, (_, unit) in per_sample[0].items():
            metrics[key] = (statistics.median(m[key][0] for m in per_sample), unit)
        metrics["cli.bytes_written"] = (float(traced[0]["bytes_written"]), "bytes")
        metrics["trace.overhead_s"] = (
            statistics.median(s["wall_s"] for s in traced)
            - statistics.median(s["wall_s"] for s in plain),
            "s",
        )
    return samples, setups, metrics, failed


SAMPLE_KEYS = ("kind", "rc", "wall_s", "setup_s", "peak_rss_kb", "outputs", "problems", "bytes_written")


def execute(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one run; the record holds the environment, samples and result."""
    env = environment()
    samples, setups, metrics, failed = run(name, seed, seconds, trace)
    outputs = next((s["outputs"] for s in samples if "outputs" in s), None)
    claims = [
        {"claim": label, "holds": holds(outputs)}
        for label, holds in WORKLOADS[name].claims
        if outputs is not None
    ]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": env,
        "fail_ratio": failed / len(samples),
        "claims": claims,
        "setup_samples_s": setups,
        "samples": [{k: v for k, v in s.items() if k in SAMPLE_KEYS} for s in samples],
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def report(record: dict) -> None:
    seed = record["seed"]
    name = record["workload"]
    checks = "reference values + gates" if seed == REFERENCE[name]["seed"] else "gates only"
    print(f"bench: workload={name} seed={seed} trace={record['trace']} checks={checks}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    samples = record["samples"]
    for i, s in enumerate(samples, 1):
        status = "ok" if not s["problems"] else "FAILED: " + "; ".join(s["problems"])
        wall = f"{s['wall_s']:.3f} s" if "wall_s" in s else "-"
        print(f"sample {i} ({s['kind']}): wall {wall}, {status}")
    for c in record["claims"]:
        verdict = "holds" if c["holds"] else "DOES NOT HOLD"
        print(f"claim: {c['claim']}: {verdict} (reported, not counted as a failure)")
    result = record["result"]
    print(f"fail_ratio: {result['failed']}/{result['attempted']} = {record['fail_ratio']:.3g}")
    n_plain = sum(1 for s in samples if s["kind"] == "plain" and not s["problems"])
    for key, m in result["metrics"].items():
        count = ""
        if not record["trace"]:
            n = len(record["setup_samples_s"]) if key == "setup_s" else n_plain
            count = f" (median of {n})"
        print(f"metric {key} = {m['value']:.6g} {m['unit']}{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rpsde CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="rpsde seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = REFERENCE[args.workload]["seed"] if args.seed is None else args.seed
    if not (SRC / "rpsde" / "__init__.py").is_file():
        print(f"bench: no rpsde sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = execute(args.workload, seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: cannot start rpsde: {exc}", file=sys.stderr)
        return 2
    report(record)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
