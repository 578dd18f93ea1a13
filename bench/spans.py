"""Span recording for the traced benchmark run, and per-layer metrics from spans.

The program is not instrumented. `Tracer.install` replaces the public entry
points of each rpsde layer with wrappers, in every loaded `rpsde.*` module that
binds them, so calls between layers pass through a wrapper. Each wrapper
records one span (name, start, end, parent span) in memory; `Tracer.write`
saves all spans once, when the run ends. Counts come from the values the
wrapped functions return, never from counters inside the program.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import replace

import numpy as np

# layer name -> (module, attribute) of each wrapped entry point that the
# benchmark's workloads reach; a dotted attribute names a method on a class
BOUNDARIES = {
    "cli": [("rpsde.cli", "main")],
    "periodic": [
        ("rpsde.periodic", "pullback_converge"),
        ("rpsde.periodic", "periodicity_check_shifted"),
        ("rpsde.periodic", "periodicity_check_pullback"),
    ],
    "analysis": [("rpsde.analysis", "ms_error")],
    "integrator": [("rpsde.integrator", "simulate_ensemble")],
    "noise": [
        ("rpsde.noise", "generate"),
        ("rpsde.noise", "generate_uniform"),
        ("rpsde.noise", "WienerGrid.step_increments"),
    ],
}

# the problem's callables, wrapped on every problem that catalog_entry builds
MODEL_CALLABLES = ("drift", "drift_jacobian", "diffusion")


def _grid_counts(grid):
    # one Philox stream per noise component; cells drawn over all components
    return (grid.noise_dim, grid.increments.size)


def _ensemble_counts(result):
    times, states, iters = result
    return (len(times) - 1, states.shape[0], int(iters.sum()), int(iters.max(initial=0)))


# span name -> function of the wrapped call's return value giving its counts
COUNTERS = {
    "noise.generate": _grid_counts,
    "noise.generate_uniform": _grid_counts,
    "integrator.simulate_ensemble": _ensemble_counts,
}


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, tuple] = {}
        self._stack = [-1]

    def wrap(self, span_name, fn):
        name_id = self.name_ids.setdefault(span_name, len(self.name_ids))
        counter = COUNTERS.get(span_name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[idx] = counter(result)
            return result

        return traced

    def install(self):
        """Wrap every layer boundary in the loaded rpsde modules."""
        for layer, entries in BOUNDARIES.items():
            for module_name, attr in entries:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = self.wrap(f"{layer}.{leaf}", original)
                if path:
                    setattr(owner, leaf, wrapped)
                else:
                    _rebind(original, wrapped)
        catalog_entry = sys.modules["rpsde.models"].catalog_entry
        _rebind(catalog_entry, self._traced_catalog(catalog_entry))

    def _traced_catalog(self, catalog_entry):
        def traced_catalog_entry(name, **params):
            entry = catalog_entry(name, **params)
            problem = entry.problem
            callables = {
                attr: self.wrap(f"models.{attr}", getattr(problem, attr))
                for attr in MODEL_CALLABLES
            }
            return replace(entry, problem=replace(problem, **callables))

        return traced_catalog_entry

    def write(self, path):
        n = len(self.start)
        idx = np.fromiter(self.counts.keys(), dtype=np.int64, count=len(self.counts))
        counts = np.zeros((len(self.counts), 4))
        for row, values in enumerate(self.counts.values()):
            counts[row, : len(values)] = values
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(list(self.name_ids)),
                name=np.frombuffer(self.name, dtype=np.int32, count=n),
                parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
                start=np.frombuffer(self.start, dtype=np.float64, count=n),
                end=np.frombuffer(self.end, dtype=np.float64, count=n),
                count_index=idx,
                counts=counts,
            )


def _rebind(original, replacement):
    """Point every rpsde module attribute bound to `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "rpsde" or module_name.startswith("rpsde.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def layer_metrics(path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one written span file."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name = z["name"]
        parent = z["parent"]
        dur = z["end"] - z["start"]
        count_index = z["count_index"]
        counts = z["counts"]
    layer = np.array([n.split(".", 1)[0] for n in names] or [""])[name]
    has_parent = parent >= 0
    # self time: span duration minus the durations of its direct children
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
    outermost = layer != parent_layer

    def busy(lay):
        return float(dur[(layer == lay) & outermost].sum())

    def self_s(lay):
        return float(self_time[layer == lay].sum())

    def calls(span_name):
        if span_name not in names:
            return 0
        return int(np.count_nonzero(name == names.index(span_name)))

    def counted(span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return counts[np.isin(name[count_index], ids)]

    wall = busy("cli")
    noise = counted(["noise.generate", "noise.generate_uniform"])
    streams, cells = float(noise[:, 0].sum()), float(noise[:, 1].sum())
    runs = counted(["integrator.simulate_ensemble"])
    steps = float(runs[:, 0].sum())
    path_steps = float((runs[:, 0] * runs[:, 1]).sum())
    integ = busy("integrator")
    models = busy("models")
    return {
        "noise.streams": (streams, "count"),
        "noise.cells": (cells, "count"),
        "noise.busy_s": (busy("noise"), "s"),
        "noise.ns_per_cell": (busy("noise") / cells * 1e9 if cells else 0.0, "ns"),
        "noise.share": (100.0 * busy("noise") / wall, "%"),
        "models.drift_calls": (float(calls("models.drift")), "count"),
        "models.jacobian_calls": (float(calls("models.drift_jacobian")), "count"),
        "models.diffusion_calls": (float(calls("models.diffusion")), "count"),
        "models.busy_s": (models, "s"),
        "models.share": (100.0 * models / wall, "%"),
        "integrator.calls": (float(runs.shape[0]), "count"),
        "integrator.steps": (steps, "count"),
        "integrator.path_steps": (path_steps, "count"),
        "integrator.self_s": (self_s("integrator"), "s"),
        "integrator.us_per_step": (integ / steps * 1e6 if steps else 0.0, "us"),
        "integrator.ns_per_path_step": (
            integ / path_steps * 1e9 if path_steps else 0.0,
            "ns",
        ),
        "integrator.newton_iters_mean": (
            float(runs[:, 2].sum()) / steps if steps else 0.0,
            "count",
        ),
        "integrator.newton_iters_max": (float(runs[:, 3].max(initial=0.0)), "count"),
        "periodic.self_s": (self_s("periodic"), "s"),
        "analysis.self_s": (self_s("analysis"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
    }
