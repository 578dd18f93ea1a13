"""Helpers that choose which path a forking estimator takes, whatever CPUs the host has,
and one that runs a new interpreter.

`periodic.two_cpus` reads os.sched_getaffinity at each call, so patching it
chooses between a forked child and one process. Tests import these
functions (`from conftest import forking, one_cpu`) and call them with a
monkeypatch, which lets one test switch between the two paths.
`fresh_interpreter` checks what importing rpsde does to a process that has
imported nothing else.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def forking(monkeypatch):
    """Two CPUs, whatever the host has; returns the list of the pids forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def fresh_interpreter(*args):
    """A new interpreter run with args, which imports rpsde from this tree's src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
