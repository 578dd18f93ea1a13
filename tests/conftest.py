"""Helpers that choose which path a forking estimator takes, whatever CPUs the host has.

`periodic.two_cpus` reads os.sched_getaffinity at each call, so patching it
chooses between a forked child and one process. Tests import these
functions (`from conftest import forking, one_cpu`) and call them with a
monkeypatch, which lets one test switch between the two paths.
"""

import os


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
