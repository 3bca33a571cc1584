"""Fixtures shared by several test modules: each measurement is taken once per session."""

import contextlib
import io
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import shocklab.godunov as fv
import shocklab.verification as ver
from shocklab import cli

# The verify invocations tier-1 measures, by (suite, seed): every suite at
# seed 7, and at seeds 0 and 42, which move the pde and agreement suites.
VERIFY_RUNS = (("all", 0), ("all", 7), ("all", 42))


def _recorded(values, f):
    """f, appending each value it returns to the list values."""
    def call(*args):
        values.append(f(*args))
        return values[-1]
    return call


def _by_path(paths, update):
    """update, counting each step it takes in the Counter paths by the path of
    godunov._update: "ordered" when the adiff buffer is left holding diff(ext),
    all <= 0, which only the ordered path leaves; "general" when it holds
    |diff(ext)|, with a positive or NaN entry."""
    def counted(m, dt):
        update(m, dt)
        paths["ordered" if np.maximum.reduce(m.adiff) <= 0.0 else "general"] += 1
    return counted


def _serial(first, second):
    """verification._both without the fork: first(), then second()."""
    return first(), second()


def _verify(suite, seed):
    """One instrumented in-process run of `shocklab verify --suite suite --seed seed`.

    code, out, err and report are its exit code, stdout, stderr and Report, and
    measured maps each check's name to its measured value.  fits holds each
    FitReport verification._fit returns and gaps each pair of arrays
    verification.lax_gaps returns.  Of the godunov march: calls
    counts the godunov module's psi_weak_array calls by np.ndim of their
    times (1: a window of ghost fill times; 0: one time, as _exact_averages asks);
    fills counts the ghost fills (_fill_ghost) and windows the ghost windows
    solved (_prefetch), by the cells of their grid; updates counts the
    updates by path (_by_path); states holds the tuple of states of each
    solve_at call and errors each value _l1_distance returns (l1_error calls it).
    All lists are in call order.  verification._both runs its two halves in
    turn here (_serial), so every count sees both: a forked child's calls
    would be counted in the child.
    """
    run = SimpleNamespace(calls=Counter(), fills=0, windows=Counter(), updates=Counter(), states=[], errors=[],
                          fits=[], gaps=[])
    field, fill, prefetch, reports = fv.psi_weak_array, fv._fill_ghost, fv._prefetch, []

    def counted(t, x):
        run.calls[np.ndim(t)] += 1
        return field(t, x)

    def filled(m, ghost):
        run.fills += 1
        return fill(m, ghost)

    def prefetched(s0, *args):
        run.windows[s0.n_cells] += 1
        return prefetch(s0, *args)

    with (pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()) as out,
          contextlib.redirect_stderr(io.StringIO()) as err):
        for module, name, wrapper in (
            (fv, "psi_weak_array", counted), (fv, "_fill_ghost", filled), (fv, "_prefetch", prefetched),
            (fv, "_update", _by_path(run.updates, fv._update)),
            (fv, "solve_at", _recorded(run.states, fv.solve_at)),
            (fv, "_l1_distance", _recorded(run.errors, fv._l1_distance)),
            (ver, "_fit", _recorded(run.fits, ver._fit)), (ver, "lax_gaps", _recorded(run.gaps, ver.lax_gaps)),
            (cli, "run_suite", _recorded(reports, cli.run_suite)), (ver, "_both", _serial),
        ):
            mp.setattr(module, name, wrapper)
        run.code = cli.main(["verify", "--suite", suite, "--seed", str(seed)])
    run.out, run.err, (run.report,) = out.getvalue(), err.getvalue(), reports
    run.measured = {c.name: c.measured for c in run.report.checks}
    return run


def pytest_report_header(config):
    """numpy's version and the SIMD extensions it found on this CPU: every
    .hex() pin and golden sha256 rests on numpy's arctan, whose last bits may
    differ with either, so a pin that fails on another setup can be traced."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2 keeps the module under numpy.core
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
    return f"numpy {np.__version__}, SIMD extensions found: {' '.join(found) or 'none'}"


@pytest.fixture(scope="session")
def verify_runs():
    """Each pinned verify invocation, run once per session (_verify), by (suite, seed)."""
    return {(suite, seed): _verify(suite, seed) for suite, seed in VERIFY_RUNS}


@pytest.fixture
def update_paths(monkeypatch):
    """The Godunov updates of the test, counted by path (_by_path)."""
    paths = Counter()
    monkeypatch.setattr(fv, "_update", _by_path(paths, fv._update))
    return paths


@pytest.fixture
def fork_pids(monkeypatch):
    """The pids os.fork returns to the parent in the test, in call order."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids
