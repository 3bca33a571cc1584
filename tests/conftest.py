"""Fixtures shared by several test modules: each measurement is taken once per session."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import shocklab.godunov as fv
from shocklab.verification import run_suite


@pytest.fixture(scope="session")
def godunov_suite():
    """One instrumented run of run_suite("godunov"): its 4000- and 8000-cell marches.

    report is the suite's report.  calls counts the godunov module's
    psi_weak_array calls by np.ndim of their times (1: a window of ghost
    fill times; 0: one time, as l1_error asks).  fills counts the ghost
    fills (_fill_ghost) and windows the ghost windows solved (_prefetch),
    by the cells of their grid.  states holds the tuple of states of each
    solve_at call and errors each value l1_error returns, in call order.
    """
    run = SimpleNamespace(calls=Counter(), fills=0, windows=Counter(), states=[], errors=[])
    field, fill, prefetch = fv.psi_weak_array, fv._fill_ghost, fv._prefetch
    solve_at, l1_error = fv.solve_at, fv.l1_error

    def counted(t, x):
        run.calls[np.ndim(t)] += 1
        return field(t, x)

    def filled(m, ghost):
        run.fills += 1
        return fill(m, ghost)

    def prefetched(s0, *args):
        run.windows[s0.n_cells] += 1
        return prefetch(s0, *args)

    def solved(t_ends, s0):
        run.states.append(solve_at(t_ends, s0))
        return run.states[-1]

    def compared(s):
        run.errors.append(l1_error(s))
        return run.errors[-1]

    with pytest.MonkeyPatch.context() as mp:
        for name, wrapper in (("psi_weak_array", counted), ("_fill_ghost", filled), ("_prefetch", prefetched),
                              ("solve_at", solved), ("l1_error", compared)):
            mp.setattr(fv, name, wrapper)
        run.report = run_suite("godunov")
    return run
