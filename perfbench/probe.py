"""Host-speed probe: how fast the machine ran while the ops were timed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts, for
the same fixed inputs, by up to 2x over minutes and by 10-40 % between runs
a few minutes apart (CPU time tracks wall time, so the loss happens below
the guest).  To keep runs comparable, a timer signal interrupts the timed
ops every ``INTERVAL_S`` and runs a fixed ~20 us kernel (a short Python
loop and a small numpy call, the package's own mix) between two bytecodes
of the program, so the samples cover exactly the time the ops ran.  The
kernel runs twice and only the second run is timed: the first one's time
depends on what the program left in the caches (up to 2x between
workloads), the second one's does not.  A quantile of the timed
durations over ``REF_S`` is the host factor: 1 on a calm host, 2 when
every instruction takes twice as long.

* An op that held at least ``MIN_OP_SAMPLES`` samples (200 ms or more)
  gets the low quartile of its own samples: its time is spread over many
  moments, and the host changes speed within seconds.
* A shorter op gets the 5th percentile of the whole run's samples: its
  reported time is its best repeat, taken at the host's fastest moments.
  The durations are bimodal when the host is busy (about 20 and 30 us
  here), and only a low percentile stays on the fast mode.
* Each set-up launch times the kernel back to back right after it is
  ready and gets the 5th percentile of those.

Times in the result line are divided by these factors; the raw times are
kept in the provenance line.

The probe's own time is counted in ``busy``; the worker subtracts the part
that falls inside an op from that op's latency.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# The kernel's low-percentile duration on a calm 2.0 GHz Xeon vCPU, Python
# 3.11.7, numpy 2.4.6: normalised times are seconds on that host when calm.
REF_S = 20e-6
RUN_QUANTILE = 5.0
OP_QUANTILE = 25.0
MIN_SAMPLES = 100
MIN_OP_SAMPLES = 20


class HostProbe:
    """Context manager that samples the probe kernel on SIGALRM while active."""

    def __init__(self):
        self.durations: list[float] = []
        self.busy = 0.0
        self._data = np.arange(64.0)

    def _kernel(self):
        s = 0
        for i in range(300):
            s += i * i % 7
        np.sin(self._data).sum()

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()  # untimed: brings the kernel back into the caches
        t1 = time.perf_counter()
        self._kernel()
        self.durations.append(time.perf_counter() - t1)
        self.busy += time.perf_counter() - t0

    def sample(self, n: int) -> None:
        """Time the kernel n times back to back, outside the timer."""
        self._kernel()
        for _ in range(n):
            t0 = time.perf_counter()
            self._kernel()
            self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def op_p25(self, first: int) -> float | None:
        """Low quartile of the samples from index `first` on; None if too few."""
        if len(self.durations) - first < MIN_OP_SAMPLES:
            return None
        return float(np.percentile(self.durations[first:], OP_QUANTILE))

    def summary(self) -> dict:
        """Sample count, the kernel's 5th percentile and the host factor."""
        if len(self.durations) < MIN_SAMPLES:
            raise ValueError(f"host probe took {len(self.durations)} samples, fewer than {MIN_SAMPLES}")
        p = float(np.percentile(self.durations, RUN_QUANTILE))
        return {"samples": len(self.durations), "p5": p, "factor": p / REF_S}
