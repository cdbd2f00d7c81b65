"""Host-speed calibration for the benchmark's times.

A shared 2-vCPU virtual machine was seen to switch each vCPU between a fast
and a slow state, about 1.6x apart, every fraction of a second, and to run
the same regsyn job 1.4-1.6x slower for minutes at a time.  No run length
averages that away, so the benchmark measures the host's speed next to
each job with `calibrate`, a fixed loop of about CAL_REF seconds, and
reports times in reference seconds: the time the work would take on a
host that runs the loop in CAL_REF seconds.

The loop runs on the calling thread between jobs, while no job runs
(`Runner.run_pass` in run.py), and a job's time is scaled by the mean of
the calibrations before and after it.  That tracks jobs that run on one
thread and last well under a second; the `closed_loop` jobs are kept that
short for it.

It does not track `boost_grid`, one job of about ten seconds on regsyn's
two-thread pool.  On that machine, calibrations between its passes spread
more than the passes themselves (the ratio of the two moved from 0.9 to 1.6
between runs), and a second process sampling alongside the job is biased:
it read 0.62x speed beside a one-thread grid solve and 0.75x beside a
two-thread one, because the job's own threads slow the other vCPU, so a
change of regsyn's thread count would have moved the reference time by
itself.  What did track the grid, over ten runs whose plain times drifted
by about 30%, is the fresh interpreter that `measure_setup` in run.py times
between passes as the reference for `setup_s`: the grid's time over the
interpreter's spread by 7% where the plain time spread by 17%.  So the
grid's times are scaled by SETUP_REF over the median of those
interpreters in the run.
"""

from __future__ import annotations

import time

import numpy as np

CAL_REF = 0.004       # seconds of one calibration at the reference speed
_M = np.cos(np.arange(36.0).reshape(6, 6))


def calibrate():
    """Seconds of a fixed mix of small numpy calls and Python float
    arithmetic, the kind of work regsyn's layers do."""
    start = time.perf_counter()
    s = 0.0
    for i in range(100):
        s += float(np.linalg.eigvals(_M).real.max())
        v = _M @ _M[:, i % 6]
        s += 1e-3 * float(v @ v) + 0.5 * (i % 7)
    return time.perf_counter() - start
