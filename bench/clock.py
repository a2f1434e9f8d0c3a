"""Wall times scaled to a fixed machine speed.

The benchmark's machine is shared, and its speed changes under the benchmark
as other tenants come and go: a fixed pure-Python loop runs either at one
speed or about 40% slower, switching every few seconds, and every operation
of rvqkit (numpy lookups, BLAS, JSON parsing, interpreter-bound loops) slows
down with it. No estimator over one run's wall times removes a change of
speed that lasts about as long as the run.

So the speed of the machine is sampled while each operation runs: a fixed
pure-Python loop (the calibration) is timed just before and just after the
operation, and, from a SIGALRM handler, every `PERIOD_S` while it runs. The
operation's wall time, less the time spent in the handler, is scaled by the
mean over the samples of `REFERENCE_S` / calibration time, which gives the
seconds it would take on a machine whose calibration takes `REFERENCE_S`.
The calibration calls no rvqkit code, so a change to the program moves the
scaled time as it moves the wall time; the speed of the machine cancels out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

ITERATIONS = 25_000
# Calibration time of the machine the reference figures in bench/README.md
# were taken on, in its fast state; scaled times read as seconds there.
REFERENCE_S = 1.5e-3
PERIOD_S = 0.1


def _loop() -> float:
    start = perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return perf_counter() - start


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of three runs)."""
    return statistics.median(_loop() for _ in range(3))


def timed(fn, *args, **kwargs):
    """Run `fn`; returns (scaled seconds, wall seconds, its result)."""
    samples = [calibrate()]
    in_handler = 0.0

    def sample(signum, frame):
        nonlocal in_handler
        start = perf_counter()
        samples.append(_loop())
        in_handler += perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    # Restart system calls the signal interrupts, also those made from C.
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibrate())
    wall -= in_handler
    return wall * statistics.fmean(REFERENCE_S / s for s in samples), wall, result
