"""Machine-speed reference for correcting the benchmark's timings.

On a shared machine the speed of one thread drifts by tens of percent over
a few seconds, and the drift is common to every workload here: the same
compare-small-n solve took 0.51 s to 1.00 s within one minute on a 2-vCPU
Intel Xeon virtual machine, in CPU time as in wall time. A fixed
pure-Python loop, timed just before and just after a measured interval,
follows that drift. Multiplying the interval by NOMINAL_S / (loop time)
gives the time it would have taken on a machine where the loop takes
NOMINAL_S. The loop runs in the benchmark, never inside hopfphase, so no
change to the program can move it.
"""
from time import perf_counter

LOOP_N = 60_000
NOMINAL_S = 0.005


def reference_loop() -> float:
    """Best of three timings of the fixed loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


def corrected(seconds: float, before: float, after: float) -> float:
    """An interval's time at nominal speed, from the loop times around it."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
