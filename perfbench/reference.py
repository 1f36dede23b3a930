"""A fixed unit of pure-Python work that scales timings to a reference speed.

A shared host runs the same code at speeds that drift by a fifth or more
within seconds.  The benchmark times this reference next to every timed
operation, in the same process, and reports times as they would read on a
machine where the reference takes REF_S:

    scaled = measured * REF_S / reference time around the operation

A Clock also interrupts a long operation every TICK_S to time the
reference again, so that the speed is sampled throughout, not only at the
ends.  The work is tuple permutation arithmetic and dict inserts, the same
kind of work twistkit's braid and perms layers do, but it never imports
twistkit, so a change to the program cannot change the reference.
"""

from __future__ import annotations

import signal
import time

# Seconds one reference_s() call takes on the machine the numbers are scaled
# to (about its median on a 2-vCPU Xeon at 2.1 GHz with CPython 3.11).
REF_S = 0.008
UNITS = 3
# Seconds between reference samples inside one timed operation.
TICK_S = 0.25


def _unit() -> int:
    p = tuple(range(12))
    q = tuple(reversed(p))
    acc = 0
    seen = {}
    for i in range(600):
        p = tuple(q[j] for j in p)
        q = tuple(p[(j * 5 + i) % 12] for j in range(12))
        seen[p] = i
        acc += sum(x * y for x, y in zip(p, q)) % 97
    return acc + len(seen)


def reference_s() -> float:
    """Seconds the fixed reference work takes now."""
    start = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - start


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` at reference speed, from the reference timed on either side."""
    return seconds * REF_S * 2.0 / (ref_before + ref_after)


class Clock:
    """Times calls at reference speed, in the main thread of one process.

    With ticks, SIGALRM pauses the call every TICK_S to time the reference;
    each stretch between samples is scaled by the two samples around it,
    and the sampling itself is left off the clock.  Without ticks (a traced
    run, whose spans must not hold reference work) only the ends are sampled.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.ref = reference_s()

    def time(self, fn, *args):
        """Returns (fn's result, seconds as measured, seconds at reference speed)."""
        raw = scaled_s = 0.0
        start = time.perf_counter()

        def sample(*_):
            nonlocal raw, scaled_s, start
            stretch = time.perf_counter() - start
            ref = reference_s()
            raw += stretch
            scaled_s += scaled(stretch, self.ref, ref)
            self.ref = ref
            start = time.perf_counter()

        if self.ticks:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn(*args)
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            sample()
        return result, raw, scaled_s


def main(argv) -> int:
    """`python3 reference.py MODULE`: import MODULE on the clock in this fresh
    interpreter and print seconds as measured and at reference speed."""
    import importlib

    module, raw, scaled_s = Clock().time(importlib.import_module, argv[0])
    print(module.__file__)
    print(raw, scaled_s)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
