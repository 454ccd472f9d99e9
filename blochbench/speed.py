"""The processor's speed during the timed calls.

On a shared machine the same Python code runs at different speeds from one
minute to the next: on the 2-vCPU sandbox this benchmark was built on, a
fixed loop alternated between two speeds about 40 % apart, in episodes from
seconds to minutes, and within them lost the processor for a few
milliseconds at a time (README, "Speed scaling").  A fixed pure-Python
kernel shaped like the program's inner loops (a scalar RK4 step with a
function call per stage) is therefore timed every ``EVERY_S`` seconds
while a program call runs, from a timer signal, and its time is taken out
of the call's.  Each call's time is scaled by ``KERNEL_REF_S`` over the
mean of the kernel's times during the call, or just before a call shorter
than the timer's period, so a metric reads the time the call takes at the
reference speed.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

# The kernel's time at the reference speed: the faster of the two speeds of
# the sandbox above (Python 3.11.7).  It only sets the scale of the metrics.
KERNEL_REF_S = 1.7e-3
EVERY_S = 0.2
# A cold set-up is only partly interpreter work: loading numpy's shared
# libraries and the page faults of a new process do not slow down with the
# kernel.  Between the two speeds its time moved about as the square root of
# the kernel's (fitted exponents 0.37-0.53, README "Set-up time").
SETUP_EXPONENT = 0.5


def kernel_seconds() -> float:
    sin, cos = math.sin, math.cos

    def rate(theta: float, u: float) -> float:
        return u - sin(theta) * cos(theta)

    start = time.perf_counter()
    theta, h = 0.1, 1e-3
    for _ in range(3000):
        k1 = rate(theta, 1.0)
        k2 = rate(theta + 0.5 * h * k1, 1.0)
        k3 = rate(theta + 0.5 * h * k2, 1.0)
        k4 = rate(theta + h * k3, 1.0)
        theta += h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return time.perf_counter() - start


def outcome(fn, args):
    """(result, None) of a call, or (None, the exception it raised)."""
    try:
        return fn(*args), None
    except Exception as exc:  # the program's failure is this operation's outcome
        return None, exc


def scaled_setup(raw_s: float) -> tuple[float, float]:
    """(set-up seconds at the reference speed, kernel seconds), for a set-up just ended."""
    kernel_seconds()  # the first run in a process is slower: discard it
    kernel = statistics.median(kernel_seconds() for _ in range(5))
    return raw_s * (KERNEL_REF_S / kernel) ** SETUP_EXPONENT, kernel


class Speed:
    """Kernel samples taken during the timed calls of one round."""

    def __init__(self):
        kernel_seconds()  # the first run in a process is slower: discard it
        self.samples: list[float] = []
        self._in_call = False
        self._kernel_s = 0.0  # kernel time inside the current call

    def _sample(self, signum, frame) -> None:
        if self._in_call:
            start = time.perf_counter()
            self.samples.append(kernel_seconds())
            self._kernel_s += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel from a timer signal while calls are timed."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time_call(self, fn, args):
        """(result, exception, seconds, factor to the reference speed) of one call.

        The seconds leave out the kernel's runs inside the call.  The factor
        uses those runs or, for a call that had none, the last two before it.
        """
        if not self.samples:  # the round's first call
            self.samples.append(kernel_seconds())
        first = len(self.samples)
        self._kernel_s = 0.0
        self._in_call = True
        start = time.perf_counter()
        try:
            result, error = outcome(fn, args)
        finally:
            self._in_call = False
        seconds = time.perf_counter() - start - self._kernel_s
        around = self.samples[first:] or self.samples[-2:]
        return result, error, seconds, KERNEL_REF_S / statistics.fmean(around)

    def mean_ms(self) -> float:
        return 1e3 * statistics.fmean(self.samples)
