"""Machine-speed calibration of the benchmark's timings.

On a shared machine the speed of the processor the benchmark gets drifts:
on the 2-core sandbox the benchmark was built on, the same spaces pass took
26 s in one hour and 38 s in the next, and identical passes a few seconds
apart differed by 20%.  Process CPU time drifts the same way, so it is no
cure.  What does follow the drift is a fixed loop of Python integer
arithmetic run in the same process, interleaved with the timed work.

So every time the benchmark reports is scaled to a reference speed: it is
multiplied by ``REFERENCE_S / c``, where ``c`` is the median time of
``loop()`` sampled around and during the timed work.  ``REFERENCE_S`` is
that loop's median time on the machine above; it only sets the unit, so
that scaled seconds are close to the seconds measured there.  The loop
never calls the library, so a change to the library moves the scaled time
by the same factor as the measured one.  The measured (raw) times
and the scale are printed beside the scaled ones.

Over twenty runs of the spaces workload, whose work does not depend on the
seed, the run took from 30 s to 45 s end to end while the scaled wall_s
ranged from 35.4 s to 39.6 s: the scale removes about three quarters of
the drift, and slow stretches of the machine still read a little slow.
In a traced pass, the samples taken inside a span count in its time
(about 2% of the pass).
"""

import signal
import statistics
import time

REFERENCE_S = 0.002
LOOP_COUNT = 20000
# during a pass, a timer signal samples the loop every INTERVAL_S
INTERVAL_S = 0.25
TICK_SAMPLES = 3
EDGE_SAMPLES = 5


def loop():
    s = 0
    for i in range(LOOP_COUNT):
        s += i * i % 7
    return s


def sample(count):
    """Times of count runs of the loop, in seconds."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        loop()
        out.append(time.perf_counter() - start)
    return out


def scale_of(samples):
    return REFERENCE_S / statistics.median(samples)


class Calibrator:
    """Samples the loop before, during (from an interval timer) and after
    the timed work of a ``with`` block.  ``spent`` is the time taken by the
    samples inside the block, which the caller subtracts from what it
    times there."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.extend(sample(TICK_SAMPLES))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples.extend(sample(EDGE_SAMPLES))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.extend(sample(EDGE_SAMPLES))
        return False

    @property
    def scale(self):
        return scale_of(self.samples)
