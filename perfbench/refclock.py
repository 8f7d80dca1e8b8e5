"""A clock that reads reference seconds: the time the measured code would
take on a machine running at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed changes by up
to 2x for seconds to minutes at a time, whatever runs inside them.  Raw
wall time then measures the host as much as weylkit.  `RefClock`
interrupts the measured code every TICK_S seconds (SIGALRM) and times
`calibrate`, a fixed loop of standard-library `Fraction` arithmetic and
small allocations, much like weylkit's own inner loops.  Between ticks
the clock advances at REFERENCE_CALIBRATION_S divided by the median of
the last SMOOTH calibration times, so a second of work at half speed
counts as half a reference second.  While the calibration itself runs
the clock stands still.

The calibration uses no weylkit code, so a change to weylkit cannot move
it; reference time moves in proportion to real time on a steady machine.
"""

import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

TICK_S = 0.05
SMOOTH = 5
# calibrate()'s time on a 2-vCPU x86-64 VM, Python 3.11, in its fast
# periods; it only sets the scale of reference seconds.
REFERENCE_CALIBRATION_S = 0.001


def calibrate():
    """Seconds taken by one run of the calibration loop."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 181):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    table = {i: [i, total] for i in range(1400)}
    del table
    return perf_counter() - start


class RefClock:
    """Reference seconds since construction; `start` begins the ticks
    that keep its rate current, `stop` ends them."""

    def __init__(self):
        calibrate()
        self._recent = deque((calibrate() for _ in range(SMOOTH)),
                             maxlen=SMOOTH)
        self.ticks = 0
        # (reference seconds at mark, perf_counter mark, rate); replaced
        # as one tuple so a tick between two reads cannot mix states.
        self._state = (0.0, perf_counter(), self._rate())

    def _rate(self):
        return REFERENCE_CALIBRATION_S / statistics.median(self._recent)

    def now(self):
        base, mark, rate = self._state
        return base + (perf_counter() - mark) * rate

    def _tick(self, signum, frame):
        base, mark, rate = self._state
        paused = perf_counter()
        base += (paused - mark) * rate
        self._recent.append(calibrate())
        self.ticks += 1
        self._state = (base, perf_counter(), self._rate())

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
