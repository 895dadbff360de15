"""Times at one reference CPU speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of up to 1.9 over minutes: the same extract job took 0.58 s and 1.08 s
twenty minutes apart, with the process on the CPU the whole time.  A median
over one run cannot average that away.  So every CPU-bound operation is timed
next to a fixed reference computation, which the program under test never
touches, and is reported at the speed at which the reference takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / reference

where ``reference`` is the mean of the reference's times just before and
just after the operation.  A change to the program moves the measured time
and not the reference, so it shows in full; a change of host speed moves
both and cancels.  Round trips over loopback wait on TCP timers, not on the
CPU, and are reported as measured.
"""

from __future__ import annotations

import time

#: the reference's time at the reference speed, about its median on a
#: 2-CPU shared host; reported times are seconds at that speed
REFERENCE_S = 0.040


class Speed:
    """The reference computation: interpreter work (dictionary updates in a
    loop) and array work (a sort and a random gather), as the program mixes
    them.  Its inputs are fixed, so every run times the same work."""

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 30, 300_000)
        self._values = rng.random(1 << 19)
        self._gather = rng.integers(0, 1 << 19, 1 << 20).astype(numpy.int32)
        #: every time the reference took, in seconds
        self.samples: list[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        """Seconds the reference takes now."""
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(120_000):
            key = i % 7919
            counts[key] = counts.get(key, 0) + i
        self._keys.copy().sort()
        self._values[self._gather].sum()
        seconds = time.perf_counter() - started
        self.samples.append(seconds)
        return seconds

    def scale(self) -> float:
        """The factor for the operation that ended just now: the reference
        is timed again and averaged with its previous time, which was taken
        just before the operation began."""
        now = self.sample()
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        return factor
