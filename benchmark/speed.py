"""CPU-speed normalisation of timings taken on a shared machine.

On a machine whose cores are shared with other tenants, the speed of the
one core a benchmark process runs on changes from one fraction of a
second to the next: a fixed loop of Python additions takes up to twice as
long in a slow spell as in a quiet one, and the two vCPUs of one machine
change independently of each other.  Pass-to-pass spreads of 20-45% on
identical work come from that alone.

:class:`SpeedProbe` samples the speed of the process's own core while it
works: a timer signal interrupts the main thread every ``INTERVAL_S``
and runs a fixed probe, whose duration says how fast the core is right
then.  The probe mixes interpreter work (a loop of integer additions)
with numpy sums over a 1 MB array, as the workloads mix both.  It sums
the array once before it starts timing, so that its duration does not
depend on how much of the cache the workload itself used.  Run beside
workload passes in slow spells, with the probe interleaved with two
alternatives, it left per-pass times these coefficients of variation:

==============  ===========  ========  ==================  ==========
workload        wall clock   probe     interpreter loop    cold array
==============  ===========  ========  ==================  ==========
dense_chain     0.139        0.028     0.046               0.046
chain_batch     0.135        0.028     0.045               0.046
fpe_refine      0.081        0.057     0.058               0.051
==============  ===========  ========  ==================  ==========

On a cold array the probe's 5th percentile read 0.25 ms beside
dense_chain and 0.30-0.34 ms beside fpe_refine, so fpe_refine's figure
would have moved with its own memory traffic; warmed, it read
0.20-0.23 ms beside all three.

:meth:`SpeedProbe.work_clock` turns the record into a clock in
*reference seconds*: each stretch of work between two probes counts its
wall time times ``REFERENCE_S / probe duration``, and the probes' own
time counts nothing.  A timing in reference seconds is the time the work
would take on a core that runs the probe in ``REFERENCE_S``, which
depends much less on how busy the neighbours were than wall time does.
``REFERENCE_S`` is about the probe's shortest durations on the machine
the benchmark was tuned on, so that figures there stay close to the
wall-clock seconds of a quiet spell.

The probe only reads the clock, adds integers and sums its own array in
the main thread.  The code under test sees nothing of it but the
interruptions, which cost about 1.5% of the wall time and are taken out
again, and the part of its cache that the probe's array displaces.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
PROBE_LOOPS = 3000
PROBE_SUMS = 3
PROBE_ARRAY_BYTES = 1 << 20
REFERENCE_S = 2.0e-4
# Far enough outside any run that the clock extrapolates rather than clamps.
_HORIZON_S = 1.0e6


class SpeedProbe:
    """Samples the speed of the current core while installed."""

    def __init__(self):
        self.starts: list[float] = []      # when each probe began
        self.ends: list[float] = []        # and ended
        self.durations: list[float] = []   # its timed part
        self._busy = False
        self._array = np.random.default_rng(0).random(PROBE_ARRAY_BYTES // 8)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, signum, frame):
        if self._busy:      # a signal that arrived while a probe ran
            return
        self._busy = True
        clock = time.perf_counter
        entered = clock()
        self._array.sum()   # into cache, untimed
        start = clock()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        for _ in range(PROBE_SUMS):
            self._array.sum()
        end = clock()
        self.starts.append(entered)
        self.ends.append(end)
        self.durations.append(end - start)
        self._busy = False

    def work_clock(self):
        """A function from ``time.perf_counter()`` values (a float or an
        array) to reference seconds, from the probes taken so far.

        The stretch before a probe runs at that probe's speed; time inside
        a probe, its untimed start included, does not advance the clock;
        before the first probe and after the last one the nearest probe's
        speed holds.
        """
        if not self.starts:
            raise RuntimeError("no speed probe has run")
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        durations = np.asarray(self.durations)
        factors = REFERENCE_S / durations
        gaps = starts - np.concatenate(([starts[0]], ends[:-1]))
        level = np.cumsum(gaps * factors)        # clock at each probe
        knots_t = np.concatenate(([starts[0] - _HORIZON_S],
                                  np.column_stack((starts, ends)).ravel(),
                                  [ends[-1] + _HORIZON_S]))
        knots_c = np.concatenate(([-_HORIZON_S * factors[0]],
                                  np.repeat(level, 2),
                                  [level[-1] + _HORIZON_S * factors[-1]]))

        def clock(t):
            return np.interp(t, knots_t, knots_c)

        return clock
