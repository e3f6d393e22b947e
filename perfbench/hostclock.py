"""Host-speed probe: wall seconds scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
30-45% within seconds, which no number of ops per run averages away,
and which a probe on another core does not see.  :class:`HostClock`
runs a short, fixed pure-Python probe, which shares no code with the
program, on the benchmark's own thread, every ``PROBE_PERIOD_S`` from a
``SIGALRM`` handler while ops run or a set-up process sets up.  A timed
interval is cut at the probes, and each piece is scaled by
``REFERENCE_PROBE_S / median(the probes nearest to it)``: the seconds
the piece would have taken on the reference host, a 2.1 GHz Xeon vCPU
on which the probe takes ``REFERENCE_PROBE_S``.  A slower program takes
more reference seconds; a slower host does not.  The probes' own time
is left out.

The traced run does not enter its clock, so that no probe runs inside
its spans.
"""

import signal
import statistics
import time

#: Probe iterations: about 5 ms on the reference host.
PROBE_ROUNDS = 15_000

#: Median probe time on the reference host (2.1 GHz Xeon vCPU, CPython
#: 3, nothing else running in the container).
REFERENCE_PROBE_S = 0.0049

#: Wall seconds between probes while ops run (about 2.5% of the time).
PROBE_PERIOD_S = 0.2

#: A piece of an interval is scaled by the median of this many probes,
#: the nearest to it in time.
NEAREST_PROBES = 6


def probe_work(rounds=PROBE_ROUNDS):
    """Dict, integer and loop work, as the interpreter does for the
    program; allocates nothing that outlives the call."""
    table = {}
    acc = 0
    for i in range(rounds):
        key = i & 255
        table[key] = table.get(key, 0) + ((i * 7) ^ acc) % 1021
        acc = (acc + table[key]) & 0xFFFF
    return acc


class HostClock:
    """Probes of one benchmark run, and reference seconds from them.

    Use as a context manager around the ops: it probes from a timer
    signal while inside, and restores the previous handler on exit.
    """

    def __init__(self, probes=None):
        """``probes``: the ``probes`` of another process's clock, to
        convert its intervals (``perf_counter`` is system-wide)."""
        self.probes = []    # [(start, end)] in the order they ran
        self._previous_handler = None
        if probes is None:
            probe_work()    # warm-up, not recorded
        else:
            self.probes = [tuple(probe) for probe in probes]

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        self.probes.append((start, time.perf_counter()))

    def probe_seconds(self, start, end):
        """Wall seconds the probes took inside ``[start, end]``."""
        return sum(min(e, end) - max(s, start) for s, e in self.probes
                   if e > start and s < end)

    def reference_seconds(self, start, end):
        """Wall interval ``[start, end]``, less the probes inside it, in
        reference seconds."""
        total = 0.0
        cursor = start
        for probe_start, probe_end in self.probes:
            if probe_end <= start or probe_start >= end:
                continue
            if probe_start > cursor:
                total += self._scaled(cursor, probe_start)
            cursor = max(cursor, probe_end)
        if end > cursor:
            total += self._scaled(cursor, end)
        return total

    def _scaled(self, start, end):
        if not self.probes:
            raise RuntimeError("no host probe ran")

        def distance(probe):
            return max(start - probe[1], probe[0] - end, 0.0)
        nearest = sorted(self.probes, key=distance)[:NEAREST_PROBES]
        host_probe_s = statistics.median(e - s for s, e in nearest)
        return (end - start) * REFERENCE_PROBE_S / host_probe_s

