"""Correction of timings for drift in the speed of a shared machine.

On a virtual machine that shares its cores with other tenants, the same
job can run at very different speeds minutes apart: one C3 `triangle` job
repeated in one process took between 1.6 s and 2.9 s, and its CPU time
moved with its wall time, so the machine, not the process, was slow.
Averaging within one run cannot remove a slow state that lasts minutes.

So the speed of the machine is sampled while each job runs: a SIGALRM
handler times a short fixed probe loop every `PERIOD_S` of wall time, and
the probe's own time is subtracted from the job's.  The job's time is then
scaled by `REF_S / mean(probe times)`, which reads as its time on a
machine where the probe takes `REF_S`.  Probes only at the ends of a job
are not enough: for the 15-s `em_sweep` job they made the spread over
repeated runs worse than no correction at all.  The probe exercises the
operations the simulator is made of (64-bit mixing, small-dict updates,
tuple and set inserts).  It is part of the benchmark, not of the program,
so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.003            # probe time on the reference machine
PERIOD_S = 0.2           # probe period while a job runs (about 2% of its time)
_EDGE = 3                # probes taken just before and just after a job
_ROUNDS = 6000
_MASK = (1 << 64) - 1


def probe() -> float:
    """Wall time of one fixed loop (about 3 ms on a 2-core Xeon VM)."""
    t0 = time.perf_counter()
    counts, seen, acc = {}, set(), 0x9E3779B97F4A7C15
    for i in range(_ROUNDS):
        acc = (acc ^ i) * 0xBF58476D1CE4E5B9 & _MASK
        key = (acc >> 40, i & 63)
        counts[key[1]] = counts.get(key[1], 0) + 1
        seen.add(key)
    return time.perf_counter() - t0


def probes(n: int) -> list:
    return [probe() for _ in range(n)]


def corrected(seconds: float, samples) -> float:
    """`seconds` scaled to the reference speed, given probe times."""
    return seconds * REF_S / statistics.mean(samples)


class Sampler:
    """Context manager timing one job in the main thread.

    On exit, `seconds` is the job's wall time minus the probes taken during
    it, and `ref_seconds` is that time corrected to the reference speed.
    """

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = probes(_EDGE), 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._t0 - self.spent
        self.samples += probes(_EDGE)
        self.ref_seconds = corrected(self.seconds, self.samples)
        return False
