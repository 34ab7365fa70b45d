"""The reference kernel: the probe of machine speed every timing is scaled by.

The box this benchmark was sized on is shared, and it is not steady: the same
repeat of ``batch_balanced`` took 0.9 s to 2.1 s minutes apart, in CPU time as
much as in wall time (wall / CPU stayed ~1.01, so the contention guard cannot
see it), and two full runs of one commit disagreed by 33-48% on three
workloads.  No statistic of the repeats inside a 15 s window removes that
(median, lower quartile and minimum were tried): the slow spells outlast the
window.

What does remove most of it is a fixed piece of work measured beside the
repeats.  ``reference_kernel`` is pure Python owned by the benchmark -- the
program under test cannot make it faster -- doing what the program does most:
string lookups in a large dictionary.  Every run takes its CPU time before and
after each input generation and each timed repeat and divides every timing it
reports by ``slowdown`` = median kernel time / ``REFERENCE_SECONDS``.  A
reported second is therefore a second at the speed at which the kernel takes
``REFERENCE_SECONDS``: the quiet speed of the box the sizes were chosen on.
The raw values and the slowdown are kept in the results file, and
``host.reference_slowdown`` is a per-layer metric.

Evidence (spread = interquartile range / median over ten runs on ten seeds,
``run_wall_s``, raw -> scaled): ``batch_balanced`` 0.184 -> 0.072,
``progressive_budget`` 0.224 -> 0.071, ``incremental_mixed`` 0.196 -> 0.051,
``batch_parallel2`` 0.119 -> 0.052, ``blocking_web`` 0.146 -> 0.109.  In one
spell the box ran 2.3x slow with a third of the wall time stolen; scaled
``run_cpu_s`` stayed within 0.94-1.24 s of its 1.1 s.

A workload that runs on two worker processes is scaled by a probe that loads
the box the way it does: two forked children run the kernel at once and the
sample is the wall time until both have ended.  The one-process kernel runs
while the second core idles and reads fast in spells where two busy cores do
not get two cores' worth: over 22 windows of ten ``batch_parallel2`` repeats
in such spells (repeat wall 1.3-4.6 s), the standard deviation of the logarithm
of the window medians of ``run_wall_s`` was 0.15-0.35 raw, 0.14-0.17 scaled by the
one-process probe and 0.09-0.13 scaled by the two-process one (``run_cpu_s``
in the calmer series: 0.096, 0.089, 0.050).
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

#: what a sample takes on the quiet box (2-core Xeon @ 2.1 GHz, CPython 3.11),
#: by the number of processes that run the kernel at once
REFERENCE_SECONDS = {1: 0.036, 2: 0.060}

_WORDS = ["w%d" % (i * 2654435761 % 1000003) for i in range(200000)]
_IDS = {word: identifier for identifier, word in enumerate(dict.fromkeys(_WORDS))}
_SLOTS = bytearray(1 << 16)


def reference_kernel() -> int:
    """Look 200k strings up in a dictionary and count them into byte slots.

    Nothing is allocated: a kernel that grew arrays ran at two speeds from
    one process to the next (x2.1 in 4 of 10 processes beside a 150 MB heap,
    with the workload itself steady), depending on where the allocator
    happened to place them.
    """
    ids, slots = _IDS, _SLOTS
    checksum = 0
    for word in _WORDS:
        identifier = ids[word]
        slot = identifier & 65535
        slots[slot] = (slots[slot] + 1) & 255
        checksum ^= identifier
    return checksum


def concurrent_kernel_seconds(processes: int) -> float:
    """Wall time until ``processes`` forked children have each run the kernel.

    Every child is waited for before this returns, on every path.
    """
    children: List[int] = []
    start = time.perf_counter()
    try:
        for _ in range(processes):
            pid = os.fork()
            if pid == 0:
                try:
                    reference_kernel()
                finally:
                    os._exit(0)  # no clean-up of the parent's state in the child
            children.append(pid)
    finally:
        for pid in children:
            os.waitpid(pid, 0)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples of the kernel's time over one run, on ``processes`` at once."""

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self.samples: List[float] = []

    def sample(self) -> None:
        if self.processes > 1:
            self.samples.append(concurrent_kernel_seconds(self.processes))
            return
        # CPU time: the probe reads how fast the core runs; time spent
        # descheduled is the contention guard's business (see run.py)
        start = time.process_time()
        reference_kernel()
        self.samples.append(time.process_time() - start)

    @property
    def slowdown(self) -> float:
        """How much slower than the quiet box this run's machine was."""
        return statistics.median(self.samples) / REFERENCE_SECONDS[self.processes]
