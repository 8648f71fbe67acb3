"""Host speed probe, shared by the harness and its set-up child processes.

On the shared 2-core hosts this benchmark was tuned on, the speed of plain
Python drifted by 20-40% over tens of seconds, and a 20-second window
averaged none of it out.  Each timed metric is therefore reported scaled to
a nominal host: wall time times the rate at which the reference loop ran
meanwhile, divided by ``REF_RATE``.  The unscaled figures go into the run
metadata.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Iterator

#: Nominal host speed, in reference-loop iterations per second.
REF_RATE = 1e7

#: Interval and loop length of the samples taken while calls run: about
#: 0.3 ms of every 50 ms, the same share on every run.
SAMPLE_EVERY_S = 0.05
SAMPLE_LOOP = 3_000


def host_rate(n: int = 50_000) -> float:
    """Iterations per second of a fixed pure-Python loop: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return n / (time.perf_counter() - start)


@contextlib.contextmanager
def sampling(samples: list[float]) -> Iterator[None]:
    """Append a short ``host_rate`` sample to ``samples`` every SAMPLE_EVERY_S.

    The samples come from a SIGALRM handler, so they are taken in the middle
    of long calls too.  Main thread only; forked children inherit the
    handler but not the timer.
    """
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(host_rate(SAMPLE_LOOP)))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
