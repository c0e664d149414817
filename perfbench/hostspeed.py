"""A fixed reference loop that tells how fast the shared host runs right now.

On a few cores of a shared host the same code runs up to half again as
slow for seconds or minutes at a time (the neighbours' load on shared
cores and caches; no steal shows).  The reference loop is the benchmark's
own code and never changes, so its time moves only with the host.  Probed
on both sides of a job, it turns the job's measured time into the time it
would take on a host whose probe reads ``REFERENCE_S``: ``measured *
REFERENCE_S / probe``.  A change to the program moves the scaled time as
much as the raw one; a slow spell of the host moves it much less.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time, in seconds, of the reference host speed: near the probe's
#: fast readings on the 2-vCPU host the benchmark was built on, so scaled
#: times stay near raw ones there.
REFERENCE_S = 0.004

_WEIGHTS = np.random.default_rng(0).standard_normal((64, 64))


def _reference_loop() -> None:
    # Interpreter work of the kind the program does (tuples, dicts, lists,
    # sorting, small-int arithmetic), then small numpy operations like the
    # policy network's.
    table: dict = {}
    items = []
    acc = 0
    for i in range(4000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
        items.append(key)
        acc ^= hash(key) & 0xFFFF
    items.sort()
    vector = np.ones(64)
    for _ in range(600):
        vector = np.tanh(_WEIGHTS @ vector) * 0.5


def probe(tries: int = 5) -> float:
    """Median seconds of ``tries`` runs of the reference loop."""
    times = []
    for _ in range(tries):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
