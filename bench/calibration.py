"""A fixed pure-Python calibration snippet and the reference speed it defines.

The snippet mixes what the program's hot paths do in the interpreter: dict
updates, small-object allocation, attribute access, complex powers and a
keyed sort.  On a shared machine whose speed changes by up to 2x for
seconds at a time, the fastest run of this snippet tracks the fastest run
of the program's requests to within a few per cent, where a plain
arithmetic loop drifts by about 10%.
"""

from __future__ import annotations

import time

# Fastest run of `snippet` on the machine the bounds were set on (Intel Xeon,
# 2 vCPUs, CPython 3.11); timed metrics are scaled to this speed.
REFERENCE_S = 155e-6


class _Point:
    __slots__ = ("z", "key")

    def __init__(self, z, key):
        self.z = z
        self.key = key


def snippet():
    counts = {}
    acc = 0j
    items = []
    for i in range(200):
        k = (i * 7919) % 257
        counts[k] = counts.get(k, 0) + 1
        z = complex(i * 0.001, 0.5)
        acc += (z * 1.5 + 0.25) ** -4
        items.append(_Point(z, (i, k)))
    items.sort(key=lambda p: p.key[1])
    return acc, len(counts)


def timed() -> float:
    """Seconds for one run of the snippet."""
    t = time.perf_counter()
    snippet()
    return time.perf_counter() - t
