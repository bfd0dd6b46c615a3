"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can take 30% longer for tens of seconds
when neighbours are busy; process CPU time stretches with wall time, so
it is no steadier.  The benchmark therefore times a fixed pure-Python
kernel right before and right after every cell and reports each cell's
time in units of that kernel, converted back to seconds at
:data:`REFERENCE_KERNEL_S`: a cell's *calibrated* time is what it would
have taken on a host where the kernel takes exactly that long.  The
kernel shares no code with the program, so a change to the program
moves the calibrated time exactly as much as the raw one.

The kernel is shaped like the simulator's hot loops (attribute reads
and writes on slotted objects, float arithmetic, a sort of small
tuples, a heap, dict churn) and runs with the garbage collector off, so
its time does not depend on how much the program left on the heap.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Kernel time, in seconds, on the host the benchmark was built on (a
#: 2-vCPU Intel Xeon, Sapphire Rapids, CPython 3.11); calibrated times
#: read as seconds on a host that runs the kernel this fast.
REFERENCE_KERNEL_S = 0.010


class _Stream:
    __slots__ = ("rate", "sent", "size", "key")


def _kernel(n_items: int = 400, passes: int = 40) -> float:
    rng = random.Random(12345)
    streams = []
    for key in range(n_items):
        s = _Stream()
        s.rate = rng.random()
        s.sent = 0.0
        s.size = 100.0 + rng.random() * 50.0
        s.key = key
        streams.append(s)
    heap: list = []
    table: dict = {}
    total = 0.0
    for step in range(passes):
        for s in streams:
            delta = s.rate * 0.5
            if s.sent + delta > s.size:
                delta = s.size - s.sent
            s.sent += delta
            total += delta
        candidates = [(s.size - s.sent, s.key, s) for s in streams if s.sent < s.size]
        candidates.sort()
        spare = 10.0
        for _remaining, _key, s in candidates:
            extra = spare if spare < 0.3 else 0.3
            s.rate += extra
            spare -= extra
            if spare <= 1e-9:
                break
        for s in streams[:50]:
            heapq.heappush(heap, (s.sent, s.key))
            table[(step, s.key)] = s.sent
        while len(heap) > 100:
            heapq.heappop(heap)
        if len(table) > 2000:
            table.clear()
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, kernel_s: float) -> float:
    """*seconds* measured while the kernel took *kernel_s*, expressed
    at the reference kernel time."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
