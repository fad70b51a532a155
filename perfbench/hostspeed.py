"""Host-speed correction for timings taken on a shared host.

Pure Python with no simulator import, so the set-up probe can use it too.
"""

from __future__ import annotations

import heapq
import time

# Host seconds the probe takes on the reference host (2-core Intel Xeon,
# Python 3.11.7); corrected times are in seconds of that host.
NOMINAL_PROBE_S = 0.032


def host_probe() -> float:
    """Host seconds for a fixed slice of pure-Python heap and dict work, the
    kind the simulator does.  It allocates only ints, which the garbage
    collector does not track, so its time does not grow with the heap the
    program leaves behind.

    The host this benchmark runs on is shared, and its speed drifts by 10-30%
    over seconds.  A probe runs between consecutive timed operations, and
    each operation's time is corrected by NOMINAL_PROBE_S over the mean of
    the probes on either side of it, so the metrics follow the program's
    speed rather than the host's momentary load."""
    t0 = time.perf_counter()
    heap: list[int] = []
    counts: dict[int, int] = {}
    for i in range(40000):
        heapq.heappush(heap, (i * 7919) % 10007 * 40000 + i)
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def corrected(samples) -> list[float]:
    """(elapsed, probe) samples as host-speed-corrected seconds."""
    return [elapsed * NOMINAL_PROBE_S / probe for elapsed, probe in samples]
