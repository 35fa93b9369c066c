"""Host-speed calibration: what makes stopwatch figures repeat on a shared host.

The reference host is a 2-vCPU sandbox whose speed for *identical* work
drifts by ±20 % over seconds to minutes (neighbours on the same physical
cores; no steal time is reported, CPU time drifts with wall time).  Left
alone, that drift — not the code under test — decides every latency figure.

So a fixed ~2 ms kernel runs between requests — after every request of a
single client; with several clients, every few requests once all of them
are between requests, so the server is idle and the kernel measures the
host, not contention with the program — and a request's stopwatch time is
divided by how slow the kernel ran next to it (median of the three nearest
samples, relative to ``NOMINAL_SECONDS``).  Reported times therefore read as
"milliseconds on the reference host at its nominal speed".  The kernel is NumPy gather/sort/sum plus an interpreter
loop — the two things the service's time is made of — and shares no code
with ``src/``, so a change to the program cannot move it.  In the prototype
this cut the spread of a 18 s run's p50 from 17 % to 3 % (p95: 19 % to 7 %).
The raw, unnormalised medians are kept in every record's diagnostics.
"""

from __future__ import annotations

import bisect
import time
from typing import Sequence

import numpy as np

#: About the kernel's duration on the reference host (2-core Xeon 2.1 GHz
#: sandbox, Python 3.11) when nothing else is loud: 2.0-2.1 ms back to back,
#: 2.3-2.4 ms with caches cooled by a request in between.  Any constant
#: would do; this one keeps the reported milliseconds close to real ones.
NOMINAL_SECONDS = 2.2e-3

_rng = np.random.default_rng(0)
_VALUES = _rng.random(20_000)
_INDEX = _rng.integers(0, 20_000, 20_000)


def sample() -> float:
    """Run the calibration kernel once; returns its wall-clock seconds."""
    start = time.perf_counter()
    for _ in range(8):
        gathered = _VALUES[_INDEX]
        gathered.sort()
        float(gathered.sum())
    total = 0
    for step in range(20_000):
        total += step * step % 7
    return time.perf_counter() - start


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran (1.0 = nominal)."""
    return float(np.median(samples)) / NOMINAL_SECONDS if len(samples) else 1.0


def slowdown_at(when: float, times: Sequence[float],
                samples: Sequence[float]) -> float:
    """Slowdown around time ``when``: median of the 3 samples nearest to it
    (``times`` ascending, one per sample)."""
    position = bisect.bisect_left(times, when)
    return slowdown(samples[max(0, position - 1):position + 2])
