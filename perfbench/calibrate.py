"""Host-speed calibration.

Shared hosts lend their cores and caches to other tenants.  On a
shared 2-core VM the same fixed compile work measured 2.1–3.7 s from
one minute to the next, with CPU time equal to wall time (no steal) and
no hardware instruction counter to fall back on.  So every run
interleaves a fixed probe with its own work, and every time it reports
is scaled to a reference host on which the probe takes
:data:`REFERENCE_S`:

    reported = measured × REFERENCE_S / median(nearby probe times)

where the nearby probes are the :data:`WINDOW` probes centred on the
op, so the scale follows the host's speed within a run as well as
between runs.

The probe exercises what the compiler and simulator spend their time
on — small objects, attribute access, dict and list traffic, sorting —
and none of the repository's code, so a change to the program cannot
move it.  A change that makes the program faster still reads faster;
a slow neighbour no longer does.  Both the raw and the scaled figures
are printed.
"""

from __future__ import annotations

import threading
import time
from typing import List

from perfbench.stats import median

#: Probe time on the reference host; scaled figures are in its units.
REFERENCE_S = 0.004
#: Probes whose median scales one op.
WINDOW = 8


class _Node:
    __slots__ = ("a", "b", "key", "next")

    def __init__(self, a: int, b: int, key) -> None:
        self.a = a
        self.b = b
        self.key = key
        self.next = None


def probe() -> float:
    """Run the fixed probe once; returns its wall time in seconds."""
    started = time.perf_counter()
    nodes = [_Node(i, i * 3 % 97, (i % 13, str(i % 31)))
             for i in range(3000)]
    table: dict = {}
    for node in nodes:
        table.setdefault(node.key, []).append(node)
    previous = None
    for node in sorted(nodes, key=lambda n: (n.b, n.a)):
        if previous is not None:
            previous.next = node
        previous = node
    total = 0
    for group in table.values():
        total += sum(node.a for node in group if node.b & 1)
    if total <= 0:
        raise AssertionError("probe lost its work")
    return time.perf_counter() - started


class HostSpeed:
    """Probe samples of one run and the scale factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._lock = threading.Lock()

    def measure(self) -> None:
        seconds = probe()
        with self._lock:
            self.samples.append(seconds)

    @property
    def factor(self) -> float:
        """Multiply a time measured anywhere in the run by this to get
        reference time."""
        if not self.samples:
            self.measure()
        return REFERENCE_S / median(self.samples)

    def mark(self) -> int:
        """A position in the probe sequence, for :meth:`factor_at`."""
        with self._lock:
            return len(self.samples)

    def factor_at(self, mark: int) -> float:
        """The factor for an op run at ``mark``: from the probes just
        before and just after it.  Call it once the run is over."""
        with self._lock:
            low = max(0, min(mark - WINDOW // 2, len(self.samples) - WINDOW))
            window = self.samples[low:low + WINDOW]
        if not window:
            return self.factor
        return REFERENCE_S / median(window)
