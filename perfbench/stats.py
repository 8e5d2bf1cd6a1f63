"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from typing import List, Sequence

#: A percentile is reported as resolved only with this many samples
#: strictly beyond it.
MIN_BEYOND = 10

#: The latency a failed op contributes: it misses every percentile.
FAILED_MS = 1e9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``."""
    return count - max(1, math.ceil(q * count))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Report:
    """Metrics of one run, in print order, plus notes for the reader."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.notes: List[str] = []
        #: Unscaled figures printed beside the metrics for the reader.
        self.raw: dict = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def add_percentiles(self, prefix: str, samples: Sequence[float],
                        unit: str = "ms") -> None:
        """``<prefix>_p50``/``_p90`` of ``samples``, noting any
        percentile with fewer than :data:`MIN_BEYOND` samples beyond."""
        for q, label in ((0.5, "p50"), (0.9, "p90")):
            name = f"{prefix}_{label}"
            if not samples:
                self.add(name, 0.0, unit)
                self.notes.append(f"{name}: no samples")
                continue
            self.add(name, percentile(samples, q), unit)
            past = beyond(len(samples), q)
            if past < MIN_BEYOND:
                self.notes.append(
                    f"{name}: only {past} of {len(samples)} samples lie "
                    f"beyond it (want {MIN_BEYOND}); unresolved"
                )
