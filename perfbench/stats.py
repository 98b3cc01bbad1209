"""Summary statistics of the benchmark's samples."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.special import betainc
from scipy.stats import trim_mean

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(np.median(values))


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile and the number of samples strictly above it.

    The estimate is Harrell and Davis's: a Beta-weighted mean of the
    order statistics around the percentile instead of the one or two
    nearest, which makes a tail percentile far less sensitive to which
    few samples happened to land in the tail.
    """
    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = data.size
    if n == 0:
        raise ValueError("percentile of no samples")
    p = q / 100.0
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    value = float(np.dot(np.diff(edges), data))
    return value, int(np.count_nonzero(data > value))


def samples_needed(q: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the ``q``-th percentile has ``beyond``
    samples above it (1000 for p99 with the default of ten)."""
    return math.ceil(beyond * 100.0 / (100.0 - q))


def per_second_counts(
    done_times: Iterable[float], windows: Sequence[Tuple[float, float]]
) -> List[int]:
    """Completions in every whole second of each ``(start, end)`` window.

    A trailing part-second of a window is dropped, so every count covers
    exactly one second of load.
    """
    counts: List[int] = []
    offsets = []
    for start, end in windows:
        seconds = int(end - start)
        offsets.append(len(counts))
        counts.extend([0] * seconds)
    for t in done_times:
        for (start, end), offset in zip(windows, offsets):
            if start <= t < end:
                second = int(t - start)
                if second < int(end - start):
                    counts[offset + second] += 1
                break
    return counts


#: Share of samples cut from each end by :func:`trimmed_mean`.
TRIM = 0.1


def trimmed_mean(values: Iterable[float]) -> float:
    """Mean of the samples left after cutting ``TRIM`` from each end.

    Used for stage times. A shared machine flips between a fast and a
    slow speed state for seconds at a time; a median then jumps to
    whichever state held most samples, while a mean moves only in
    proportion to the time spent in each. Trimming drops rare stalls.
    """
    values = list(values)
    if not values:
        raise ValueError("mean of no samples")
    return float(trim_mean(values, TRIM))


def mix_rate(seconds: Dict[int, List[float]], items: Dict[int, int]) -> float:
    """Items per second for a fixed mix: the mix's item count over the
    sum of each part's trimmed-mean time, so an outlier of one part
    cannot pull the others."""
    return sum(items.values()) / sum(trimmed_mean(seconds[key]) for key in items)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def as_metrics(metrics: Dict[str, Tuple[float, str]]) -> Dict[str, dict]:
    """``{name: (value, unit)}`` to the result format."""
    return {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in metrics.items()
    }
