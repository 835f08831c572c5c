"""The fixed-width-bucket histogram behind the obs layer's histograms."""

from __future__ import annotations

import math


class Histogram:
    """Fixed-width-bucket histogram over non-negative samples."""

    def __init__(self, name: str, bucket_width: float) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.name = name
        self.bucket_width = bucket_width
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, sample: float) -> None:
        if sample < 0:
            raise ValueError("histogram samples must be non-negative")
        bucket = int(sample // self.bucket_width)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += sample
        self.min = sample if self.min is None else min(self.min, sample)
        self.max = sample if self.max is None else max(self.max, sample)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def fraction_in_bucket(self, bucket: int) -> float:
        if not self.count:
            return 0.0
        return self.buckets.get(bucket, 0) / self.count

    def sorted_buckets(self) -> list[tuple[float, int]]:
        """Return (bucket lower edge, count) pairs in ascending order."""
        return [
            (bucket * self.bucket_width, n)
            for bucket, n in sorted(self.buckets.items())
        ]

    def percentile(self, q: float) -> float:
        """Approximate percentile (0..100), interpolated within buckets.

        The returned value is clamped to the observed ``[min, max]`` range,
        so ``percentile(100)`` reports the true maximum instead of the
        containing bucket's lower edge.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self.count:
            return 0.0
        if q >= 100:
            return self.max
        target = math.ceil(self.count * q / 100) or 1
        seen = 0
        for edge, n in self.sorted_buckets():
            if seen + n >= target:
                # Linear interpolation: the target-th sample sits at rank
                # (target - seen) among this bucket's n samples.
                value = edge + self.bucket_width * (target - seen - 1) / n
                return min(max(value, self.min), self.max)
            seen += n
        return self.max
