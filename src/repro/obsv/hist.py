"""HdrHistogram-style log-bucketed latency histograms.

Latencies in a store-and-forward ring span four orders of magnitude
(sub-µs doorbell rings to multi-ms 512 KB bypass Puts), so fixed-width
buckets are useless and keeping raw samples is unbounded.  We use the
HdrHistogram trick: values are scaled to integers (0.01 µs resolution),
small values get exact linear buckets, larger values get 64 logarithmic
sub-buckets per power of two — bounding relative error at ~1.6 % while
recording in O(1) with a plain dict.

Exact count/sum/min/max are tracked alongside, so means are exact and
quantile estimates are clamped into ``[min, max]`` (a single-sample
histogram reports that sample for every quantile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["LogHistogram", "HistogramRegistry", "HistSummary"]

#: Fixed-point scale: 1 unit == 0.01 µs (10 ns).
_SCALE = 100.0
#: Values below 2**(_SUB_BITS) scaled units are binned exactly.
_SUB_BITS = 6
_SUB_COUNT = 1 << _SUB_BITS  # 64


def _bucket_index(value: int) -> int:
    if value < _SUB_COUNT:
        return value
    shift = value.bit_length() - 1 - _SUB_BITS
    return ((shift + 1) << _SUB_BITS) + ((value >> shift) - _SUB_COUNT)


def _bucket_low(index: int) -> int:
    """Smallest scaled value mapping to ``index`` (inverse of above)."""
    if index < _SUB_COUNT:
        return index
    shift = (index >> _SUB_BITS) - 1
    sub = (index & (_SUB_COUNT - 1)) + _SUB_COUNT
    return sub << shift


def _bucket_mid_us(index: int) -> float:
    """Representative (midpoint) value of a bucket, back in µs."""
    low = _bucket_low(index)
    if index < _SUB_COUNT:
        return low / _SCALE
    shift = (index >> _SUB_BITS) - 1
    return (low + (1 << shift) / 2.0) / _SCALE


@dataclass(frozen=True)
class HistSummary:
    """Snapshot of one histogram, ready for Row.extra / report tables."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    p999: float
    minimum: float
    maximum: float


class LogHistogram:
    """One op×size×hop latency distribution, log-bucketed."""

    __slots__ = ("name", "buckets", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str = ""):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value_us: float) -> None:
        if value_us < 0:
            value_us = 0.0
        scaled = int(value_us * _SCALE + 0.5)
        index = _bucket_index(scaled)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value_us
        if self.minimum is None or value_us < self.minimum:
            self.minimum = value_us
        if self.maximum is None or value_us > self.maximum:
            self.maximum = value_us

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) from bucket midpoints."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        value = 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                value = _bucket_mid_us(index)
                break
        # Bucketing error never escapes the observed range.
        assert self.minimum is not None and self.maximum is not None
        return min(max(value, self.minimum), self.maximum)

    def summary(self) -> HistSummary:
        return HistSummary(
            count=self.count,
            mean=self.mean,
            p50=self.quantile(0.50),
            p90=self.quantile(0.90),
            p99=self.quantile(0.99),
            p999=self.quantile(0.999),
            minimum=self.minimum or 0.0,
            maximum=self.maximum or 0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LogHistogram {self.name!r} n={self.count}>"


class HistogramRegistry:
    """Named histograms, created on first observation.

    The metrics registry keys op latencies as
    ``{op}_us.{MODE}.{size}.{hops}hop`` (``put_us.DMA.4KB.1hop``), but any
    string works.  Iteration is sorted for deterministic output.
    """

    def __init__(self) -> None:
        self._hists: dict[str, LogHistogram] = {}

    def observe(self, key: str, value_us: float) -> None:
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LogHistogram(key)
        hist.observe(value_us)

    def get(self, key: str) -> Optional[LogHistogram]:
        return self._hists.get(key)

    def items(self) -> Iterator[tuple[str, LogHistogram]]:
        for key in sorted(self._hists):
            yield key, self._hists[key]

    def __len__(self) -> int:
        return len(self._hists)

    def render(self, title: str = "latency histograms") -> str:
        """Fixed-width table of every histogram's summary.

        The key column stretches to the longest key so long
        ``{op}_us.{MODE}.{size}.{hops}hop`` names cannot shear the table.
        """
        width = max([36] + [len(key) for key in self._hists])
        lines = [title,
                 f"{'key':<{width}} {'n':>6} {'mean':>9} {'p50':>9} "
                 f"{'p90':>9} {'p99':>9} {'p999':>9} {'max':>9}  [us]"]
        lines.append("-" * len(lines[1]))
        for key, hist in self.items():
            s = hist.summary()
            lines.append(
                f"{key:<{width}} {s.count:>6} {s.mean:>9.2f} {s.p50:>9.2f} "
                f"{s.p90:>9.2f} {s.p99:>9.2f} {s.p999:>9.2f} "
                f"{s.maximum:>9.2f}"
            )
        if len(lines) == 3:
            lines.append("  (no observations)")
        return "\n".join(lines)
