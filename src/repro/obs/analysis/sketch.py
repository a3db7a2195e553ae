"""Deterministic mergeable quantile sketch for windowed latency streams.

The windowed percentile path used to sort every window's latency list and
interpolate (:func:`repro.serve.metrics.percentile`).  That is exact but
not *mergeable*: two shards' windows can only combine by concatenating raw
samples.  This module replaces it with a **log-bucket digest** whose merge
is an exact monoid — integer bucket counts add, extrema fold — so shard
partials combine losslessly, in any order, in any grouping:

    ``merge(a, b) == merge(b, a)`` and
    ``merge(merge(a, b), c) == merge(a, merge(b, c))``  (bit-for-bit).

Bucketing is derived from the float representation itself, not from a
boundary table: ``math.frexp`` splits ``v = m * 2**e`` with
``m in [0.5, 1)`` and the mantissa picks one of :data:`SUBBUCKETS`
subdivisions per octave.  Bucket edges come back out of ``math.ldexp``,
which is exact in IEEE-754, so two sketches built on different machines
(or different engines of this repo) agree byte-for-byte.

With ``SUBBUCKETS = 8`` a bucket spans at most 12.5% relative width, so
any estimated quantile is within 12.5% of the exact order statistic —
:meth:`QuantileSketch.quantile_bounds` returns the guaranteed interval,
and the hypothesis suite (``tests/obs/test_sketch.py``) checks the exact
sorted-list percentile always lands inside it.

Determinism notes (the reason for each slightly unusual choice):

* the running sum is kept in **integer fixed point** (``round(v * 2**20)``
  per sample) because float addition is not associative and the merge
  contract above must hold exactly;
* ``min``/``max`` are tracked so degenerate windows stay exact: a window
  holding a single value reports that value, not a bucket midpoint
  (clamping the interpolated estimate into ``[min, max]`` does this);
* zero is its own counter — ``frexp(0.0)`` has no octave.

Domain: finite, non-negative samples (latencies).  NaN, infinities, and
negative values raise rather than silently poisoning the digest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["QuantileSketch", "SUBBUCKETS", "RESOLUTION", "SUM_SCALE_BITS"]

#: Subdivisions per octave (power-of-two range).  8 keeps every bucket at
#: most 1/8 of an octave wide: relative width (hi-lo)/lo <= 1/8 = 12.5%.
SUBBUCKETS = 8

#: Documented worst-case relative error of any estimated quantile.
RESOLUTION = 1.0 / SUBBUCKETS

#: Fixed-point scale for the exact running sum: 2**-20 ms ~= 1 ns.
SUM_SCALE_BITS = 20

_SUM_SCALE = float(1 << SUM_SCALE_BITS)


def _slot_of(value: float) -> int:
    """Map a positive finite float to its bucket slot (an integer).

    ``frexp`` gives ``value = m * 2**e`` with ``m in [0.5, 1)``; the slot
    packs the octave ``e`` with which of the :data:`SUBBUCKETS` equal
    mantissa strips ``m`` falls in.  Pure integer/float-exact arithmetic,
    so the same value slots identically everywhere.
    """
    m, e = math.frexp(value)
    sub = int((m - 0.5) * (2 * SUBBUCKETS))
    if sub >= SUBBUCKETS:  # guard m == nextafter(1, 0) rounding up
        sub = SUBBUCKETS - 1
    return e * SUBBUCKETS + sub


def _slot_edges(slot: int) -> Tuple[float, float]:
    """Inclusive-lower / exclusive-upper value range of a slot.

    ``ldexp(0.5 + sub/16, e)`` is exact: the mantissa term is a small
    dyadic rational and scaling by a power of two never rounds.
    """
    e, sub = divmod(slot, SUBBUCKETS)
    lo = math.ldexp(0.5 + sub / (2.0 * SUBBUCKETS), e)
    hi = math.ldexp(0.5 + (sub + 1) / (2.0 * SUBBUCKETS), e)
    return lo, hi


@dataclass
class QuantileSketch:
    """Mergeable log-bucket quantile digest (see module docstring).

    Attributes:
        counts: Sparse slot -> sample-count map for positive samples.
        zeros: Count of exactly-zero samples (no octave to slot into).
        total: Total samples absorbed (``zeros`` included).
        minimum: Smallest sample seen, ``None`` when empty.
        maximum: Largest sample seen, ``None`` when empty.
        sum_fp: Exact fixed-point sum (units of ``2**-SUM_SCALE_BITS``).
    """

    counts: Dict[int, int] = field(default_factory=dict)
    zeros: int = 0
    total: int = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    sum_fp: int = 0

    # ------------------------------------------------------------------ build
    def add(self, value: float) -> None:
        """Absorb one sample."""
        value = float(value)
        if not (value >= 0.0) or math.isinf(value):  # rejects NaN too
            raise ValueError(f"sketch domain is finite non-negative, got {value!r}")
        if value == 0.0:
            self.zeros += 1
        else:
            slot = _slot_of(value)
            self.counts[slot] = self.counts.get(slot, 0) + 1
        self.total += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.sum_fp += int(round(value * _SUM_SCALE))

    def extend(self, values: Iterable[float]) -> None:
        """Absorb many samples (order never matters).

        Large batches take a vectorized path (``np.frexp`` slots the
        whole array at once) that lands every sample in exactly the slot
        :meth:`add` would pick — the scalar/bulk equivalence is pinned by
        the sketch tests — because the windows tracker builds one sketch
        per closed window and the bench's obs-overhead ceiling leaves no
        room for a per-sample Python loop on the flush path.
        """
        if not isinstance(values, list):
            values = list(values)
        if len(values) < 32:
            for value in values:
                self.add(value)
            return
        self._extend_bulk(values)

    def _extend_bulk(self, values: List[float]) -> None:
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        if not bool(np.all(arr >= 0.0)) or bool(np.any(np.isinf(arr))):
            for value in values:  # re-raise with the scalar path's message
                self.add(value)
            return
        positive = arr[arr > 0.0]
        zeros = int(arr.size - positive.size)
        if positive.size:
            mantissa, exponent = np.frexp(positive)
            sub = ((mantissa - 0.5) * (2 * SUBBUCKETS)).astype(np.int64)
            np.minimum(sub, SUBBUCKETS - 1, out=sub)
            slots = exponent.astype(np.int64) * SUBBUCKETS + sub
            counts = self.counts
            for slot, count in zip(*np.unique(slots, return_counts=True)):
                slot = int(slot)
                counts[slot] = counts.get(slot, 0) + int(count)
        self.zeros += zeros
        self.total += int(arr.size)
        low, high = float(arr.min()), float(arr.max())
        if self.minimum is None or low < self.minimum:
            self.minimum = low
        if self.maximum is None or high > self.maximum:
            self.maximum = high
        # np.rint is round-half-to-even on the same float64 product the
        # scalar path rounds, so per-sample fixed-point terms match; the
        # Python-int sum keeps the accumulation exact past int64.
        scaled = np.rint(arr * _SUM_SCALE)
        self.sum_fp += sum(map(int, scaled.tolist()))

    @classmethod
    def of(cls, values: Iterable[float]) -> "QuantileSketch":
        """Build a sketch holding ``values``."""
        sketch = cls()
        sketch.extend(values)
        return sketch

    # ------------------------------------------------------------------ merge
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Exact monoid combine: returns a new sketch, operands untouched.

        Integer adds and extrema folds only, so the operation is
        bit-exactly commutative and associative — the property the shard
        merge path and the hypothesis suite rely on.
        """
        merged = QuantileSketch(
            counts=dict(self.counts),
            zeros=self.zeros + other.zeros,
            total=self.total + other.total,
            minimum=_fold(min, self.minimum, other.minimum),
            maximum=_fold(max, self.maximum, other.maximum),
            sum_fp=self.sum_fp + other.sum_fp,
        )
        for slot, count in other.counts.items():
            merged.counts[slot] = merged.counts.get(slot, 0) + count
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.total == other.total
            and self.zeros == other.zeros
            and self.sum_fp == other.sum_fp
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and {k: v for k, v in self.counts.items() if v}
            == {k: v for k, v in other.counts.items() if v}
        )

    # ------------------------------------------------------------------ read
    @property
    def count(self) -> int:
        """Total samples absorbed."""
        return self.total

    @property
    def sum(self) -> float:
        """Fixed-point running sum, as a float (0.0 when empty)."""
        return self.sum_fp / _SUM_SCALE

    @property
    def mean(self) -> float:
        """Exact-sum mean (0.0 when empty)."""
        if self.total == 0:
            return 0.0
        return (self.sum_fp / _SUM_SCALE) / self.total

    def quantile(self, q: float) -> float:
        """Estimated ``q``-th percentile, mirroring ``percentile``.

        Same rank rule — ``rank = (q/100) * (n-1)``, linear interpolation
        between the two neighbouring order statistics — with each order
        statistic estimated inside its bucket and clamped to the observed
        ``[min, max]``.  Single-sample sketches therefore return the exact
        value, and every estimate sits inside :meth:`quantile_bounds`.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.total == 0:
            raise ValueError("percentile of empty sketch")
        if self.total == 1:
            return float(self.minimum)  # type: ignore[arg-type]
        rank = (q / 100.0) * (self.total - 1)
        lower = int(rank)
        upper = min(lower + 1, self.total - 1)
        frac = rank - lower
        return float(
            self._order_stat(lower) * (1.0 - frac) + self._order_stat(upper) * frac
        )

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """Guaranteed ``(lo, hi)`` interval for the **exact** percentile.

        The exact sorted-list ``percentile`` of the absorbed
        multiset always lies inside, and so does :meth:`quantile` —
        this is the documented bucket-resolution contract
        (relative width at most :data:`RESOLUTION`).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.total == 0:
            raise ValueError("percentile of empty sketch")
        if self.total == 1:
            v = float(self.minimum)  # type: ignore[arg-type]
            return v, v
        rank = (q / 100.0) * (self.total - 1)
        lower = int(rank)
        upper = min(lower + 1, self.total - 1)
        frac = rank - lower
        lo_a, hi_a = self._order_stat_bounds(lower)
        lo_b, hi_b = self._order_stat_bounds(upper)
        return (
            float(lo_a * (1.0 - frac) + lo_b * frac),
            float(hi_a * (1.0 - frac) + hi_b * frac),
        )

    # ------------------------------------------------------------ internals
    def _occupied(self) -> List[Tuple[int, int]]:
        """Sorted ``(slot, count)`` pairs — slot order is value order."""
        return sorted((s, c) for s, c in self.counts.items() if c)

    def _locate(self, index: int) -> Tuple[float, float, int, int]:
        """Bucket of the 0-indexed ``index``-th smallest sample.

        Returns ``(lo_edge, hi_edge, offset_in_bucket, bucket_count)``;
        zeros occupy the degenerate bucket ``(0.0, 0.0)``.
        """
        if index < self.zeros:
            return 0.0, 0.0, index, self.zeros
        cumulative = self.zeros
        for slot, count in self._occupied():
            if index < cumulative + count:
                lo, hi = _slot_edges(slot)
                return lo, hi, index - cumulative, count
            cumulative += count
        raise IndexError(f"order statistic {index} of {self.total} samples")

    def _order_stat(self, index: int) -> float:
        """Point estimate of one order statistic, clamped to [min, max].

        The first and last order statistics ARE the tracked extrema, so
        they come back exact — ``quantile(0)`` and ``quantile(100)``
        mirror ``percentile`` to the bit.
        """
        if index <= 0:
            return float(self.minimum)  # type: ignore[arg-type]
        if index >= self.total - 1:
            return float(self.maximum)  # type: ignore[arg-type]
        lo, hi, offset, count = self._locate(index)
        if hi == lo:
            return lo
        estimate = lo + (hi - lo) * ((offset + 1) / (count + 1))
        return min(max(estimate, self.minimum), self.maximum)  # type: ignore[type-var]

    def _order_stat_bounds(self, index: int) -> Tuple[float, float]:
        """Guaranteed interval containing one exact order statistic."""
        if index <= 0:
            v = float(self.minimum)  # type: ignore[arg-type]
            return v, v
        if index >= self.total - 1:
            v = float(self.maximum)  # type: ignore[arg-type]
            return v, v
        lo, hi, _offset, _count = self._locate(index)
        lo = max(lo, self.minimum)  # type: ignore[type-var]
        hi = min(hi, self.maximum)  # type: ignore[type-var]
        return lo, max(lo, hi)

    # -------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """JSON-friendly snapshot (slots sorted, keys stringified)."""
        return {
            "counts": {str(s): c for s, c in self._occupied()},
            "zeros": self.zeros,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "sum_fp": self.sum_fp,
        }


def _fold(op, a: Optional[float], b: Optional[float]) -> Optional[float]:
    """min/max over optionals where ``None`` means 'no samples yet'."""
    if a is None:
        return b
    if b is None:
        return a
    return op(a, b)
