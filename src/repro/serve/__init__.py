"""Dynamic-batching inference serving over the integer FQ-BERT engine.

The request-level layer the ROADMAP's production-scale north star builds
on: text in, logits + latency accounting out.

- :mod:`cache` — LRU tokenization cache
- :mod:`batching` — dynamic batcher with sequence-length bucketing
- :mod:`router` — load balancing over N simulated accelerator instances
- :mod:`engine` — :class:`ServingEngine` (``submit`` / ``drain`` / ``stats``)
- :mod:`metrics` — :class:`ServingStats` (latency percentiles, throughput,
  cache hit rate, padding efficiency, SLO attainment)

Logits are bit-identical to one-at-a-time integer-model inference; time is
the accelerator simulator's cycle-level schedule under a deterministic
simulated clock, so every serving run reproduces exactly.
"""

from .batching import Batch, BatchingPolicy, DynamicBatcher, PendingRequest
from .cache import LRUCache
from .engine import (
    Encoding,
    Request,
    RequestResult,
    ServingConfig,
    ServingEngine,
    TraceRequest,
    generate_trace,
)
from .metrics import ServingStats, build_stats, latency_summary, percentile
from .router import DeviceRouter, DeviceSpec, DeviceState, Dispatch

__all__ = [
    "Batch",
    "BatchingPolicy",
    "DynamicBatcher",
    "PendingRequest",
    "LRUCache",
    "Encoding",
    "Request",
    "RequestResult",
    "ServingConfig",
    "ServingEngine",
    "TraceRequest",
    "generate_trace",
    "ServingStats",
    "build_stats",
    "percentile",
    "latency_summary",
    "DeviceRouter",
    "DeviceSpec",
    "DeviceState",
    "Dispatch",
]
