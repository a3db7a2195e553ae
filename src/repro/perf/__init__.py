"""Profiling, timing, and the bit-exactness oracle of the integer kernels.

- :mod:`timer` — best-of-N wall-clock timing (:func:`time_callable`)
- :mod:`profiler` — span-based wall-time attribution (:class:`Profiler`)
- :mod:`reference` — the seed (pre-optimization) integer kernels, the
  bit-exactness oracle every optimization is verified against
- :mod:`workloads` — pinned synthetic integer models, tokenizer, and text
  pools (deterministic, training-free)
- :mod:`bench` — the wall-clock contracts behind ``repro.cli bench``

See ``docs/performance.md`` for which contract lives where.
"""

from .profiler import Profiler, SpanStats
from .reference import (
    reference_attention_forward,
    reference_encode,
    reference_forward,
    reference_layer_forward,
    reference_layernorm_forward,
    reference_linear_forward,
)
from .timer import TimingResult, time_callable
from .workloads import HashTokenizer, bench_text_pool, build_synthetic_integer_model

__all__ = [
    # timing / profiling
    "TimingResult",
    "time_callable",
    "Profiler",
    "SpanStats",
    # reference kernels
    "reference_linear_forward",
    "reference_layernorm_forward",
    "reference_attention_forward",
    "reference_layer_forward",
    "reference_encode",
    "reference_forward",
    # workloads
    "build_synthetic_integer_model",
    "HashTokenizer",
    "bench_text_pool",
]
