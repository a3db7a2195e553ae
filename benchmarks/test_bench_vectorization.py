"""Optimized vs. seed integer kernels: the vectorization-pass scorecard.

Times the optimized integer kernels (linear, attention, Add&LN, and the
full batched forward at batch 8) against the seed implementations kept in
``repro.perf.reference`` on a small pinned synthetic model, and records
the speedup table to ``benchmarks/results/vectorization_speedup.txt``.
That the two paths agree bit for bit is
``tests/perf/test_reference_equivalence.py``'s contract.
"""

import numpy as np

from repro.bert.config import BertConfig
from repro.perf import build_synthetic_integer_model, reference, time_callable

CONFIG = BertConfig(
    vocab_size=256,
    hidden_size=96,
    num_hidden_layers=2,
    num_attention_heads=12,
    intermediate_size=384,
    max_position_embeddings=64,
    num_labels=2,
)
BATCH, SEQ_LEN = 8, 32
ROUNDS = 5


def _interleaved_best_ms(optimized, seed_impl):
    """Best-of-``ROUNDS`` milliseconds of each callable, timed in alternation.

    Alternating the two sides puts a burst of host load (a busy second
    vCPU, a cold core after an idle pause) on both of them alike, so it
    moves the ratio far less than timing one side's rounds after the other's.
    """
    optimized(), seed_impl()  # warm caches (frozen weight plans)
    best = [float("inf"), float("inf")]
    for _ in range(ROUNDS):
        for side, fn in enumerate((optimized, seed_impl)):
            best[side] = min(best[side], time_callable(fn, repeats=1, warmup=0).best_ms)
    return best


def test_bench_vectorization_speedup(record_table):
    model = build_synthetic_integer_model(CONFIG, seed=0)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, CONFIG.vocab_size, size=(BATCH, SEQ_LEN))
    lengths = rng.integers(SEQ_LEN // 2, SEQ_LEN + 1, size=BATCH)
    mask = (np.arange(SEQ_LEN)[None, :] < lengths[:, None]).astype(np.int64)
    codes = model.encode(ids, mask)
    flat = codes.reshape(-1, CONFIG.hidden_size)
    layer = model.layers[0]
    kernels = {
        "batched_forward_batch8": (
            lambda: model.forward(ids, mask),
            lambda: reference.reference_forward(model, ids, mask),
        ),
        "integer_linear_ffn1": (
            lambda: layer.ffn1.forward(flat),
            lambda: reference.reference_linear_forward(layer.ffn1, flat),
        ),
        "attention_layer0": (
            lambda: layer.attention.forward(codes, mask),
            lambda: reference.reference_attention_forward(layer.attention, codes, mask),
        ),
        "layernorm_layer0": (
            lambda: layer.attention_layernorm.forward(codes, codes),
            lambda: reference.reference_layernorm_forward(
                layer.attention_layernorm, codes, codes
            ),
        ),
    }

    lines = [
        f"Vectorization pass: optimized vs. seed kernels (best of {ROUNDS}, interleaved, ms)",
        "",
        f"  {'kernel':<24} {'optimized':>10} {'seed':>10} {'speedup':>8}",
    ]
    speedups = {}
    for name, (optimized, seed_impl) in kernels.items():
        opt_ms, seed_ms = _interleaved_best_ms(optimized, seed_impl)
        speedups[name] = seed_ms / opt_ms
        lines.append(
            f"  {name:<24} {opt_ms:>10.3f} {seed_ms:>10.3f} {speedups[name]:>7.2f}x"
        )
    record_table("vectorization_speedup", "\n".join(lines))

    # CI-load headroom under the >2x the batched forward shows on an idle
    # machine.  Add&LN was already vectorized in the seed, so its ~1.0x
    # ratio is timing noise and carries no bound.
    assert speedups["batched_forward_batch8"] > 1.3, speedups
    assert speedups["integer_linear_ffn1"] > 1.3, speedups
