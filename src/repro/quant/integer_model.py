"""Integer-only inference engine for FQ-BERT.

This is the deployable form of the model: after QAT, every scale is frozen
and folded into fixed-point requantization multipliers (Eq. 5), weights are
stored as 4-bit codes, biases as int32 (Eq. 4), and the whole encoder runs
in integer arithmetic — the same arithmetic the FPGA accelerator executes.
The embedding block and the task layer run "on the host CPU" in float,
matching the paper's deployment split (Sec. III-A).

The conversion consumes a trained
:class:`repro.quant.qbert.QuantBertForSequenceClassification` and the engine
is validated against it: predictions must agree because the fake-quant
forward was designed to follow this exact datapath.

The engine is the serving hot path, so its kernels are fully batched and
tuned without changing a single output bit:

- every matmul runs through :mod:`repro.quant.intgemm`, which certifies a
  magnitude bound and executes on the narrowest exact BLAS tier (float32,
  then float64) instead of numpy's slow native int64 loop;
- every requantization runs in float64 where its multiplier certifies that
  exact (:meth:`~repro.quant.fixedpoint.FixedPointMultiplier.requantize`),
  instead of int64 multiply-and-shift passes;
- activation codes travel between operators as float32, which holds every
  8-bit code exactly and feeds sgemm without a cast; :meth:`encode` returns
  int64 codes;
- weight operands are transposed and cast **once per model** at conversion
  (:class:`~repro.quant.intgemm.CachedMatmul`), not per forward call;
- the softmax-exp and GELU lookup tables are built once per distinct scale
  and shared across layers;
- layer-norm parameter codes are pre-widened once instead of per call.

``tests/perf/test_reference_equivalence.py`` locks every kernel to the seed
implementation (kept in :mod:`repro.perf.reference`) bit-for-bit.

The inference surface is split for serving: :meth:`encode` runs the batched
integer encoder, :meth:`classify` / :meth:`classify_rows` run the float
host head, and :meth:`forward` composes them (optionally chunking the
encoder pass — the integer arithmetic makes any chunking bit-identical).
The encoder computes only the tokens its result depends on
(:class:`TokenRows`): the valid tokens, packed into one matrix, and in the
last layer only the rows the caller requests, such as the head's
``head_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autograd import no_grad
from ..autograd import functional as F
from ..autograd.tensor import Tensor
from ..bert.config import BertConfig
from .fixedpoint import (
    FixedPointMultiplier,
    LN_PARAM_FORMAT,
    VectorFixedPointMultiplier,
    integer_isqrt,
)
from .intgemm import EXACT_F64_LIMIT, CachedMatmul, exact_dtype, exact_matmul, max_abs
from .qat import FakeQuantize, QuantConfig
from .qbert import QuantBertForSequenceClassification
from .quantizer import int_range
from .softmax_lut import OUTPUT_LEVELS, build_exp_lut, quantized_softmax

ACT_BITS = 8
LN_FRAC_BITS = 15


@dataclass
class IntegerLinear:
    """A linear layer frozen to integer parameters.

    ``forward`` computes Eq. 5 exactly:
    ``y_I = saturate(requant(acc), out_bits)``, which clamps 8-bit codes to
    ``[-128, 127]``, with ``acc = x_I @ W_I^T + b_I``.  The matmul runs on
    the narrowest exact GEMM tier and the bias is folded into the float64
    requantization; both equal the int32/int64 arithmetic bit for bit.

    ``weight_codes`` is treated as frozen after the first forward call: the
    transposed operand is cached (:class:`~repro.quant.intgemm.CachedMatmul`)
    so the per-call transpose copy and dtype cast of the seed implementation
    happen once per model instead of once per batch.
    """

    weight_codes: np.ndarray          # (out, in) integer weight codes
    bias_codes: Optional[np.ndarray]  # (out,) int32-range codes at s_a * s_w
    requant: FixedPointMultiplier     # s_y / (s_a * s_w)
    in_scale: float
    weight_scale: float
    out_scale: float
    out_bits: int = ACT_BITS

    @cached_property
    def _matmul(self) -> CachedMatmul:
        """The frozen ``x @ W^T`` plan (built lazily, reused every call)."""
        return CachedMatmul(np.asarray(self.weight_codes, dtype=np.int64).T)

    def invalidate_cache(self) -> None:
        """Drop the cached matmul plan after an in-place ``weight_codes`` edit.

        Only needed by callers that deliberately mutate frozen parameters
        (e.g. failure injection); normal inference never requires it.
        """
        self.__dict__.pop("_matmul", None)

    def forward(self, x_codes: np.ndarray) -> np.ndarray:
        """Apply the layer to activation codes.

        Args:
            x_codes: Integer activation codes, shape ``(..., in_features)``.

        Returns:
            Output codes saturated to ``out_bits`` (float32 for 8-bit
            codes), equal to the seed int64 implementation's.
        """
        return self.requant.requantize(
            self._matmul(x_codes), self.out_bits, addend=self.bias_codes
        )

    @property
    def weight_bits(self) -> int:
        max_code = int(np.abs(self.weight_codes).max()) if self.weight_codes.size else 0
        return max(2, max_code.bit_length() + 1)


@dataclass
class IntegerLayerNorm:
    """Fixed-point Add&LN, the arithmetic of the accelerator's LN core.

    Stage 1 aligns the two inputs (each with its own scale — exactly the
    "two input vectors with two scaling factors" of Sec. III-B) onto a
    common Q.15 grid and computes the mean; stage 2 subtracts the mean and
    computes the variance; stage 3 applies the 8-bit fixed-point gamma/beta
    and requantizes to the 8-bit output buffer.
    """

    gamma_codes: np.ndarray  # Q3.4 codes
    beta_codes: np.ndarray   # Q3.4 codes
    align_a: FixedPointMultiplier  # codes_a -> Q.15
    align_b: FixedPointMultiplier  # codes_b -> Q.15
    out_requant: FixedPointMultiplier  # Q.(15+4) -> output codes
    out_scale: float
    eps_fx: int

    @cached_property
    def _gamma_i64(self) -> np.ndarray:
        """Gamma codes pre-widened to int64 (frozen after first forward)."""
        return np.asarray(self.gamma_codes, dtype=np.int64)

    @cached_property
    def _beta_aligned(self) -> np.ndarray:
        """Beta codes pre-shifted onto the Q.(15+4) accumulator grid."""
        return np.asarray(self.beta_codes, dtype=np.int64) << LN_FRAC_BITS

    def invalidate_cache(self) -> None:
        """Drop pre-widened parameter caches after an in-place gamma/beta edit.

        Only needed by callers that deliberately mutate frozen parameters
        (e.g. failure injection); normal inference never requires it.
        """
        self.__dict__.pop("_gamma_i64", None)
        self.__dict__.pop("_beta_aligned", None)

    def forward(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        """Fused Add&LN over the last axis of a code batch.

        Runs in float64 when the magnitudes certify every step exact (the
        sum, the Q.15 numerator and the gamma/beta accumulator below 2^53),
        in int64 otherwise; the variance is int64 either way.

        Args:
            codes_a: Integer codes of the first addend (any leading shape).
            codes_b: Integer codes of the second addend, same shape.

        Returns:
            8-bit output codes (float32), equal to the seed implementation's.
        """
        # Stage 1: align and add, then the row mean.  Float64 results are
        # within 2^52 and add exactly; an int64 one (past its multiplier's
        # exact limit) takes the sum to int64.
        v_a, v_b = self.align_a.exact_apply(codes_a), self.align_b.exact_apply(codes_b)
        if v_a.dtype != v_b.dtype:
            v_a, v_b = v_a.astype(np.int64), v_b.astype(np.int64)
        v = v_a + v_b
        n = v.shape[-1]
        gamma, beta = self._gamma_i64, self._beta_aligned
        v_bound = max_abs(v)
        # |mean| <= v_bound, so |centered| <= 2 v_bound, and std >= 1.
        bound = max(
            n * v_bound,
            ((2 * v_bound * max(max_abs(gamma), 1)) << LN_FRAC_BITS) + max_abs(beta),
        )
        dtype = np.float64 if bound < EXACT_F64_LIMIT else np.int64
        v = v.astype(dtype, copy=False)
        mean = np.rint(v.sum(axis=-1, keepdims=True) / n).astype(dtype)
        # Stage 2: center and the variance (2*LN_FRAC_BITS fractional bits).
        centered = v - mean
        wide = centered.astype(np.int64, copy=False)
        var = (wide * wide).sum(axis=-1, keepdims=True) // n
        std = np.maximum(integer_isqrt(var + self.eps_fx), 1).astype(dtype)
        # Stage 3: normalize, scale by gamma, add beta, requantize.  For
        # integers below 2^53, floor of the correctly rounded quotient is
        # the exact floor division (numpy's float // is far slower).
        numerator = centered * (1 << LN_FRAC_BITS)
        normalized = numerator // std if dtype is np.int64 else np.floor(numerator / std)
        acc = normalized * gamma.astype(dtype) + beta.astype(dtype)
        return self.out_requant.requantize(acc, ACT_BITS)


@dataclass
class FloatLayerNorm:
    """Float LN used when the QAT config left LN parameters unquantized."""

    gamma: np.ndarray
    beta: np.ndarray
    in_scale_a: float
    in_scale_b: float
    out_scale: float
    eps: float

    def forward(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        codes_a = np.asarray(codes_a, dtype=np.float64)
        codes_b = np.asarray(codes_b, dtype=np.float64)
        x = codes_a / self.in_scale_a + codes_b / self.in_scale_b
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        y = self.gamma * (x - mu) / np.sqrt(var + self.eps) + self.beta
        qmin, qmax = int_range(ACT_BITS)
        return np.clip(np.rint(y * self.out_scale), qmin, qmax).astype(np.int64)


_GELU_OFFSET = 1 << (ACT_BITS - 1)  # code -128 is table row 0


@dataclass
class GeluLUT:
    """256-entry GELU lookup table: 8-bit input codes -> 8-bit output codes.

    Like the softmax exp table, an 8-bit-in/8-bit-out elementwise function
    is exactly a 256-entry ROM; this is how the accelerator evaluates GELU
    without DSPs.
    """

    table: np.ndarray  # indexed by code + 128
    in_scale: float
    out_scale: float

    @classmethod
    def build(cls, in_scale: float, out_scale: float) -> "GeluLUT":
        # Every input the ROM can see: requantization saturates to the
        # full 8-bit range [-128, 127], one code wider than the symmetric
        # quantizer range the outputs are clipped to.
        codes = np.arange(-_GELU_OFFSET, _GELU_OFFSET, dtype=np.int64)
        x = codes / in_scale
        gelu = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
        qmin, qmax = int_range(ACT_BITS)
        out = np.clip(np.rint(gelu * out_scale), qmin, qmax).astype(np.int64)
        return cls(table=out, in_scale=in_scale, out_scale=out_scale)

    def forward(self, codes: np.ndarray) -> np.ndarray:
        index = (np.asarray(codes) + _GELU_OFFSET).astype(np.intp, copy=False)
        return self.table.astype(exact_dtype(max_abs(self.table)), copy=False)[index]


@dataclass(frozen=True)
class AttentionRows:
    """The packed token rows one layer reads as keys and computes as queries.

    Attributes:
        query_rows: Rows of the packed input whose outputs the layer
            computes, in output order; ``None`` means every row.
        key_rows: Rows of the packed input that are valid tokens, the only
            keys attention reads; ``None`` means every row.
        groups: One ``(queries, keys)`` index pair per group of sequences
            with equal query and key counts: ``queries`` is ``(G, nq)`` into
            the query rows and ``keys`` is ``(G, nk)`` into the key rows.
    """

    query_rows: Optional[np.ndarray]
    key_rows: Optional[np.ndarray]
    groups: Tuple[Tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class TokenRows:
    """Which token rows one encoder pass computes, as packed-row indices.

    The valid tokens (the attention mask) and the output rows the caller
    asks for drive the whole pass.  Every layer but the last computes the
    valid rows and the requested ones; the last computes K/V over the valid
    rows and everything else over the requested rows only.  Attention keys
    are always a sequence's own valid tokens, so no code depends on the
    padding or on the other sequences of the batch.

    Attributes:
        width: Positions embedded per sequence: the padded length trimmed
            after the last position any sequence needs.
        gather: Flat ``(batch * width)`` positions of the packed rows, or
            ``None`` when every position is computed.
        inner: The rows of every layer but the last.
        last: The rows of the last layer; its query rows are the output.
        out_shape: ``(batch, rows per sequence)`` of the encoder output.
    """

    width: int
    gather: Optional[np.ndarray]
    inner: AttentionRows
    last: AttentionRows
    out_shape: Tuple[int, int]

    @classmethod
    def build(cls, attention_mask: np.ndarray, rows: Optional[Sequence[int]]) -> "TokenRows":
        """Plan the packed rows of a batch.

        Args:
            attention_mask: 0/1 validity mask, ``(batch, seq)``.
            rows: Positions whose output codes the caller reads (the same
                for every sequence), or ``None`` for every position, pad
                positions included.

        Raises:
            ValueError: A mask row has no valid token, or a row lies
                outside ``[0, seq)``.
        """
        valid = np.asarray(attention_mask) != 0
        batch, seq = valid.shape
        empty = np.flatnonzero(~valid.any(axis=1))
        if empty.size:
            raise ValueError(
                f"attention_mask row {int(empty[0])} has no valid token; "
                "every sequence needs at least one"
            )
        if rows is None:
            requested = None
            needed = np.ones_like(valid)
        else:
            requested = np.asarray(rows, dtype=np.intp).reshape(-1)
            if requested.size == 0 or requested.min() < 0 or requested.max() >= seq:
                raise ValueError(f"rows must be positions in [0, {seq}), got {requested.tolist()}")
            needed = valid.copy()
            needed[:, requested] = True
        width = int(np.flatnonzero(needed.any(axis=0))[-1]) + 1
        needed, valid = needed[:, :width], valid[:, :width]

        # Packed row of every needed position, in (sequence, position) order.
        packed = np.cumsum(needed.ravel()).reshape(batch, width) - 1
        n_query, n_key = needed.sum(axis=1), valid.sum(axis=1)
        query_start, key_start = np.cumsum(n_query) - n_query, np.cumsum(n_key) - n_key
        key_rows = None if np.array_equal(valid, needed) else packed[valid]
        inner = AttentionRows(
            None, key_rows, _attention_groups(query_start, n_query, key_start, n_key)
        )
        if requested is None:
            return cls(width, None, inner, inner, (batch, seq))
        per_row = requested.size
        last = AttentionRows(
            packed[:, requested].ravel(),
            key_rows,
            _attention_groups(
                np.arange(batch) * per_row, np.full(batch, per_row), key_start, n_key
            ),
        )
        gather = None if needed.all() else np.flatnonzero(needed)
        return cls(width, gather, inner, last, (batch, per_row))


def _attention_groups(
    query_start: np.ndarray, n_query: np.ndarray, key_start: np.ndarray, n_key: np.ndarray
) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Group sequences by (query count, key count) into index blocks.

    Each sequence's queries and keys are contiguous in their packed rows,
    starting at ``query_start`` and ``key_start``.
    """
    members: Dict[Tuple[int, int], List[int]] = {}
    for index, counts in enumerate(zip(n_query.tolist(), n_key.tolist())):
        members.setdefault(counts, []).append(index)
    groups = []
    for (nq, nk), seqs in members.items():
        seqs = np.asarray(seqs)
        groups.append(
            (query_start[seqs, None] + np.arange(nq), key_start[seqs, None] + np.arange(nk))
        )
    return tuple(groups)


def _packed(
    x_codes: np.ndarray, tokens: Union[AttentionRows, np.ndarray, None]
) -> Tuple[np.ndarray, AttentionRows, Optional[Tuple[int, ...]]]:
    """Normalize a layer's input to packed rows.

    Packed ``(tokens, hidden)`` codes come with their :class:`AttentionRows`
    and pass through.  Padded ``(batch, seq, hidden)`` codes come with a
    0/1 ``(batch, seq)`` mask (``None``: every token valid); they become
    one packed row per position, every position computed, and the padded
    shape is returned to restore the output.
    """
    if isinstance(tokens, AttentionRows):
        return x_codes, tokens, None
    batch, seq, hidden = x_codes.shape
    mask = np.ones((batch, seq), dtype=bool) if tokens is None else tokens
    return x_codes.reshape(-1, hidden), TokenRows.build(mask, None).inner, x_codes.shape


@dataclass
class IntegerSelfAttention:
    """Integer multi-head attention with LUT softmax.

    ``exp_lut`` may be *shared* between layers whose score scales are
    equal (:func:`convert_to_integer` builds each distinct table once), so
    an in-place edit of one layer's table — e.g. failure injection —
    affects every layer aliasing it; assign a fresh array to mutate one
    layer independently.
    """

    query: IntegerLinear
    key: IntegerLinear
    value: IntegerLinear
    num_heads: int
    score_requant: FixedPointMultiplier  # folds 1/sqrt(d) and s_score/(s_q s_k)
    score_scale: float
    exp_lut: np.ndarray
    context_requant: FixedPointMultiplier  # s_ctx / (OUTPUT_LEVELS * s_v)
    context_scale: float

    def forward(
        self, x_codes: np.ndarray, tokens: Union[AttentionRows, np.ndarray, None]
    ) -> np.ndarray:
        """Attention over packed token rows, one block per sequence group.

        Q/K/V run once over the packed rows.  Each group of equal-shaped
        sequences then runs scores, the LUT softmax and the context over
        its own valid keys only, which is what the paper's controller
        streams (padded keys never reach the softmax core).

        Args:
            x_codes: Packed ``(tokens, hidden)`` codes, or padded
                ``(batch, seq, hidden)`` codes.
            tokens: The packed codes' :class:`AttentionRows`, or the padded
                codes' 0/1 ``(batch, seq)`` mask (``None``: all valid).

        Returns:
            Context codes of the query rows, ``(queries, hidden)``, or
            ``(batch, seq, hidden)`` for a padded input.
        """
        x_codes, rows, padded_shape = _packed(x_codes, tokens)
        kv_in = x_codes if rows.key_rows is None else x_codes[rows.key_rows]
        q_in = x_codes if rows.query_rows is None else x_codes[rows.query_rows]
        q = self.query.forward(q_in)
        k = self.key.forward(kv_in)
        v = self.value.forward(kv_in)

        out = np.empty(q.shape, dtype=np.float32)  # 8-bit codes are exact
        for queries, keys in rows.groups:
            q_g = _split_heads_np(q[queries], self.num_heads)
            k_g = _split_heads_np(k[keys], self.num_heads)
            score_acc = exact_matmul(q_g, k_g.swapaxes(-1, -2))
            score_codes = self.score_requant.requantize(score_acc, ACT_BITS)
            prob_codes, _ = quantized_softmax(score_codes, self.score_scale, lut=self.exp_lut)
            context_acc = exact_matmul(prob_codes, _split_heads_np(v[keys], self.num_heads))
            context_codes = self.context_requant.requantize(context_acc, ACT_BITS)
            out[queries] = _merge_heads_np(context_codes)
        return out if padded_shape is None else out.reshape(padded_shape)


@dataclass
class IntegerBertLayer:
    """One encoder layer frozen to integer arithmetic."""

    attention: IntegerSelfAttention
    attention_output: IntegerLinear
    attention_layernorm: object  # IntegerLayerNorm | FloatLayerNorm
    ffn1: IntegerLinear
    gelu: GeluLUT
    ffn2: IntegerLinear
    output_layernorm: object

    def forward(
        self, x_codes: np.ndarray, tokens: Union[AttentionRows, np.ndarray, None]
    ) -> np.ndarray:
        """The layer over packed token rows (or a padded batch and its mask).

        Attention reads the key rows; every other operator runs on the
        query rows only.  Arguments and result are as for
        :meth:`IntegerSelfAttention.forward`.
        """
        x_codes, rows, padded_shape = _packed(x_codes, tokens)
        context = self.attention.forward(x_codes, rows)
        residual = x_codes if rows.query_rows is None else x_codes[rows.query_rows]
        projected = self.attention_output.forward(context)
        attended = self.attention_layernorm.forward(projected, residual)

        intermediate = self.ffn1.forward(attended)
        activated = self.gelu.forward(intermediate)
        ffn_out = self.ffn2.forward(activated)
        out = self.output_layernorm.forward(ffn_out, attended)
        return out if padded_shape is None else out.reshape(padded_shape)


class IntegerBertForSequenceClassification:
    """End-to-end integer FQ-BERT: host embedding -> integer encoder -> host head."""

    # The encoder output positions the host head reads: every head_fn
    # (the converted pooler and the synthetic stand-in) pools [CLS].
    head_rows: Tuple[int, ...] = (0,)

    def __init__(
        self,
        config: BertConfig,
        layers: List[IntegerBertLayer],
        embed_fn,
        head_fn,
        input_scale: float,
    ):
        self.config = config
        self.layers = layers
        self._embed_fn = embed_fn
        self._head_fn = head_fn
        self.input_scale = input_scale

    def encode(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Run host embedding + the integer encoder; return final int64 codes.

        Only the tokens the result depends on are computed (see
        :class:`TokenRows`): the valid tokens, and in the last layer only
        the requested rows.  Codes are exact integers, so every returned
        row is bit-identical to a padded full-batch pass.

        Args:
            input_ids: Token ids, ``(batch, seq)``.
            attention_mask: 0/1 validity mask, ``(batch, seq)``; ``None``
                means every token is valid.
            token_type_ids: Optional segment ids, ``(batch, seq)``.
            rows: Output positions to return for every sequence (e.g.
                :attr:`head_rows`), or ``None`` for all ``seq`` positions,
                pad positions included.

        Returns:
            int64 codes of shape ``(batch, seq, hidden)``, or
            ``(batch, len(rows), hidden)`` when ``rows`` is given.

        Raises:
            ValueError: The mask's shape differs from the ids', a mask row
                has no valid token, or a row is out of range.
        """
        input_ids = np.asarray(input_ids)
        if attention_mask is None:
            attention_mask = np.ones(input_ids.shape, dtype=bool)
        elif np.shape(attention_mask) != input_ids.shape:
            raise ValueError(
                f"attention_mask shape {np.shape(attention_mask)} != "
                f"input_ids shape {input_ids.shape}"
            )
        plan = TokenRows.build(attention_mask, rows)
        if token_type_ids is not None:
            token_type_ids = np.asarray(token_type_ids)[:, : plan.width]
        codes = self._embed_fn(input_ids[:, : plan.width], token_type_ids)
        codes = codes.reshape(-1, codes.shape[-1])
        if plan.gather is not None:
            codes = codes[plan.gather]
        for layer in self.layers[:-1]:
            codes = layer.forward(codes, plan.inner)
        if self.layers:
            codes = self.layers[-1].forward(codes, plan.last)
        elif plan.last.query_rows is not None:
            codes = codes[plan.last.query_rows]
        return codes.astype(np.int64, copy=False).reshape(plan.out_shape + (-1,))

    def classify(self, codes: np.ndarray) -> np.ndarray:
        """Host-side head on final encoder codes: dequantize, pool, classify.

        Split out of :meth:`forward` so callers that batch the integer
        encoder (e.g. the serving engine) can run the float head per row:
        the encoder's integer arithmetic is exact and therefore invariant
        to batch composition, while float BLAS reductions need not be.
        """
        final_scale = self.layers[-1].output_layernorm.out_scale if self.layers else self.input_scale
        return self._head_fn(codes / final_scale)

    def classify_rows(self, codes: np.ndarray) -> np.ndarray:
        """Run the float host head independently on each encoder row.

        Args:
            codes: Final encoder codes, shape ``(batch, rows, hidden)``:
                every position, or just :attr:`head_rows` (the rows the
                head reads) as ``encode(..., rows=model.head_rows)``
                returns them.

        Returns:
            Logits of shape ``(batch, num_labels)``; row ``i`` is
            bit-identical to ``classify(codes[i:i+1])[0]``.

        The serving engine uses this instead of :meth:`classify` on the
        whole batch: float BLAS reductions need not be invariant to batch
        composition, so per-row head execution is what keeps served logits
        bit-identical to one-at-a-time inference.  Dequantization is
        elementwise (hence batch-invariant) and hoisted out of the loop.
        """
        final_scale = self.layers[-1].output_layernorm.out_scale if self.layers else self.input_scale
        hidden = codes / final_scale
        return np.concatenate(
            [self._head_fn(hidden[i : i + 1]) for i in range(hidden.shape[0])]
        )

    def forward(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Logits for a batch; ``chunk_size`` bounds the working-set size.

        Chunking splits the *encoder* pass into groups of at most
        ``chunk_size`` rows executed back to back — the encoder dominates
        memory (attention is O(seq^2) per row) and its exact integer
        arithmetic makes the codes bit-identical under any chunking.  The
        (tiny) float head then runs once over all rows, so chunked and
        unchunked calls return bit-identical logits.  The encoder returns
        only :attr:`head_rows`, all the head reads.
        """
        if chunk_size is not None:
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
            input_ids = np.asarray(input_ids)
            pieces = []
            for start in range(0, input_ids.shape[0], chunk_size):
                stop = start + chunk_size
                pieces.append(
                    self.encode(
                        input_ids[start:stop],
                        None if attention_mask is None else attention_mask[start:stop],
                        None if token_type_ids is None else token_type_ids[start:stop],
                        rows=self.head_rows,
                    )
                )
            codes = np.concatenate(pieces, axis=0)
        else:
            codes = self.encode(input_ids, attention_mask, token_type_ids, rows=self.head_rows)
        return self.classify(codes)

    def predict(
        self,
        input_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        token_type_ids: Optional[np.ndarray] = None,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        return self.forward(
            input_ids, attention_mask, token_type_ids, chunk_size=chunk_size
        ).argmax(axis=-1)


# ----------------------------------------------------------------------
# conversion from the trained QAT model
# ----------------------------------------------------------------------

def _split_heads_np(x: np.ndarray, num_heads: int) -> np.ndarray:
    batch, seq, hidden = x.shape
    return x.reshape(batch, seq, num_heads, hidden // num_heads).transpose(0, 2, 1, 3)


def _merge_heads_np(x: np.ndarray) -> np.ndarray:
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


def _convert_linear(qlinear, in_scale: float) -> IntegerLinear:
    """Freeze a QuantLinear: weight codes, int32 bias, requant multiplier(s).

    With per-channel weight scales the requantizer becomes a per-channel
    multiplier table (:class:`VectorFixedPointMultiplier`); the datapath is
    otherwise unchanged.
    """
    w_scale = qlinear.weight_quantizer.current_scale(qlinear.weight)
    qmin, qmax = int_range(qlinear.config.weight_bits)
    with no_grad():
        w_q, _ = qlinear.weight_quantizer(qlinear.weight)
    weight_codes = np.clip(np.rint(w_q.data * w_scale), qmin, qmax).astype(np.int64)

    per_channel = isinstance(w_scale, np.ndarray) and w_scale.size > 1
    w_scale_rows = np.asarray(w_scale, dtype=np.float64).reshape(-1)

    bias_codes = None
    if qlinear.bias is not None:
        s_bias = in_scale * (w_scale_rows if per_channel else float(w_scale))
        bias_codes = np.rint(qlinear.bias.data.astype(np.float64) * s_bias).astype(np.int64)

    out_scale = qlinear.output_quantizer.scale
    if per_channel:
        requant = VectorFixedPointMultiplier.from_floats(
            out_scale / (in_scale * w_scale_rows)
        )
        stored_scale = w_scale_rows
    else:
        requant = FixedPointMultiplier.from_float(out_scale / (in_scale * float(w_scale)))
        stored_scale = float(w_scale)
    return IntegerLinear(
        weight_codes=weight_codes,
        bias_codes=bias_codes,
        requant=requant,
        in_scale=in_scale,
        weight_scale=stored_scale,
        out_scale=out_scale,
    )


def _convert_layernorm(qln, scale_a: float, scale_b: float):
    """Freeze a QuantLayerNorm into the fixed-point (or float) LN."""
    out_scale = qln.output_quantizer.scale
    if qln.config.quantize_layernorm:
        fmt = LN_PARAM_FORMAT
        gamma_codes = fmt.to_fixed(qln.weight.data)
        beta_codes = fmt.to_fixed(qln.bias.data)
        two_f = 2.0 ** LN_FRAC_BITS
        return IntegerLayerNorm(
            gamma_codes=gamma_codes,
            beta_codes=beta_codes,
            align_a=FixedPointMultiplier.from_float(two_f / scale_a),
            align_b=FixedPointMultiplier.from_float(two_f / scale_b),
            out_requant=FixedPointMultiplier.from_float(
                out_scale / 2.0 ** (LN_FRAC_BITS + fmt.frac_bits)
            ),
            out_scale=out_scale,
            eps_fx=int(round(qln.eps * 2.0 ** (2 * LN_FRAC_BITS))),
        )
    return FloatLayerNorm(
        gamma=qln.weight.data.astype(np.float64),
        beta=qln.bias.data.astype(np.float64),
        in_scale_a=scale_a,
        in_scale_b=scale_b,
        out_scale=out_scale,
        eps=qln.eps,
    )


def convert_to_integer(
    qmodel: QuantBertForSequenceClassification,
) -> IntegerBertForSequenceClassification:
    """Freeze a trained FQ-BERT into the integer-only engine.

    Requires activation quantization to have been enabled during QAT, and
    every activation quantizer to have observed data (the engine needs a
    frozen scale at every buffer point); the error names the first
    quantizer, by module path, that has not.

    Lookup tables depend only on their scales, so each distinct exp/GELU
    table is built once and *shared by reference* across layers with equal
    scales (they are read-only in the forward pass).  Callers that mutate
    a layer's LUT in place (failure injection) should assign that layer a
    fresh copy first.
    """
    qconfig: QuantConfig = qmodel.qconfig
    if not qconfig.quantize_activations:
        raise ValueError(
            "integer conversion requires quantize_activations=True "
            "(every buffer point needs a frozen scale)"
        )
    for name, module in qmodel.named_modules():
        if isinstance(module, FakeQuantize) and not module.observer.initialized:
            raise RuntimeError(
                f"activation quantizer {name} has seen no data; run the model "
                "forward (QAT or calibration) before integer conversion"
            )
    qmodel.eval()
    config = qmodel.config

    input_scale = qmodel.embeddings.layer_norm.output_quantizer.scale
    layers: List[IntegerBertLayer] = []
    current_scale = input_scale

    # LUTs depend only on their scales; build each distinct table once and
    # share it across layers (they are read-only in the forward pass).
    exp_luts: Dict[float, np.ndarray] = {}
    gelu_luts: Dict[Tuple[float, float], GeluLUT] = {}

    def shared_exp_lut(score_scale: float) -> np.ndarray:
        lut = exp_luts.get(score_scale)
        if lut is None:
            lut = exp_luts[score_scale] = build_exp_lut(score_scale)
        return lut

    def shared_gelu_lut(in_scale: float, out_scale: float) -> GeluLUT:
        key = (in_scale, out_scale)
        lut = gelu_luts.get(key)
        if lut is None:
            lut = gelu_luts[key] = GeluLUT.build(in_scale, out_scale)
        return lut

    for qlayer in qmodel.encoder.layers:
        attn = qlayer.attention.self_attention
        q_lin = _convert_linear(attn.query, current_scale)
        k_lin = _convert_linear(attn.key, current_scale)
        v_lin = _convert_linear(attn.value, current_scale)

        score_scale = attn.score_quantizer.scale
        inv_sqrt_d = attn.inv_sqrt_d
        score_requant = FixedPointMultiplier.from_float(
            score_scale * inv_sqrt_d / (q_lin.out_scale * k_lin.out_scale)
        )
        context_scale = attn.context_quantizer.scale
        context_requant = FixedPointMultiplier.from_float(
            context_scale / (OUTPUT_LEVELS * v_lin.out_scale)
        )
        integer_attention = IntegerSelfAttention(
            query=q_lin,
            key=k_lin,
            value=v_lin,
            num_heads=attn.num_heads,
            score_requant=score_requant,
            score_scale=score_scale,
            exp_lut=shared_exp_lut(score_scale),
            context_requant=context_requant,
            context_scale=context_scale,
        )

        attn_out = _convert_linear(qlayer.attention.output_dense, context_scale)
        attn_ln = _convert_layernorm(
            qlayer.attention.layer_norm, attn_out.out_scale, current_scale
        )
        attended_scale = attn_ln.out_scale

        ffn1 = _convert_linear(qlayer.feed_forward.ffn1, attended_scale)
        gelu_scale = qlayer.feed_forward.gelu_quantizer.scale
        gelu = shared_gelu_lut(ffn1.out_scale, gelu_scale)
        ffn2 = _convert_linear(qlayer.feed_forward.ffn2, gelu_scale)
        out_ln = _convert_layernorm(
            qlayer.feed_forward.layer_norm, ffn2.out_scale, attended_scale
        )

        layers.append(
            IntegerBertLayer(
                attention=integer_attention,
                attention_output=attn_out,
                attention_layernorm=attn_ln,
                ffn1=ffn1,
                gelu=gelu,
                ffn2=ffn2,
                output_layernorm=out_ln,
            )
        )
        current_scale = out_ln.out_scale

    def embed_fn(input_ids: np.ndarray, token_type_ids: Optional[np.ndarray]) -> np.ndarray:
        """Host-side embedding: float compute, 8-bit codes out (the AXI stream)."""
        with no_grad():
            x, scale = qmodel.embeddings(np.asarray(input_ids), token_type_ids)
        qmin, qmax = int_range(ACT_BITS)
        return np.clip(np.rint(x.data * scale), qmin, qmax).astype(np.int64)

    def head_fn(hidden: np.ndarray) -> np.ndarray:
        """Host-side pooler + classifier on the dequantized encoder output."""
        with no_grad():
            pooled = qmodel.pooler(Tensor(hidden.astype(np.float32)), current_scale)
            logits = qmodel.classifier(pooled)
        return logits.data

    return IntegerBertForSequenceClassification(
        config=config,
        layers=layers,
        embed_fn=embed_fn,
        head_fn=head_fn,
        input_scale=input_scale,
    )
