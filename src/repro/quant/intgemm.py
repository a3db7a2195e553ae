"""Exact integer matrix multiplication on the float BLAS paths.

numpy dispatches integer ``@`` to a generic (non-BLAS) inner loop, which is
an order of magnitude slower than sgemm/dgemm.  But float arithmetic is
*exact* on integers as long as every product and partial sum stays inside
the format's contiguous integer range: below 2**24 for float32 and 2**53
for float64.  Every matmul in the integer FQ-BERT datapath is an
8-bit-by-4-bit or 8-bit-by-8-bit code product, so it can run on BLAS
without changing a single bit.  ``exact_matmul`` and :class:`CachedMatmul`
pick the narrowest of three tiers by a conservative magnitude guard:

- float32 (sgemm) when the bound is below 2**24;
- float64 (dgemm) when it is below 2**53;
- the native int64 loop otherwise, so results equal ``a @ b`` in all cases.

The guard is conservative by construction: it bounds the *accumulated*
magnitude by ``k * max|a| * max|b|``, the worst case over any summation
order, so BLAS reordering of the dot products (or a fused multiply-add)
cannot introduce rounding.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

# Largest integer magnitudes float32 and float64 represent exactly (contiguously).
EXACT_F32_LIMIT = 2 ** 24
EXACT_F64_LIMIT = 2 ** 53


def max_abs(codes: np.ndarray) -> int:
    """Largest absolute value in an integer code array (0 when empty).

    Computed from the min/max as Python ints rather than ``np.abs`` —
    ``np.abs(INT64_MIN)`` overflows back to a negative value, which would
    silently defeat the exactness guard.

    Args:
        codes: Integer-valued array of any shape (int or float dtype).

    Returns:
        ``max(|codes|)`` as an exact Python int, or 0 for an empty array.
    """
    if codes.size == 0:
        return 0
    return max(-int(codes.min()), int(codes.max()), 0)


def product_bound(a_bound: int, b_bound: int, contract_dim: int) -> int:
    """Worst-case accumulator magnitude of a length-``contract_dim`` dot product.

    Args:
        a_bound: Bound on ``|a|`` entries.
        b_bound: Bound on ``|b|`` entries.
        contract_dim: Dot-product length K.

    Returns:
        ``contract_dim * a_bound * b_bound`` — an upper bound on every
        partial sum under any summation order.
    """
    return int(contract_dim) * int(a_bound) * int(b_bound)


def exact_dtype(bound: int) -> type:
    """Narrowest dtype whose arithmetic is exact on integers below ``bound``.

    Args:
        bound: Strict upper bound on every magnitude the computation forms.

    Returns:
        ``np.float32`` below 2**24, ``np.float64`` below 2**53, else
        ``np.int64``.
    """
    if bound < EXACT_F32_LIMIT:
        return np.float32
    if bound < EXACT_F64_LIMIT:
        return np.float64
    return np.int64


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matmul ``a @ b``, bit-identical to int64, BLAS-fast when safe.

    Args:
        a: Integer codes, shape ``(..., m, k)`` (any integer-valued dtype).
        b: Integer codes, shape ``(..., k, n)``.

    Returns:
        ``a @ b`` as int64 — computed in the narrowest tier the magnitude
        guard certifies (sgemm, dgemm, or the native int64 loop).
    """
    dtype = exact_dtype(product_bound(max_abs(a), max_abs(b), a.shape[-1]))
    product = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return product.astype(np.int64, copy=False)


class CachedMatmul:
    """One fixed right-hand operand, kept once for repeated matmuls.

    The integer model's weight matrices never change after conversion, so
    each :class:`~repro.quant.integer_model.IntegerLinear` builds one plan
    and reuses it every forward — eliminating the per-call transpose copy
    and ``astype`` of the seed implementation.  The operand is stored in
    the narrowest dtype that holds it exactly (float32 for weight codes);
    a wider copy is built only when a call's bound needs a wider tier.
    """

    def __init__(self, b: np.ndarray):
        """Copy the static operand into its narrowest exact dtype.

        Args:
            b: Integer codes of shape ``(k, n)`` (already transposed for
               left-multiplication by activations).
        """
        b = np.asarray(b)
        self.b_bound = max_abs(b)
        self.contract_dim = b.shape[0]
        # The one resident copy; never freeze (or alias) the caller's array.
        self._narrow = np.array(b, dtype=exact_dtype(self.b_bound), order="C")
        self._narrow.flags.writeable = False
        self._operands: Dict[type, np.ndarray] = {self._narrow.dtype.type: self._narrow}

    def operand(self, dtype: type) -> np.ndarray:
        """The read-only operand in ``dtype``, widened from the narrow copy on first use."""
        operand = self._operands.get(dtype)
        if operand is None:
            operand = self._operands[dtype] = self._narrow.astype(dtype)
            operand.flags.writeable = False
        return operand

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Compute ``a @ b`` exactly.

        Args:
            a: Integer activation codes, shape ``(..., k)`` (any
               integer-valued dtype).

        Returns:
            The product in the tier's dtype (float32, float64 or int64);
            every value equals the native int64 matmul's.
        """
        dtype = exact_dtype(product_bound(max_abs(a), self.b_bound, self.contract_dim))
        return a.astype(dtype, copy=False) @ self.operand(dtype)
