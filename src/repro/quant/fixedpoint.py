"""Fixed-point arithmetic helpers.

The accelerator performs all post-accumulator arithmetic (requantization by
``s_f``, layer-norm statistics, softmax normalization) in fixed point.  This
module provides a small Q-format toolbox: conversion to/from fixed point,
fixed-point multiply-with-shift requantization (the int32 ``s_f`` of Eq. 5),
and an integer inverse-square-root for the LN core.

Requantization has two evaluations of the same function.  ``apply`` is the
hardware's: a widening multiply and staged round-half-up shifts in int64.
``exact_apply`` and ``requantize`` evaluate it in float64 wherever that is
provably exact, and fall back to ``apply`` elsewhere.  The argument:

- Nested floor divisions compose: ``floor((floor(x / A) + B) / C)`` equals
  ``floor((x + B*A) / (A*C))`` for integers ``x, B`` and ``A, C > 0``.  So
  the staged ``(acc*m + 2^(pre-1)) >> pre``, then ``(+ 2^(post-1)) >> post``
  is the single ``floor((acc*m + c) / 2^s)`` with
  ``c = 2^(s-1) + 2^(pre-1)``.
- Every value ``acc*m``, ``c`` and ``acc*m + c`` is a multiple of ``2^z``,
  the lowest set bit of ``m | c``.  While ``|acc|*m + c < 2^(53+z)`` each of
  them, scaled by the power of two ``2^-s``, is a float64 with no rounding,
  so ``floor(acc*(m/2^s) + c/2^s)`` is computed exactly.  That bound on
  ``|acc|``, capped where ``apply``'s int64 product would overflow, is the
  multiplier's ``exact_limit``.  Within it every result is at most 2^52 in
  magnitude, so the sum of two ``exact_apply`` results is exact too.
- With saturation, accumulators beyond the limit need not be exact: the
  float evaluation is monotone in ``acc``, so once the limit covers the
  window of accumulators whose code is not saturated, every accumulator
  outside it saturates to the same rail as the exact result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .intgemm import EXACT_F64_LIMIT, exact_dtype, max_abs


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format with ``int_bits`` + ``frac_bits`` + sign."""

    int_bits: int
    frac_bits: int

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits + 1

    @property
    def max_value(self) -> float:
        return (2 ** (self.int_bits + self.frac_bits) - 1) / 2 ** self.frac_bits

    @property
    def min_value(self) -> float:
        return -(2 ** (self.int_bits + self.frac_bits)) / 2 ** self.frac_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.frac_bits

    def to_fixed(self, x: np.ndarray) -> np.ndarray:
        """Real -> integer raw codes, saturating at the format limits."""
        codes = np.rint(np.asarray(x, dtype=np.float64) * 2 ** self.frac_bits)
        low = -(2 ** (self.int_bits + self.frac_bits))
        high = 2 ** (self.int_bits + self.frac_bits) - 1
        return np.clip(codes, low, high).astype(np.int64)

    def from_fixed(self, codes: np.ndarray) -> np.ndarray:
        """Integer raw codes -> real values."""
        return np.asarray(codes, dtype=np.float64) / 2 ** self.frac_bits

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Quantize real values to this format's representable grid."""
        return self.from_fixed(self.to_fixed(x))


# The 8-bit fixed-point format used for layer-norm parameters (Sec. II-B).
LN_PARAM_FORMAT = QFormat(int_bits=3, frac_bits=4)


def _rounding_offset(shift: int) -> int:
    """``c`` of ``floor((acc*m + c) / 2^shift)``: the staged shifts' round-half-ups."""
    if shift <= 0:
        return 0
    pre_shift = max(0, shift - 31)
    return (1 << (shift - 1)) + ((1 << (pre_shift - 1)) if pre_shift else 0)


def _float_form(multiplier: int, shift: int) -> Tuple[float, float, int, int]:
    """Float64 constants of one ``(m, shift)`` pair and their certificate.

    Returns:
        ``(scale, offset, exact_limit, gain)``: ``apply(acc)`` equals
        ``floor(acc*scale + offset)`` in float64 for ``|acc| <= exact_limit``,
        and ``gain = ceil(2^shift / |m|)`` bounds the accumulator steps per
        output code, which sizes the saturation window.
    """
    c = _rounding_offset(shift)
    multiplier = int(multiplier)
    if shift < 0:  # apply(acc) = acc * (m << -shift): an integer product
        multiplier, shift = multiplier << -shift, 0
    scale, offset = math.ldexp(multiplier, -shift), math.ldexp(c, -shift)
    m = abs(multiplier)
    if m == 0:  # never certified: apply handles it
        return scale, offset, -1, 0
    low_bit = (m | c) & -(m | c)
    # Within the limit float64 rounds nothing, and apply's int64 product
    # does not overflow, so the two agree.  A shift keeps results within
    # 2^52 (c's lowest bit is below 2^shift); with none the product is the
    # result, so cap it there too: two results then add exactly.
    cap = 2 ** 63 - 1 if shift else 2 ** 52 - 1
    exact_limit = min(low_bit * EXACT_F64_LIMIT - 1, cap) - c
    return scale, offset, exact_limit // m, -(-(1 << shift) // m)


class _ExactRequant:
    """Float64 evaluation of ``apply``, shared by both multiplier kinds.

    Subclasses provide ``apply`` (the int64 hardware form) and
    ``_float_constants`` (``scale``, ``offset``, ``exact_limit``, ``gain``
    — derived data of the frozen fields, so a reassigned multiplier always
    brings its own).
    """

    def _check(self, accumulator: np.ndarray) -> None:
        """Validate an accumulator's shape (per-channel multipliers override)."""

    def _float_floor(self, accumulator: np.ndarray, addend: Optional[np.ndarray]) -> np.ndarray:
        scale, offset, _, _ = self._float_constants
        if addend is not None:
            offset = addend * scale + offset  # exact: the certificate covers |addend|
        values = np.multiply(accumulator, scale, dtype=np.float64)
        values += offset
        return np.floor(values, out=values)

    def exact_apply(self, accumulator: np.ndarray) -> np.ndarray:
        """``apply(accumulator)``, in float64 when certified exact.

        Args:
            accumulator: Integer-valued array (any dtype holding it exactly).

        Returns:
            The exact values of ``apply``: float64 when ``max|accumulator|``
            is within ``exact_limit``, int64 (from ``apply``) otherwise.
        """
        self._check(accumulator)
        if max_abs(accumulator) > self._float_constants[2]:
            return self.apply(np.asarray(accumulator, dtype=np.int64))
        return self._float_floor(accumulator, None)

    def certifies(self, bits: int, addend_bound: int = 0) -> bool:
        """Whether float64 ``requantize`` is exact for every accumulator.

        True when the exact limit covers the window of accumulators whose
        ``bits``-wide code is not saturated (``2^(bits-1) * gain + 1``
        steps either side of zero), widened by ``addend_bound``.

        Args:
            bits: Signed output width.
            addend_bound: Bound on ``|addend|`` folded into the offset.
        """
        _, _, exact_limit, gain = self._float_constants
        return (1 << (bits - 1)) * gain + 1 + addend_bound <= exact_limit

    def requantize(
        self, accumulator: np.ndarray, bits: int, addend: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``saturate(apply(accumulator + addend), bits)``, bit for bit.

        Runs in float64 when :meth:`certifies` holds for ``bits`` and
        ``max|addend|`` — a property of the multiplier, never of the
        accumulator's values — and runs ``apply`` in int64 otherwise.

        The identity holds wherever ``apply`` itself is exact, that is
        while ``|acc|*m + c < 2^63``.  Past that point ``apply``'s int64
        product wraps.  The float64 path then still returns the rail of the
        exact result, while the int64 fallback wraps as ``apply`` does.

        Args:
            accumulator: Integer-valued array (any dtype holding it exactly).
            bits: Signed output width.
            addend: Optional integer array added to ``accumulator`` first
                (the bias), broadcast over leading axes.

        Returns:
            Signed ``bits``-wide codes, as float32 when ``bits <= 24``.
        """
        self._check(accumulator)
        if self.certifies(bits, 0 if addend is None else max_abs(addend)):
            values = self._float_floor(accumulator, addend)
        else:
            acc = np.asarray(accumulator, dtype=np.int64)
            values = self.apply(acc if addend is None else acc + addend)
        # Casting first is safe: rounding to the code dtype is monotone,
        # so values beyond the rails still clip onto them.
        codes = values.astype(exact_dtype(1 << (bits - 1)))
        return np.clip(codes, -(1 << (bits - 1)), (1 << (bits - 1)) - 1, out=codes)


@dataclass(frozen=True)
class FixedPointMultiplier(_ExactRequant):
    """The paper's 32-bit integer ``s_f``: a multiplier ``m * 2^-shift``.

    Eq. 5 requantizes the int32 accumulator with ``y_I = acc * s_f`` where
    ``s_f = s_y / (s_a * s_w)`` is stored as a 32-bit integer.  Hardware
    realizes this as a widening multiply by ``m`` followed by an arithmetic
    right shift — the standard "fixed-point multiplier" of integer inference
    runtimes (cf. gemmlowp / TFLite).
    """

    multiplier: int  # int32 mantissa
    shift: int       # right-shift amount

    @classmethod
    def from_float(cls, value: float, mantissa_bits: int = 31) -> "FixedPointMultiplier":
        """Encode a positive real factor as (mantissa, shift)."""
        if value <= 0:
            raise ValueError(f"requant factor must be positive, got {value}")
        # Normalize into [2^(bits-1), 2^bits) so the mantissa uses full width.
        shift = 0
        mantissa = float(value)
        while mantissa >= 2 ** mantissa_bits:
            mantissa /= 2.0
            shift -= 1
        while mantissa < 2 ** (mantissa_bits - 1):
            mantissa *= 2.0
            shift += 1
        quantized = int(np.rint(mantissa))
        if quantized == 2 ** mantissa_bits:
            quantized //= 2
            shift -= 1
        return cls(multiplier=quantized, shift=shift)

    def to_float(self) -> float:
        return self.multiplier * 2.0 ** -self.shift

    @cached_property
    def _float_constants(self) -> Tuple[float, float, int, int]:
        return _float_form(self.multiplier, self.shift)

    def apply(self, accumulator: np.ndarray) -> np.ndarray:
        """Apply the multiplier with round-to-nearest on the dropped bits.

        ``(acc * m + half) >> shift`` — the add-half-then-arithmetic-shift
        idiom rounds half toward +inf for both signs, exactly what the
        hardware's requantization pipeline does.  The shift is staged so
        intermediate products stay within int64 (acc is int32-range and m
        is below 2^31).
        """
        acc = np.asarray(accumulator, dtype=np.int64)
        if self.shift <= 0:
            return acc * self.multiplier * (2 ** -self.shift)
        pre_shift = max(0, self.shift - 31)
        post_shift = self.shift - pre_shift
        product = acc * self.multiplier
        if pre_shift:
            product = (product + (1 << (pre_shift - 1))) >> pre_shift
        if post_shift:
            product = (product + (1 << (post_shift - 1))) >> post_shift
        return product


@dataclass(frozen=True)
class VectorFixedPointMultiplier(_ExactRequant):
    """Per-channel fixed-point multipliers (one (m, shift) pair per channel).

    The per-channel extension of Eq. 5: when weights carry one scale per
    output row, the requantization factor differs per row.  Hardware
    supports this naturally — the quantization module already processes one
    PE output at a time, so it simply indexes a small multiplier table.
    ``apply`` broadcasts over leading axes; the channel axis is the last.
    """

    multipliers: np.ndarray  # (channels,) int64 mantissas
    shifts: np.ndarray       # (channels,) int64 right-shift amounts

    @classmethod
    def from_floats(cls, values: np.ndarray, mantissa_bits: int = 31) -> "VectorFixedPointMultiplier":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if np.any(values <= 0):
            raise ValueError("requant factors must be positive")
        pairs = [FixedPointMultiplier.from_float(float(v), mantissa_bits) for v in values]
        return cls(
            multipliers=np.array([p.multiplier for p in pairs], dtype=np.int64),
            shifts=np.array([p.shift for p in pairs], dtype=np.int64),
        )

    def to_floats(self) -> np.ndarray:
        return self.multipliers * np.power(2.0, -self.shifts.astype(np.float64))

    @cached_property
    def _float_constants(self) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """Per-channel scales and offsets; one limit and gain for all channels."""
        forms = [_float_form(m, s) for m, s in zip(self.multipliers.tolist(), self.shifts.tolist())]
        return (
            np.array([form[0] for form in forms]),
            np.array([form[1] for form in forms]),
            min((form[2] for form in forms), default=-1),
            max((form[3] for form in forms), default=0),
        )

    def _check(self, accumulator: np.ndarray) -> None:
        last = np.shape(accumulator)[-1]
        if last != self.multipliers.shape[0]:
            raise ValueError(
                f"last axis ({last}) must match channels ({self.multipliers.shape[0]})"
            )

    def apply(self, accumulator: np.ndarray) -> np.ndarray:
        """Per-channel ``(acc * m + half) >> shift`` over the last axis."""
        acc = np.asarray(accumulator, dtype=np.int64)
        self._check(acc)
        # Stage the shift as in the scalar case so products stay in int64.
        pre = np.maximum(0, self.shifts - 31)
        post = self.shifts - pre
        product = acc * self.multipliers
        pre_half = np.where(pre > 0, np.int64(1) << np.maximum(pre - 1, 0), 0)
        product = np.where(pre > 0, (product + pre_half) >> pre, product)
        post_half = np.where(post > 0, np.int64(1) << np.maximum(post - 1, 0), 0)
        return np.where(post > 0, (product + post_half) >> post, product)


_INT64_ROOT_MAX = 3037000499  # isqrt(2^63 - 1)


def integer_isqrt(values: np.ndarray) -> np.ndarray:
    """Integer floor square root of non-negative int64 values.

    Used by the LN core model to compute ``sqrt(variance)`` without floating
    point: the hardware implements the same function in fixed point.
    The float64 guess is within 1 of the floor root for every int64 input:
    the cast and the sqrt each round by a relative 2^-53 at most, so the
    root, below 2^31.5, is off by less than 2^-20 before the floor.  The
    final integer certification corrects that step of 1.
    """
    values = np.asarray(values, dtype=np.int64)
    if np.any(values < 0):
        raise ValueError("integer_isqrt requires non-negative inputs")
    guess = np.floor(np.sqrt(values.astype(np.float64))).astype(np.int64)
    # Certify: adjust down/up so that guess^2 <= v < (guess+1)^2.  No root
    # exceeds isqrt(2^63 - 1), and capping there keeps every square in int64.
    guess = np.minimum(guess, _INT64_ROOT_MAX)
    guess = np.where(guess * guess > values, guess - 1, guess)
    up = np.minimum(guess + 1, _INT64_ROOT_MAX)
    return np.where(up * up <= values, up, guess)


def saturate(values: np.ndarray, bits: int, signed: bool = True) -> np.ndarray:
    """Clamp integer values into the representable ``bits``-wide range."""
    if signed:
        low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    else:
        low, high = 0, 2 ** bits - 1
    return np.clip(np.asarray(values, dtype=np.int64), low, high)


def bit_width_of(value: int) -> int:
    """Minimum two's-complement width that holds ``value``."""
    if value >= 0:
        return int(value).bit_length() + 1
    return int(~value).bit_length() + 1
