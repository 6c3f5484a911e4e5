"""Quartic encoding: five base-3 digits per byte (paper §3.2).

A 3-value quantized tensor has entries in ``{-1, 0, 1}``. After adding 1,
each entry is a base-3 digit in ``{0, 1, 2}``. Packing five digits into the
quartic-form expression

.. math::

    a \\cdot 3^4 + b \\cdot 3^3 + c \\cdot 3^2 + d \\cdot 3 + e

uses one byte per five values (``3^5 = 243 <= 256``), i.e. 1.6 bits per
value — within 0.95% of the entropy bound ``log2(3) ≈ 1.585`` and 20%
smaller than the naive 2-bit encoding.

Two useful structural facts exploited downstream by zero-run encoding:

* output bytes lie in ``[0, 242]``, leaving ``243–255`` free as escape
  codes, and
* a group of five zeros encodes to the byte ``121`` (``1·81+1·27+1·9+1·3+1``).

The codecs do not call this module's encoder: their pack kernel,
:func:`repro.core.codec.pack_ternary`, evaluates the same form as a float
product. :func:`quartic_encode` and :func:`quartic_decode` are the stand-alone
stage, each held to its digit-at-a-time reference by the tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "quartic_encode",
    "quartic_decode",
    "quartic_encode_reference",
    "quartic_decode_reference",
    "ZERO_GROUP_BYTE",
    "MAX_QUARTIC_BYTE",
    "GROUP_SIZE",
    "padded_length",
]

GROUP_SIZE = 5
#: Byte value produced by a group of five quantized zeros.
ZERO_GROUP_BYTE = 121
#: Largest byte value quartic encoding can produce (= 3**5 - 1).
MAX_QUARTIC_BYTE = 242

# Powers of 3 for the five digit positions, most-significant first.
_POWERS = np.array([81, 27, 9, 3, 1], dtype=np.uint8)
#: Row ``b`` holds the five ternary values byte ``b`` unpacks to.
_DECODE_TABLE = (np.arange(243)[:, None] // _POWERS % 3 - 1).astype(np.int8)
_RANGE_ERROR = "quartic encoding requires values in {-1, 0, 1}"


def padded_length(n: int) -> int:
    """Number of values after padding ``n`` up to a multiple of 5."""
    return -(-n // GROUP_SIZE) * GROUP_SIZE


def quartic_encode(values: np.ndarray) -> np.ndarray:
    """Pack a ternary tensor into quartic bytes.

    Parameters
    ----------
    values:
        Integer array (any shape) with entries in ``{-1, 0, 1}``.

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array of length ``ceil(values.size / 5)`` with entries
        in ``[0, 242]``. The trailing group is zero-padded, i.e. padded with
        digit value ``1`` after the +1 shift — callers must remember the
        original element count to decode (the 3LC wire header stores the
        shape).

    Raises
    ------
    ValueError
        If the dtype is not an integer one, or any entry lies outside
        ``{-1, 0, 1}``.
    """
    flat = np.asarray(values).reshape(-1)
    if flat.dtype.kind not in "iu":
        raise ValueError(
            f"quartic encoding requires an integer dtype, got {flat.dtype}"
        )
    if flat.dtype != np.int8:
        # Checked exactly before the narrowing cast can fold 255 onto -1.
        if flat.size and (flat.min() < -1 or flat.max() > 1):
            raise ValueError(_RANGE_ERROR)
        flat = flat.astype(np.int8)
    # Padding digits are 1, a quantized zero's, so padded groups stay
    # eligible for zero-run encoding. The +1 in uint8 wraps -1 to 0 and
    # leaves every other int8 above 2 (127 lands on 128, -128 on 129): one
    # max() is the whole range check.
    digits = np.ones(padded_length(flat.size), dtype=np.uint8)
    digits[: flat.size] = flat.view(np.uint8) + 1
    if flat.size and digits.max() > 2:
        raise ValueError(_RANGE_ERROR)
    groups = digits.reshape(-1, GROUP_SIZE)
    packed = groups[:, 0] * _POWERS[0]  # uint8 throughout: the sum is <= 242
    for column in range(1, GROUP_SIZE - 1):
        packed += groups[:, column] * _POWERS[column]
    packed += groups[:, GROUP_SIZE - 1]
    return packed


def quartic_decode(
    encoded: np.ndarray, count: int, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Unpack quartic bytes back to a ternary tensor.

    Parameters
    ----------
    encoded:
        1-D ``uint8`` array produced by :func:`quartic_encode`.
    count:
        Number of original (un-padded) values.
    shape:
        Optional output shape; must have ``prod(shape) == count``.

    Returns
    -------
    numpy.ndarray
        ``int8`` array with entries in ``{-1, 0, 1}``.
    """
    arr = np.asarray(encoded, dtype=np.uint8).reshape(-1)
    if count < 0:
        raise ValueError("count must be non-negative")
    if arr.size != (padded_length(count) // GROUP_SIZE):
        raise ValueError(
            f"encoded length {arr.size} inconsistent with count {count}"
        )
    if arr.size and arr.max() > MAX_QUARTIC_BYTE:
        raise ValueError("byte outside quartic range [0, 242]")
    # Base-3 digit extraction and the -1 shift, precomputed per byte value.
    flat = np.take(_DECODE_TABLE, arr, axis=0).reshape(-1)[:count]
    if shape is not None:
        expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if expected != count:
            raise ValueError(f"shape {shape} incompatible with count {count}")
        return flat.reshape(shape)
    return flat


def quartic_encode_reference(values: np.ndarray) -> np.ndarray:
    """Digit-at-a-time reference encoder (gold standard for tests)."""
    flat = [int(v) + 1 for v in np.asarray(values).reshape(-1)]
    for v in flat:
        if v not in (0, 1, 2):
            raise ValueError(_RANGE_ERROR)
    while len(flat) % GROUP_SIZE:
        flat.append(1)
    out = []
    for i in range(0, len(flat), GROUP_SIZE):
        a, b, c, d, e = flat[i : i + GROUP_SIZE]
        out.append(a * 81 + b * 27 + c * 9 + d * 3 + e)
    return np.array(out, dtype=np.uint8)


def quartic_decode_reference(encoded: np.ndarray, count: int) -> np.ndarray:
    """Digit-at-a-time reference decoder (gold standard for tests)."""
    digits: list[int] = []
    for byte in np.asarray(encoded, dtype=np.uint8).reshape(-1):
        b = int(byte)
        if b > MAX_QUARTIC_BYTE:
            raise ValueError("byte outside quartic range [0, 242]")
        group = []
        for power in (81, 27, 9, 3, 1):
            group.append(b // power % 3)
        digits.extend(group)
    return np.array(digits[:count], dtype=np.int8) - 1
