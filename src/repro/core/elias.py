"""Elias gamma coding for unsigned integers (paper §6, "Quantization").

QSGD and other quantization schemes pair low-resolution values with
entropy coders; the QSGD paper specifically uses Elias integer codes for
quantization levels. 3LC's zero-run encoding is motivated as a *cheaper*
alternative (§3.3: "byte-level operations and no lookup tables"), so this
module provides the comparator: a correct, reasonably vectorized Elias
gamma codec used by the QSGD baseline and by the ZRE-vs-entropy-coding
benchmark.

Elias gamma represents a positive integer ``n`` as ``k`` zero bits followed
by the ``k+1``-bit binary expansion of ``n`` (MSB first), where
``k = floor(log2 n)``. Small integers get short codes, which suits the
heavily-zero-skewed level distributions quantization produces (levels are
shifted by one before coding because gamma cannot represent zero).

Encoding is fully vectorized (bit positions are computed with ``repeat`` /
``cumsum`` and packed with ``numpy.packbits``). Decoding is inherently
sequential — each codeword's length is discovered mid-stream — and runs as
a per-codeword Python loop over precomputed one-bit positions; the
benchmark in ``benchmarks/bench_zre_vs_entropy.py`` quantifies exactly this
asymmetry against ZRE.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "elias_gamma_encode",
    "elias_gamma_decode",
    "elias_delta_encode",
    "elias_delta_decode",
]


def _checked(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"expected an integer array, got dtype {arr.dtype}")
    if arr.size and int(arr.min()) < 1:
        raise ValueError("Elias gamma requires all values >= 1")
    return arr.astype(np.uint64, copy=False)


def elias_gamma_encode(values: np.ndarray) -> bytes:
    """Encode a 1-D array of positive integers into a gamma bitstream.

    The stream is padded with zero bits to a whole number of bytes; the
    decoder takes an explicit count, so padding is unambiguous.
    """
    arr = _checked(values)
    if arr.size == 0:
        return b""
    k = np.floor(np.log2(arr.astype(np.float64))).astype(np.int64)
    lengths = 2 * k + 1
    total_bits = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # For every output bit, identify its codeword and offset within it.
    owner = np.repeat(np.arange(arr.size), lengths)
    offset = np.arange(total_bits) - starts[owner]
    kk = k[owner]
    # Bits 0..k-1 are the zero prefix; bits k..2k are the binary expansion
    # of the value, MSB first.
    in_value = offset >= kk
    shift = np.where(in_value, 2 * kk - offset, 0).astype(np.uint64)
    bits = np.where(
        in_value,
        (arr[owner] >> shift) & np.uint64(1),
        np.uint64(0),
    ).astype(np.uint8)
    return np.packbits(bits).tobytes()


def elias_delta_encode(values: np.ndarray) -> bytes:
    """Encode positive integers with Elias delta coding.

    Delta codes the *bit length* with gamma and appends the value's low
    bits, costing ``log n + 2 log log n`` — asymptotically tighter than
    gamma's ``2 log n`` and the variant the QSGD paper's analysis actually
    assumes for large quantization levels. For the level distributions
    3-value-like quantization produces (overwhelmingly 1 and 2), gamma is
    the better practical choice; the benchmark quantifies the crossover.
    """
    arr = _checked(values)
    if arr.size == 0:
        return b""
    k = np.floor(np.log2(arr.astype(np.float64))).astype(np.int64)
    kg = np.floor(np.log2(k + 1)).astype(np.int64)
    lengths = 2 * kg + 1 + k
    total_bits = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    owner = np.repeat(np.arange(arr.size), lengths)
    offset = np.arange(total_bits) - starts[owner]
    kk, kkg = k[owner], kg[owner]
    # Layout per codeword: kg zeros | (kg+1)-bit binary of k+1 | k low bits
    # of the value (MSB first, implicit leading 1 dropped).
    in_gamma_value = (offset >= kkg) & (offset <= 2 * kkg)
    in_low_bits = offset > 2 * kkg
    gamma_shift = np.where(in_gamma_value, 2 * kkg - offset, 0).astype(np.uint64)
    low_shift = np.where(in_low_bits, 2 * kkg + kk - offset, 0).astype(np.uint64)
    length_plus_one = (kk + 1).astype(np.uint64)
    bits = np.where(
        in_gamma_value,
        (length_plus_one >> gamma_shift) & np.uint64(1),
        np.where(
            in_low_bits,
            (arr[owner] >> low_shift) & np.uint64(1),
            np.uint64(0),
        ),
    ).astype(np.uint8)
    return np.packbits(bits).tobytes()


def elias_delta_decode(stream: bytes, count: int) -> np.ndarray:
    """Decode ``count`` delta codewords from ``stream``; like
    :func:`elias_gamma_decode`, refuses a short stream or a whole byte
    after the last codeword."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        _check_tail("delta", stream, 0, count)
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))
    ones = np.flatnonzero(bits)
    powers = np.uint64(1) << np.arange(64, dtype=np.uint64)[::-1]
    out = np.empty(count, dtype=np.uint64)
    pos = 0
    for i in range(count):
        one_idx = np.searchsorted(ones, pos)
        if one_idx >= ones.size:
            raise ValueError(f"delta stream exhausted after {i} of {count} values")
        first_one = int(ones[one_idx])
        kg = first_one - pos
        gamma_end = first_one + kg + 1
        if gamma_end > bits.size:
            raise ValueError(f"truncated delta length field at value {i}")
        gamma_bits = bits[first_one:gamma_end].astype(np.uint64)
        k = int(gamma_bits @ powers[63 - kg :][: kg + 1]) - 1
        end = gamma_end + k
        if end > bits.size:
            raise ValueError(f"truncated delta low bits at value {i}")
        low = bits[gamma_end:end].astype(np.uint64)
        value = np.uint64(1) << np.uint64(k)
        if k:
            value |= np.uint64(low @ powers[64 - k :])
        out[i] = value
        pos = end
    _check_tail("delta", stream, pos, count)
    return out


def elias_gamma_decode(stream: bytes, count: int) -> np.ndarray:
    """Decode ``count`` gamma codewords from ``stream``.

    Raises :class:`ValueError` when the stream is exhausted before ``count``
    values are read (truncated or corrupted input), or when a whole byte
    follows the last codeword (appended junk): only the zero padding of
    the final byte may remain.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        _check_tail("gamma", stream, 0, count)
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))
    ones = np.flatnonzero(bits)
    powers = np.uint64(1) << np.arange(64, dtype=np.uint64)[::-1]
    out = np.empty(count, dtype=np.uint64)
    pos = 0
    for i in range(count):
        # The first set bit at or after `pos` ends the zero prefix.
        one_idx = np.searchsorted(ones, pos)
        if one_idx >= ones.size:
            raise ValueError(f"gamma stream exhausted after {i} of {count} values")
        first_one = int(ones[one_idx])
        k = first_one - pos
        end = first_one + k + 1
        if end > bits.size:
            raise ValueError(f"truncated gamma codeword at value {i}")
        code_bits = bits[first_one:end].astype(np.uint64)
        out[i] = int(code_bits @ powers[63 - k :][: k + 1])
        pos = end
    _check_tail("gamma", stream, pos, count)
    return out


def _check_tail(code: str, stream: bytes, bits: int, count: int) -> None:
    """Refuse whole bytes after the ``bits`` that ``count`` codewords used."""
    extra = len(stream) - (bits + 7) // 8
    if extra > 0:
        raise ValueError(
            f"{code} stream has {extra} extra byte(s) after its {count} values"
        )
