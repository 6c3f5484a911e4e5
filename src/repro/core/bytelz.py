"""Byte-oriented LZ compression (the §3.3 "general-purpose" comparator).

The paper positions zero-run encoding against "general-purpose compression
algorithms" (§3.3, citing Snappy [12]): ZRE wins on simplicity and speed by
knowing the one byte value that matters (121 — five quantized zeros),
while an LZ coder must discover repetition generically. This module is
that comparator: a small LZ77 in the Snappy family — greedy hash-table
matching, byte-aligned tokens, no entropy stage — used by
the claims ledger's ``entropy.*`` rows to put numbers on the claim.

Format (byte-aligned, two token kinds)::

    0b0LLLLLLL                 literal run: L+1 raw bytes follow (1..128)
    0b1LLLLLLL  off_lo off_hi  copy: length L+4 (4..131) from `offset`
                               (1..65535) bytes back; may self-overlap,
                               which encodes runs exactly like RLE

The encoder is a Python loop (honestly so — the comparison point *is*
implementation complexity; ZRE is three NumPy calls), with the 4-byte
match hashes precomputed vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lz_encode", "lz_decode", "MIN_MATCH", "MAX_MATCH", "MAX_OFFSET"]

MIN_MATCH = 4
MAX_MATCH = MIN_MATCH + 127
MAX_OFFSET = 0xFFFF
_MAX_LITERAL = 128


def _hashes(data: bytes) -> np.ndarray:
    """FNV-style rolling hash of every 4-byte window, vectorized."""
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    h = arr[:-3] * np.uint32(2654435761)
    h ^= arr[1:-2] * np.uint32(40503)
    h ^= arr[2:-1] * np.uint32(2246822519)
    h ^= arr[3:]
    return h & np.uint32(0xFFFF)


def lz_encode(data: bytes) -> bytes:
    """Compress ``data`` with greedy hash-table LZ77."""
    n = len(data)
    if n == 0:
        return b""
    out = bytearray()
    literal_start = 0

    def flush_literals(upto: int) -> None:
        pos = literal_start
        while pos < upto:
            run = min(_MAX_LITERAL, upto - pos)
            out.append(run - 1)
            out.extend(data[pos : pos + run])
            pos += run

    if n < MIN_MATCH:
        flush_literals(n)
        return bytes(out)

    hashes = _hashes(data)
    table: dict[int, int] = {}
    i = 0
    while i < n - MIN_MATCH + 1:
        h = int(hashes[i])
        candidate = table.get(h)
        table[h] = i
        if (
            candidate is not None
            and i - candidate <= MAX_OFFSET
            and data[candidate : candidate + MIN_MATCH] == data[i : i + MIN_MATCH]
        ):
            length = MIN_MATCH
            limit = min(MAX_MATCH, n - i)
            while length < limit and data[candidate + length] == data[i + length]:
                length += 1
            flush_literals(i)
            offset = i - candidate
            out.append(0x80 | (length - MIN_MATCH))
            out.append(offset & 0xFF)
            out.append(offset >> 8)
            i += length
            literal_start = i
        else:
            i += 1
    flush_literals(n)
    return bytes(out)


def lz_decode(stream: bytes) -> bytes:
    """Decompress an :func:`lz_encode` stream.

    Raises :class:`ValueError` on truncated tokens or out-of-range copies.
    """
    out = bytearray()
    i = 0
    n = len(stream)
    while i < n:
        tag = stream[i]
        i += 1
        if tag < 0x80:
            run = tag + 1
            if i + run > n:
                raise ValueError("truncated literal run")
            out.extend(stream[i : i + run])
            i += run
        else:
            if i + 2 > n:
                raise ValueError("truncated copy token")
            length = (tag & 0x7F) + MIN_MATCH
            offset = stream[i] | (stream[i + 1] << 8)
            i += 2
            if offset == 0 or offset > len(out):
                raise ValueError(f"copy offset {offset} out of range")
            start = len(out) - offset
            if offset >= length:
                out.extend(out[start : start + length])
            else:
                # Self-overlapping copy: RLE-like byte-at-a-time semantics.
                for k in range(length):
                    out.append(out[start + k])
    return bytes(out)
