"""Zero-run encoding (ZRE): run-length coding of zero groups (paper §3.3).

Quartic encoding maps a group of five quantized zeros to the byte ``121``
and never emits bytes above ``242``. ZRE exploits the spare byte values:
a run of ``k`` consecutive ``121`` bytes with ``2 <= k <= 14`` is replaced
by the single escape byte ``243 + (k - 2)``. Longer runs are split into
chunks of 14. A lone ``121`` is left literal.

Combined with 3-value quantization and quartic encoding this yields the
paper's headline hypothetical: an all-zero float32 tensor compresses by
``280×``. Five values share a quartic byte and one escape byte stands for
fourteen of those: seventy values, 2240 bits, in 8
(``tests/core/test_zre.py`` checks the accounting).

The format is byte-level only — no bit operations — matching the paper's
low-overhead goal. The vectorized encoder works on whichever kind of byte
is rare in the stream at hand, never on every equal-byte run (on dense
gradients that is a run per byte); a byte-at-a-time reference
implementation is kept for property tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.quartic import MAX_QUARTIC_BYTE, ZERO_GROUP_BYTE

__all__ = [
    "zre_encode",
    "zre_encode_batch",
    "zre_decode",
    "zre_encode_reference",
    "zre_decode_reference",
    "MIN_RUN",
    "MAX_RUN",
    "FIRST_ESCAPE_BYTE",
    "LAST_ESCAPE_BYTE",
]

#: Shortest run of zero-group bytes replaced by an escape byte.
MIN_RUN = 2
#: Longest run a single escape byte can represent.
MAX_RUN = 14
#: Escape byte for a run of MIN_RUN zero-groups.
FIRST_ESCAPE_BYTE = 243
#: Escape byte for a run of MAX_RUN zero-groups.
LAST_ESCAPE_BYTE = 255

# Last byte a zero run of length L emits, by (L - 1) % MAX_RUN: a literal 121
# for one leftover group, else the escape for what the full chunks leave.
_TAIL_BYTE = np.array(
    [ZERO_GROUP_BYTE, *range(FIRST_ESCAPE_BYTE, LAST_ESCAPE_BYTE + 1)], dtype=np.uint8
)

# Decoding is two lookups by byte value: what the byte expands to and how
# many times (the codecs' decode kernel reads only the second).
_DECODED_BYTE = np.arange(256, dtype=np.uint8)
_DECODED_BYTE[FIRST_ESCAPE_BYTE:] = ZERO_GROUP_BYTE
_RUN_LENGTH = np.ones(256, dtype=np.intp)
_RUN_LENGTH[FIRST_ESCAPE_BYTE:] = np.arange(MIN_RUN, MAX_RUN + 1)


def zre_encode(data: np.ndarray) -> np.ndarray:
    """Zero-run encode a quartic byte stream.

    Parameters
    ----------
    data:
        1-D ``uint8`` array with entries in ``[0, 242]`` (quartic output).

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array mixing literal bytes ``[0, 242]`` and escape
        bytes ``[243, 255]``. Never longer than the input.
    """
    arr = np.asarray(data, dtype=np.uint8).reshape(-1)
    if arr.size == 0:
        return arr.copy()
    return _encode(arr)[0]


def zre_encode_batch(
    packed: np.ndarray, byte_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-run encode many concatenated quartic segments in one pass.

    ``packed`` and ``byte_offsets`` are the first two results of
    :func:`~repro.core.codec.pack_ternary`: segment ``i`` is
    ``packed[byte_offsets[i]:byte_offsets[i+1]]``. A run never crosses a
    segment boundary, exactly as if :func:`zre_encode` had been called per
    segment.

    Returns
    -------
    (encoded, encoded_offsets)
        Segment ``i`` occupies
        ``encoded[encoded_offsets[i]:encoded_offsets[i+1]]`` and is
        bit-identical to ``zre_encode`` of that segment.
    """
    arr = np.asarray(packed, dtype=np.uint8).reshape(-1)
    offsets = np.asarray(byte_offsets, dtype=np.intp).reshape(-1)
    if (
        offsets.size == 0
        or offsets[0] != 0
        or offsets[-1] != arr.size
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise ValueError(
            f"byte offsets must rise from 0 to {arr.size}, got {offsets.tolist()}"
        )
    # A literal fence byte before every segment and after the last one stops
    # each run at its segment's edge; the fences then leave the output.
    ranks = np.arange(offsets.size)
    out, fence_slots = _encode(np.insert(arr, offsets, 0), offsets + ranks)
    return np.delete(out, fence_slots), fence_slots - ranks


def _encode(
    arr: np.ndarray, marks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Encode a non-empty stream; also where its marked bytes land.

    ``marks`` are rising input positions of literal bytes; the second result
    is each one's position in the output.
    """
    n = arr.size
    if int(arr.max()) > MAX_QUARTIC_BYTE:
        raise ValueError("ZRE input must be quartic bytes in [0, 242]")
    literal = arr != ZERO_GROUP_BYTE
    # About a thousand evenly spaced bytes tell which kind is rarer; a wrong
    # guess costs time, never bytes.
    probe = literal[:: max(1, n >> 10)]
    if 2 * np.count_nonzero(probe) < probe.size:
        # Mostly zero groups: one scan for the literals, then work per output
        # byte. Literal k follows zero run k (possibly empty), one more run
        # ends the stream, and the output starts as all full-chunk escapes.
        at = np.flatnonzero(literal)
        bounds = np.concatenate(([-1], at, [n]))
        gaps = bounds[1:] - bounds[:-1] - 1
        slots = np.cumsum((gaps + (MAX_RUN - 1)) // MAX_RUN + 1) - 1
        out = np.full(slots[-1], LAST_ESCAPE_BYTE, dtype=np.uint8)
        out[slots[:-1]] = arr[at]
        real = gaps > 0
        out[slots[real] - 1] = _TAIL_BYTE[(gaps[real] - 1) % MAX_RUN]
        if marks is None:
            return out, None
        return out, slots[np.searchsorted(at, marks)]
    # Mostly literals: find only the zero runs (literal sentinels give each
    # one two edges), write run j's escape bytes over its first emitted[j]
    # positions and drop the rest of the run with one boolean extract.
    fenced = np.concatenate(([True], literal, [True]))
    edges = np.flatnonzero(fenced[1:] != fenced[:-1])
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    emitted = (lengths + (MAX_RUN - 1)) // MAX_RUN
    heads = np.arange(emitted.sum()) + np.repeat(
        starts + emitted - np.cumsum(emitted), emitted
    )
    out = arr.copy()
    out[heads] = LAST_ESCAPE_BYTE
    out[starts + emitted - 1] = _TAIL_BYTE[(lengths - 1) % MAX_RUN]
    literal[heads] = True
    if marks is None:
        return out[literal], None
    # A marked byte moves left by what the runs before it dropped.
    dropped = np.concatenate(([0], np.cumsum(lengths - emitted)))
    return out[literal], marks - dropped[np.searchsorted(starts, marks)]


def zre_decode(data: np.ndarray) -> np.ndarray:
    """Invert :func:`zre_encode`.

    Escape bytes ``243 + j`` expand to ``j + 2`` copies of the zero-group
    byte ``121``; all other bytes pass through. A stream without escape
    bytes is returned as it is (the result may alias ``data``).
    """
    arr = np.asarray(data, dtype=np.uint8).reshape(-1)
    if arr.size == 0 or arr.max() < FIRST_ESCAPE_BYTE:
        return arr
    keys = arr.astype(np.intp)
    return np.repeat(_DECODED_BYTE.take(keys), _RUN_LENGTH.take(keys))


def zre_encode_reference(data: np.ndarray) -> np.ndarray:
    """Byte-at-a-time reference encoder (gold standard for tests)."""
    out: list[int] = []
    run = 0
    for byte in np.asarray(data, dtype=np.uint8).reshape(-1):
        b = int(byte)
        if b > MAX_QUARTIC_BYTE:
            raise ValueError("ZRE input must be quartic bytes in [0, 242]")
        if b == ZERO_GROUP_BYTE:
            run += 1
            if run == MAX_RUN:
                out.append(LAST_ESCAPE_BYTE)
                run = 0
            continue
        _flush_run(out, run)
        run = 0
        out.append(b)
    _flush_run(out, run)
    return np.array(out, dtype=np.uint8)


def _flush_run(out: list[int], run: int) -> None:
    if run == 0:
        return
    if run == 1:
        out.append(ZERO_GROUP_BYTE)
    else:
        out.append(FIRST_ESCAPE_BYTE + run - MIN_RUN)


def zre_decode_reference(data: np.ndarray) -> np.ndarray:
    """Byte-at-a-time reference decoder (gold standard for tests)."""
    out: list[int] = []
    for byte in np.asarray(data, dtype=np.uint8).reshape(-1):
        b = int(byte)
        if b >= FIRST_ESCAPE_BYTE:
            out.extend([ZERO_GROUP_BYTE] * (b - FIRST_ESCAPE_BYTE + MIN_RUN))
        else:
            out.append(b)
    return np.array(out, dtype=np.uint8)
