"""Building blocks for convolution: im2col / col2im by strided copies.

Convolution is one matrix product over patch columns — the standard im2col
lowering. The columns are copied from a channel-major ``(C, H+2p, W+2p, N)``
copy of the zero-padded input through one strided ``(C, k, k, OH, OW, N)``
view of it (every kernel offset ``(ki, kj)`` at once); with the batch axis
innermost the copy moves contiguous runs, and the destination *is* the
``(C·k·k, OH·OW·N)`` GEMM operand, or a block of whole output rows of it.
``col2im`` is the adjoint: ``k·k`` in-place slice adds into a zeroed
channel-major buffer. The only Python loops are over the blocks and the
``k·k`` offsets.

Accumulation order: each input position receives its (up to ``k·k``)
contributions in ascending ``(ki, kj)`` order onto an initial ``+0.0``.
That is the per-element order of an unbuffered scatter-add over the
``(c, ki, kj)``-major patch rows, so results are bit-identical to that
reference (``tests/nn/lowering_oracle.py``), not merely close.

Arguments and results are ``(N, C, H, W)``-shaped; only the internal
buffers are channel-major.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["check_conv_geometry", "conv_output_size", "im2col", "col2im"]


def check_conv_geometry(kernel: int, stride: int, pad: int) -> None:
    """Reject geometry the slice lowering would mis-shape or divide by."""
    if kernel < 1:
        raise ValueError(f"kernel must be >= 1, got {kernel!r}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad!r}")


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output extent of a convolution along one axis."""
    check_conv_geometry(kernel, stride, pad)
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output ({out}) for size={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def _offset_slices(kernel: int, stride: int, out_h: int, out_w: int):
    """``(ki, kj, rows, cols)`` per kernel offset, ascending ``(ki, kj)``."""
    for ki in range(kernel):
        rows = slice(ki, ki + stride * out_h, stride)
        for kj in range(kernel):
            yield ki, kj, rows, slice(kj, kj + stride * out_w, stride)


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int, max_bytes: int | None = None
):
    """Extract sliding patches as columns, in blocks of whole output rows.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    max_bytes:
        Column bytes per block: the fewest blocks of whole output rows that
        fit (a row never splits), of balanced row counts. ``None`` yields
        the whole matrix as one block.

    Yields
    ------
    (int, numpy.ndarray)
        ``(start, cols)``: ``cols`` is columns ``start:start + cols.shape[1]``
        of the C-contiguous ``(C*kernel*kernel, out_h*out_w*N)`` matrix — rows
        in ``(c, ki, kj)`` order, columns spatial-major and batch-minor. All
        blocks share one buffer: a block is valid until the next is taken.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    padded[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    sc, sh, sw, sn = padded.strides
    patches = as_strided(
        padded,
        (c, kernel, kernel, out_h, out_w, n),
        (sc, sh, sw, sh * stride, sw * stride, sn),
        writeable=False,
    )
    depth = c * kernel * kernel
    row_columns = out_w * n
    blocks = 1
    if max_bytes is not None:
        row_bytes = depth * row_columns * x.itemsize
        blocks = -(-out_h // max(1, max_bytes // max(row_bytes, 1)))
    # Balanced row counts: no block holds under a quarter of the budget, so
    # none drops to the BLAS's small-product kernels, which round unlike its
    # blocked GEMM.
    bounds = [out_h * i // blocks for i in range(blocks + 1)]
    buffer = np.empty(patches[:, :, :, : -(-out_h // blocks)].size, dtype=x.dtype)
    for top, bottom in zip(bounds, bounds[1:]):
        block = patches[:, :, :, top:bottom]
        cols = buffer[: block.size].reshape(block.shape)
        cols[...] = block
        yield top * row_columns, cols.reshape(depth, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: add columns back into a C-contiguous
    ``(N, C, H, W)`` image, contributions in ascending ``(ki, kj)`` order."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    patches = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    for ki, kj, rows, columns in _offset_slices(kernel, stride, out_h, out_w):
        padded[:, rows, columns] += patches[:, ki, kj]
    interior = padded[:, pad : pad + h, pad : pad + w]
    return np.ascontiguousarray(interior.transpose(3, 0, 1, 2))
