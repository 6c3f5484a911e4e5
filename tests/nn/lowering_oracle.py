"""Reference conv lowering: fancy-index gather and ``np.add.at`` scatter.

This is the lowering ``repro.nn.functional`` used before the strided-slice
one, kept as the oracle the slice loops must equal bit for bit. Same
signatures as ``functional.im2col`` / ``functional.col2im``.
"""

import numpy as np


def _indices(channels, height, width, kernel, stride, pad):
    out_h = (height + 2 * pad - kernel) // stride + 1
    out_w = (width + 2 * pad - kernel) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def im2col(x, kernel, stride, pad):
    n, c, h, w = x.shape
    k, i, j = _indices(c, h, w, kernel, stride, pad)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = padded[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    return cols.transpose(1, 2, 0).reshape(c * kernel * kernel, -1)


def col2im(cols, x_shape, kernel, stride, pad):
    n, c, h, w = x_shape
    k, i, j = _indices(c, h, w, kernel, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    reshaped = cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), reshaped)
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded
