"""Training-time data augmentation (paper §5.2).

The paper applies "the standard data augmentation that randomly crops and
horizontally flips original images". This module reproduces it for NCHW
batches, fully vectorized: pad by ``pad`` pixels, take a random crop of the
original size, and flip each image left-right with probability 1/2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_crop_flip", "Augmenter"]


def random_crop_flip(
    images: np.ndarray, rng: np.random.Generator, *, pad: int = 2
) -> np.ndarray:
    """Randomly crop (after zero-padding) and horizontally flip a batch.

    Parameters
    ----------
    images:
        Batch of shape ``(N, C, H, W)``.
    pad:
        Zero-padding on each spatial side before cropping (CIFAR uses 4 on
        32×32; default 2 suits the smaller synthetic images).
    """
    n, c, h, w = images.shape
    # Zeroed buffer + one interior assignment: np.pad's generic machinery
    # was half the call at training batch shapes.
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=images.dtype)
    padded[:, :, pad : pad + h, pad : pad + w] = images
    ys = rng.integers(0, 2 * pad + 1, size=n)
    xs = rng.integers(0, 2 * pad + 1, size=n)
    # Gather crops via advanced indexing: build per-image row/col indices.
    row_idx = ys[:, None] + np.arange(h)[None, :]  # (N, H)
    col_idx = xs[:, None] + np.arange(w)[None, :]  # (N, W)
    batch_idx = np.arange(n)[:, None, None]
    out = padded[batch_idx, :, row_idx[:, :, None], col_idx[:, None, :]]
    # Advanced indexing puts the channel axis last: (N, H, W, C) -> NCHW.
    out = out.transpose(0, 3, 1, 2)
    flip = rng.random(n) < 0.5
    out[flip] = out[flip, :, :, ::-1]
    return np.ascontiguousarray(out, dtype=images.dtype)


class Augmenter:
    """Stateful augmentation pipeline bound to a generator."""

    def __init__(self, rng: np.random.Generator, *, pad: int = 2):
        self.rng = rng
        self.pad = int(pad)

    def __call__(self, images: np.ndarray) -> np.ndarray:
        return random_crop_flip(images, self.rng, pad=self.pad)
