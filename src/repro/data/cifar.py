"""CIFAR-10 binary-format loader with synthetic fallback.

The paper's workload is CIFAR-10 (Krizhevsky 2009). The evaluation
environment for this reproduction is offline, so experiments default to
the synthetic dataset — but a downstream user with the real data should be
able to drop it in. This module parses the standard ``cifar-10-batches-bin``
format (the one distributed as ``cifar-10-binary.tar.gz``): each record is
1 label byte followed by 3072 pixel bytes (3 channels × 32×32, channel-
planar, row-major).

:func:`load_cifar10` returns float32 NCHW arrays normalized to zero mean
and unit scale per channel, matching the preprocessing the training stack
expects. :class:`Cifar10Shards` adapts the arrays to the same shard
interface as :class:`~repro.data.synthetic.SyntheticImageDataset`, so the
exchange engine can train on real CIFAR-10 without code changes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.utils.seeding import derive_rng

__all__ = ["load_cifar10_batch", "load_cifar10", "Cifar10Shards", "RECORD_BYTES"]

_LABEL_BYTES = 1
_IMAGE_BYTES = 3 * 32 * 32
#: Bytes per record in the CIFAR-10 binary format.
RECORD_BYTES = _LABEL_BYTES + _IMAGE_BYTES

_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
_TEST_FILE = "test_batch.bin"


def load_cifar10_batch(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch file into ``(images, labels)``.

    Images are uint8 NCHW ``(n, 3, 32, 32)``; labels int64 in [0, 10).
    """
    raw = np.fromfile(str(path), dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES:
        raise ValueError(
            f"{path}: size {raw.size} is not a multiple of {RECORD_BYTES}"
        )
    records = raw.reshape(-1, RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise ValueError(f"{path}: label out of range (corrupt file?)")
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10(
    root: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Load the full dataset from a ``cifar-10-batches-bin`` directory.

    Returns ``(train_x, train_y, test_x, test_y)`` with images float32,
    per-channel standardized using training-set statistics.
    """
    root = Path(root)
    missing = [f for f in _TRAIN_FILES + [_TEST_FILE] if not (root / f).exists()]
    if missing:
        raise FileNotFoundError(f"{root}: missing CIFAR-10 files {missing}")
    train_parts = [load_cifar10_batch(root / f) for f in _TRAIN_FILES]
    train_x = np.concatenate([x for x, _ in train_parts])
    train_y = np.concatenate([y for _, y in train_parts])
    test_x, test_y = load_cifar10_batch(root / _TEST_FILE)

    train_f = train_x.astype(np.float32) / 255.0
    test_f = test_x.astype(np.float32) / 255.0
    mean = train_f.mean(axis=(0, 2, 3), keepdims=True)
    std = train_f.std(axis=(0, 2, 3), keepdims=True) + 1e-7
    return (
        ((train_f - mean) / std).astype(np.float32),
        train_y,
        ((test_f - mean) / std).astype(np.float32),
        test_y,
    )


class Cifar10Shards:
    """Adapter exposing CIFAR-10 through the synthetic-dataset interface.

    Workers receive contiguous, disjoint shards of a seed-shuffled
    training set; ``test_set`` returns a prefix of the real test split.
    """

    def __init__(self, root: str | Path, *, num_shards: int, seed: int = 0):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.train_x, self.train_y, self.test_x, self.test_y = load_cifar10(root)
        self.num_shards = int(num_shards)
        order = np.arange(self.train_x.shape[0])
        derive_rng(seed, "cifar-shuffle").shuffle(order)
        self._order = order

    @property
    def num_classes(self) -> int:
        return 10

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (3, 32, 32)

    def train_shard(self, shard: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``shard``-th worker's ``count`` examples (disjoint across
        workers as long as ``num_shards * count`` fits the training set)."""
        if not (0 <= shard < self.num_shards):
            raise ValueError(f"shard {shard} out of range")
        total = self._order.size
        if count * self.num_shards > total:
            raise ValueError(
                f"{self.num_shards} shards x {count} exceeds {total} examples"
            )
        index = self._order[shard * count : (shard + 1) * count]
        return self.train_x[index], self.train_y[index]

    def test_set(self, count: int = 10_000) -> tuple[np.ndarray, np.ndarray]:
        count = min(count, self.test_x.shape[0])
        return self.test_x[:count], self.test_y[:count]
