"""Data substrate: synthetic CIFAR-like dataset, augmentation, batching."""

from repro.data.augment import Augmenter, random_crop_flip
from repro.data.batcher import ShardBatcher
from repro.data.synthetic import DatasetSpec, SyntheticImageDataset

__all__ = [
    "DatasetSpec",
    "SyntheticImageDataset",
    "Augmenter",
    "random_crop_flip",
    "ShardBatcher",
]
