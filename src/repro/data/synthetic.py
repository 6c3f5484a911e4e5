"""Deterministic synthetic image-classification dataset.

Stand-in for CIFAR-10 (unavailable offline; see DESIGN.md substitutions).
Each of the ``num_classes`` classes is defined by a smooth random template
per channel (a low-resolution random field upsampled bilinearly — natural
images are dominated by low spatial frequencies). A sample is::

    image = contrast * template[class]
          + structured_noise          (a fresh smooth field per sample)
          + pixel_noise               (iid Gaussian)

with per-sample contrast jitter. The difficulty knobs (noise scales) are
chosen so that a small ResNet reaches high-but-not-perfect accuracy within
a few hundred steps: the task must be hard enough that accuracy *curves*
separate compression schemes, which is what Figures 4–8 measure.

Everything is generated from named substreams of one root seed, so any
(split, index) pair is reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.seeding import derive_rng

__all__ = ["SyntheticImageDataset", "DatasetSpec"]


def _upsample_bilinear(field: np.ndarray, size: int) -> np.ndarray:
    """Bilinearly upsample a (C, h, w) field to (C, size, size).

    ``C`` may be any stack of fields: each is upsampled on its own.
    """
    c, h, w = field.shape
    # Sample positions in source coordinates (align_corners=True behaviour).
    ys = np.linspace(0, h - 1, size)
    xs = np.linspace(0, w - 1, size)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    top = field[:, y0][:, :, x0] * (1 - wx) + field[:, y0][:, :, x1] * wx
    bottom = field[:, y1][:, :, x0] * (1 - wx) + field[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bottom * wy


@dataclass(frozen=True)
class DatasetSpec:
    """Shape and difficulty parameters of the synthetic task."""

    num_classes: int = 10
    channels: int = 3
    image_size: int = 16
    template_resolution: int = 4
    contrast_jitter: float = 0.35
    structured_noise: float = 0.55
    pixel_noise: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.image_size < self.template_resolution:
            raise ValueError("image_size must be >= template_resolution")


class SyntheticImageDataset:
    """Class-conditional smooth-field image dataset.

    Parameters
    ----------
    spec:
        Task parameters; defaults give a 10-class, 3×16×16 task.

    Notes
    -----
    Samples are generated lazily in batches via :meth:`sample`. A fixed
    evaluation set is materialized once by :meth:`test_set` (the paper's
    dedicated node computing top-1 test accuracy on held-out data).
    """

    def __init__(self, spec: DatasetSpec | None = None):
        self.spec = spec or DatasetSpec()
        rng = derive_rng(self.spec.seed, "templates")
        raw = rng.normal(
            0.0,
            1.0,
            size=(
                self.spec.num_classes,
                self.spec.channels,
                self.spec.template_resolution,
                self.spec.template_resolution,
            ),
        )
        self.templates = np.stack(
            [_upsample_bilinear(f, self.spec.image_size) for f in raw]
        ).astype(np.float32)

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.spec.channels, self.spec.image_size, self.spec.image_size)

    def sample(
        self, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` labelled images using the supplied generator.

        Returns ``(images, labels)`` with images ``(count, C, H, W)``
        float32 and labels int64.
        """
        spec = self.spec
        labels = rng.integers(0, spec.num_classes, size=count)
        contrast = 1.0 + spec.contrast_jitter * rng.uniform(-1, 1, size=count)
        images = self.templates[labels] * contrast[:, None, None, None]
        if spec.structured_noise:
            low = rng.normal(
                0.0,
                spec.structured_noise,
                size=(
                    count,
                    spec.channels,
                    spec.template_resolution,
                    spec.template_resolution,
                ),
            )
            # One call: the upsampling treats its leading axis elementwise.
            structured = _upsample_bilinear(
                low.reshape(-1, *low.shape[2:]), spec.image_size
            ).reshape(images.shape)
            images = images + structured
        if spec.pixel_noise:
            images = images + rng.normal(0.0, spec.pixel_noise, size=images.shape)
        return images.astype(np.float32), labels.astype(np.int64)

    def train_shard(
        self, shard: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialize a deterministic training shard for one worker."""
        rng = derive_rng(self.spec.seed, "train", shard)
        return self.sample(count, rng)

    def test_set(self, count: int = 2000) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the held-out evaluation set (fixed across runs)."""
        rng = derive_rng(self.spec.seed, "test")
        return self.sample(count, rng)
