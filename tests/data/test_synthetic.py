"""Tests for the synthetic dataset substrate."""

import numpy as np
import pytest

from repro.data import DatasetSpec, SyntheticImageDataset
from repro.data.synthetic import _upsample_bilinear
from repro.utils.seeding import derive_rng


class TestDatasetSpec:
    def test_defaults_valid(self):
        spec = DatasetSpec()
        assert spec.num_classes == 10
        assert spec.image_size == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(num_classes=1)
        with pytest.raises(ValueError):
            DatasetSpec(image_size=2, template_resolution=4)


class TestSyntheticImageDataset:
    def test_shapes_and_dtypes(self, rng):
        ds = SyntheticImageDataset()
        images, labels = ds.sample(32, rng)
        assert images.shape == (32, 3, 16, 16)
        assert images.dtype == np.float32
        assert labels.shape == (32,)
        assert labels.dtype == np.int64
        assert labels.min() >= 0 and labels.max() < 10

    def test_deterministic_templates(self):
        a = SyntheticImageDataset(DatasetSpec(seed=7))
        b = SyntheticImageDataset(DatasetSpec(seed=7))
        np.testing.assert_array_equal(a.templates, b.templates)

    def test_different_seeds_give_different_tasks(self):
        a = SyntheticImageDataset(DatasetSpec(seed=1))
        b = SyntheticImageDataset(DatasetSpec(seed=2))
        assert not np.array_equal(a.templates, b.templates)

    def test_shards_are_deterministic(self):
        ds = SyntheticImageDataset()
        x1, y1 = ds.train_shard(3, 64)
        x2, y2 = ds.train_shard(3, 64)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    @pytest.mark.parametrize(
        "spec",
        [DatasetSpec(), DatasetSpec(seed=7, channels=1, image_size=21, template_resolution=5)],
    )
    def test_one_upsample_call_equals_one_per_sample(self, spec):
        """The shard's structured noise is upsampled in one call; sample by
        sample — the loop it replaced — must give the same bits."""
        ds = SyntheticImageDataset(spec)
        images, labels = ds.train_shard(2, 37)
        rng = derive_rng(spec.seed, "train", 2)
        assert np.array_equal(labels, rng.integers(0, spec.num_classes, size=37))
        contrast = 1.0 + spec.contrast_jitter * rng.uniform(-1, 1, size=37)
        res = spec.template_resolution
        low = rng.normal(0.0, spec.structured_noise, size=(37, spec.channels, res, res))
        expected = ds.templates[labels] * contrast[:, None, None, None]
        expected = expected + np.stack(
            [_upsample_bilinear(f, spec.image_size) for f in low]
        )
        expected = expected + rng.normal(0.0, spec.pixel_noise, size=expected.shape)
        np.testing.assert_array_equal(images, expected.astype(np.float32))

    def test_shards_are_disjoint_streams(self):
        ds = SyntheticImageDataset()
        x1, _ = ds.train_shard(0, 64)
        x2, _ = ds.train_shard(1, 64)
        assert not np.array_equal(x1, x2)

    def test_test_set_differs_from_train(self):
        ds = SyntheticImageDataset()
        xt, _ = ds.test_set(64)
        x0, _ = ds.train_shard(0, 64)
        assert not np.array_equal(xt, x0)

    def test_class_signal_present(self, rng):
        """Same-class samples must correlate more with their own template
        than with other templates — otherwise the task is unlearnable."""
        ds = SyntheticImageDataset()
        images, labels = ds.sample(500, rng)
        flat_templates = ds.templates.reshape(10, -1)
        flat_images = images.reshape(500, -1)
        scores = flat_images @ flat_templates.T  # (500, 10)
        top1 = scores.argmax(axis=1)
        assert float(np.mean(top1 == labels)) > 0.5

    def test_image_shape_property(self):
        ds = SyntheticImageDataset(DatasetSpec(image_size=12))
        assert ds.image_shape == (3, 12, 12)
        assert ds.num_classes == 10
