"""Tests for augmentation and batching."""

import numpy as np
import pytest

from repro.data import Augmenter, ShardBatcher, random_crop_flip


class TestRandomCropFlip:
    def test_shape_preserved(self, rng):
        images = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
        out = random_crop_flip(images, rng, pad=2)
        assert out.shape == images.shape
        assert out.dtype == images.dtype

    def test_deterministic_given_rng(self):
        images = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
        a = random_crop_flip(images, np.random.default_rng(42), pad=2)
        b = random_crop_flip(images, np.random.default_rng(42), pad=2)
        np.testing.assert_array_equal(a, b)

    def test_content_comes_from_padded_image(self, rng):
        """Every output pixel is either 0 (padding) or present in the input."""
        images = rng.uniform(1.0, 2.0, size=(4, 1, 6, 6)).astype(np.float32)
        out = random_crop_flip(images, rng, pad=2)
        in_values = set(np.round(images.reshape(-1), 5).tolist()) | {0.0}
        out_values = set(np.round(out.reshape(-1), 5).tolist())
        assert out_values <= in_values

    def test_pixel_mass_preserved_without_pad(self, rng):
        """pad=0 means the crop is the identity; only flips remain."""
        images = rng.normal(size=(16, 2, 5, 5)).astype(np.float32)
        out = random_crop_flip(images, rng, pad=0)
        np.testing.assert_allclose(
            np.sort(out.reshape(16, -1), axis=1),
            np.sort(images.reshape(16, -1), axis=1),
            rtol=1e-6,
        )

    def test_flip_actually_happens(self):
        images = np.zeros((64, 1, 4, 4), dtype=np.float32)
        images[:, :, :, 0] = 1.0  # left column marked
        out = random_crop_flip(images, np.random.default_rng(0), pad=0)
        flipped = (out[:, 0, 0, -1] == 1.0).mean()
        assert 0.2 < flipped < 0.8

    @pytest.mark.parametrize("pad", [0, 1, 2, 4])
    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((8, 3, 12, 12), np.float32),
            ((5, 3, 7, 7), np.float32),
            ((4, 2, 5, 9), np.float32),
            ((3, 1, 6, 11), np.float64),
        ],
    )
    def test_matches_np_pad_formulation(self, pad, shape, dtype):
        """The zeroed-buffer padding gives the bytes ``np.pad`` gave."""

        def reference(images, rng):
            n, _, h, w = images.shape
            padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            ys = rng.integers(0, 2 * pad + 1, size=n)
            xs = rng.integers(0, 2 * pad + 1, size=n)
            rows = ys[:, None] + np.arange(h)[None, :]
            cols = xs[:, None] + np.arange(w)[None, :]
            out = padded[
                np.arange(n)[:, None, None], :, rows[:, :, None], cols[:, None, :]
            ].transpose(0, 3, 1, 2)
            flip = rng.random(n) < 0.5
            out[flip] = out[flip, :, :, ::-1]
            return np.ascontiguousarray(out, dtype=images.dtype)

        images = np.random.default_rng(3).normal(size=shape).astype(dtype)
        out = random_crop_flip(images, np.random.default_rng(11), pad=pad)
        expected = reference(images, np.random.default_rng(11))
        assert out.dtype == dtype
        assert out.shape == shape
        assert out.tobytes() == expected.tobytes()

    def test_augmenter_disabled_passthrough(self, rng):
        images = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        aug = Augmenter(rng, enabled=False)
        assert aug(images) is images


class TestShardBatcher:
    def _data(self, n=20):
        return (
            np.arange(n, dtype=np.float32).reshape(n, 1),
            np.arange(n, dtype=np.int64),
        )

    def test_batch_shapes(self, rng):
        x, y = self._data()
        batcher = ShardBatcher(x, y, 4, rng)
        bx, by = batcher.next_batch()
        assert bx.shape == (4, 1)
        assert by.shape == (4,)

    def test_epoch_covers_all_examples(self, rng):
        x, y = self._data(20)
        batcher = ShardBatcher(x, y, 4, rng)
        seen = []
        for _ in range(5):
            _, by = batcher.next_batch()
            seen.extend(by.tolist())
        assert sorted(seen) == list(range(20))

    def test_labels_track_images(self, rng):
        x, y = self._data(20)
        batcher = ShardBatcher(x, y, 5, rng)
        for _ in range(8):
            bx, by = batcher.next_batch()
            np.testing.assert_array_equal(bx[:, 0].astype(np.int64), by)

    def test_reshuffles_between_epochs(self):
        x, y = self._data(16)
        batcher = ShardBatcher(x, y, 16, np.random.default_rng(3))
        _, first = batcher.next_batch()
        _, second = batcher.next_batch()
        assert not np.array_equal(first, second)

    def test_validation(self, rng):
        x, y = self._data(10)
        with pytest.raises(ValueError):
            ShardBatcher(x, y[:5], 2, rng)
        with pytest.raises(ValueError):
            ShardBatcher(x, y, 11, rng)
        with pytest.raises(ValueError):
            ShardBatcher(x, y, 0, rng)

    def test_shard_size(self, rng):
        x, y = self._data(10)
        assert ShardBatcher(x, y, 2, rng).shard_size == 10
