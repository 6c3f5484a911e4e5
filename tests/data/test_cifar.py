"""Tests for the CIFAR-10 binary loader (using synthesized binary files)."""

import numpy as np
import pytest

from repro.data.cifar import (
    RECORD_BYTES,
    Cifar10Shards,
    load_cifar10,
    load_cifar10_batch,
)


def write_fake_batch(path, n, seed):
    """Write a valid CIFAR-10 binary batch with known content."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = rng.integers(0, 256, size=(n, 3 * 32 * 32)).astype(np.uint8)
    records = np.concatenate([labels[:, None], images], axis=1)
    records.tofile(str(path))
    return images.reshape(n, 3, 32, 32), labels


@pytest.fixture
def cifar_dir(tmp_path):
    root = tmp_path / "cifar-10-batches-bin"
    root.mkdir()
    for i in range(1, 6):
        write_fake_batch(root / f"data_batch_{i}.bin", 40, seed=i)
    write_fake_batch(root / "test_batch.bin", 20, seed=99)
    return root


class TestLoadBatch:
    def test_parses_labels_and_images(self, tmp_path):
        path = tmp_path / "batch.bin"
        images, labels = write_fake_batch(path, 10, seed=0)
        got_x, got_y = load_cifar10_batch(path)
        np.testing.assert_array_equal(got_y, labels)
        np.testing.assert_array_equal(got_x, images)
        assert got_x.shape == (10, 3, 32, 32)

    def test_rejects_wrong_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        np.zeros(RECORD_BYTES + 1, dtype=np.uint8).tofile(str(path))
        with pytest.raises(ValueError, match="multiple"):
            load_cifar10_batch(path)

    def test_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.bin"
        record = np.zeros(RECORD_BYTES, dtype=np.uint8)
        record[0] = 55  # label out of range
        record.tofile(str(path))
        with pytest.raises(ValueError, match="label"):
            load_cifar10_batch(path)


class TestLoadFull:
    def test_shapes_and_standardization(self, cifar_dir):
        train_x, train_y, test_x, test_y = load_cifar10(cifar_dir)
        assert train_x.shape == (200, 3, 32, 32)
        assert test_x.shape == (20, 3, 32, 32)
        assert train_x.dtype == np.float32
        # Per-channel standardization over the training set.
        np.testing.assert_allclose(
            train_x.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-4
        )
        np.testing.assert_allclose(
            train_x.std(axis=(0, 2, 3)), np.ones(3), atol=1e-3
        )

    def test_missing_files_reported(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing"):
            load_cifar10(tmp_path)


class TestShards:
    def test_shards_disjoint_and_deterministic(self, cifar_dir):
        shards = Cifar10Shards(cifar_dir, num_shards=4, seed=0)
        seen = []
        for shard in range(4):
            x, y = shards.train_shard(shard, 50)
            assert x.shape == (50, 3, 32, 32)
            seen.append(x)
        flat = np.concatenate(seen).reshape(200, -1)
        # All 200 examples appear exactly once (disjoint cover).
        assert np.unique(flat, axis=0).shape[0] == 200
        again = Cifar10Shards(cifar_dir, num_shards=4, seed=0).train_shard(1, 50)
        np.testing.assert_array_equal(again[0], seen[1])

    def test_overdraw_rejected(self, cifar_dir):
        shards = Cifar10Shards(cifar_dir, num_shards=4)
        with pytest.raises(ValueError, match="exceeds"):
            shards.train_shard(0, 51)

    def test_interface_matches_synthetic(self, cifar_dir):
        shards = Cifar10Shards(cifar_dir, num_shards=2)
        assert shards.num_classes == 10
        assert shards.image_shape == (3, 32, 32)
        x, y = shards.test_set(15)
        assert x.shape[0] == 15

    def test_cluster_trains_on_cifar_shards(self, cifar_dir):
        """The adapter plugs straight into the engine."""
        from repro.compression import make_compressor
        from repro.exchange import EngineConfig, ExchangeEngine
        from repro.nn import ConstantLR, build_resnet

        cluster = ExchangeEngine(
            lambda: build_resnet(8, base_width=4, seed=3),
            Cifar10Shards(cifar_dir, num_shards=2),
            make_compressor("3LC (s=1.00)"),
            ConstantLR(0.01),
            EngineConfig(num_workers=2, batch_size=8, shard_size=64),
        )
        log = cluster.train_step()
        assert np.isfinite(log.train_loss)
