"""Tests for the synthetic dataset substrate."""

import sys
import threading

import numpy as np
import pytest

from repro.data import DatasetSpec, SyntheticImageDataset
from repro.data.synthetic import MEMO_BUDGET_BYTES, _upsample_bilinear, input_memo
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
        """A memo hit equals a fresh synthesis, byte for byte."""
        input_memo.clear()
        ds = SyntheticImageDataset()
        ds.train_shard(3, 64)
        ds.test_set(48)
        before = input_memo.stats()
        hit = (ds.templates, *ds.train_shard(3, 64), *ds.test_set(48))
        assert input_memo.stats() == {**before, "hits": before["hits"] + 2}
        input_memo.clear()
        ds = SyntheticImageDataset()
        fresh = (ds.templates, *ds.train_shard(3, 64), *ds.test_set(48))
        assert input_memo.stats()["misses"] == 3
        for a, b in zip(hit, fresh):
            assert a is not b
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

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

    def test_num_classes_property(self):
        ds = SyntheticImageDataset(DatasetSpec(image_size=12))
        assert ds.num_classes == 10


class TestInputMemo:
    """The process-wide memo behind templates, shards and test sets."""

    def test_instances_share_read_only_arrays(self):
        a, b = SyntheticImageDataset(), SyntheticImageDataset(DatasetSpec())
        assert a.templates is b.templates
        assert a.train_shard(1, 16)[0] is b.train_shard(1, 16)[0]
        assert a.test_set(16)[1] is b.test_set(16)[1]
        images, labels = a.train_shard(1, 16)
        for array in (images, labels, a.templates, *a.test_set(16)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_numpy_integers_name_the_same_stream(self):
        ds = SyntheticImageDataset()
        assert ds.train_shard(np.int64(2), np.int32(16))[0] is ds.train_shard(2, 16)[0]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda ds: ds.train_shard(-1, 0), "shard must be >= 0, got -1"),
            (lambda ds: ds.train_shard(0, 0), "count must be >= 1, got 0"),
            (lambda ds: ds.train_shard(0, -4), "count must be >= 1, got -4"),
            (lambda ds: ds.train_shard(1.0, 8), "shard must be an integer, got 1.0"),
            (lambda ds: ds.train_shard(0, "8"), "count must be an integer, got '8'"),
            (lambda ds: ds.train_shard(True, 8), "shard must be an integer, got True"),
            (lambda ds: ds.test_set(0), "count must be >= 1, got 0"),
            (lambda ds: ds.test_set(2.5), "count must be an integer, got 2.5"),
            (lambda ds: ds.test_set(None), "count must be an integer, got None"),
        ],
    )
    def test_bad_arguments_name_the_value(self, call, message):
        before = input_memo.stats()
        with pytest.raises(ValueError, match=message):
            call(SyntheticImageDataset())
        assert input_memo.stats()["misses"] == before["misses"]

    def test_budget_is_sized_for_the_default_config(self):
        shard = 512 * 3 * 16 * 16 * 4 + 512 * 8
        test = 1000 * 3 * 16 * 16 * 4 + 1000 * 8
        assert 3 * (10 * shard + test) < MEMO_BUDGET_BYTES
        assert input_memo.budget == MEMO_BUDGET_BYTES

    def test_eviction_keeps_bytes_within_budget(self, monkeypatch):
        input_memo.clear()
        ds = SyntheticImageDataset(DatasetSpec(image_size=8))
        one = sum(a.nbytes for a in ds.train_shard(0, 32))
        first = [a.copy() for a in ds.train_shard(0, 32)]
        input_memo.clear()
        # Room for the templates and two shards, not three.
        monkeypatch.setattr(input_memo, "budget", ds.templates.nbytes + 2 * one + 1)
        ds = SyntheticImageDataset(DatasetSpec(image_size=8))
        for shard in range(4):
            ds.train_shard(shard, 32)
            stats = input_memo.stats()
            assert stats["bytes"] <= input_memo.budget
        assert stats["entries"] == 2 and stats["misses"] == 5
        ds.train_shard(3, 32)  # most recent: still held
        assert input_memo.stats()["hits"] == 1
        again = ds.train_shard(0, 32)  # evicted: synthesized afresh, same bytes
        assert input_memo.stats()["misses"] == 6
        assert input_memo.stats()["bytes"] <= input_memo.budget
        for a, b in zip(again, first):
            assert a.tobytes() == b.tobytes()

    def test_over_budget_request_is_served_not_stored(self, monkeypatch):
        input_memo.clear()
        ds = SyntheticImageDataset(DatasetSpec(image_size=8))
        held = input_memo.stats()
        monkeypatch.setattr(input_memo, "budget", held["bytes"] + 100)
        images, labels = ds.test_set(64)
        assert images.shape == (64, 3, 8, 8) and not images.flags.writeable
        assert input_memo.stats() == {**held, "misses": held["misses"] + 1}
        again, _ = ds.test_set(64)
        assert again is not images and again.tobytes() == images.tobytes()

    def test_racing_threads_build_each_key_once(self):
        input_memo.clear()
        ds = SyntheticImageDataset(DatasetSpec(image_size=8))
        results: list[list[int]] = []

        def ask():
            results.append([id(ds.train_shard(s % 3, 16)[0]) for s in range(30)])

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = input_memo.stats()
        assert stats["misses"] == 4 and stats["hits"] == 8 * 30 - 3
        assert stats["bytes"] == ds.templates.nbytes + 3 * sum(
            a.nbytes for a in ds.train_shard(0, 16)
        )
        assert len(results) == 8 and all(r == results[0] for r in results)
