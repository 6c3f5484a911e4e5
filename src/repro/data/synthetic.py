"""Deterministic synthetic image-classification dataset.

Stand-in for CIFAR-10: the dataset files are not in the repository, so
no run trains on real CIFAR-10 images.
Each of the :data:`NUM_CLASSES` classes is defined by a smooth random
template per channel (a low-resolution random field upsampled bilinearly — natural
images are dominated by low spatial frequencies). A sample is::

    image = contrast * template[class]
          + STRUCTURED_NOISE          (a fresh smooth field per sample)
          + PIXEL_NOISE               (iid Gaussian)

with per-sample contrast jitter. The difficulty constants (noise scales) are
chosen so that a small ResNet reaches high-but-not-perfect accuracy within
a few hundred steps: the task must be hard enough that accuracy *curves*
separate compression schemes, which is what Figures 4–8 measure.

Everything is generated from named substreams of one root seed, so any
(split, index) pair is reproducible in isolation.

Inputs are recorded once
------------------------
The class templates, every ``train_shard(shard, count)`` and every
``test_set(count)`` are pure functions of ``(DatasetSpec, split, shard,
count)``, so the process synthesizes each distinct key once:
:data:`input_memo` holds the arrays and hands the *same objects* to every
dataset instance, runner, engine and timeline profile that asks. Callers
therefore share memory, and the arrays are **read-only**
(``flags.writeable`` is false; an in-place write raises ``ValueError:
assignment destination is read-only``) — copy before mutating.

* **Key.** The frozen :class:`DatasetSpec` object itself plus ``(split,
  shard, count)``: a field added to the spec is part of the key by
  construction (the task's constants are the same for every key). ``shard`` and ``count`` are validated and normalized to
  Python ints first, because the substream is derived from their ``repr``
  (``np.int64(3)`` and ``3`` hash alike but would name different streams).
* **Budget.** LRU-evicted against :data:`MEMO_BUDGET_BYTES`; an entry
  larger than the whole budget is returned without being stored. A
  re-request after eviction is a fresh, byte-identical synthesis.
* **Not memoized.** :meth:`SyntheticImageDataset.sample` with a caller's
  generator — its result depends on the generator's state, which is not a
  key.

The memo is process-wide rather than owned by a runner or a
:class:`~repro.netsim.SweepReplayCache` because sweep cells and tuner
recordings each build private runners, engines and caches; the module is
the only scope they share.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import derive_rng

__all__ = [
    "SyntheticImageDataset",
    "DatasetSpec",
    "NUM_CLASSES",
    "CHANNELS",
    "MEMO_BUDGET_BYTES",
    "input_memo",
]

#: The task's label space and image channels (CIFAR-10: ten RGB classes).
NUM_CLASSES = 10
CHANNELS = 3
#: Side of the low-resolution random field a template or a structured
#: noise sample is upsampled from.
TEMPLATE_RESOLUTION = 4
#: Per-sample contrast jitter and the two noise scales: the difficulty
#: that lets accuracy curves separate compression schemes.
CONTRAST_JITTER = 0.35
STRUCTURED_NOISE = 0.55
PIXEL_NOISE = 0.25

#: Byte budget of :data:`input_memo`. The largest shipped working set is
#: ``DEFAULT_CONFIG`` at 10 workers: ten 512-image 3x16x16 float32 shards
#: (1.5 MiB each) plus the 1000-image test set (2.9 MiB) and templates,
#: about 19 MB. 64 MiB keeps three such configurations resident, so a sweep
#: that alternates a few dataset seeds stays warm. Within one spec the memo
#: holds only what every live engine used to hold a private copy of, so it
#: adds nothing to peak RSS (the benchmark bounds that at 10 %); the budget
#: is what caps a process that walks many specs.
MEMO_BUDGET_BYTES = 64 * 2**20


class _InputMemo:
    """Exact-match, byte-bounded LRU of read-only array tuples."""

    def __init__(self, budget: int):
        self.budget = budget
        self.hits = 0
        self.misses = 0
        self.bytes = 0
        self._entries: OrderedDict[tuple, tuple[np.ndarray, ...]] = OrderedDict()
        # Held across the synthesis: one build per key even if threads race.
        self._lock = threading.Lock()

    def get(self, key: tuple, build) -> tuple[np.ndarray, ...]:
        """The arrays for ``key``, calling ``build()`` only on a miss."""
        with self._lock:
            arrays = self._entries.get(key)
            if arrays is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return arrays
            self.misses += 1
            arrays = build()
            for array in arrays:
                array.flags.writeable = False
            size = sum(array.nbytes for array in arrays)
            if size <= self.budget:
                self._entries[key] = arrays
                self.bytes += size
                while self.bytes > self.budget:
                    _, evicted = self._entries.popitem(last=False)
                    self.bytes -= sum(array.nbytes for array in evicted)
            return arrays

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop every entry and zero the counters (tests)."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.bytes = 0


#: The process-wide memo of templates, training shards and test sets.
input_memo = _InputMemo(MEMO_BUDGET_BYTES)


def _checked_int(name: str, value: object, minimum: int) -> int:
    """``value`` as a Python int, or a ``ValueError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


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
    """Image size and seed of the synthetic task."""

    image_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.image_size < TEMPLATE_RESOLUTION:
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
    ``templates``, :meth:`train_shard` and :meth:`test_set` come from the
    process-wide :data:`input_memo`: shared between instances, read-only.
    """

    def __init__(self, spec: DatasetSpec | None = None):
        self.spec = spec or DatasetSpec()
        (self.templates,) = input_memo.get(
            (self.spec, "templates", None, None), self._build_templates
        )

    def _build_templates(self) -> tuple[np.ndarray]:
        spec = self.spec
        rng = derive_rng(spec.seed, "templates")
        raw = rng.normal(
            0.0,
            1.0,
            size=(NUM_CLASSES, CHANNELS, TEMPLATE_RESOLUTION, TEMPLATE_RESOLUTION),
        )
        templates = np.stack([_upsample_bilinear(f, spec.image_size) for f in raw])
        return (templates.astype(np.float32),)

    def sample(
        self, count: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` labelled images using the supplied generator.

        Returns ``(images, labels)`` with images ``(count, C, H, W)``
        float32 and labels int64.
        """
        spec = self.spec
        labels = rng.integers(0, NUM_CLASSES, size=count)
        contrast = 1.0 + CONTRAST_JITTER * rng.uniform(-1, 1, size=count)
        images = self.templates[labels] * contrast[:, None, None, None]
        low = rng.normal(
            0.0,
            STRUCTURED_NOISE,
            size=(count, CHANNELS, TEMPLATE_RESOLUTION, TEMPLATE_RESOLUTION),
        )
        # One call: the upsampling treats its leading axis elementwise.
        structured = _upsample_bilinear(
            low.reshape(-1, *low.shape[2:]), spec.image_size
        ).reshape(images.shape)
        images = images + structured
        images = images + rng.normal(0.0, PIXEL_NOISE, size=images.shape)
        return images.astype(np.float32), labels.astype(np.int64)

    def train_shard(
        self, shard: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The deterministic training shard of one worker (shared, read-only)."""
        shard = _checked_int("shard", shard, 0)
        count = _checked_int("count", count, 1)
        return input_memo.get(
            (self.spec, "train", shard, count),
            lambda: self.sample(count, derive_rng(self.spec.seed, "train", shard)),
        )

    def test_set(self, count: int = 2000) -> tuple[np.ndarray, np.ndarray]:
        """The held-out evaluation set, fixed across runs (shared, read-only)."""
        count = _checked_int("count", count, 1)
        return input_memo.get(
            (self.spec, "test", None, count),
            lambda: self.sample(count, derive_rng(self.spec.seed, "test")),
        )
