"""Deterministic random-number seeding.

Every stochastic component in the reproduction (data synthesis, weight
initialization, augmentation, stochastic quantization, threshold sampling)
draws from a generator derived here, so that experiments are exactly
repeatable across runs and machines.

The scheme is hierarchical: a root seed plus a tuple of string/integer keys
(e.g. ``("worker", 3, "augment")``) maps to an independent
``numpy.random.Generator``. Key order matters; distinct key tuples give
statistically independent streams via ``numpy.random.SeedSequence.spawn``
semantics (we hash the key tuple into entropy words).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["derive_rng", "SeedSequenceFactory"]


def _key_entropy(key: Iterable[object]) -> list[int]:
    """Hash a key tuple into a list of 32-bit entropy words."""
    digest = hashlib.sha256(repr(tuple(key)).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def derive_rng(root_seed: int, *key: object) -> np.random.Generator:
    """Return an independent Generator for ``(root_seed, *key)``.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    key:
        Arbitrary hashable components naming the stream, e.g.
        ``derive_rng(0, "worker", 2, "data")``.
    """
    seq = np.random.SeedSequence([root_seed & 0xFFFFFFFF, *_key_entropy(key)])
    return np.random.Generator(np.random.PCG64(seq))


class SeedSequenceFactory:
    """Factory bound to a root seed that hands out named generators.

    Examples
    --------
    >>> factory = SeedSequenceFactory(42)
    >>> rng = factory.rng("init")
    >>> rng2 = factory.rng("worker", 0)
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def rng(self, *key: object) -> np.random.Generator:
        """Return the generator for the given stream key."""
        return derive_rng(self.root_seed, *key)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SeedSequenceFactory(root_seed={self.root_seed})"
