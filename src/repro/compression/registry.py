"""Name-based registry of compression schemes.

Maps the scheme labels of the paper's evaluation (Table 1, plus Table 2's
no-ZRE ablation) to constructed :class:`~repro.compression.base.Compressor`
instances, so the harness, examples, and CLI can select designs by string.
"""

from __future__ import annotations

from typing import Callable

from repro.compression.base import Compressor
from repro.compression.float32 import Float32Compressor
from repro.compression.int8 import Int8Compressor
from repro.compression.local_steps import LocalStepsCompressor
from repro.compression.onebit import OneBitCompressor
from repro.compression.stochastic_ternary import StochasticTernaryCompressor
from repro.compression.threelc import ThreeLCCompressor
from repro.compression.topk import TopKCompressor

__all__ = [
    "make_compressor",
    "available_schemes",
    "TABLE1_SCHEMES",
]

_FACTORIES: dict[str, Callable[[int], Compressor]] = {
    "32-bit float": lambda seed: Float32Compressor(),
    "8-bit int": lambda seed: Int8Compressor(),
    "Stoch 3-value + QE": lambda seed: StochasticTernaryCompressor(seed=seed),
    "MQE 1-bit int": lambda seed: OneBitCompressor(),
    "25% sparsification": lambda seed: TopKCompressor(0.25, seed=seed),
    "5% sparsification": lambda seed: TopKCompressor(0.05, seed=seed),
    "2 local steps": lambda seed: LocalStepsCompressor(2),
    "3LC (s=1.00)": lambda seed: ThreeLCCompressor(1.00),
    "3LC (s=1.00, no ZRE)": lambda seed: ThreeLCCompressor(1.00, use_zre=False),
    "3LC (s=1.50)": lambda seed: ThreeLCCompressor(1.50),
    "3LC (s=1.75)": lambda seed: ThreeLCCompressor(1.75),
    "3LC (s=1.90)": lambda seed: ThreeLCCompressor(1.90),
}

#: The eleven compared designs of Table 1, in paper order. The twelfth
#: registered name, ``3LC (s=1.00, no ZRE)``, is Table 2's ablation.
TABLE1_SCHEMES: tuple[str, ...] = (
    "32-bit float",
    "8-bit int",
    "Stoch 3-value + QE",
    "MQE 1-bit int",
    "25% sparsification",
    "5% sparsification",
    "2 local steps",
    "3LC (s=1.00)",
    "3LC (s=1.50)",
    "3LC (s=1.75)",
    "3LC (s=1.90)",
)


def available_schemes() -> tuple[str, ...]:
    """All registered scheme names."""
    return tuple(_FACTORIES)


def make_compressor(name: str, *, seed: int = 0) -> Compressor:
    """Construct a compressor by its paper label.

    Parameters
    ----------
    name:
        One of :func:`available_schemes`, e.g. ``"3LC (s=1.75)"``.
    seed:
        Root seed for stochastic schemes (stochastic ternary quantization,
        top-k threshold sampling); irrelevant for deterministic schemes.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown scheme {name!r}; known schemes: {known}") from None
    return factory(seed)
