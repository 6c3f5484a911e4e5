"""Compression schemes compared in the paper's evaluation (§5.1).

All designs implement :class:`~repro.compression.base.Compressor`:

=====================  ====================================================
``32-bit float``       uncompressed baseline
``8-bit int``          TPU-style 255-level linear quantization
``Stoch 3-value + QE`` TernGrad-like unbiased ternary + quartic encoding
``MQE 1-bit int``      1-bit SGD with minimum-squared-error magnitudes
``25%/5% sparsif.``    magnitude top-k with bitmap + error accumulation
``2 local steps``      transmit every 2nd step, accumulate between
``3LC (s=...)``        the paper's full design (Table 2 adds ``no ZRE``)
=====================  ====================================================

The §6 related-work designs (QSGD, DGC, Gaia, sufficient factors) are
prose in the paper and are not modelled here.
"""

from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.compression.float32 import Float32Compressor
from repro.compression.fusion import (
    Bucket,
    FusedBucketContext,
    FusionPlan,
    WireFrame,
    WireStream,
    build_fusion_plan,
    split_bucket,
)
from repro.compression.int8 import Int8Compressor
from repro.compression.local_steps import LocalStepsCompressor
from repro.compression.onebit import OneBitCompressor
from repro.compression.registry import (
    TABLE1_SCHEMES,
    available_schemes,
    make_compressor,
)
from repro.compression.stochastic_ternary import StochasticTernaryCompressor
from repro.compression.threelc import ThreeLCCompressor
from repro.compression.topk import TopKCompressor

__all__ = [
    "Compressor",
    "CompressorContext",
    "CompressionResult",
    "Bucket",
    "FusionPlan",
    "FusedBucketContext",
    "WireFrame",
    "WireStream",
    "build_fusion_plan",
    "split_bucket",
    "Float32Compressor",
    "Int8Compressor",
    "OneBitCompressor",
    "StochasticTernaryCompressor",
    "TopKCompressor",
    "LocalStepsCompressor",
    "ThreeLCCompressor",
    "make_compressor",
    "available_schemes",
    "TABLE1_SCHEMES",
]
