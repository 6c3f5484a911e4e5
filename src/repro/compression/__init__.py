"""Compression schemes compared in the paper's evaluation (§5.1).

All designs implement :class:`~repro.compression.base.Compressor`:

=====================  ====================================================
``32-bit float``       uncompressed baseline
``8-bit int``          TPU-style 255-level linear quantization
``Stoch 3-value + QE`` TernGrad-like unbiased ternary + quartic encoding
``MQE 1-bit int``      1-bit SGD with minimum-squared-error magnitudes
``25%/5% sparsif.``    magnitude top-k with bitmap + error accumulation
``2 local steps``      transmit every 2nd step, accumulate between
``3LC (s=...)``        the paper's full design
=====================  ====================================================

Related-work baselines from §6 (see ``RELATED_WORK_SCHEMES``):

=============================  ============================================
``QSGD (b-bit)``               unbiased multi-level quantization + Elias
``DGC (0.10%)``                deep gradient compression w/ momentum corr.
``Gaia``                       decaying relative-significance filter
``sufficient factors (rank r)`` truncated-SVD factor transmission
``3LC (adaptive)``             feedback-controlled sparsity multiplier
=============================  ============================================
"""

from repro.compression.adaptive import AdaptiveThreeLCCompressor
from repro.compression.base import Compressor, CompressorContext, CompressionResult
from repro.compression.dgc import DGCCompressor, WarmupSchedule
from repro.compression.float16 import Float16Compressor
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
from repro.compression.gaia import GaiaCompressor
from repro.compression.int8 import Int8Compressor
from repro.compression.local_steps import LocalStepsCompressor
from repro.compression.lowrank import SufficientFactorCompressor
from repro.compression.onebit import OneBitCompressor
from repro.compression.qsgd import QSGDCompressor
from repro.compression.registry import (
    RELATED_WORK_SCHEMES,
    TABLE1_SCHEMES,
    available_schemes,
    make_compressor,
)
from repro.compression.roundrobin import RoundRobinCompressor
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
    "AdaptiveThreeLCCompressor",
    "DGCCompressor",
    "Float16Compressor",
    "Float32Compressor",
    "GaiaCompressor",
    "Int8Compressor",
    "OneBitCompressor",
    "QSGDCompressor",
    "RoundRobinCompressor",
    "StochasticTernaryCompressor",
    "SufficientFactorCompressor",
    "TopKCompressor",
    "LocalStepsCompressor",
    "ThreeLCCompressor",
    "WarmupSchedule",
    "make_compressor",
    "available_schemes",
    "TABLE1_SCHEMES",
    "RELATED_WORK_SCHEMES",
]
