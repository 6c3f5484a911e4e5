"""3LC core: the paper's primary contribution.

Three composable transforms (paper §3):

* :mod:`repro.core.quantization` — 3-value quantization with sparsity
  multiplication (lossy),
* :mod:`repro.core.quartic` — quartic encoding, five base-3 digits per byte
  (lossless),
* :mod:`repro.core.zre` — zero-run encoding of zero-group bytes (lossless),

plus the error-feedback machinery (:mod:`repro.core.error_feedback`), the
wire format (:mod:`repro.core.packets`), and the assembled codec
(:mod:`repro.core.codec`).
"""

from repro.core.codec import CompressionContext, CompressionResult, ThreeLCCodec
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage
from repro.core.quantization import QuantizedTensor, quantize_3value
from repro.core.quartic import quartic_decode, quartic_encode
from repro.core.twobit import twobit_decode, twobit_encode
from repro.core.zre import zre_decode, zre_encode

__all__ = [
    "ThreeLCCodec",
    "CompressionContext",
    "CompressionResult",
    "ErrorAccumulationBuffer",
    "CodecId",
    "WireMessage",
    "QuantizedTensor",
    "quantize_3value",
    "quartic_encode",
    "quartic_decode",
    "zre_encode",
    "zre_decode",
    "twobit_encode",
    "twobit_decode",
]
