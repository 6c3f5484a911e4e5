#!/usr/bin/env python
"""Extending the library with a custom compression scheme.

Shows the downstream-user path: implement the two-class Compressor /
CompressorContext interface, and the whole stack — parameter-server
simulator, traffic meter, time model — works with your codec unchanged.

The demo scheme is *sign-SGD with error feedback*: 1 bit per value, global
mean-magnitude reconstruction (simpler than MQE 1-bit's per-partition
means). It is a realistic baseline that the paper's family of experiments
could have included.

Run:  python examples/custom_scheme.py
"""

import numpy as np

from repro.compression import Compressor, CompressorContext, CompressionResult
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet, scale_lr_for_workers


class _SignContext(CompressorContext):
    def __init__(self, shape):
        super().__init__(shape)
        self.buffer = ErrorAccumulationBuffer(self.shape)

    def compress(self, tensor):
        arr = self._check_shape(tensor)
        corrected = self.buffer.accumulate(arr)
        magnitude = float(np.abs(corrected).mean())
        positive = corrected >= 0
        message = WireMessage(
            # Reuse the 1-bit codec id: payload layout is identical
            # (bitmap + scalars), only the magnitude rule differs.
            codec_id=CodecId.ONEBIT_MQE,
            shape=arr.shape,
            payload=np.packbits(positive.reshape(-1)).tobytes(),
            scalars=(-magnitude, magnitude),
            dtype=np.float32,
        )
        reconstruction = np.where(
            positive, np.float32(magnitude), np.float32(-magnitude)
        ).astype(np.float32)
        self.buffer.subtract(reconstruction)
        return CompressionResult(message, reconstruction)

    def residual_norm(self):
        return self.buffer.l2_norm()


class SignSGDCompressor(Compressor):
    """1-bit sign compression with mean-magnitude reconstruction."""

    name = "signSGD + EF"

    def make_context(self, shape, *, key=()):
        return _SignContext(shape)

    def decompress(self, message):
        count = message.element_count
        bits = np.unpackbits(
            np.frombuffer(message.payload, dtype=np.uint8), count=count
        ).astype(bool)
        neg, pos = message.scalars
        return (
            np.where(bits, np.float32(pos), np.float32(neg))
            .astype(np.float32)
            .reshape(message.shape)
        )


def main() -> None:
    steps, workers = 60, 4
    dataset = SyntheticImageDataset(DatasetSpec(image_size=16, seed=0))
    for scheme in (SignSGDCompressor(),):
        cluster = ExchangeEngine(
            lambda: build_resnet(8, base_width=8, seed=42),
            dataset,
            scheme,
            CosineDecay(scale_lr_for_workers(0.02, workers), steps),
            EngineConfig(num_workers=workers, batch_size=16, shard_size=256),
        )
        cluster.train(steps)
        final = cluster.evaluate(test_size=500)
        meter = cluster.traffic
        print(
            f"{scheme.name}: accuracy {100 * final.test_accuracy:.1f}%, "
            f"traffic reduction {meter.compression_ratio():.1f}x "
            f"({meter.average_bits_per_value():.2f} bits/value)"
        )
    print("custom scheme plugged into the full stack with zero framework changes")


if __name__ == "__main__":
    main()
