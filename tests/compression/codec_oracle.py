"""The baseline codecs as they were before the branch-free rewrite.

Parity oracle for ``test_codec_parity.py``: the ``compress`` / ``decompress``
bodies of MQE 1-bit, top-k, Gaia, DGC and int8 and ``zre_decode``, kept as the
parent commit had them — boolean-mask extracts, ``np.where`` reconstructions,
a copied error-feedback sum — so that the rewritten kernels are held to the
old kernels' bytes, not only to their own round trip. Nothing here is
imported by ``src``; only what the rewrite left alone (framing, the buffer,
the seeded generator, DGC's warmup schedule) is imported from it.
"""

import numpy as np

from repro.compression.base import CompressionResult, CompressorContext
from repro.compression.dgc import WarmupSchedule
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.packets import CodecId, WireMessage
from repro.utils.seeding import derive_rng

FIRST_ESCAPE_BYTE, MIN_RUN, ZERO_GROUP_BYTE = 243, 2, 121


def zre_decode(data):
    arr = np.asarray(data, dtype=np.uint8).reshape(-1)
    if arr.size == 0:
        return arr.copy()
    is_escape = arr >= FIRST_ESCAPE_BYTE
    run_lengths = np.where(
        is_escape, arr.astype(np.int64) - FIRST_ESCAPE_BYTE + MIN_RUN, 1
    )
    out_values = np.where(is_escape, np.uint8(ZERO_GROUP_BYTE), arr)
    return np.repeat(out_values, run_lengths)


def _sampled_threshold(magnitudes, fraction, rng, sample_size=4096):
    flat = magnitudes.reshape(-1)
    if flat.size == 0:
        return 0.0
    if flat.size > sample_size:
        sample = rng.choice(flat, size=sample_size, replace=False)
    else:
        sample = flat
    return float(np.quantile(sample, 1.0 - fraction, method="lower"))


class _BufferedContext(CompressorContext):
    def __init__(self, shape):
        super().__init__(shape)
        self.buffer = ErrorAccumulationBuffer(self.shape)

    def add(self, arr):
        return self.buffer.accumulate(arr).copy()

    def state_dict(self):
        return {"residual": self.buffer.residual.copy()}


def _sparse_result(codec_id, corrected, selected, buffer):
    flat_selected = selected.reshape(-1)
    values = corrected.reshape(-1)[flat_selected].astype("<f4")
    bitmap = np.packbits(flat_selected)
    message = WireMessage(
        codec_id=codec_id,
        shape=corrected.shape,
        payload=bitmap.tobytes() + values.tobytes(),
        dtype=np.float32,
    )
    reconstruction = np.where(selected, corrected, np.float32(0.0)).astype(np.float32)
    buffer.subtract(reconstruction)
    return CompressionResult(message, reconstruction)


def _sparse_decode(message):
    count = message.element_count
    bitmap_bytes = -(-count // 8)
    bitmap = np.frombuffer(message.payload[:bitmap_bytes], dtype=np.uint8)
    selected = np.unpackbits(bitmap, count=count).astype(bool)
    values = np.frombuffer(message.payload[bitmap_bytes:], dtype="<f4")
    if values.size != int(np.count_nonzero(selected)):
        raise ValueError("selected-value count mismatch")
    out = np.zeros(count, dtype=np.float32)
    out[selected] = values
    return out.reshape(message.shape)


class OneBitOracle:
    name = "MQE 1-bit int"

    class Context(_BufferedContext):
        def compress(self, tensor):
            arr = self._check_shape(tensor)
            corrected = self.add(arr)
            nonneg = corrected >= 0
            n_pos = int(np.count_nonzero(nonneg))
            n_neg = corrected.size - n_pos
            mean_pos = float(corrected[nonneg].mean()) if n_pos else 0.0
            mean_neg = float(corrected[~nonneg].mean()) if n_neg else 0.0
            message = WireMessage(
                codec_id=CodecId.ONEBIT_MQE,
                shape=arr.shape,
                payload=np.packbits(nonneg.reshape(-1)).tobytes(),
                scalars=(mean_neg, mean_pos),
                dtype=np.float32,
            )
            reconstruction = np.where(
                nonneg, np.float32(mean_pos), np.float32(mean_neg)
            ).astype(np.float32)
            self.buffer.subtract(reconstruction)
            return CompressionResult(message, reconstruction)

    def make_context(self, shape, *, key=()):
        return self.Context(shape)

    def decompress(self, message):
        count = message.element_count
        bitmap = np.frombuffer(message.payload, dtype=np.uint8)
        nonneg = np.unpackbits(bitmap, count=count).astype(bool)
        mean_neg, mean_pos = message.scalars
        return np.where(
            nonneg, np.float32(mean_pos), np.float32(mean_neg)
        ).astype(np.float32).reshape(message.shape)


class TopKOracle:
    def __init__(self, fraction, seed=0):
        self.fraction, self.seed = float(fraction), int(seed)
        self.name = f"{fraction:.0%} sparsification"

    class Context(_BufferedContext):
        def __init__(self, shape, fraction, rng):
            super().__init__(shape)
            self.fraction, self.rng = fraction, rng

        def compress(self, tensor):
            arr = self._check_shape(tensor)
            corrected = self.add(arr)
            magnitudes = np.abs(corrected)
            threshold = _sampled_threshold(magnitudes, self.fraction, self.rng)
            selected = magnitudes >= threshold
            if threshold == 0.0:
                selected &= corrected != 0
            return _sparse_result(
                CodecId.TOPK_SPARSE, corrected, selected, self.buffer
            )

        def state_dict(self):
            return {**super().state_dict(), "rng": self.rng.bit_generator.state}

    def make_context(self, shape, *, key=()):
        return self.Context(
            shape, self.fraction, derive_rng(self.seed, "topk", self.fraction, *key)
        )

    decompress = staticmethod(_sparse_decode)


class GaiaOracle:
    name = "Gaia"

    def __init__(self, initial_threshold=2.0, final_threshold=0.5, decay_steps=200):
        self.thresholds = (initial_threshold, final_threshold, decay_steps)

    class Context(_BufferedContext):
        def __init__(self, shape, initial, final, decay_steps):
            super().__init__(shape)
            self.initial, self.final, self.decay_steps = initial, final, decay_steps
            self._rms = 0.0
            self._step = 0

        def compress(self, tensor):
            arr = self._check_shape(tensor)
            accumulated = self.add(arr)
            if self.decay_steps == 0 or self._step >= self.decay_steps:
                threshold = self.final
            else:
                frac = self._step / self.decay_steps
                threshold = self.initial + frac * (self.final - self.initial)
            self._step += 1
            scale = self._rms if self._rms > 0.0 else float(
                np.sqrt(np.mean(np.square(accumulated))) or 1.0
            )
            selected = np.abs(accumulated) >= threshold * scale
            result = _sparse_result(
                CodecId.GAIA_SPARSE, accumulated, selected, self.buffer
            )
            applied_rms = float(np.sqrt(np.mean(np.square(result.reconstruction))))
            self._rms = (
                0.9 * self._rms + 0.1 * applied_rms if self._rms else applied_rms
            )
            return result

        def state_dict(self):
            return {**super().state_dict(), "rms": self._rms, "step": self._step}

    def make_context(self, shape, *, key=()):
        return self.Context(shape, *self.thresholds)

    decompress = staticmethod(_sparse_decode)


class DGCOracle:
    def __init__(self, fraction=0.001, momentum=0.9, warmup_steps=40, seed=0):
        self.schedule = WarmupSchedule(max(0.25, fraction), fraction, warmup_steps)
        self.fraction, self.momentum, self.seed = fraction, momentum, seed
        self.name = f"DGC ({fraction:.2%})"

    class Context(CompressorContext):
        def __init__(self, shape, schedule, momentum, rng):
            super().__init__(shape)
            self.schedule, self.momentum, self.rng = schedule, momentum, rng
            self._u = np.zeros(shape, dtype=np.float32)
            self._v = np.zeros(shape, dtype=np.float32)
            self._step = 0

        def compress(self, tensor):
            grad = self._check_shape(tensor)
            self._u = self.momentum * self._u + grad
            self._v += self._u
            fraction = self.schedule.fraction_at(self._step)
            self._step += 1
            magnitudes = np.abs(self._v)
            threshold = _sampled_threshold(magnitudes, fraction, self.rng)
            selected = magnitudes >= threshold
            if threshold == 0.0:
                selected &= self._v != 0
            flat = selected.reshape(-1)
            indices = np.flatnonzero(flat).astype("<u4")
            values = self._v.reshape(-1)[indices].astype("<f4")
            message = WireMessage(
                codec_id=CodecId.DGC_SPARSE,
                shape=grad.shape,
                payload=indices.tobytes() + values.tobytes(),
                dtype=np.float32,
            )
            reconstruction = np.where(selected, self._v, np.float32(0.0)).astype(
                np.float32
            )
            self._v[selected] = 0.0
            self._u[selected] = 0.0
            return CompressionResult(message, reconstruction)

        def state_dict(self):
            return {
                "u": self._u.copy(),
                "v": self._v.copy(),
                "step": self._step,
                "rng": self.rng.bit_generator.state,
            }

    def make_context(self, shape, *, key=()):
        return self.Context(
            shape,
            self.schedule,
            self.momentum,
            derive_rng(self.seed, "dgc", self.fraction, *key),
        )

    def decompress(self, message):
        n = len(message.payload) // 8
        indices = np.frombuffer(message.payload[: 4 * n], dtype="<u4")
        values = np.frombuffer(message.payload[4 * n :], dtype="<f4")
        out = np.zeros(message.element_count, dtype=np.float32)
        out[indices] = values
        return out.reshape(message.shape)


class Int8Oracle:
    name = "8-bit int"

    class Context(CompressorContext):
        def compress(self, tensor):
            arr = self._check_shape(tensor)
            max_mag = float(np.max(np.abs(arr))) if arr.size else 0.0
            if max_mag == 0.0:
                quantized = np.zeros(arr.shape, dtype=np.int8)
                scale = 0.0
            else:
                scale = max_mag / 127
                quantized = np.clip(np.rint(arr / scale), -127, 127).astype(np.int8)
            message = WireMessage(
                codec_id=CodecId.INT8,
                shape=arr.shape,
                payload=quantized.tobytes(),
                scalars=(scale,),
                dtype=np.float32,
            )
            reconstruction = (
                quantized.astype(np.float32) * np.float32(scale)
            ).astype(np.float32)
            return CompressionResult(message, reconstruction)

    def make_context(self, shape, *, key=()):
        return self.Context(shape)

    def decompress(self, message):
        quantized = np.frombuffer(message.payload, dtype=np.int8)
        (scale,) = message.scalars
        return (
            quantized.reshape(message.shape).astype(np.float32) * np.float32(scale)
        ).astype(np.float32)
