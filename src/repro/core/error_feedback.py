"""Error accumulation buffers (paper §3.1, Figure 3).

3LC lets quantization errors happen, then corrects them at later training
steps. A per-tensor local buffer remembers the residual between what the
sender wanted to transmit and what the lossy stage actually transmitted:

1. ``buffer += input``          (accumulate)
2. ``quantized = lossy(buffer)``(transmit this)
3. ``buffer -= dequant(quantized)`` (remember what was lost)

The same mechanism serves 3LC, MQE 1-bit quantization, and top-k
sparsification (each plugs its own lossy stage into step 2), so it lives in
one place. The buffer is the *only* cross-step state a compression context
carries, which is what makes 3LC a point-to-point scheme requiring no
coordination among nodes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ErrorAccumulationBuffer"]


class ErrorAccumulationBuffer:
    """Residual accumulator for one tensor in one transmission direction.

    Parameters
    ----------
    shape:
        Shape of the tensor this buffer corrects.
    dtype:
        Floating-point dtype of the accumulator (default ``float32``, as in
        the paper's TensorFlow prototype).

    Examples
    --------
    >>> buf = ErrorAccumulationBuffer((2, 2))
    >>> update = np.array([[0.4, -0.1], [0.0, 0.2]], dtype=np.float32)
    >>> outgoing = buf.accumulate(update)
    >>> # ... lossy-compress `outgoing`, producing `reconstructed` ...
    >>> # buf.subtract(reconstructed) stores what the receiver did not get.
    """

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype | type = np.float32):
        self._residual = np.zeros(shape, dtype=dtype)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._residual.shape

    @property
    def dtype(self) -> np.dtype:
        return self._residual.dtype

    @property
    def residual(self) -> np.ndarray:
        """Read-only view of the current residual."""
        view = self._residual.view()
        view.flags.writeable = False
        return view

    def accumulate(self, tensor: np.ndarray) -> np.ndarray:
        """Step (1): accumulate the new input; return ``residual + input``.

        The buffer holds the sum until :meth:`subtract` records what was
        transmitted; the returned array is a read-only view of it, for lossy
        stages that only read (one that must write takes a ``.copy()``).
        """
        tensor = np.asarray(tensor)
        if tensor.shape != self._residual.shape:
            raise ValueError(
                f"shape mismatch: buffer {self._residual.shape}, input {tensor.shape}"
            )
        self._residual += tensor
        return self.residual

    def subtract(self, reconstructed: np.ndarray) -> None:
        """Step (b): subtract the receiver-visible reconstruction.

        After this call the buffer holds exactly the quantization error that
        will be folded into the next step's transmission.
        """
        reconstructed = np.asarray(reconstructed)
        if reconstructed.shape != self._residual.shape:
            raise ValueError(
                f"shape mismatch: buffer {self._residual.shape}, "
                f"reconstruction {reconstructed.shape}"
            )
        self._residual -= reconstructed

    def reset(self) -> None:
        """Zero the residual (used when a training run restarts)."""
        self._residual.fill(0)

    def load_residual(self, residual: np.ndarray) -> None:
        """Restore a checkpointed residual (resumable training).

        The residual is training state: a restart that drops it silently
        loses every update the lossy stage had deferred.
        """
        residual = np.asarray(residual, dtype=self._residual.dtype)
        if residual.shape != self._residual.shape:
            raise ValueError(
                f"shape mismatch: buffer {self._residual.shape}, "
                f"checkpoint {residual.shape}"
            )
        self._residual[...] = residual

    def keep_in(self, storage: np.ndarray) -> None:
        """Hold the residual in ``storage`` (a view into a batch's array)."""
        if storage.shape != self.shape or storage.dtype != self.dtype:
            raise ValueError(f"storage {storage.shape} {storage.dtype} != buffer")
        storage[...] = self._residual
        self._residual = storage

    def l2_norm(self) -> float:
        """Euclidean norm of the residual — a diagnostics hook."""
        return float(np.linalg.norm(self._residual))
