"""2-D convolution layer: strided-copy im2col + GEMM, NCHW in and out."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import check_conv_geometry, col2im, conv_output_size, im2col
from repro.nn.initializers import he_normal
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Conv2d"]

#: Column bytes an inference forward lowers at once (at least one output
#: row): its peak is the padded input, the output and one such block, not
#: the ``k·k``-times-the-input column matrix. A block holds over a quarter
#: of it: with >= 4 filters, above OpenBLAS's small-product cutoff (~10⁶
#: multiply-adds), so each block rounds like the whole GEMM. A layer of
#: fewer filters lowers in one block, as training does.
BLOCK_BYTES = 1 << 22


class Conv2d(Module):
    """Square-kernel, bias-free 2-D convolution with "same" zero padding
    (``kernel // 2`` on each side). ResNet and VGG convs are bias-free
    because batch norm immediately follows.

    ``forward`` takes ``(N, C, H, W)`` in any memory order and returns
    ``(N, F, OH, OW)`` as a batch-minor *view* of the GEMM result (memory
    order ``F, OH, OW, N``); ``backward`` returns a C-contiguous
    ``(N, C, H, W)`` gradient. Both orders are part of the numerical
    contract: downstream reductions round by memory order.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel:
        Kernel side length (square kernels only — all ResNet convs are
        3×3 or 1×1).
    stride:
        Spatial stride.
    name:
        Parameter-name prefix, e.g. ``"stage1/block0/conv1"``.
    rng:
        Generator for He-normal weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        *,
        stride: int = 1,
        name: str = "conv",
        rng: np.random.Generator,
    ):
        super().__init__()
        pad = kernel // 2  # "same" padding for odd kernels at stride 1
        check_conv_geometry(kernel, stride, pad)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel * kernel
        self.weight = self.register_parameter(
            Parameter(
                f"{name}/weight",
                he_normal((out_channels, in_channels, kernel, kernel), fan_in, rng),
            )
        )
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h = conv_output_size(h, self.kernel, self.stride, self.pad)
        out_w = conv_output_size(w, self.kernel, self.stride, self.pad)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # No transposed copy: batch stays innermost in memory, which is also
        # the order the next conv's im2col reads fastest. Inference lowers
        # and multiplies a block of output rows at a time; every output
        # column is the same dot product either way.
        out = np.empty(
            (self.out_channels, out_h * out_w * n), np.result_type(w_mat, x)
        )
        budget = None if training or self.out_channels < 4 else BLOCK_BYTES
        for start, cols in im2col(x, self.kernel, self.stride, self.pad, budget):
            np.matmul(w_mat, cols, out=out[:, start : start + cols.shape[1]])
        out = out.reshape(self.out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)
        if training:
            self._cache = (x.shape, cols)
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward(training=True)")
        x_shape, cols = self._cache
        self._cache = None
        # (N, F, OH, OW) -> (F, OH*OW*N), matching im2col's column order
        # (spatial-major, batch-minor).
        grad_mat = grad_output.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.accumulate_grad(
            (grad_mat @ cols.T).reshape(self.weight.data.shape)
        )
        return col2im(
            w_mat.T @ grad_mat, x_shape, self.kernel, self.stride, self.pad
        ).astype(np.float32, copy=False)
