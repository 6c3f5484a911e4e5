"""repro — reproduction of *3LC: Lightweight and Effective Traffic
Compression for Distributed Machine Learning* (Lim, Andersen, Kaminsky,
MLSys 2019).

Package layout:

* :mod:`repro.core` — the 3LC codec (3-value quantization with sparsity
  multiplication, quartic encoding, zero-run encoding) and error feedback.
* :mod:`repro.compression` — the baseline schemes of the paper's evaluation
  behind a common :class:`~repro.compression.base.Compressor` interface.
* :mod:`repro.nn` — pure-NumPy neural-network substrate (conv, batch norm,
  residual networks, SGD with momentum, LR schedules).
* :mod:`repro.data` — deterministic synthetic CIFAR-like dataset with
  crop/flip augmentation (no real CIFAR-10 loader: the dataset files are
  not in the repository).
* :mod:`repro.distributed` — workers, parameter servers, sharding, ring
  all-reduce, barriers and fault specs: the exchange primitives.
* :mod:`repro.exchange` — the one trainer, ``ExchangeEngine``, over a
  topology (single, sharded, ring, hier) and a sync mode (BSP, async, SSP).
* :mod:`repro.netsim` — discrete-event replay of recorded steps.
* :mod:`repro.network` — link specs, step-time model and traffic meter.
* :mod:`repro.telemetry` — metrics, simulated-clock spans, trace export and
  critical-path analysis.
* :mod:`repro.tuner` — wire-plan search against the simulator.
* :mod:`repro.harness` — experiment runner and table/figure regeneration.

Figure 9's compressed sizes come from the engine's traffic meter; there is
no offline trace format.
"""

from repro.core import CompressionContext, ThreeLCCodec
from repro.version import __version__

__all__ = ["ThreeLCCodec", "CompressionContext", "__version__"]
