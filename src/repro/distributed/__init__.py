"""Distributed substrate: the worker / server / barrier primitives the
exchange engine (:mod:`repro.exchange`) composes into a trainer."""

from repro.distributed.allreduce import ReduceResult, RingAllReduce, chunk_bounds
from repro.distributed.barriers import (
    BackupWorkerBarrier,
    BarrierDecision,
    FullBarrier,
    StragglerSpec,
)
from repro.distributed.defaults import FUSION_BUCKET_ELEMENTS, SMALL_TENSOR_THRESHOLD
from repro.distributed.server import ParameterServer, PullBatch
from repro.distributed.sharding import ShardedParameterService, partition_parameters
from repro.distributed.worker import GradientBatch, RawGradientBatch, Worker

__all__ = [
    "ParameterServer",
    "PullBatch",
    "Worker",
    "GradientBatch",
    "RawGradientBatch",
    "StragglerSpec",
    "FullBarrier",
    "BackupWorkerBarrier",
    "BarrierDecision",
    "ShardedParameterService",
    "partition_parameters",
    "RingAllReduce",
    "ReduceResult",
    "chunk_bounds",
    "SMALL_TENSOR_THRESHOLD",
    "FUSION_BUCKET_ELEMENTS",
]
