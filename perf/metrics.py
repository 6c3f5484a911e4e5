"""Metric, workload and span-target tables.

``BENCHMARK.json`` at the repo root is the one table of workloads,
end-to-end metrics (with bounds) and per-layer metrics; this module loads
it, so the names exist in one place. What the contract's fixed key set has
no room for lives here and only here: the workload-specific metrics
``perf/compare.py`` gates, the span targets, and the workload constants the
metric names are built from.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "WORKLOAD_METRICS",
    "PER_LAYER",
    "ABSENT",
    "SPAN_TARGETS",
    "SPAN_METRICS",
    "CODEC_SLUGS",
    "CODEC_FAMILIES",
    "EXCHANGE_CELLS",
]

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
RUN_SECONDS = CONTRACT["run_seconds"]
#: Workload names, in the order full mode runs them.
WORKLOADS = tuple(w["name"] for w in CONTRACT["workloads"])
#: (name, unit, better, bound) — every workload reports every one.
END_TO_END = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]
)
#: (name, unit, better) — the traced run reports every one on every
#: workload; a metric whose span or probe does not run there reads 0.
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"])

#: What a per-layer metric reads when a span target feeding it no longer
#: resolves. Every real value is a time, count, rate or ratio and so >= 0:
#: -1 cannot be mistaken for "ran in no time" the way 0 could.
ABSENT = -1.0

#: Gated by ``perf/compare.py`` only: the driver's contract wants every
#: end-to-end metric on every workload, and these exist on one.
#: (name, unit, better, bound, workload)
WORKLOAD_METRICS = (
    ("encode_mb_per_s", "MB/s", "higher", 0.25, "codec_stream"),
    ("decode_mb_per_s", "MB/s", "higher", 0.25, "codec_stream"),
    ("wire_ratio", "ratio", "higher", 0.001, "codec_stream"),
    ("fresh_replay_s", "s", "lower", 0.25, "fleet_replay"),
    ("steps_per_s", "1/s", "higher", None, "resnet_sweep"),
    ("quanta_per_s", "1/s", "higher", None, "exchange_matrix"),
    ("raw_mb_per_s", "MB/s", "higher", None, "codec_stream"),
    ("events_per_s", "1/s", "higher", None, "fleet_replay"),
    ("evals_per_s", "1/s", "higher", None, "plan_search"),
    ("spans_per_s", "1/s", "higher", None, "traced_sweep"),
)

CODEC_SLUGS = {
    "f32": "32-bit float",
    "int8": "8-bit int",
    "mqe1": "MQE 1-bit int",
    "stoch3": "Stoch 3-value + QE",
    "sparse5": "5% sparsification",
    "3lc100": "3LC (s=1.00)",
    "3lc175": "3LC (s=1.75)",
}
CODEC_FAMILIES = ("heavy", "dense")

#: cell name -> ExperimentConfig overrides on the 8-worker bench MLP.
EXCHANGE_CELLS = {
    "single_bsp": dict(topology="single"),
    "sharded4_fused_bsp": dict(
        topology="sharded", num_shards=4, fuse_small_tensors=True
    ),
    "ring_bsp": dict(topology="ring"),
    "hier4x2_bsp": dict(topology="hier", racks=4, rack_size=2),
    "single_async": dict(topology="single", sync_mode="async"),
    "hier4x2_ssp2": dict(
        topology="hier", racks=4, rack_size=2, sync_mode="ssp", staleness=2
    ),
}


#: (span name, dotted target). Targets are the *reference sites* the
#: program calls through: a function imported by name into another module
#: is patched in that module's namespace. perf/ itself calls the tables /
#: results_io / telemetry / tuner functions through their defining module.
SPAN_TARGETS = (
    ("data.batch", "repro.data.batcher.ShardBatcher.next_batch"),
    ("data.batch", "repro.data.augment.Augmenter.__call__"),
    ("data.dataset", "repro.harness.config.ExperimentConfig.dataset"),
    ("data.dataset", "repro.data.synthetic.SyntheticImageDataset.train_shard"),
    ("data.dataset", "repro.data.synthetic.SyntheticImageDataset.test_set"),
    ("nn.fwd_bwd", "repro.distributed.worker.Worker._forward_backward"),
    ("nn.eval", "repro.exchange.engine.ExchangeEngine.evaluate"),
    ("nn.profile_backward", "repro.harness.runner.profile_backward"),
    ("nn.profile_backward", "repro.tuner.evaluator.profile_backward"),
    ("nn.model_build", "repro.harness.config.build_resnet"),
    ("nn.model_build", "repro.harness.config.build_mlp"),
    ("compression.push_compress", "repro.distributed.worker.Worker.train_step"),
    ("distributed.server_step", "repro.distributed.server.ParameterServer.step"),
    (
        "distributed.server_step",
        "repro.distributed.sharding.ShardedParameterService.step",
    ),
    (
        "distributed.pull_decompress",
        "repro.distributed.server.ParameterServer.decompress_pull",
    ),
    (
        "distributed.pull_decompress",
        "repro.distributed.server.ParameterServer.decompress_fused_pull",
    ),
    ("distributed.apply_pull", "repro.distributed.worker.Worker.apply_pull"),
    ("distributed.ring_reduce", "repro.distributed.allreduce.RingAllReduce.reduce"),
    ("exchange.engine_init", "repro.exchange.engine.ExchangeEngine.__init__"),
    ("exchange.step", "repro.exchange.engine.ExchangeEngine.train_step"),
    ("netsim.simulate_run", "repro.netsim.scheduler.NetworkSimulator.simulate_run"),
    ("netsim.event_sim", "repro.netsim.scheduler.EventDrivenSimulator.simulate"),
    (
        "netsim.prepare_extraction",
        "repro.netsim.replay.SweepReplayCache.prepare_extraction",
    ),
    ("harness.run", "repro.harness.runner.ExperimentRunner.run"),
    ("harness.runner_init", "repro.harness.runner.ExperimentRunner.__init__"),
    ("harness.table_render", "repro.harness.tables.table1"),
    ("harness.results_save", "repro.harness.results_io.save_results"),
    ("harness.results_load", "repro.harness.results_io.load_results"),
    ("telemetry.export", "repro.telemetry.export.write_chrome_trace"),
    ("telemetry.metrics_export", "repro.telemetry.export.write_metric_snapshots"),
    ("telemetry.validate", "repro.telemetry.analysis.attribution.load_chrome_trace"),
    ("telemetry.validate", "repro.telemetry.validate.validate_chrome_trace"),
    ("telemetry.attribution", "repro.telemetry.analysis.attribution.attribute_trace"),
    (
        "telemetry.attribution",
        "repro.telemetry.analysis.attribution.bottleneck_report",
    ),
    ("tuner.search", "repro.tuner.search.tune"),
    ("tuner.evaluate", "repro.tuner.evaluator.PlanEvaluator.evaluate"),
    ("tuner.artifact_io", "repro.tuner.artifact.plan_to_dict"),
    ("tuner.artifact_io", "repro.tuner.artifact.save_plan"),
    ("tuner.artifact_io", "repro.tuner.artifact.load_plan"),
)

#: per-layer metric -> (span name, field) for the metrics that are plain
#: span aggregates; the rest are computed by the workload that owns them.
SPAN_METRICS = {
    "data.batch_s": ("data.batch", "self_time"),
    "data.dataset_s": ("data.dataset", "self_time"),
    "nn.fwd_bwd_s": ("nn.fwd_bwd", "self_time"),
    "nn.fwd_bwd_calls": ("nn.fwd_bwd", "count"),
    "nn.eval_s": ("nn.eval", "self_time"),
    "nn.profile_backward_s": ("nn.profile_backward", "self_time"),
    "nn.model_build_s": ("nn.model_build", "self_time"),
    "compression.push_compress_s": ("compression.push_compress", "self_time"),
    "distributed.server_step_s": ("distributed.server_step", "self_time"),
    "distributed.pull_decompress_s": ("distributed.pull_decompress", "self_time"),
    "distributed.apply_pull_s": ("distributed.apply_pull", "self_time"),
    "distributed.ring_reduce_s": ("distributed.ring_reduce", "self_time"),
    "exchange.engine_init_s": ("exchange.engine_init", "self_time"),
    "exchange.step_self_s": ("exchange.step", "self_time"),
    "exchange.quanta": ("exchange.step", "count"),
    "netsim.simulate_run_s": ("netsim.simulate_run", "self_time"),
    "netsim.event_sim_s": ("netsim.event_sim", "self_time"),
    "netsim.prepare_extraction_s": ("netsim.prepare_extraction", "self_time"),
    "harness.run_self_s": ("harness.run", "self_time"),
    "harness.runner_init_s": ("harness.runner_init", "self_time"),
    "harness.table_render_s": ("harness.table_render", "self_time"),
    "harness.results_save_s": ("harness.results_save", "self_time"),
    "harness.results_load_s": ("harness.results_load", "self_time"),
    "telemetry.export_s": ("telemetry.export", "self_time"),
    "telemetry.metrics_export_s": ("telemetry.metrics_export", "self_time"),
    "telemetry.validate_s": ("telemetry.validate", "self_time"),
    "telemetry.attribution_s": ("telemetry.attribution", "self_time"),
    "tuner.evaluate_s": ("tuner.evaluate", "total"),
    "tuner.search_self_s": ("tuner.search", "self_time"),
    "tuner.artifact_io_s": ("tuner.artifact_io", "self_time"),
}
