"""Combinatorial smoke: every (topology × sync mode × scheme) cell.

The unified engine's promise is that any exchange topology composes with
any synchronization mode behind one driver loop. This sweep trains a tiny
model for a few quanta in every valid cell — one lossy and one lossless
scheme each — and asserts the invalid cells are rejected with a clear
error instead of silently misbehaving.
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange import (
    SYNC_MODES,
    TOPOLOGIES,
    EngineConfig,
    ExchangeEngine,
)
from repro.harness.cli import parse_config
from repro.nn import CosineDecay, build_resnet

SCHEMES = ["32-bit float", "3LC (s=1.00)"]  # one lossless + one lossy

#: The ring is a synchronous collective: every node must contribute a chunk
#: to every hop, so event-driven modes cannot drive it.
INVALID = {("ring", "async"), ("ring", "ssp")}


def make_engine(topology: str, sync_mode: str, scheme: str, **overrides):
    kwargs = dict(
        num_workers=2,
        batch_size=8,
        shard_size=32,
        cluster_seed=0,
        topology=topology,
        sync_mode=sync_mode,
    )
    if topology == "hier":
        # Two racks of two: exercises both tiers (intra rings + cross
        # service) and satisfies the async requirement of >= 2 racks.
        kwargs.update(num_workers=4, racks=2, rack_size=2)
    if sync_mode == "ssp":
        kwargs["staleness"] = 1
    kwargs.update(overrides)
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme, seed=0),
        CosineDecay(0.05, 4),
        EngineConfig(**kwargs),
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("sync_mode", SYNC_MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_matrix_cell(topology, sync_mode, scheme):
    if (topology, sync_mode) in INVALID:
        with pytest.raises(ValueError, match="synchronous collective"):
            make_engine(topology, sync_mode, scheme)
        return

    engine = make_engine(topology, sync_mode, scheme)
    before = engine.service.state_dict()
    engine.train(3)

    # The model trained and telemetry was recorded in every cell.
    losses = [log.train_loss for log in engine.step_logs]
    assert len(losses) == 3 and all(np.isfinite(l) for l in losses)
    after = engine.service.state_dict()
    assert any(not np.array_equal(before[k], after[k]) for k in before)
    assert len(engine.traffic.steps) == 3
    assert all(s.push_bytes > 0 for s in engine.traffic.steps)
    assert all(s.push_messages > 0 for s in engine.traffic.steps)
    result = engine.evaluate(test_size=50)
    assert 0.0 <= result.test_accuracy <= 1.0
    assert np.isfinite(result.test_loss)


def test_sharded_bsp_matches_single_bsp_exactly():
    """Per-tensor contexts never span servers (paper §2's shard-trivial
    point): partitioning the model across shards must not change a single
    transmitted byte or loss value."""
    single = make_engine("single", "bsp", "3LC (s=1.00)")
    sharded = make_engine("sharded", "bsp", "3LC (s=1.00)", num_shards=3)
    single.train(4)
    sharded.train(4)
    assert [l.train_loss for l in single.step_logs] == [
        l.train_loss for l in sharded.step_logs
    ]
    assert [s.wire_bytes for s in single.traffic.steps] == [
        s.wire_bytes for s in sharded.traffic.steps
    ]


def test_ring_has_no_pull_phase():
    engine = make_engine("ring", "bsp", "3LC (s=1.00)")
    engine.train(2)
    assert all(s.pull_bytes_shared == 0 for s in engine.traffic.steps)
    assert all(s.pull_fanout == 0 for s in engine.traffic.steps)
    # Replicas mirror the canonical model exactly (shared delta).
    assert engine.model_divergence() == pytest.approx(0.0, abs=1e-6)


def test_ring_compression_reduces_ring_bytes():
    raw = make_engine("ring", "bsp", "32-bit float")
    compressed = make_engine("ring", "bsp", "3LC (s=1.00)")
    raw.train(2)
    compressed.train(2)
    assert compressed.traffic.total_wire_bytes < raw.traffic.total_wire_bytes


def test_ring_rejects_backup_workers():
    with pytest.raises(ValueError, match="backup"):
        make_engine("ring", "bsp", "32-bit float", num_workers=3, backup_workers=1)


def test_ssp_requires_staleness():
    with pytest.raises(ValueError, match="staleness"):
        make_engine("single", "ssp", "32-bit float", staleness=None)


def test_async_rejects_staleness():
    with pytest.raises(ValueError, match="staleness"):
        make_engine("single", "async", "32-bit float", staleness=2)


def test_unknown_sync_mode_rejected():
    with pytest.raises(ValueError, match="unknown sync mode"):
        EngineConfig(sync_mode="semi-sync")


#: Worker 1 crashes at step 1: a fault every fault rule below can place.
CRASH = FaultSpec(crashes=(WorkerCrash(worker=1, step=1),))

#: (EngineConfig overrides, the exact message, and the ``(flags, named
#: flag)`` of a CLI line that reaches the same rule — None where no flag
#: does: ``--topology`` / ``--sync-mode`` and the shape and count flags are
#: parsed as choices or integers before any configuration is built, and
#: ``--staleness`` outside ``--sync-mode ssp`` is refused as unobservable
#: first; batch and shard sizes have no flag).
TOPOLOGY_RULES = {
    "unknown-name": (
        dict(topology="hypercube"),
        "unknown topology 'hypercube'; expected one of "
        "('single', 'sharded', 'ring', 'hier')",
        None,
    ),
    "no-shards": (
        dict(topology="sharded", num_shards=0),
        "num_shards must be >= 1, got 0",
        (["--topology", "sharded", "--shards", "0"], "--shards 0"),
    ),
    "one-worker-rack": (
        dict(topology="hier", racks=2, rack_size=1),
        "a rack ring needs >= 2 workers, got rack_size=1",
        (
            ["--topology", "hier", "--racks", "2", "--rack-size", "1"],
            "--rack-size 1",
        ),
    ),
    "async-ring": (
        dict(topology="ring", sync_mode="async"),
        "topology 'ring' is a synchronous collective; it cannot run under "
        "sync mode 'async'",
        (["--topology", "ring", "--sync-mode", "async"], "--sync-mode async"),
    ),
    "ssp-ring": (
        dict(topology="ring", sync_mode="ssp", staleness=1),
        "topology 'ring' is a synchronous collective; it cannot run under "
        "sync mode 'ssp(staleness=1)'",
        (
            ["--topology", "ring", "--sync-mode", "ssp", "--staleness", "1"],
            "--sync-mode ssp",
        ),
    ),
    "fused-ring": (
        dict(topology="ring", fuse_small_tensors=True),
        "the ring exchanges raw gradients per hop; fused buckets only apply "
        "to point-to-point push/pull framing",
        (["--fuse", "--topology", "ring"], "--fuse"),
    ),
    "one-worker-ring": (
        dict(topology="ring", num_workers=1),
        "a ring needs >= 2 workers, got 1",
        (["--workers", "1", "--topology", "ring"], "--workers 1"),
    ),
    "fractional-shards": (
        dict(topology="sharded", num_shards=2.5),
        "num_shards must be an integer, got 2.5",
        None,
    ),
    "float-rack-size": (
        dict(topology="hier", racks=2, rack_size=2.0, num_workers=4),
        "rack_size must be an integer, got 2.0",
        None,
    ),
    "bool-racks": (
        dict(topology="hier", racks=True, rack_size=2),
        "racks must be an integer, got True",
        None,
    ),
    "fractional-workers": (
        dict(num_workers=2.5),
        "num_workers must be an integer, got 2.5",
        None,
    ),
    "fractional-batch": (
        dict(batch_size=16.5),
        "batch_size must be an integer, got 16.5",
        None,
    ),
    "fractional-shard-size": (
        dict(shard_size=600.5),
        "shard_size must be an integer, got 600.5",
        None,
    ),
    "fractional-backup": (
        dict(num_workers=4, backup_workers=1.5),
        "backup_workers must be an integer, got 1.5",
        None,
    ),
    "fractional-bucket": (
        dict(fuse_small_tensors=True, bucket_elements=2.5),
        "bucket_elements must be an integer, got 2.5",
        None,
    ),
    "fractional-staleness": (
        dict(sync_mode="ssp", staleness=1.5),
        "staleness must be an integer, got 1.5",
        None,
    ),
    "unknown-sync-mode": (
        dict(sync_mode="semi-sync"),
        "unknown sync mode 'semi-sync'; expected one of ('bsp', 'async', 'ssp')",
        None,
    ),
    "unknown-sync-mode-with-backups": (
        dict(sync_mode="semi-sync", backup_workers=1),
        "backup_workers=1 only apply to BSP, not 'semi-sync'",
        None,
    ),
    "bsp-staleness": (
        dict(staleness=2),
        "staleness=2 only applies to SSP, not 'bsp'",
        None,
    ),
    "async-staleness": (
        dict(sync_mode="async", staleness=2),
        "fully async mode has no staleness bound (got 2); use 'ssp'",
        None,
    ),
    "async-backups": (
        dict(sync_mode="async", backup_workers=1),
        "backup_workers=1 only apply to BSP, not 'async'",
        (["--sync-mode", "async", "--backup-workers", "1"], "--backup-workers 1"),
    ),
    "ssp-backups": (
        dict(sync_mode="ssp", staleness=1, backup_workers=1),
        "backup_workers=1 only apply to BSP, not 'ssp'",
        (
            ["--sync-mode", "ssp", "--staleness", "1", "--backup-workers", "1"],
            "--backup-workers 1",
        ),
    ),
    "unbounded-ssp": (
        dict(sync_mode="ssp"),
        "SSP requires a staleness bound",
        (["--sync-mode", "ssp"], "--sync-mode ssp"),
    ),
    "negative-staleness": (
        dict(sync_mode="ssp", staleness=-1),
        "staleness must be >= 0, got -1",
        (["--sync-mode", "ssp", "--staleness", "-1"], "--staleness -1"),
    ),
    "backups-past-range": (
        dict(num_workers=4, backup_workers=4),
        "backup_workers must be in [0, num_workers=4), got 4",
        (["--workers", "4", "--backup-workers", "4"], "--backup-workers 4"),
    ),
    "negative-backups": (
        dict(backup_workers=-1),
        "backup_workers must be in [0, num_workers=2), got -1",
        (["--backup-workers", "-1"], "--backup-workers -1"),
    ),
    "bool-staleness": (
        dict(sync_mode="ssp", staleness=True),
        "staleness must be an integer, got True",
        None,
    ),
    "string-record-flag": (
        dict(sim_overlap="no"),
        "sim_overlap must be a bool, got 'no'",
        None,
    ),
    "int-fuse-flag": (
        dict(fuse_small_tensors=1),
        "fuse_small_tensors must be a bool, got 1",
        None,
    ),
    "string-lossy-flag": (
        dict(fuse_small_tensors=True, fuse_lossy="yes"),
        "fuse_lossy must be a bool, got 'yes'",
        None,
    ),
    "string-clock": (
        dict(clock="modeled"),
        "clock must be a Clock, got 'modeled'",
        None,
    ),
    "float-straggler": (
        dict(straggler=2.0),
        "straggler must be a StragglerSpec or None, got 2.0",
        None,
    ),
    "string-fault": (
        dict(fault="crash"),
        "fault must be a FaultSpec or None, got 'crash'",
        None,
    ),
    "string-boundaries": (
        dict(fuse_small_tensors=True, bucket_boundaries="fc1.w"),
        "bucket_boundaries must be a tuple of str, got 'fc1.w'",
        None,
    ),
    "non-string-boundary": (
        dict(fuse_small_tensors=True, bucket_boundaries=("fc1.w", 3)),
        "bucket_boundaries must be a tuple of str, got ('fc1.w', 3)",
        None,
    ),
    "no-workers": (
        dict(num_workers=0),
        "num_workers must be >= 1",
        (["--workers", "0"], "--workers 0"),
    ),
    "no-batch": (
        dict(batch_size=0),
        "batch_size must be >= 1",
        None,
    ),
    "shard-below-batch": (
        dict(batch_size=16, shard_size=8),
        "shard_size must be >= batch_size",
        None,
    ),
    "empty-bucket": (
        dict(fuse_small_tensors=True, bucket_elements=0),
        "bucket_elements must be >= 1",
        (["--fuse", "--bucket-elements", "0"], "--bucket-elements 0"),
    ),
    # The CLI refuses ``--fuse-lossy`` without ``--fuse`` as unobservable
    # before a configuration is built.
    "lossy-unfused": (
        dict(fuse_lossy=True),
        "fuse_lossy selects the codec mode of the fused-bucket path; it "
        "requires fuse_small_tensors=True",
        None,
    ),
    "boundaries-unfused": (
        dict(bucket_boundaries=("fc1.w",)),
        "bucket_boundaries shape the fused-bucket packing; they require "
        "fuse_small_tensors=True",
        None,
    ),
    "one-rack": (
        dict(topology="hier", racks=1, rack_size=2),
        "topology 'hier' needs racks >= 2; one rack is --topology ring",
        (
            ["--topology", "hier", "--racks", "1", "--rack-size", "2"],
            "--racks 1",
        ),
    ),
    "indivisible-racks": (
        dict(topology="hier", num_workers=4, racks=2, rack_size=3),
        "num_workers=4 is not divisible into 2 racks of 3 (racks * rack_size "
        "must equal num_workers)",
        (
            ["--workers", "4", "--topology", "hier", "--racks", "2",
             "--rack-size", "3"],
            "--rack-size 3",
        ),
    ),
    "ring-backups": (
        dict(topology="ring", num_workers=3, backup_workers=1),
        "a ring reduction needs every node's chunk; backup workers only "
        "apply to parameter-server topologies",
        (
            ["--workers", "3", "--topology", "ring", "--backup-workers", "1"],
            "--backup-workers 1",
        ),
    ),
    "hier-backups": (
        dict(topology="hier", num_workers=4, racks=2, rack_size=2, backup_workers=1),
        "a ring reduction needs every node's chunk; backup workers only "
        "apply to parameter-server topologies",
        (
            ["--workers", "4", "--topology", "hier", "--racks", "2",
             "--rack-size", "2", "--backup-workers", "1"],
            "--backup-workers 1",
        ),
    ),
    "async-fault": (
        dict(sync_mode="async", fault=CRASH),
        "fault injection is BSP-only (the barrier is where membership changes "
        "are decided); got sync_mode='async'",
        (["--sync-mode", "async", "--crash", "1:1"], "--crash 1:1"),
    ),
    "ssp-fault": (
        dict(sync_mode="ssp", staleness=1, fault=CRASH),
        "fault injection is BSP-only (the barrier is where membership changes "
        "are decided); got sync_mode='ssp'",
        (
            ["--sync-mode", "ssp", "--staleness", "1", "--crash", "1:1"],
            "--sync-mode ssp",
        ),
    ),
    "ring-crash": (
        dict(topology="ring", fault=CRASH),
        "worker crash/restart faults need a parameter-service topology "
        "(single or sharded) — a ring reduction needs every node's chunk and "
        "a rack ring needs every member; got topology='ring'",
        (["--topology", "ring", "--crash", "1:1"], "--crash 1:1"),
    ),
    "hier-crash": (
        dict(topology="hier", num_workers=4, racks=2, rack_size=2, fault=CRASH),
        "worker crash/restart faults need a parameter-service topology "
        "(single or sharded) — a ring reduction needs every node's chunk and "
        "a rack ring needs every member; got topology='hier'",
        (
            ["--workers", "4", "--topology", "hier", "--racks", "2",
             "--rack-size", "2", "--crash", "1:1"],
            "--crash 1:1",
        ),
    ),
    "crash-past-range": (
        dict(fault=FaultSpec(crashes=(WorkerCrash(worker=2, step=1),))),
        "crash worker 2 out of range for 2 workers",
        (["--crash", "2:1"], "--crash 2:1"),
    ),
    "flap-off-hier": (
        dict(fault=FaultSpec(flaps=(UplinkFlap(rack=1, step=1),))),
        "uplink flap faults model a rack losing its cross-rack uplink; they "
        "require topology='hier', got 'single'",
        (["--flap", "1:1"], "--flap 1:1"),
    ),
    "flap-past-range": (
        dict(
            topology="hier", num_workers=4, racks=2, rack_size=2,
            fault=FaultSpec(flaps=(UplinkFlap(rack=2, step=1),)),
        ),
        "flap rack 2 out of range for 2 racks",
        (
            ["--workers", "4", "--topology", "hier", "--racks", "2",
             "--rack-size", "2", "--flap", "2:1"],
            "--flap 2:1",
        ),
    ),
}


@pytest.mark.parametrize("case", TOPOLOGY_RULES)
def test_topology_rule_is_the_configs(case, capsys):
    """Each topology rule fails once, in ``EngineConfig``, with its exact
    message; the CLI exits 2 quoting it and naming the flag."""
    overrides, message, cli = TOPOLOGY_RULES[case]
    with pytest.raises(ValueError) as raised:
        EngineConfig(**{"num_workers": 2, **overrides})
    assert str(raised.value) == message
    if cli is None:
        return
    flags, named = cli
    with pytest.raises(SystemExit) as exit_info:
        parse_config(["table1", "--fast", *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and named in err


def test_ring_workers_skip_push_context_allocation():
    engine = make_engine("ring", "bsp", "3LC (s=1.00)")
    worker = engine.workers[0]
    assert worker.stream is None
    with pytest.raises(RuntimeError, match="push_compression"):
        worker.train_step()


def test_bsp_rejects_staleness():
    with pytest.raises(ValueError, match="staleness"):
        make_engine("single", "bsp", "32-bit float", staleness=2)


def test_ssp_staleness_bound_holds_on_sharded():
    from repro.distributed import StragglerSpec

    engine = make_engine(
        "sharded",
        "ssp",
        "32-bit float",
        num_workers=3,
        straggler=StragglerSpec(
            jitter_sigma=0.0, slowdown_probability=0.5, slowdown_factor=50.0, seed=1
        ),
    )
    engine.train(18)
    assert engine.max_staleness_observed() <= 2  # staleness + 1 in flight
