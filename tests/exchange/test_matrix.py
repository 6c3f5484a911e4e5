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
from repro.exchange import (
    SYNC_MODES,
    TOPOLOGIES,
    EngineConfig,
    ExchangeEngine,
    make_sync_mode,
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
        seed=0,
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
        make_sync_mode("semi-sync")


#: (EngineConfig overrides, the exact message, and the ``(flags, named
#: flag)`` of a CLI line that reaches the same rule — None where no flag
#: does: ``hier_upper`` has none, and ``--topology`` and the shape flags are
#: parsed as choices or integers before any configuration is built).
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
    "no-upper-shards": (
        dict(topology="hier", hier_upper="sharded", num_shards=0, num_workers=4),
        "num_shards must be >= 1, got 0",
        None,
    ),
    "one-worker-rack": (
        dict(topology="hier", racks=2, rack_size=1),
        "a rack ring needs >= 2 workers, got rack_size=1",
        (
            ["--topology", "hier", "--racks", "2", "--rack-size", "1"],
            "--rack-size 1",
        ),
    ),
    "unknown-upper": (
        dict(topology="hier", hier_upper="mesh", num_workers=4),
        "unknown upper tier 'mesh'; expected 'single' or 'sharded'",
        None,
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
