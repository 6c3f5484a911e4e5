"""The sharding law: ``sharded`` with k shards moves exactly ``single``'s bytes.

3LC keeps one compression context per tensor, so partitioning the model
across k server NICs changes only the route each frame is recorded on,
never a number. On the bench MLP with a modeled clock, for every k and
under BSP, async and SSP(1), a sharded run and a single-server run agree on the
losses, the final model, every integer ``StepTraffic`` field and — once
``shard<k>`` reads as ``server`` — the multiset of recorded transmissions.
"""

from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.exchange import Clock, ExchangeEngine
from repro.harness.config import FAST_CONFIG
from repro.network.traffic import StepTraffic

QUANTA = 4
INT_FIELDS = tuple(f.name for f in fields(StepTraffic) if f.type == "int")


def run(**overrides) -> ExchangeEngine:
    config = FAST_CONFIG.scaled(
        model_family="mlp", base_lr=0.005, standard_steps=QUANTA, num_workers=4,
        **overrides,
    )
    engine = ExchangeEngine(
        config.model_factory(),
        config.dataset(),
        make_compressor("3LC (s=1.00)", seed=config.scheme_seed),
        config.schedule(QUANTA),
        replace(
            config.engine_config(),
            record_transmissions=True,
            clock=Clock(compute_seconds=0.01),
        ),
    )
    engine.train(QUANTA)
    return engine


def assert_same_numbers(a: ExchangeEngine, b: ExchangeEngine) -> None:
    """Losses, every integer traffic field per quantum, and the final model."""
    assert [log.train_loss for log in a.step_logs] == [
        log.train_loss for log in b.step_logs
    ]
    assert [[getattr(t, f) for f in INT_FIELDS] for t in a.traffic.steps] == [
        [getattr(t, f) for f in INT_FIELDS] for t in b.traffic.steps
    ]
    state_a, state_b = a.service.state_dict(), b.service.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)


def records(engine: ExchangeEngine) -> list[Counter]:
    """Each quantum's records as a multiset, every shard NIC read as the
    one server's."""
    return [
        Counter(
            (
                r.name, r.params, r.wire_bytes, r.elements,
                "server" if r.route.startswith("shard") else r.route,
                r.worker, r.phase, r.copies, r.frames, r.depends_on,
            )
            for r in quantum.records
        )
        for quantum in engine.transmissions or engine.update_events
    ]


@pytest.mark.parametrize("sync_mode", ["bsp", "async", "ssp"])
def test_sharded_moves_single_servers_bytes(sync_mode):
    staleness = 1 if sync_mode == "ssp" else None
    single = run(topology="single", sync_mode=sync_mode, staleness=staleness)
    want = records(single)
    assert len(want) == QUANTA and all(want)
    for shards in (1, 2, 3, 4):
        sharded = run(
            topology="sharded", num_shards=shards, sync_mode=sync_mode,
            staleness=staleness,
        )
        quanta = sharded.transmissions or sharded.update_events
        routes = {r.route for quantum in quanta for r in quantum.records}
        assert routes == {f"shard{k}" for k in range(shards)}, shards
        assert_same_numbers(sharded, single)
        assert records(sharded) == want, shards
