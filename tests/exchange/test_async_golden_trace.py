"""Golden-trace test for async event-stream recording.

Mirrors the PR 1 pattern in ``test_engine_parity.py``: the event stream of
a fixed-seed 2-worker asynchronous run — scheduling order, logical
timestamps, virtual clocks, observed staleness, and every push/pull
message's wire bytes — was snapshotted into ``golden_async_trace.json``
and must reproduce exactly. The run is on a modeled clock (which removes
wall-clock noise from the virtual clocks) and has a seeded
straggler, so the schedule exercises a genuinely uneven interleaving:
worker 0 straggles at its first step and worker 1 runs three updates
ahead before it commits (staleness 3 is in the snapshot).

Regenerate (after an *intentional* recording change) by running this file
as a script: ``PYTHONPATH=src python tests/exchange/test_async_golden_trace.py``.
"""

import json
from pathlib import Path

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.barriers import StragglerSpec
from repro.exchange import Clock, EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet

GOLDEN_PATH = Path(__file__).parent / "golden_async_trace.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

UPDATES = 10


def make_recorded_engine() -> ExchangeEngine:
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(GOLDEN["scheme"], seed=0),
        CosineDecay(0.05, UPDATES),
        EngineConfig(
            num_workers=GOLDEN["num_workers"],
            batch_size=8,
            shard_size=32,
            seed=0,
            sync_mode="async",
            record_transmissions=True,
            clock=Clock(compute_seconds=1.0),
            straggler=StragglerSpec(
                jitter_sigma=0.0,
                slowdown_probability=0.35,
                slowdown_factor=3.0,
                seed=5,
            ),
        ),
    )


def event_stream_as_dicts(engine: ExchangeEngine) -> list[dict]:
    return [
        {
            "update": e.update,
            "worker": e.worker,
            "local_step": e.local_step,
            "global_step": e.global_step,
            "staleness": e.staleness,
            "clock_seconds": e.clock_seconds,
            "pushes": [
                [r.name, r.wire_bytes, r.elements, r.route] for r in e.push_records
            ],
            "pulls": [
                [r.name, r.wire_bytes, r.elements, r.route] for r in e.pull_records
            ],
        }
        for e in engine.update_events
    ]


class TestAsyncGoldenTrace:
    def test_event_stream_matches_snapshot(self):
        engine = make_recorded_engine()
        engine.train(UPDATES)
        assert event_stream_as_dicts(engine) == GOLDEN["updates"]

    def test_snapshot_exercises_an_uneven_schedule(self):
        # Guard against regenerating the trace into a trivial round-robin:
        # the straggler must produce real asynchrony worth snapshotting.
        staleness = [u["staleness"] for u in GOLDEN["updates"]]
        assert max(staleness) >= 2
        workers = [u["worker"] for u in GOLDEN["updates"]]
        assert workers != sorted(workers)  # interleaved, not batched
        assert len(GOLDEN["updates"]) == UPDATES

    def test_logical_timestamps_are_consistent(self):
        # Commit order is the update index; per-worker local steps count
        # up contiguously; staleness equals the pull-to-commit version gap.
        last_local = {}
        for index, u in enumerate(GOLDEN["updates"]):
            assert u["update"] == index
            assert u["global_step"] == index
            expected = last_local.get(u["worker"], -1) + 1
            assert u["local_step"] == expected
            last_local[u["worker"]] = expected
            assert 0 <= u["staleness"] <= index


if __name__ == "__main__":  # regenerate the snapshot
    engine = make_recorded_engine()
    engine.train(UPDATES)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "scheme": "3LC (s=1.00)",
                "num_workers": 2,
                "updates": event_stream_as_dicts(engine),
            },
            indent=1,
        )
    )
    print(f"wrote {GOLDEN_PATH}")
