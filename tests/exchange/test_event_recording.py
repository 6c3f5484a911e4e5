"""Event-stream recording edge cases: deferring schemes × async modes.

A scheme with ``defers_transmission`` (N-local-steps and its compositions)
legitimately skips wire messages on most updates. Async/SSP *training*
tolerates that (deferred tensors simply ride the error buffers), but an
event stream that is supposed to drive the network simulator cannot: a
recorded update with no push would simulate a server commit that never
received anything. The engine therefore refuses the recording combination
up front with an actionable error, and the CLI drops deferring schemes
from async/SSP sweeps (``tests/harness`` covers the CLI side).
"""

import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.netsim.vector import phase_partition
from repro.nn import CosineDecay, build_resnet


def make_engine(scheme_name: str, *, sync_mode: str, staleness=None, record=False):
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, 8),
        EngineConfig(
            num_workers=2,
            batch_size=8,
            shard_size=32,
            cluster_seed=0,
            sync_mode=sync_mode,
            staleness=staleness,
            sim_overlap=record,
        ),
    )


DEFERRING = "2 local steps"


class TestDeferringSchemesInAsyncModes:
    @pytest.mark.parametrize(
        "sync_mode,staleness", [("async", None), ("ssp", 1)]
    )
    def test_recording_rejected_cleanly(self, sync_mode, staleness):
        with pytest.raises(ValueError, match="defers transmissions"):
            make_engine(
                DEFERRING, sync_mode=sync_mode, staleness=staleness, record=True
            )

    def test_plain_async_training_still_works(self):
        # Without recording the historical behaviour stands: deferred
        # updates apply through the error buffers, nothing crashes.
        engine = make_engine(DEFERRING, sync_mode="async")
        engine.train(6)
        assert engine.update_count == 6
        assert len(engine.traffic.steps) == 6
        # Deferral shows up as zero-byte updates, not missing records.
        assert any(s.push_bytes == 0 for s in engine.traffic.steps)
        assert any(s.push_bytes > 0 for s in engine.traffic.steps)

    def test_bsp_recording_still_accepts_deferring_schemes(self):
        # The gate is event-stream specific: BSP step plans represent
        # deferred messages as absent records, which the step simulator
        # already handles.
        engine = make_engine(DEFERRING, sync_mode="bsp", record=True)
        engine.train(4)
        assert len(engine.transmissions) == 4

    def test_non_deferring_async_recording_accepted(self):
        engine = make_engine("3LC (s=1.00)", sync_mode="async", record=True)
        engine.train(4)
        assert len(engine.update_events) == 4
        assert all(phase_partition(e.records)[0] for e in engine.update_events)
