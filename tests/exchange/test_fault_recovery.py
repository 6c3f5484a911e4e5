"""Fault injection and churn-tolerant exchange in the unified engine.

Covers the crash/restart/departure lifecycle on the parameter-server
topologies, elastic rack membership under uplink flaps, the
checkpointed-vs-naive recovery split, barrier fallback when churn
shrinks the live set below a backup-worker barrier's quorum, and the
no-fault invariant: an empty fault spec is bit-identical to no spec.
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet


def make_engine(scheme="3LC (s=1.00)", steps=8, **overrides):
    kwargs = dict(
        num_workers=4,
        batch_size=8,
        shard_size=64,
        cluster_seed=0,
        topology="single",
    )
    if overrides.get("topology") == "hier":
        kwargs.update(racks=2, rack_size=2)
    kwargs.update(overrides)
    return ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme, seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**kwargs),
    )


def losses(engine):
    return [log.train_loss for log in engine.step_logs]


class TestConfigValidation:
    def test_faults_are_bsp_only(self):
        fault = FaultSpec(crashes=(WorkerCrash(worker=0, step=1),))
        with pytest.raises(ValueError, match="BSP-only"):
            make_engine(sync_mode="async", fault=fault)

    def test_crash_needs_parameter_server(self):
        fault = FaultSpec(crashes=(WorkerCrash(worker=0, step=1),))
        with pytest.raises(ValueError, match="ring"):
            make_engine(topology="ring", fault=fault)

    def test_crash_worker_in_range(self):
        fault = FaultSpec(crashes=(WorkerCrash(worker=9, step=1),))
        with pytest.raises(ValueError, match="9"):
            make_engine(fault=fault)

    def test_flap_needs_hier(self):
        fault = FaultSpec(flaps=(UplinkFlap(rack=0, step=1),))
        with pytest.raises(ValueError, match="hier"):
            make_engine(fault=fault)

    def test_flap_rack_in_range(self):
        fault = FaultSpec(flaps=(UplinkFlap(rack=5, step=1),))
        with pytest.raises(ValueError, match="5"):
            make_engine(topology="hier", fault=fault)


class TestNoFaultParity:
    @pytest.mark.parametrize("topology", ["single", "hier"])
    def test_empty_spec_takes_the_no_fault_path(self, topology):
        """fault=FaultSpec() must not perturb the no-fault path at all.

        Training is not bit-deterministic across runs (threaded BLAS
        reduction order), so the comparison is structural — the fault
        machinery must be disarmed entirely — plus a tight numerical
        agreement on the loss trajectory.
        """
        plain = make_engine(topology=topology)
        plain.train(4)
        empty = make_engine(topology=topology, fault=FaultSpec())
        empty.train(4)
        assert empty.churn.spec.empty
        assert empty.fault_summary() is None
        assert empty.fault_log == []
        for a, b in zip(plain.traffic.steps, empty.traffic.steps):
            assert a.pull_fanout == b.pull_fanout
            assert a.num_workers == b.num_workers
            assert b.resync_bytes == 0
        np.testing.assert_allclose(
            losses(plain), losses(empty), rtol=1e-4
        )


class TestCrashRestart:
    def test_crash_lifecycle(self):
        fault = FaultSpec(crashes=(WorkerCrash(worker=1, step=2, down_steps=2),))
        engine = make_engine(fault=fault)
        engine.train(6)
        events = [(e["event"], e["step"]) for e in engine.fault_log]
        assert events == [("crash", 2), ("restart", 4)]
        assert engine.fault_log[1]["recovery"] == "checkpoint"
        summary = engine.fault_summary()
        assert summary["crashes"] == 1 and summary["restarts"] == 1
        assert summary["departures"] == 0
        assert summary["resync_bytes"] > 0
        # Down steps aggregate fewer pushes; the rejoin step is whole again.
        fanouts = [t.pull_fanout for t in engine.traffic.steps]
        assert fanouts == [4, 4, 3, 3, 4, 4]
        resync = [t.resync_bytes for t in engine.traffic.steps]
        assert resync[4] > 0 and sum(resync) == resync[4]
        assert all(np.isfinite(l) for l in losses(engine))

    def test_restarted_worker_replica_matches_global_model(self):
        """Checkpointed recovery resyncs the replica; the naive rejoin
        leaves it permanently offset by the missed pulls."""

        def final_offset(checkpoint_state):
            fault = FaultSpec(
                crashes=(WorkerCrash(worker=1, step=2, down_steps=2),),
                checkpoint_state=checkpoint_state,
            )
            # Lossless pulls: replicas track the master exactly, so any
            # residual offset is the recovery protocol's fault. (With a
            # lossy scheme replicas legitimately trail the master by the
            # server's pull-side error residual.)
            engine = make_engine(scheme="32-bit float", fault=fault, steps=6)
            engine.train(6)
            global_state = engine.service.state_dict()
            replica = engine.workers[1]._params
            return max(
                float(np.abs(replica[name].data - tensor).max())
                for name, tensor in global_state.items()
            )

        # Post-resync the replica tracks the global model exactly: the
        # resync copies it, and every later pull applies the same deltas
        # to both.
        assert final_offset(True) == 0.0
        # The naive rejoin never recovers the missed deltas.
        assert final_offset(False) > 0.0

    def test_departure_via_flag(self):
        fault = FaultSpec(
            crashes=(WorkerCrash(worker=2, step=1, depart=True),)
        )
        engine = make_engine(fault=fault)
        engine.train(5)
        events = [e["event"] for e in engine.fault_log]
        assert events == ["crash", "departure"]
        # The departed worker never returns: fanout stays shrunk.
        assert [t.pull_fanout for t in engine.traffic.steps] == [4, 3, 3, 3, 3]
        assert engine.fault_summary()["departures"] == 1

    def test_departure_via_restart_cap(self):
        fault = FaultSpec(
            crashes=(
                WorkerCrash(worker=1, step=1, down_steps=1),
                WorkerCrash(worker=1, step=3, down_steps=1),
            ),
            max_restarts=1,
        )
        engine = make_engine(fault=fault)
        engine.train(6)
        events = [(e["event"], e["step"]) for e in engine.fault_log]
        assert events == [
            ("crash", 1),
            ("restart", 2),
            ("crash", 3),
            ("departure", 3),
        ]

    def test_all_workers_down_raises(self):
        fault = FaultSpec(
            crashes=tuple(
                WorkerCrash(worker=w, step=1, down_steps=2) for w in range(4)
            ),
        )
        engine = make_engine(fault=fault)
        with pytest.raises(RuntimeError, match="no live workers"):
            engine.train(3)

    def test_naive_recovery_transfers_nothing(self):
        fault = FaultSpec(
            crashes=(WorkerCrash(worker=1, step=2, down_steps=2),),
            checkpoint_state=False,
        )
        engine = make_engine(fault=fault)
        engine.train(6)
        assert engine.fault_log[1]["recovery"] == "none"
        assert engine.fault_summary()["resync_bytes"] == 0
        assert all(t.resync_bytes == 0 for t in engine.traffic.steps)

    def test_checkpointed_rejoin_converges_near_fault_free(self):
        """Restored error-feedback state keeps the churned run on the
        fault-free trajectory: the loss tail stays within a stated bound
        (0.25 — an order of magnitude above run-to-run BLAS jitter,
        an order below the divergence a corrupted rejoin produces).
        The percent-accuracy version of this bound at benchmark scale
        is the claims ledger's ``churn.checkpointed_drift`` row (full scale)."""
        plain = make_engine(steps=12)
        plain.train(12)
        fault = FaultSpec(crashes=(WorkerCrash(worker=1, step=3, down_steps=2),))
        recovered = make_engine(fault=fault, steps=12)
        recovered.train(12)
        gap = abs(losses(plain)[-1] - losses(recovered)[-1])
        assert gap < 0.25

    def test_checkpoint_and_naive_diverge(self):
        """The recovery mode must actually change training dynamics."""

        def run(checkpoint_state):
            fault = FaultSpec(
                crashes=(WorkerCrash(worker=1, step=2, down_steps=3),),
                checkpoint_state=checkpoint_state,
            )
            engine = make_engine(fault=fault, steps=8)
            engine.train(8)
            return losses(engine)

        assert run(True) != run(False)


class TestBarrierFallback:
    def test_backup_barrier_degrades_not_deadlocks(self):
        """Churn below the quorum falls back to waiting for everyone."""
        fault = FaultSpec(
            crashes=(
                WorkerCrash(worker=1, step=2, down_steps=2),
                WorkerCrash(worker=2, step=2, down_steps=2),
            ),
        )
        engine = make_engine(fault=fault, backup_workers=1)
        engine.train(5)
        # Steps 2-3 have 2 live workers < required 3: full-barrier
        # fallback accepts both, drops none.
        assert all(np.isfinite(l) for l in losses(engine))
        drops = [t.dropped_pushes for t in engine.traffic.steps]
        assert drops[2] == 0 and drops[3] == 0
        # Healthy steps still drop the slowest (backup_workers=1).
        assert drops[0] == 1 and drops[4] == 1


class TestUplinkFlap:
    def test_flap_lifecycle(self):
        fault = FaultSpec(
            flaps=(UplinkFlap(rack=1, step=2, down_steps=2,
                              rejoin_delay_seconds=0.5),)
        )
        engine = make_engine(topology="hier", fault=fault,
                             sim_overlap=True)
        engine.train(6)
        events = [(e["event"], e["step"]) for e in engine.fault_log]
        assert events == [("flap", 2), ("rejoin", 4)]
        summary = engine.fault_summary()
        assert summary["flaps"] == 1 and summary["rejoins"] == 1
        assert summary["degraded_steps"] == 2
        assert summary["resync_bytes"] > 0
        # The rejoin step's recorded plan floors only the rejoined
        # rack's own uplink, not the other racks' routes.
        flooded = [st for st in engine.transmissions if st.link_down]
        assert len(flooded) == 1 and flooded[0].step == 4
        assert flooded[0].link_down == (("cross:rack1", 0.5),)
        assert all(np.isfinite(l) for l in losses(engine))

    def test_degraded_rack_keeps_training(self):
        """Down racks take local steps; convergence stays in the same
        ballpark as the fault-free run."""
        plain = make_engine(topology="hier", steps=8)
        plain.train(8)
        fault = FaultSpec(flaps=(UplinkFlap(rack=1, step=2, down_steps=3),))
        flapped = make_engine(topology="hier", fault=fault, steps=8)
        flapped.train(8)
        a, b = losses(plain), losses(flapped)
        # Identical until the flap hits, different after, both finite.
        assert a[:2] == b[:2] and a != b
        assert np.isfinite(b).all()
        assert abs(a[-1] - b[-1]) < 1.0

    def test_member_resync_after_rejoin(self):
        """Rejoined rack members carry the post-step global model."""
        fault = FaultSpec(flaps=(UplinkFlap(rack=1, step=1, down_steps=1),))
        engine = make_engine(topology="hier", fault=fault, steps=3)
        engine.train(3)
        assert [(e["event"], e["step"]) for e in engine.fault_log] == [
            ("flap", 1),
            ("rejoin", 2),
        ]
        global_state = engine.service.state_dict()
        rack_size = engine.engine_config.rack_size
        for member in engine.workers[rack_size:]:
            for name, param in member._params.items():
                np.testing.assert_array_equal(param.data, global_state[name])
