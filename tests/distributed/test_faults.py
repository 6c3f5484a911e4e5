"""Fault specs and error-feedback checkpointing.

The fault-injection layer's correctness rests on two contracts tested
here in isolation: a :class:`FaultSpec` is a validated, hashable value
object (it rides inside the sweep-replay fingerprint), and a worker's
error-feedback state round-trips bit-exactly through
``snapshot_state``/``restore_state`` — the property crash recovery
leans on.
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.data.augment import Augmenter
from repro.data.batcher import ShardBatcher
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.distributed.worker import Worker
from repro.nn import build_resnet


class TestFaultSpecValidation:
    def test_empty_spec(self):
        spec = FaultSpec()
        assert spec.empty
        assert spec.crash_at(0, 0) is None
        assert spec.flap_at(0, 0) is None

    def test_lookups(self):
        crash = WorkerCrash(worker=1, step=3, down_steps=2)
        flap = UplinkFlap(rack=0, step=5)
        spec = FaultSpec(crashes=(crash,), flaps=(flap,))
        assert not spec.empty
        assert spec.crash_at(1, 3) is crash
        assert spec.crash_at(1, 4) is None
        assert spec.crash_at(0, 3) is None
        assert spec.flap_at(0, 5) is flap
        assert spec.flap_at(1, 5) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker": -1, "step": 0},
            {"worker": 0, "step": -1},
            {"worker": 0, "step": 0, "down_steps": 0},
        ],
    )
    def test_crash_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            WorkerCrash(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rack": -1, "step": 0},
            {"rack": 0, "step": -1},
            {"rack": 0, "step": 0, "down_steps": 0},
            {"rack": 0, "step": 0, "rejoin_delay_seconds": -0.5},
        ],
    )
    def test_flap_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            UplinkFlap(**kwargs)

    def test_duplicate_events_rejected(self):
        crash = WorkerCrash(worker=1, step=3)
        with pytest.raises(ValueError, match="duplicate"):
            FaultSpec(crashes=(crash, WorkerCrash(worker=1, step=3, down_steps=2)))
        flap = UplinkFlap(rack=0, step=2)
        with pytest.raises(ValueError, match="duplicate"):
            FaultSpec(flaps=(flap, UplinkFlap(rack=0, step=2, down_steps=3)))

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(max_restarts=-1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: WorkerCrash(worker=1, step=0.5),
                "WorkerCrash.step must be an integer, got 0.5",
            ),
            (
                lambda: WorkerCrash(worker=True, step=1),
                "WorkerCrash.worker must be an integer, got True",
            ),
            (
                lambda: WorkerCrash(worker=0, step=1, down_steps=1.5),
                "WorkerCrash.down_steps must be an integer, got 1.5",
            ),
            (
                lambda: WorkerCrash(worker=0, step=1, depart=1),
                "WorkerCrash.depart must be a bool, got 1",
            ),
            (
                lambda: UplinkFlap(rack=1.0, step=1),
                "UplinkFlap.rack must be an integer, got 1.0",
            ),
            (
                lambda: UplinkFlap(rack=1, step=1, down_steps=1.5),
                "UplinkFlap.down_steps must be an integer, got 1.5",
            ),
            (
                lambda: UplinkFlap(rack=1, step=1, rejoin_delay_seconds=float("nan")),
                "UplinkFlap.rejoin_delay_seconds must be finite and >= 0, got nan",
            ),
            (
                lambda: UplinkFlap(rack=1, step=1, rejoin_delay_seconds=float("inf")),
                "UplinkFlap.rejoin_delay_seconds must be finite and >= 0, got inf",
            ),
            (
                lambda: UplinkFlap(rack=1, step=1, rejoin_delay_seconds="0.05"),
                "UplinkFlap.rejoin_delay_seconds must be finite and >= 0, "
                "got '0.05'",
            ),
            (
                lambda: FaultSpec(max_restarts=1.5),
                "FaultSpec.max_restarts must be an integer, got 1.5",
            ),
            (
                lambda: FaultSpec(checkpoint_state="no"),
                "FaultSpec.checkpoint_state must be a bool, got 'no'",
            ),
        ],
    )
    def test_a_field_of_the_wrong_kind_is_refused_by_name(self, build, message):
        """A fractional step never fires, a fractional down time runs
        long, and a NaN rejoin delay drops its floor: refused, not run."""
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    def test_numpy_integers_are_integers(self):
        crash = WorkerCrash(worker=np.int64(1), step=np.int32(2))
        assert FaultSpec(crashes=(crash,)).crash_at(1, 2) is crash

    def test_hashable_for_fingerprints(self):
        a = FaultSpec(crashes=(WorkerCrash(worker=0, step=1),))
        b = FaultSpec(crashes=(WorkerCrash(worker=0, step=1),))
        assert a == b and hash(a) == hash(b)
        c = FaultSpec(crashes=(WorkerCrash(worker=0, step=2),))
        assert a != c


def make_worker(worker_id: int = 0) -> Worker:
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    images, labels = dataset.train_shard(worker_id, 32)
    return Worker(
        worker_id,
        build_resnet(8, base_width=4, seed=3),
        ShardBatcher(
            images, labels, batch_size=8,
            rng=np.random.default_rng(worker_id),
        ),
        Augmenter(np.random.default_rng(worker_id + 100)),
        make_compressor("3LC (s=1.00)", seed=0),
    )


class TestCheckpointRoundTrip:
    def test_snapshot_perturb_restore_bit_exact(self):
        """Residuals restored from a checkpoint are bit-identical."""
        worker = make_worker()
        for _ in range(3):
            worker.train_step()
        snapshot = worker.snapshot_state()
        norms_before = worker.residual_norms()
        assert any(norm > 0 for norm in norms_before.values()), (
            "training should have left residual mass behind"
        )
        # Perturb: more training shifts every error buffer.
        for _ in range(2):
            worker.train_step()
        assert worker.residual_norms() != norms_before
        worker.restore_state(snapshot)
        assert worker.residual_norms() == norms_before
        for name, context in worker.stream.contexts.items():
            state = context.state_dict()
            # Bypass (float32) contexts carry no residual; lossy ones must
            # match the checkpoint bit for bit.
            if "residual" in snapshot[name]:
                np.testing.assert_array_equal(
                    state["residual"], snapshot[name]["residual"]
                )

    def test_snapshot_is_isolated_from_live_state(self):
        """Mutating the live contexts must not corrupt the snapshot."""
        worker = make_worker()
        worker.train_step()
        snapshot = worker.snapshot_state()
        frozen = {
            name: state["residual"].copy()
            for name, state in snapshot.items()
            if "residual" in state
        }
        assert frozen, "expected at least one lossy context"
        worker.train_step()
        for name, residual in frozen.items():
            np.testing.assert_array_equal(snapshot[name]["residual"], residual)

    def test_restore_rejects_key_mismatch(self):
        worker = make_worker()
        snapshot = worker.snapshot_state()
        extra = dict(snapshot)
        extra["no/such/tensor"] = next(iter(snapshot.values()))
        with pytest.raises(ValueError, match="no/such/tensor"):
            worker.restore_state(extra)
        missing = dict(snapshot)
        dropped = next(iter(missing))
        del missing[dropped]
        with pytest.raises(ValueError, match=dropped.replace("/", "/")):
            worker.restore_state(missing)

    def test_restore_rejects_shape_mismatch(self):
        worker = make_worker()
        snapshot = worker.snapshot_state()
        name = next(n for n, s in snapshot.items() if "residual" in s)
        bad = dict(snapshot)
        bad[name] = dict(bad[name], residual=np.zeros((1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            worker.restore_state(bad)
