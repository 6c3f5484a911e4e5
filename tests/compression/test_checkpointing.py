"""Checkpoint/resume of compression contexts.

Error buffers, momentum accumulators, deferral counters, and RNG stream
positions are *training state*: a restart that silently drops them loses
every update the lossy stage had deferred. The contract, tested generically
for every registered scheme:

    compress k steps; snapshot ``state_dict()``; build a fresh context and
    ``load_state()`` the snapshot; from then on, both contexts produce
    byte-identical wire messages for identical inputs.

The snapshot is also round-tripped through ``numpy.savez`` to prove it is
genuinely serializable, and a behavioural test shows what checkpointing
protects: a resumed sparsifier still delivers the updates it owed, a
cold-restarted one does not.
"""

import io

import numpy as np
import pytest

from repro.compression import available_schemes, make_compressor

ALL_SCHEMES = available_schemes()


def _inputs(shape, steps, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 0.05, size=shape).astype(np.float32) for _ in range(steps)]


def _messages(ctx, tensors):
    out = []
    for t in tensors:
        result = ctx.compress(t)
        out.append(None if result is None else result.message.pack())
    return out


@pytest.fixture(params=ALL_SCHEMES, ids=lambda s: s.replace(" ", "_"))
def scheme(request):
    return make_compressor(request.param, seed=9)


#: Steps taken before the snapshot: none (a fresh context), then both
#: phases of a two-step deferral period, then a longer warm-up.
WARM_STEPS = (0, 1, 2, 5)


class TestResumeEquivalence:
    @pytest.mark.parametrize("warm_steps", WARM_STEPS)
    def test_resumed_context_continues_identically(self, scheme, warm_steps):
        shape = (23, 11)
        warm = _inputs(shape, warm_steps, seed=1)
        rest = _inputs(shape, 6, seed=2)

        original = scheme.make_context(shape, key=("ckpt",))
        _messages(original, warm)
        snapshot = original.state_dict()

        resumed = scheme.make_context(shape, key=("ckpt",))
        resumed.load_state(snapshot)

        assert _messages(original, rest) == _messages(resumed, rest)

    def test_cold_restart_differs_when_context_is_stateful(self, scheme):
        # 2-D so low-rank truncation is actually lossy; an odd warm length
        # so deferral schemes are holding both residual and phase.
        shape = (8, 5)
        warm = _inputs(shape, 5, seed=3)
        probe = _inputs(shape, 3, seed=4)

        original = scheme.make_context(shape, key=("cold",))
        _messages(original, warm)
        if not original.state_dict():
            pytest.skip("stateless scheme: cold restart is lossless")

        cold = scheme.make_context(shape, key=("cold",))
        continued = _messages(original, probe)
        restarted = _messages(cold, probe)
        # At least one subsequent transmission reflects the dropped state.
        assert continued != restarted

    @pytest.mark.parametrize("warm_steps", WARM_STEPS)
    def test_snapshot_survives_npz_serialization(self, scheme, warm_steps, tmp_path):
        shape = (16, 5)
        ctx = scheme.make_context(shape, key=("npz",))
        _messages(ctx, _inputs(shape, warm_steps))
        snapshot = ctx.state_dict()

        # Arrays/numbers/nested dicts only: savez via pickle-free object
        # arrays is not possible for nested dicts, so use allow_pickle for
        # the RNG-state dicts — the point is that numpy can persist it.
        buf = io.BytesIO()
        np.savez(buf, state=np.array([snapshot], dtype=object))
        buf.seek(0)
        loaded = np.load(buf, allow_pickle=True)["state"][0]

        resumed = scheme.make_context(shape, key=("npz",))
        resumed.load_state(loaded)
        probe = _inputs(shape, 2, seed=11)
        twin = scheme.make_context(shape, key=("npz",))
        twin.load_state(snapshot)
        assert _messages(resumed, probe) == _messages(twin, probe)

    def test_shape_mismatch_rejected(self, scheme):
        ctx = scheme.make_context((8, 8), key=("shape",))
        _messages(ctx, _inputs((8, 8), 2))
        snapshot = ctx.state_dict()
        if not any(isinstance(v, np.ndarray) for v in snapshot.values()):
            pytest.skip("no array state to mismatch")
        other = scheme.make_context((4, 4), key=("shape",))
        with pytest.raises((ValueError, KeyError)):
            other.load_state(snapshot)


class TestStatelessContract:
    @pytest.mark.parametrize("name", ["32-bit float", "8-bit int"])
    def test_stateless_schemes_report_empty_state(self, name):
        ctx = make_compressor(name).make_context((10,))
        assert ctx.state_dict() == {}
        ctx.load_state({})  # accepted

    def test_stateless_rejects_foreign_state(self):
        ctx = make_compressor("32-bit float").make_context((10,))
        with pytest.raises(ValueError, match="stateless"):
            ctx.load_state({"residual": np.zeros(10)})


class TestWhatCheckpointingProtects:
    def test_resume_delivers_owed_updates_cold_restart_loses_them(self):
        # A 5% sparsifier owes 95% of every step's mass to the future.
        # Integrate reconstructions: resume path total ~= input total;
        # cold restart forfeits the buffered remainder.
        scheme = make_compressor("5% sparsification", seed=3)
        shape = (2000,)
        steps = _inputs(shape, 30, seed=5)
        cut = 10

        warm = scheme.make_context(shape, key=("owe",))
        total_in = np.zeros(shape, dtype=np.float64)
        applied_resume = np.zeros(shape, dtype=np.float64)
        for t in steps[:cut]:
            total_in += t
            applied_resume += warm.compress(t).reconstruction
        snapshot = warm.state_dict()

        resumed = scheme.make_context(shape, key=("owe",))
        resumed.load_state(snapshot)
        cold = scheme.make_context(shape, key=("owe",))
        applied_cold = applied_resume.copy()
        for t in steps[cut:]:
            total_in += t
            applied_resume += resumed.compress(t).reconstruction
            applied_cold += cold.compress(t).reconstruction

        err_resume = float(np.linalg.norm(total_in - applied_resume))
        err_cold = float(np.linalg.norm(total_in - applied_cold))
        # The resumed path's shortfall is exactly its current residual...
        assert err_resume == pytest.approx(resumed.residual_norm(), rel=1e-4)
        # ...while the cold restart permanently lost the owed mass.
        assert err_cold > err_resume * 1.2
