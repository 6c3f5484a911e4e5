"""Differential cache-key tests: perturb every field, one at a time.

Two caches sit between a config and its numbers: the process-wide input
memo (``repro.data.synthetic.input_memo``: templates, shards, test sets)
and the recording and timeline levels of
:class:`~repro.netsim.SweepReplayCache`. For each, every field of the object the key is built from must either change
the key or provably leave the cached value byte-identical. The field
lists come from ``dataclasses.fields()``, so a field added later fails
here until someone says how to perturb it.
"""

from dataclasses import fields, replace

import pytest

from repro.data import DatasetSpec, SyntheticImageDataset
from repro.data.synthetic import input_memo
from repro.distributed.barriers import StragglerSpec
from repro.distributed.faults import FaultSpec, UplinkFlap
from repro.exchange import MODELED
from repro.harness import FAST_CONFIG, ExperimentConfig, ExperimentRunner
from repro.harness.config import SIMULATED_ONLY
from repro.netsim import SweepReplayCache
from repro.tuner import search
from repro.tuner.evaluator import PlanEvaluator
from repro.tuner.space import default_space
from repro.utils.seeding import derive_rng

SCHEME = "3LC (s=1.00)"

SPEC_PERTURBATIONS = {
    "image_size": 12,
    "seed": 1,
}

#: The 4-worker hier MLP cell (the plan tuner's bench shape), 4 steps.
BASE = FAST_CONFIG.scaled(
    model_family="mlp",
    num_workers=4,
    topology="hier",
    racks=2,
    rack_size=2,
    standard_steps=4,
    sim_overlap=True,
)

#: With 4 workers the only legal rack shape is 2 x 2, so the two rack
#: fields are perturbed on a 6-worker twin of the base (2 x 3 -> 3 x 2).
SIX_WORKERS = BASE.scaled(num_workers=6, rack_size=3)

#: field -> overrides. The field itself is always among them; a companion
#: appears only where the config would otherwise be rejected (the rack
#: shape must multiply to the worker count, staleness needs SSP, ...).
CONFIG_PERTURBATIONS = {
    "model_family": dict(model_family="resnet"),
    "depth": dict(depth=14),
    "base_width": dict(base_width=8),
    "model_seed": dict(model_seed=43),
    "image_size": dict(image_size=16),
    "dataset_seed": dict(dataset_seed=1),
    "num_workers": dict(num_workers=6, racks=3),
    "batch_size": dict(batch_size=4),
    "shard_size": dict(shard_size=32),
    "cluster_seed": dict(cluster_seed=1),
    "topology": dict(topology="single"),
    "sync_mode": dict(sync_mode="async"),
    "num_shards": dict(num_shards=3),
    "backup_workers": dict(backup_workers=1, topology="single"),
    "staleness": dict(staleness=2, sync_mode="ssp"),
    "straggler": dict(straggler=StragglerSpec(jitter_sigma=0.2)),
    "fault": dict(fault=FaultSpec(flaps=(UplinkFlap(rack=1, step=1),))),
    "racks": dict(racks=3, rack_size=2),
    "rack_size": dict(rack_size=2, racks=3),
    "cross_bw_fraction": dict(cross_bw_fraction=0.25),
    "cross_rtt_seconds": dict(cross_rtt_seconds=1e-3),
    "fuse_small_tensors": dict(fuse_small_tensors=True),
    "bucket_elements": dict(bucket_elements=1024),
    "fuse_lossy": dict(fuse_lossy=True, fuse_small_tensors=True),
    "bucket_boundaries": dict(bucket_boundaries=("fc1.bias",), fuse_small_tensors=True),
    "transmission_priority": dict(transmission_priority="smallest"),
    "sim_overlap": dict(sim_overlap=False),
    "telemetry": dict(telemetry=True),
    "clock": dict(clock=MODELED),
    "standard_steps": dict(standard_steps=5),
    "base_lr": dict(base_lr=0.01),
    "eval_size": dict(eval_size=100),
    "eval_points": dict(eval_points=1),
    "scheme_seed": dict(scheme_seed=1),
    "time_model": dict(
        time_model=replace(BASE.time_model, per_message_overhead=50e-6)
    ),
}

#: The config fields that reach the inputs: through the dataset spec, or
#: through which ``(shard, count)`` a run asks for.
INPUT_FIELDS = {
    "image_size",
    "dataset_seed",
    "num_workers",
    "batch_size",
    "shard_size",
    "eval_size",
}

#: What a backward timeline depends on: the model, the profiled batch
#: (dataset spec, batch size) and the clock.
TIMELINE_FIELDS = {
    "model_family",
    "depth",
    "base_width",
    "model_seed",
    "image_size",
    "dataset_seed",
    "batch_size",
    "clock",
}


def _perturbed(name: str) -> tuple[ExperimentConfig, ExperimentConfig]:
    """``(base, perturbed)`` for one field."""
    overrides = CONFIG_PERTURBATIONS.get(name)
    if overrides is None:
        pytest.fail(f"add a perturbation for {name}")
    config = SIX_WORKERS if name in ("racks", "rack_size") else BASE
    assert name in overrides and overrides[name] != getattr(config, name)
    return config, replace(config, **overrides)


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


class TestDatasetSpecFields:
    @pytest.mark.parametrize("name", _names(DatasetSpec))
    def test_each_field_is_in_the_memo_key(self, name):
        if name not in SPEC_PERTURBATIONS:
            pytest.fail(f"add a perturbation for {name}")
        base = DatasetSpec(image_size=8)
        spec = replace(base, **{name: SPEC_PERTURBATIONS[name]})
        assert spec != base

        input_memo.clear()
        ds = SyntheticImageDataset(base)
        ours = (ds.templates, *ds.train_shard(1, 24), *ds.test_set(16))
        other = SyntheticImageDataset(spec)
        memoized = (other.templates, *other.train_shard(1, 24), *other.test_set(16))
        # Three new entries: nothing of the base spec's was handed out.
        stats = input_memo.stats()
        assert (stats["entries"], stats["misses"], stats["hits"]) == (6, 6, 0)

        (templates,) = other._build_templates()
        uncached = (
            templates,
            *other.sample(24, derive_rng(spec.seed, "train", 1)),
            *other.sample(16, derive_rng(spec.seed, "test")),
        )
        for got, want in zip(memoized, uncached):
            assert got is not want
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # ... and every spec field really does shape the data.
        assert any(a.tobytes() != b.tobytes() for a, b in zip(memoized, ours))


def _requests(config: ExperimentConfig) -> list[tuple]:
    """``(split, shard, count)`` a run of ``config`` asks its dataset for:
    one shard per worker (``ExchangeEngine.__init__``), the timeline
    profile's batch, and the evaluation set."""
    return [
        *(("train", worker, config.shard_size) for worker in range(config.num_workers)),
        ("train", 0, config.batch_size),
        ("test", None, config.eval_size),
    ]


def _inputs(config: ExperimentConfig) -> list[bytes]:
    dataset = config.dataset()
    arrays = [dataset.templates]
    for split, shard, count in _requests(config):
        arrays += dataset.test_set(count) if split == "test" else dataset.train_shard(shard, count)
    return [array.tobytes() for array in arrays]


class TestExperimentConfigFields:
    def test_no_stale_perturbations(self):
        assert set(CONFIG_PERTURBATIONS) <= set(_names(ExperimentConfig))
        assert set(SPEC_PERTURBATIONS) <= set(_names(DatasetSpec))

    @pytest.mark.parametrize("name", _names(ExperimentConfig))
    def test_memo_warm_from_the_base_never_changes_the_inputs(self, name):
        base, config = _perturbed(name)
        input_memo.clear()
        base_inputs = _inputs(base)
        warm = _inputs(config)  # free to hit anything the base left behind
        input_memo.clear()
        cold = _inputs(config)
        assert warm == cold
        same_key = (
            config.dataset().spec == base.dataset().spec
            and _requests(config) == _requests(base)
        )
        assert same_key == (name not in INPUT_FIELDS)
        if same_key:
            assert cold == base_inputs

    @pytest.mark.parametrize("name", _names(ExperimentConfig))
    def test_recording_key_changes_unless_sim_only(self, name):
        base, config = _perturbed(name)
        key = ExperimentRunner(base)._recording_key(SCHEME, 4)
        other = ExperimentRunner(config)._recording_key(SCHEME, 4)
        assert (other == key) == (name in ExperimentRunner._SIM_ONLY_CANONICAL)

    @pytest.mark.parametrize("name", _names(ExperimentConfig))
    def test_timeline_key_changes_only_with_what_a_timeline_depends_on(self, name):
        base, config = _perturbed(name)
        key = ExperimentRunner(base)._timeline_key()
        other = ExperimentRunner(config)._timeline_key()
        assert (other == key) == (name not in TIMELINE_FIELDS)


def _recording(config: ExperimentConfig):
    """The recording of one run on the modeled clock."""
    cache = SweepReplayCache()
    runner = ExperimentRunner(config.scaled(clock=MODELED), cache)
    runner.run(SCHEME)
    recording = cache.recording(runner._recording_key(SCHEME, config.standard_steps))
    traffic = [
        replace(step, compute_seconds=0.0, codec_seconds=0.0)
        for step in recording.traffic.steps
    ]
    return recording.plans, recording.step_logs, traffic


class TestSimOnlyFieldsShareARecording:
    def test_canonical_fields_exist(self):
        assert set(ExperimentRunner._SIM_ONLY_CANONICAL) <= set(_names(ExperimentConfig))

    def test_every_knob_the_cli_calls_simulated_only_leaves_the_key(self):
        """A knob the CLI refuses without ``--sim-overlap`` changes only the
        replay; were it in the recording key, a sweep over it would
        silently train once per value."""
        assert set(SIMULATED_ONLY) <= set(ExperimentRunner._SIM_ONLY_CANONICAL)

    def test_perturbing_them_leaves_the_recording_identical(self):
        """Hier BSP is bit-reproducible, so what the sim-only knobs share
        can be checked exactly: records, step logs and traffic bytes."""
        plans, logs, traffic = _recording(BASE)
        assert len(plans) == 4 and sum(s.wire_bytes for s in traffic) > 0
        for name in ExperimentRunner._SIM_ONLY_CANONICAL:
            got = _recording(_perturbed(name)[1])
            assert got[0] == plans, name
            assert got[1] == logs, name
            assert got[2] == traffic, name


def test_measured_and_modeled_runners_share_one_cache():
    """The clock is in both keys: neither runner is handed the other's
    recording or timeline, so a tuner cache can be shared with anything."""
    cache = SweepReplayCache()
    measured = ExperimentRunner(BASE, cache)
    modeled = ExperimentRunner(BASE.scaled(clock=MODELED), cache)
    measured.run(SCHEME)
    modeled.run(SCHEME)
    stats = cache.stats()
    assert (stats["recordings"], stats["recording_hits"], stats["timelines"]) == (2, 0, 2)
    ours, theirs = (
        cache.recording(runner._recording_key(SCHEME, 4)).plans
        for runner in (measured, modeled)
    )
    assert [step.records for step in ours] == [step.records for step in theirs]
    assert {step.compute_seconds for step in theirs} == {MODELED.compute_seconds}
    assert {step.compute_seconds for step in ours} != {MODELED.compute_seconds}
    assert measured.backward_timeline() != modeled.backward_timeline()
    # ... and a second modeled runner is handed the first one's.
    again = ExperimentRunner(BASE.scaled(clock=MODELED, cross_bw_fraction=0.25), cache)
    assert again.backward_timeline() is modeled.backward_timeline()
    assert again.run(SCHEME).loss_curve == modeled.run(SCHEME).loss_curve
    assert cache.stats()["recordings"] == 2


def test_plan_search_synthesizes_each_input_once():
    """The ``plan_search`` bench search: 20-odd recordings, 7 arrays."""
    config = BASE.scaled(
        model_seed=0, cross_bw_fraction=0.1, standard_steps=8, sim_overlap=False
    )
    input_memo.clear()
    for misses in (7, 7):
        space = default_space(config)
        result = search.tune(
            space, PlanEvaluator(space, link="10Mbps"), strategy="model", budget=24, seed=0
        )
        assert result.evaluations == 24
        # templates, four 64-image shards, the timeline's 8-image batch,
        # the 200-image test set; a second search adds nothing.
        assert input_memo.stats()["misses"] == misses
    assert input_memo.stats()["entries"] == 7
