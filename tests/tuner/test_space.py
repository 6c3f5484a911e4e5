"""Plan-space properties: legality as data, canonical form, sampling.

The space is the tuner's contract with the engine: ``sample`` must never
propose a point the engine would reject and ``canonical`` must collapse
run-equivalent points.
"""

import numpy as np
import pytest

from repro.harness.config import FAST_CONFIG
from repro.tuner.space import (
    PlanPoint,
    PlanSpace,
    boundary_candidates,
    default_space,
)

BASE = FAST_CONFIG.scaled(model_family="mlp", num_workers=4)


@pytest.fixture(scope="module")
def space() -> PlanSpace:
    return default_space(BASE)


def point(space, **overrides) -> PlanPoint:
    base = space.default_point("32-bit float")
    fields = base.as_dict()
    fields["bucket_boundaries"] = tuple(fields["bucket_boundaries"])
    fields.update(overrides)
    return PlanPoint(**fields)


class TestLegality:
    def test_sampling_never_proposes_illegal_points(self, space):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = space.sample(rng)
            assert space.legal_reason(p) is None
            # Samples arrive canonical: equivalent points are one point.
            assert space.canonical(p) == p

    def test_fuse_lossy_requires_fuse(self, space):
        p = point(space, fuse_small_tensors=False, fuse_lossy=True)
        assert "fuse" in space.legal_reason(p)

    def test_boundaries_require_fuse(self, space):
        p = point(space, fuse_small_tensors=False, bucket_boundaries=("x",))
        assert "fuse" in space.legal_reason(p)

    def test_hier_rack_arithmetic(self, space):
        p = point(space, topology="hier", racks=3, rack_size=2)
        assert "num_workers" in space.legal_reason(p)

    def test_deferring_scheme_illegal_on_collectives(self, space):
        for topology in ("ring", "hier"):
            p = point(
                space, scheme="2 local steps", topology=topology,
                racks=2, rack_size=2,
            )
            assert "defers" in space.legal_reason(p)

    def test_apply_rejects_illegal(self, space):
        p = point(space, fuse_small_tensors=False, fuse_lossy=True)
        with pytest.raises(ValueError, match="illegal plan point"):
            space.apply(p)


class TestCanonical:
    def test_resets_fields_invisible_to_topology(self, space):
        p = point(
            space, topology="single", num_shards=4,
            cross_bw_fraction=0.05, racks=2, rack_size=2,
        )
        canon = space.canonical(p)
        assert canon.num_shards == BASE.num_shards
        assert canon.racks == BASE.racks
        assert canon.cross_bw_fraction == 1.0

    def test_resets_bucket_geometry_without_fuse(self, space):
        p = point(
            space, fuse_small_tensors=False, bucket_elements=4096,
            bucket_boundaries=(),
        )
        assert space.canonical(p).bucket_elements == BASE.bucket_elements


class TestConstruction:
    def test_default_point_mirrors_base(self, space):
        p = space.default_point("8-bit int")
        assert p.scheme == "8-bit int"
        assert p.topology == BASE.topology
        assert p.transmission_priority == "registration"
        config = space.apply(p)
        assert config.sim_overlap is True

    def test_apply_threads_every_knob(self, space):
        p = point(
            space, scheme="MQE 1-bit int", topology="hier", racks=2,
            rack_size=2, cross_bw_fraction=0.1,
            transmission_priority="smallest", fuse_small_tensors=True, fuse_lossy=True,
            bucket_elements=1024,
        )
        assert space.legal_reason(p) is None
        config = space.apply(p)
        assert config.topology == "hier"
        assert config.cross_bw_fraction == 0.1
        assert config.transmission_priority == "smallest"
        assert config.fuse_lossy is True
        assert config.bucket_elements == 1024

    def test_point_round_trips_through_dict(self, space):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = space.sample(rng)
            assert PlanPoint.from_dict(p.as_dict()) == p

    def test_encode_shape_and_intercept(self, space):
        rng = np.random.default_rng(1)
        points = [space.sample(rng) for _ in range(5)]
        X = space.encode(points)
        assert X.shape[0] == 5
        assert np.all(X[:, 0] == 1.0)

    def test_hier_requires_rack_shapes(self):
        with pytest.raises(ValueError, match="rack_shapes"):
            PlanSpace(
                base=BASE, schemes=("32-bit float",),
                topologies=("single", "hier"), rack_shapes=(),
            )


class TestDefaultSpace:
    def test_two_worker_base_drops_hier(self):
        space = default_space(FAST_CONFIG.scaled(model_family="mlp"))
        assert "hier" not in space.topologies

    def test_boundary_candidates_cover_fusable_names(self):
        candidates = boundary_candidates(BASE)
        assert () in candidates
        model = BASE.model_factory()()
        fusable = {
            p.name
            for p in model.parameters()
            if p.size < BASE.small_tensor_threshold
        }
        for names in candidates:
            assert set(names) <= fusable


class TestConfigValidation:
    def test_boundaries_require_fuse_in_config(self):
        with pytest.raises(ValueError, match="fuse"):
            BASE.scaled(bucket_boundaries=("layer1.weight",))

    def test_priority_validated_in_config(self):
        with pytest.raises(ValueError, match="priority"):
            BASE.scaled(transmission_priority="fifo")
