"""Derived legality and canonical form against the hand-written bodies.

``PlanSpace.legal_reason`` builds the point's config and asks the scheme
rule; ``PlanSpace.canonical`` reads ``OBSERVED_UNDER``. Both used to be
spelled out rule by rule (``space_oracle.py``). Over a cross product of
every dimension of ``default_space`` — widened with shard counts, rack
shapes and a scheme the engine refuses — the two must agree on *whether*
each point is legal, raw and canonical, and on the canonical point itself.
The one exception is a one-rack ``hier`` point (``space_oracle.one_rack``):
the engine now refuses every one of them.
"""

import itertools

import pytest

from repro.harness.config import FAST_CONFIG
from repro.tuner.space import PlanPoint, default_space

from tests.tuner import space_oracle

MLP = FAST_CONFIG.scaled(model_family="mlp")
DEFERRING = "2 local steps"

BASES = {
    "2-workers": MLP,
    "4-workers": MLP.scaled(num_workers=4),
    "6-workers": MLP.scaled(num_workers=6),
    "8-workers": MLP.scaled(num_workers=8),
    # A base whose own values are not what an unobservable field resets to.
    "4-workers-fused-hier": MLP.scaled(
        num_workers=4,
        topology="hier",
        num_shards=4,
        bucket_elements=512,
        fuse_small_tensors=True,
        fuse_lossy=True,
        bucket_boundaries=("fc1/bias",),
    ),
}


def grid(space):
    workers = space.base.num_workers
    rack_shapes = space.rack_shapes + (
        (1, workers),  # one rack: the one exception
        (workers, 1),  # one-worker racks: no ring
        (3, 3),  # never the worker count
    )
    ends = lambda choices: tuple(dict.fromkeys((choices[0], choices[-1])))
    for values in itertools.product(
        ("32-bit float", "3LC (s=1.00)", DEFERRING),
        space.topologies + (("hier",) if "hier" not in space.topologies else ()),
        (0,) + space.shard_choices,
        rack_shapes,
        ends(space.cross_bw_choices),
        space.priority_choices,
        (False, True),
        (False, True),
        ends(space.bucket_choices),
        ends(space.boundary_choices),
    ):
        scheme, topology, shards, (racks, rack_size), bw, priority, *fusion = values
        yield PlanPoint(
            scheme, topology, shards, racks, rack_size, bw, priority, *fusion
        )


@pytest.mark.parametrize("base", BASES.values(), ids=BASES.keys())
def test_derived_rules_match_the_handwritten_ones(base):
    space = default_space(base)
    points = legal = moved = 0
    for raw in grid(space):
        canonical = space.canonical(raw)
        assert canonical == space_oracle.canonical(space, raw), raw
        for point in (raw, canonical):
            new = space.legal_reason(point)
            old = space_oracle.legal_reason(space, point)
            if space_oracle.one_rack(point):
                assert new is not None, point
                moved += old is None
            else:
                assert (new is None) == (old is None), (point, new, old)
        points += 1
        legal += new is None
    # Both outcomes are well represented: the grid is not vacuous, and the
    # exception really moved points that used to be legal.
    assert points > 4000 and 0.02 < legal / points < 0.9, (points, legal)
    assert moved > 0
