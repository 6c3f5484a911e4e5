"""The plan space's legality and canonical form as they were hand-written.

Before the space asked the engine ("build the config, then the scheme
rule") and read ``OBSERVED_UNDER``, ``PlanSpace.legal_reason`` and
``PlanSpace.canonical`` restated both as the bodies below.
``test_space_parity.py`` holds the derived versions to them: same legal
set, same canonical point — except on the points :func:`one_rack` names.
"""

from dataclasses import replace

from repro.compression.registry import make_compressor


def legal_reason(space, point):
    if point.fuse_lossy and not point.fuse_small_tensors:
        return "fuse_lossy requires fuse"
    if point.bucket_boundaries and not point.fuse_small_tensors:
        return "bucket_boundaries require fuse"
    if point.fuse_small_tensors:
        if point.topology == "ring":
            return (
                "the ring exchanges raw gradients per hop; fused buckets only "
                "apply to point-to-point push/pull framing"
            )
        if point.topology == "hier" and point.racks < 2:
            return "a one-rack hierarchy has no uplink to fuse buckets on"
    if point.topology == "hier":
        if point.rack_size < 2:
            return "a rack ring needs rack_size >= 2"
        if point.racks * point.rack_size != space.base.num_workers:
            return (
                f"racks x rack_size must equal num_workers="
                f"{space.base.num_workers}"
            )
    if (
        point.topology in ("ring", "hier")
        and make_compressor(point.scheme, seed=0).defers_transmission
    ):
        return (
            f"scheme {point.scheme!r} defers transmission; collective "
            "topologies exchange every step"
        )
    if point.topology == "sharded" and point.num_shards < 1:
        return "sharded topology needs num_shards >= 1"
    return None


def one_rack(point) -> bool:
    """The one deliberate legality change since these bodies were written.

    A one-rack ``hier`` point was legal here (a ring in disguise, bit-exact
    with ``topology="ring"``); ``EngineConfig`` now refuses it ("topology
    'hier' needs racks >= 2"), so the derived rules call it illegal.
    """
    return point.topology == "hier" and point.racks == 1


def canonical(space, point):
    base = space.base
    overrides: dict = {}
    if point.topology != "sharded":
        overrides["num_shards"] = base.num_shards
    if point.topology != "hier":
        overrides["racks"] = base.racks
        overrides["rack_size"] = base.rack_size
        overrides["cross_bw_fraction"] = 1.0
    if not point.fuse_small_tensors:
        overrides["fuse_lossy"] = False
        overrides["bucket_elements"] = base.bucket_elements
        overrides["bucket_boundaries"] = ()
    return replace(point, **overrides) if overrides else point
