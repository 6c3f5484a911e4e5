"""The joint wire-plan search space: points, legality, canonical form.

A :class:`PlanPoint` pins every knob the autotuner optimizes over —
scheme, topology shape, cross-rack bandwidth, fused-bucket geometry,
per-layer bucket boundaries, and the simulator's transmission priority.
:class:`PlanSpace` couples the point type to one base
:class:`~repro.harness.config.ExperimentConfig` and supplies the four
operations every search strategy needs:

* ``legal_reason(point)`` — why a point cannot run, in the engine's own
  words: the point is built into a config (``EngineConfig.__post_init__``
  holds every scheme-free rule) and the scheme is put to
  :func:`~repro.exchange.engine.scheme_incompatibility`;
* ``sample(rng)`` — rejection sampling of legal, *canonical* points;
* ``apply(point)`` — the point as a runnable ``ExperimentConfig``
  (``sim_overlap=True``: the simulator is the scoring oracle; the
  modeled clock: scores are a function of the seed);
* ``encode(points)`` — a one-hot + numeric feature matrix for the
  cost-model search.

Canonicalization is the cache-efficiency anchor: fields the point's
topology or fusion switch cannot observe
(:data:`~repro.harness.config.OBSERVED_UNDER`: shard count on ``single``,
rack shape on ``sharded``, bucket geometry with fusion off …) are reset, so
equivalent points collapse to one representative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import get_origin, get_type_hints

import numpy as np

from repro.compression.registry import available_schemes, make_compressor
from repro.distributed.defaults import SMALL_TENSOR_THRESHOLD
from repro.exchange.clock import MODELED
from repro.exchange.engine import scheme_incompatibility
from repro.exchange.topology import TOPOLOGIES
from repro.harness.config import OBSERVED_UNDER, ExperimentConfig
from repro.netsim import PRIORITIES

__all__ = [
    "PLAN_FIELDS",
    "PlanPoint",
    "PlanSpace",
    "default_space",
    "boundary_candidates",
]

#: Rejection-sampling tries before :meth:`PlanSpace.sample` gives up.
_SAMPLE_ATTEMPTS = 200
#: Most single-name bucket boundaries a model offers the search.
_MAX_BOUNDARY_NAMES = 4


@dataclass(frozen=True)
class PlanPoint:
    """One candidate wire plan (hashable, orderable for deterministic
    tie-breaks): a scheme plus the ``ExperimentConfig`` fields the tuner
    searches, under the config's own names. These fields are the one
    declaration of what a plan is — the ``repro.plan/v1`` schema, the
    config overlay and the CLI's ``--plan`` handling are derived from them.
    """

    scheme: str
    topology: str
    num_shards: int
    racks: int
    rack_size: int
    cross_bw_fraction: float
    transmission_priority: str
    fuse_small_tensors: bool
    fuse_lossy: bool
    bucket_elements: int
    bucket_boundaries: tuple[str, ...]

    def as_dict(self) -> dict:
        """The point as the ``plan`` object of a ``repro.plan/v1`` artifact."""
        return {
            name: list(getattr(self, name)) if kind is tuple else getattr(self, name)
            for name, kind in PLAN_FIELDS.items()
        }

    @classmethod
    def from_dict(cls, plan: dict) -> "PlanPoint":
        """Inverse of :meth:`as_dict` (artifact loading)."""
        return cls(**{name: kind(plan[name]) for name, kind in PLAN_FIELDS.items()})

    def config_overrides(self) -> dict:
        """What running this plan sets on an ``ExperimentConfig``: its own
        fields, the simulator as the timing oracle, and the modeled clock
        (scores are a function of the seed)."""
        own = {name: getattr(self, name) for name in PLAN_FIELDS if name != "scheme"}
        return own | {"sim_overlap": True, "clock": MODELED}


#: Plan field -> its constructor (``tuple`` for ``tuple[str, ...]``), in
#: declaration order.
PLAN_FIELDS: dict[str, type] = {
    name: get_origin(hint) or hint
    for name, hint in get_type_hints(PlanPoint).items()
}

#: What :meth:`PlanSpace.canonical` resets an unobservable field to where
#: the base config's own value will not do: the base may run fused and
#: lossy while the point does not, and a flat topology has no scarcer tier.
_CANONICAL_RESET = {
    "cross_bw_fraction": 1.0,
    "fuse_lossy": False,
    "bucket_boundaries": (),
}


@dataclass(frozen=True)
class PlanSpace:
    """Choice grid over :class:`PlanPoint`, bound to one base config.

    ``base`` supplies everything a point does not override (cluster
    shape, model, step budget, seeds). The choice tuples bound the
    search; rejection sampling in :meth:`sample` never proposes an
    illegal combination (asserted by ``tests/tuner/test_space.py``).
    The cross-rack bandwidth, priority and bucket-capacity choices are
    the same for every base config.
    """

    base: ExperimentConfig
    schemes: tuple[str, ...]
    topologies: tuple[str, ...] = TOPOLOGIES
    shard_choices: tuple[int, ...] = (2, 4)
    rack_shapes: tuple[tuple[int, int], ...] = ()
    boundary_choices: tuple[tuple[str, ...], ...] = ((),)

    cross_bw_choices = (0.05, 0.1, 0.25, 1.0)
    priority_choices = PRIORITIES
    bucket_choices = (256, 1024, 4096, 16384)

    def __post_init__(self) -> None:
        known = set(available_schemes())
        for scheme in self.schemes:
            if scheme not in known:
                raise ValueError(f"unknown scheme {scheme!r}")
        for topology in self.topologies:
            if topology not in TOPOLOGIES:
                raise ValueError(f"unknown topology {topology!r}")
        if "hier" in self.topologies and not self.rack_shapes:
            raise ValueError(
                "topology 'hier' in the space requires rack_shapes"
            )

    # -- legality ----------------------------------------------------------

    def _config_or_reason(self, point: PlanPoint):
        """``(config, None)`` for a legal point, ``(None, reason)`` otherwise."""
        try:
            config = self.base.scaled(**point.config_overrides())
        except ValueError as error:
            return None, str(error)
        reason = scheme_incompatibility(config, make_compressor(point.scheme, seed=0))
        return (config, None) if reason is None else (None, reason)

    def legal_reason(self, point: PlanPoint) -> str | None:
        """Why the point cannot run, or ``None`` when it is legal.

        The engine's own answer, asked before any training: whatever
        building the point's config raises, else the scheme rule.
        """
        return self._config_or_reason(point)[1]

    # -- canonical form ----------------------------------------------------

    def canonical(self, point: PlanPoint) -> PlanPoint:
        """Reset fields the point's topology/fusion cannot observe.

        Two points differing only in an irrelevant field (shard count on
        a ring, bucket geometry with fusion off) run identically;
        canonicalizing them to one representative dedupes the search and
        maximizes recording reuse in the replay cache.
        """
        return replace(
            point,
            **{
                name: _CANONICAL_RESET.get(name, getattr(self.base, name))
                for name, (selector, value) in OBSERVED_UNDER.items()
                if name in PLAN_FIELDS and getattr(point, selector) != value
            },
        )

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> PlanPoint:
        """One legal canonical point, by rejection sampling."""
        for _ in range(_SAMPLE_ATTEMPTS):
            topology = self.topologies[rng.integers(len(self.topologies))]
            if topology == "hier":
                racks, rack_size = self.rack_shapes[
                    rng.integers(len(self.rack_shapes))
                ]
            else:
                racks, rack_size = self.base.racks, self.base.rack_size
            fuse = bool(rng.integers(2))
            point = PlanPoint(
                scheme=self.schemes[rng.integers(len(self.schemes))],
                topology=topology,
                num_shards=int(
                    self.shard_choices[rng.integers(len(self.shard_choices))]
                ),
                racks=int(racks),
                rack_size=int(rack_size),
                cross_bw_fraction=float(
                    self.cross_bw_choices[
                        rng.integers(len(self.cross_bw_choices))
                    ]
                ),
                transmission_priority=self.priority_choices[
                    rng.integers(len(self.priority_choices))
                ],
                fuse_small_tensors=fuse,
                fuse_lossy=bool(rng.integers(2)) if fuse else False,
                bucket_elements=int(
                    self.bucket_choices[rng.integers(len(self.bucket_choices))]
                ),
                bucket_boundaries=self.boundary_choices[
                    rng.integers(len(self.boundary_choices))
                ],
            )
            point = self.canonical(point)
            if self.legal_reason(point) is None:
                return point
        raise RuntimeError(
            f"no legal plan point found in {_SAMPLE_ATTEMPTS} sampling attempts — "
            "is the space over-constrained?"
        )

    # -- config construction -----------------------------------------------

    def apply(self, point: PlanPoint) -> ExperimentConfig:
        """The point as a runnable simulated-overlap experiment config."""
        config, reason = self._config_or_reason(point)
        if reason is not None:
            raise ValueError(f"illegal plan point: {reason}")
        return config

    def default_point(self, scheme: str) -> PlanPoint:
        """The base config as a plan point (the tuner's comparison anchor)."""
        values = {
            name: getattr(self.base, name) for name in PLAN_FIELDS if name != "scheme"
        }
        values["transmission_priority"] = "registration"
        return self.canonical(PlanPoint(scheme=scheme, **values))

    # -- features ----------------------------------------------------------

    def encode(self, points) -> np.ndarray:
        """Feature matrix for the regression cost model.

        One-hot scheme/topology/priority columns plus scaled numerics; a
        leading constant column gives the ridge model an intercept.
        """
        points = list(points)
        scheme_ix = {s: i for i, s in enumerate(self.schemes)}
        topo_ix = {t: i for i, t in enumerate(self.topologies)}
        rows = np.zeros(
            (len(points), 1 + len(scheme_ix) + len(topo_ix) + 8),
            dtype=np.float64,
        )
        for r, p in enumerate(points):
            rows[r, 0] = 1.0
            rows[r, 1 + scheme_ix[p.scheme]] = 1.0
            rows[r, 1 + len(scheme_ix) + topo_ix[p.topology]] = 1.0
            o = 1 + len(scheme_ix) + len(topo_ix)
            rows[r, o + 0] = p.num_shards / 4.0
            rows[r, o + 1] = p.racks / 4.0
            rows[r, o + 2] = p.rack_size / 4.0
            rows[r, o + 3] = p.cross_bw_fraction
            rows[r, o + 4] = 1.0 if p.transmission_priority == "smallest" else 0.0
            rows[r, o + 5] = 1.0 if p.fuse_small_tensors else 0.0
            rows[r, o + 6] = 1.0 if p.fuse_lossy else 0.0
            rows[r, o + 7] = np.log2(float(p.bucket_elements)) / 16.0
        return rows


def boundary_candidates(config: ExperimentConfig) -> tuple[tuple[str, ...], ...]:
    """Candidate bucket-boundary sets for one model.

    Boundaries only matter for below-threshold (fusable) parameters;
    offer the empty set, a few evenly spaced single-name boundaries, and
    one two-name split so the search can discover whether cutting the
    packing at a layer edge beats pure capacity-driven packing.
    """
    model = config.model_factory()()
    fusable = [
        p.name
        for p in model.parameters()
        if p.size < SMALL_TENSOR_THRESHOLD
    ]
    # The first fusable tensor never makes a useful boundary (the packer
    # starts a fresh bucket there anyway).
    names = fusable[1:]
    if not names:
        return ((),)
    if len(names) > _MAX_BOUNDARY_NAMES:
        idx = np.linspace(0, len(names) - 1, _MAX_BOUNDARY_NAMES).astype(int)
        names = [names[i] for i in dict.fromkeys(idx)]
    candidates: list[tuple[str, ...]] = [()]
    candidates.extend((name,) for name in names)
    if len(names) >= 2:
        candidates.append((names[0], names[-1]))
    return tuple(candidates)


def default_space(base: ExperimentConfig) -> PlanSpace:
    """The standard search space over one base config.

    Rack shapes are every ``racks x rack_size == num_workers`` split into
    at least two racks of at least two workers (the legal hier shapes);
    ``hier`` drops out of the topology choices when no such split exists.
    """
    shapes = tuple(
        (racks, base.num_workers // racks)
        for racks in range(2, base.num_workers // 2 + 1)
        if base.num_workers % racks == 0 and base.num_workers // racks >= 2
    )
    topologies = tuple(t for t in TOPOLOGIES if t != "hier" or shapes)
    shard_choices = tuple(
        s for s in (2, 4) if s <= max(2, base.num_workers)
    )
    return PlanSpace(
        base=base,
        schemes=(
            "32-bit float",
            "8-bit int",
            "3LC (s=1.00)",
            "3LC (s=1.75)",
            "MQE 1-bit int",
            "25% sparsification",
        ),
        topologies=topologies,
        shard_choices=shard_choices or (2,),
        rack_shapes=shapes,
        boundary_choices=boundary_candidates(base),
    )

