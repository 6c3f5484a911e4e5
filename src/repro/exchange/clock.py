"""The clock policy: are recorded seconds measured or modeled?

The engine, the parameter services and the backward profiler all time
real work with ``time.perf_counter``. Those readings are what the paper's
Table 1 needs (3LC's point is low computation overhead) and what nothing
compared, cached across processes or pinned can use: they differ run to
run. A :class:`Clock` is consulted at the few places where a measurement
becomes a *record* — the compute seconds behind virtual clocks and
barrier arrivals, a quantum's codec seconds, the backward timeline — and
either passes the measurement through (:data:`MEASURED`, the default) or
replaces it with a function of the seed (:data:`MODELED`):

* compute is ``compute_seconds`` per batch (the engine still applies the
  straggler multiplier on top);
* every codec field is :data:`CODEC_RATE` × the elements the quantum
  recorded on that field's side of the wire — push and collective records
  for the sender's encode and the receiver's decode of the push, pull
  records for the encode and decode of the pull;
* a backward layer takes :data:`LAYER_FLOOR` ``+`` :data:`LAYER_RATE` ``×
  its parameters' elements`` over the layer structure one profiling pass
  observed, so larger layers take longer and ready fractions stay
  non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.stats import BackwardTimeline, LayerTiming

__all__ = ["Clock", "MEASURED", "MODELED", "CODEC_RATE", "modeled_timeline"]

#: Modeled codec cost: seconds per element, each of encode and decode.
CODEC_RATE = 5e-9
#: Modeled backward layer: a floor plus a per-element rate.
LAYER_FLOOR = 1e-6
LAYER_RATE = 1e-9


@dataclass(frozen=True)
class Clock:
    """Where recorded seconds come from (hashable: part of cache keys)."""

    #: Modeled compute seconds per batch; ``None`` measures everything.
    compute_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.compute_seconds is not None and self.compute_seconds <= 0:
            raise ValueError(
                f"clock compute_seconds must be > 0 or None (measured), "
                f"got {self.compute_seconds!r}"
            )

    @property
    def modeled(self) -> bool:
        return self.compute_seconds is not None

    @property
    def name(self) -> str:
        return "modeled" if self.modeled else "measured"


def modeled_timeline(profiled: BackwardTimeline, sizes: dict[str, int]):
    """The layer structure of a profiled timeline (labels, parameter
    ownership, backward order — deterministic) with every duration modeled
    from the layer's parameter elements."""
    return BackwardTimeline(
        tuple(
            LayerTiming(
                layer.label,
                LAYER_FLOOR + LAYER_RATE * sum(sizes.get(n, 0) for n in layer.params),
                layer.params,
            )
            for layer in profiled.layers
        )
    )


MEASURED = Clock()
MODELED = Clock(compute_seconds=0.05)
