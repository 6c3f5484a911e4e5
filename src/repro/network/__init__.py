"""Network substrate: link specs, traffic metering, step-time model.

Geo-distributed (WAN) placement is out of scope: the scarce link modeled
is the cross-rack uplink of ``--topology hier``.
"""

from repro.network.bandwidth import LINKS, LinkSpec, link
from repro.network.timing import StepTimeModel, extrapolate_training_time
from repro.network.traffic import StepTraffic, TrafficMeter

__all__ = [
    "LinkSpec",
    "LINKS",
    "link",
    "StepTraffic",
    "TrafficMeter",
    "StepTimeModel",
    "extrapolate_training_time",
]
