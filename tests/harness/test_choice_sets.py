"""One tuple per choice set.

Every surface that takes an exchange topology or a transmission priority
reads :data:`repro.exchange.TOPOLOGIES` / :data:`repro.netsim.PRIORITIES`:
it accepts each name in the tuple, and its refusal names exactly those.
"""

import pytest

from repro.exchange import TOPOLOGIES, EngineConfig
from repro.harness.cli import parse_config
from repro.harness.config import FAST_CONFIG, ExperimentConfig
from repro.netsim import PRIORITIES, NetworkSimulator, link_model_for
from repro.netsim.links import LinkModel
from repro.network.bandwidth import link
from repro.nn.stats import BackwardTimeline, LayerTiming
from repro.tuner.space import PlanSpace

LINK = link("100Mbps")
TIMELINE = BackwardTimeline((LayerTiming("layer0", 1.0, ("p0",)),))
HIER_FLAGS = ["--workers", "4", "--racks", "2", "--rack-size", "2"]


def space(**overrides) -> PlanSpace:
    return PlanSpace(
        FAST_CONFIG, schemes=("3LC (s=1.00)",), rack_shapes=((2, 2),), **overrides
    )


def test_the_choice_sets():
    assert TOPOLOGIES == ("single", "sharded", "ring", "hier")
    assert PRIORITIES == ("registration", "smallest")
    assert space().topologies == TOPOLOGIES
    assert PlanSpace.priority_choices == PRIORITIES


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_every_surface_takes_each_topology(topology):
    flags = HIER_FLAGS if topology == "hier" else []
    _, config, _ = parse_config(["table1", "--fast", "--topology", topology, *flags])
    assert config.topology == config.engine_config().topology == topology
    assert isinstance(link_model_for(topology, LINK), LinkModel)
    assert space(topologies=(topology,)).topologies == (topology,)


@pytest.mark.parametrize("priority", PRIORITIES)
def test_every_surface_takes_each_priority(priority):
    argv = ["table1", "--fast", "--sim-overlap", "--priority", priority]
    _, config, _ = parse_config(argv)
    assert config.transmission_priority == priority
    simulator = NetworkSimulator(
        TIMELINE, link_model_for("single", LINK), priority=priority
    )
    assert simulator.priority == priority


def _engine_config(name):
    EngineConfig(topology=name)


def _link_model(name):
    link_model_for(name, LINK)


def _plan_space(name):
    space(topologies=(name,))


def _simulator(name):
    NetworkSimulator(TIMELINE, link_model_for("single", LINK), priority=name)


def _experiment_config(name):
    ExperimentConfig(transmission_priority=name)


@pytest.mark.parametrize(
    "refuse, message",
    [
        (
            _engine_config,
            "unknown topology 'mesh'; expected one of "
            "('single', 'sharded', 'ring', 'hier')",
        ),
        (
            _link_model,
            "unknown topology 'mesh'; expected 'single', 'sharded', 'ring', "
            "or 'hier'",
        ),
        (_plan_space, "unknown topology 'mesh'"),
        (
            _simulator,
            "unknown transmission priority 'mesh'; expected 'registration' "
            "or 'smallest'",
        ),
        (
            _experiment_config,
            "unknown transmission_priority 'mesh'; expected 'registration' "
            "or 'smallest'",
        ),
    ],
    ids=["engine-config", "link-model", "plan-space", "simulator", "experiment-config"],
)
def test_a_refusal_keeps_its_message(refuse, message):
    with pytest.raises(ValueError) as raised:
        refuse("mesh")
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "flag, names",
    [("--topology", TOPOLOGIES), ("--priority", PRIORITIES)],
    ids=["topology", "priority"],
)
def test_the_cli_offers_exactly_the_choice_set(flag, names, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse_config(["table1", "--fast", "--sim-overlap", flag, "mesh"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    offered = err[err.index("choose from") :]
    assert all(repr(name) in offered or name in offered for name in names)
    assert offered.count(",") == len(names) - 1
