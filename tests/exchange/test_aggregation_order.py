"""BSP numerics are a function of the seed, under the measured clock too.

Under the default ``MEASURED`` clock a BSP barrier orders pushes by each
worker's measured compute seconds, which follow host load. Float addition
is not associative, so a service that summed pushes in that order would
move the model's last bits from run to run. Every synchronous service
therefore reduces in worker-id order (a parameter service sorts the
accepted senders; the ring and the rack rings reduce in rank order), and
two measured runs of one config are byte-identical: model parameters,
loss and eval curves, and every traffic integer.

Arrival still decides *who* enters aggregation: under a backup-worker
barrier the straggler's push is dropped, whatever its id.

Async and SSP runs are exempt: their updates apply one unit at a time in
the order of the units' virtual clocks, and that order is the model under
test (a ``MODELED`` clock makes it a function of the seed).
"""

from dataclasses import fields, replace

import pytest

from repro.compression import make_compressor
from repro.distributed.barriers import StragglerSpec
from repro.exchange import MEASURED, ExchangeEngine
from repro.harness.config import FAST_CONFIG
from repro.network.traffic import StepTraffic

STEPS = 4
INT_FIELDS = tuple(f.name for f in fields(StepTraffic) if f.type == "int")

CELLS = {
    "single": dict(topology="single"),
    "sharded": dict(topology="sharded", num_shards=2),
    "hier": dict(topology="hier", racks=2, rack_size=2),
    "ring": dict(topology="ring"),
}

#: One worker is a 1000x straggler at each of the four steps: 1, 0, 2, 3.
STRAGGLER = StragglerSpec(
    jitter_sigma=0.0, slowdown_probability=0.25, slowdown_factor=1000.0, seed=110
)


def build(**overrides) -> ExchangeEngine:
    """A measured BSP engine on the bench MLP at 4 workers."""
    config = FAST_CONFIG.scaled(model_family="mlp", num_workers=4, **overrides)
    return ExchangeEngine(
        config.model_factory(),
        config.dataset(),
        make_compressor("3LC (s=1.00)", seed=config.scheme_seed),
        config.schedule(STEPS),
        replace(config.engine_config(), clock=MEASURED),
    )


def outcome(engine) -> dict:
    """Train; everything the run leaves that must not follow wall-clock
    noise."""
    evals = engine.train(STEPS, eval_every=2, test_size=64)
    return {
        "params": {
            name: value.tobytes() for name, value in engine.service.state_dict().items()
        },
        "losses": [log.train_loss for log in engine.step_logs],
        "evals": [(e.step, e.test_accuracy, e.test_loss) for e in evals],
        "traffic": [
            [getattr(step, name) for name in INT_FIELDS] for step in engine.traffic.steps
        ],
    }


@pytest.mark.parametrize("cell", CELLS)
def test_two_measured_runs_are_byte_identical(cell):
    first, second = (outcome(build(**CELLS[cell])) for _ in range(2))
    assert len(first["losses"]) == STEPS and len(first["evals"]) == 2
    for key in first:
        assert first[key] == second[key], f"{cell}: {key} differ"


def test_a_backup_barrier_still_drops_the_latest_arrival():
    """Each step's straggler is dropped — workers 1, 0, 2 and 3, so not by
    id — and two measured runs are still byte-identical."""
    runs = []
    for _ in range(2):
        engine = build(topology="single", backup_workers=1, straggler=STRAGGLER)
        decide, dropped = engine.barrier.decide, []

        def spied(arrivals):
            decision = decide(arrivals)
            dropped.append(decision.dropped)
            return decision

        engine.barrier.decide = spied
        runs.append(outcome(engine))
        assert dropped == [(1,), (0,), (2,), (3,)]
        assert [step.dropped_pushes for step in engine.traffic.steps] == [1] * STEPS
    assert runs[0] == runs[1]
