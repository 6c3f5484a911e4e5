"""``exchange_matrix``: the bench MLP across six topology x sync-mode cells.

With a 6-tensor MLP the nn share drops to a quarter or less; push
compression, the parameter-server step, ring hops and the engine's own
per-quantum bookkeeping are most of the wall-clock — the workload the
engine/simulator consolidation items must hold. Each cell is one part: a
fresh runner trains ``3LC (s=1.00)`` for the same number of quanta and
replays the recording on the three links.

``base_lr`` is pinned: at the default worker-scaled rate ``ring`` x 8 MLP
workers diverges to a non-finite gradient (README, "foot-guns").
"""

from __future__ import annotations

from repro.harness import results_io
from repro.harness.config import FAST_CONFIG
from repro.harness.runner import ExperimentRunner
from repro.netsim import SweepReplayCache

from perf.bench import Workload, part_seconds, seeded
from perf.metrics import EXCHANGE_CELLS

SCHEME = "3LC (s=1.00)"
_BSP_CELLS = tuple(c for c, kw in EXCHANGE_CELLS.items() if "sync_mode" not in kw)
_HIER_CELLS = tuple(c for c, kw in EXCHANGE_CELLS.items() if kw["topology"] == "hier")


def cell_config(seed: int, steps: int, cell: str):
    return seeded(FAST_CONFIG, seed).scaled(
        model_family="mlp",
        num_workers=8,
        base_lr=0.005,
        standard_steps=steps,
        sim_overlap=True,
        **EXCHANGE_CELLS[cell],
    )


class ExchangeMatrix(Workload):
    NAME = "exchange_matrix"
    PARTS = tuple(EXCHANGE_CELLS)
    CHECKS = (
        "losses-finite",
        "hier-bytes-partition",
        "staleness-accounted",
        "archive-round-trip",
    )
    # The ISSUE sized this at 80 quanta a cell (~9 s a pass); see
    # resnet_sweep for why the pass is shorter here.
    SCALES = {"full": dict(steps=20), "mini": dict(steps=4)}

    def setup(self) -> None:
        self.configs = {
            cell: cell_config(self.seed, self.k["steps"], cell)
            for cell in EXCHANGE_CELLS
        }
        self.warm_up()

    def run_part(self, state, part: str) -> None:
        runner = ExperimentRunner(self.configs[part], SweepReplayCache())
        state[part] = runner.run(SCHEME)

    def end_pass(self, state) -> dict:
        self.last = state
        return {}

    def check(self, c, passes) -> None:
        results = self.last
        steps = self.k["steps"]
        c.losses_finite(results.values())
        for cell in _BSP_CELLS:
            c.golden(
                f"exchange_matrix.ratio.{cell}",
                results[cell].compression_ratio,
                rel_tol=0.01,
            )
        c.expect(
            "hier-bytes-partition",
            all(
                results[cell].traffic.total_intra_rack_bytes
                + results[cell].traffic.total_cross_rack_bytes
                == results[cell].traffic.total_wire_bytes
                for cell in _HIER_CELLS
            ),
            "intra + cross rack bytes != wire bytes",
        )
        event_cells = [c_ for c_ in EXCHANGE_CELLS if c_ not in _BSP_CELLS]
        c.expect(
            "staleness-accounted",
            all(
                sum(results[cell].staleness_distribution.values()) == steps
                for cell in event_cells
            ),
            "staleness histogram does not cover every update",
        )
        # No SSP bound check: SSP bounds a unit's local-step *lead*, which
        # the public RunResult does not carry (it has global versions between
        # pull and commit, bounded only by 21 here — more than a 20-quanta
        # run can reach). tests/exchange pins the lead bound on the engine.
        archive = self.work_dir / "exchange_results.json"
        ordered = [results[cell] for cell in EXCHANGE_CELLS]
        results_io.save_results(ordered, archive)
        c.archive_round_trip(ordered, results_io.load_results(archive))

    def extras(self, part_s, passes) -> dict:
        quanta = len(EXCHANGE_CELLS) * self.k["steps"]
        return {"quanta_per_s": quanta / sum(part_s.values())}

    def layer_metrics(self, untraced, traced) -> dict:
        part_s = part_seconds(untraced)
        steps = self.k["steps"]
        out = {f"exchange.quanta_per_s.{cell}": steps / part_s[cell] for cell in part_s}
        wire = sum(r.traffic.total_wire_bytes for r in self.last.values())
        out["exchange.wire_mb_per_step"] = wire / (len(self.last) * steps) / 1e6
        return out


WORKLOAD = ExchangeMatrix
