"""``resnet_sweep``: the Table-1 journey, the way ``repro-3lc table1`` runs it.

One pass = a fresh runner and replay cache, the three schemes trained on
the ResNet config with simulated per-layer overlap, Table 1 assembled from
them, four sim-only re-points (priority / cross-bw / RTT / time model)
that must be served from the cache, and the results archive written and
read back. Conv forward/backward and evaluation are nearly all of it: the
workload where only an ``nn`` change moves ``wall_s``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.harness import results_io, tables
from repro.harness.config import DEFAULT_CONFIG, FAST_CONFIG
from repro.harness.runner import ExperimentRunner
from repro.netsim import SweepReplayCache

from perf.bench import Workload, seeded

SCHEMES = ("32-bit float", "3LC (s=1.00)", "3LC (s=1.75)")
_PART_OF = {"run_f32": SCHEMES[0], "run_3lc100": SCHEMES[1], "run_3lc175": SCHEMES[2]}


class ResnetSweep(Workload):
    NAME = "resnet_sweep"
    PARTS = ("init", "run_f32", "run_3lc100", "run_3lc175", "table", "repoint", "archive")
    CHECKS = (
        "losses-finite",
        "float32-ratio",
        "table-rows",
        "repoints-from-cache",
        "repoints-same-training",
        "archive-round-trip",
    )
    # The ISSUE sized this at 12 steps / 500 eval images (~10 s a pass);
    # the driver's time cap needs several passes inside ~10 s, so the
    # step and evaluation budgets shrink and the model stays the same.
    SCALES = {
        "full": dict(base=DEFAULT_CONFIG, steps=6, eval_size=200, f32_floor=0.98),
        # (frame headers weigh more on the miniature model's tiny tensors)
        "mini": dict(base=FAST_CONFIG, steps=4, eval_size=16, f32_floor=0.90),
    }

    def setup(self) -> None:
        self.config = seeded(self.k["base"], self.seed).scaled(
            standard_steps=self.k["steps"],
            eval_points=2,
            eval_size=self.k["eval_size"],
            sim_overlap=True,
        )
        self.repoints = (
            self.config.scaled(transmission_priority="smallest"),
            self.config.scaled(cross_bw_fraction=0.25),
            self.config.scaled(cross_rtt_seconds=1e-3),
            self.config.scaled(
                time_model=replace(self.config.time_model, per_message_overhead=50e-6)
            ),
        )
        self.warm_up()

    def run_part(self, state, part: str) -> None:
        if part in _PART_OF:
            state["results"].append(state["runner"].run(_PART_OF[part]))
        else:
            getattr(self, part)(state)

    def new_pass(self):
        return {"results": [], "archive": self.work_dir / "resnet_results.json"}

    def init(self, state) -> None:
        state["cache"] = SweepReplayCache()
        state["runner"] = ExperimentRunner(self.config, state["cache"])

    def table(self, state) -> None:
        state["rows"], state["text"] = tables.table1(state["runner"], SCHEMES)

    def repoint(self, state) -> None:
        state["repointed"] = [
            ExperimentRunner(config, state["cache"]).run(scheme)
            for config in self.repoints
            for scheme in SCHEMES
        ]

    def archive(self, state) -> None:
        results_io.save_results(state["results"], state["archive"])
        state["loaded"] = results_io.load_results(state["archive"])

    def end_pass(self, state) -> dict:
        self.last = state
        return {}

    def operations(self) -> int:
        # 3 training runs + table + 12 re-pointed runs + save + load
        return len(SCHEMES) + 1 + len(self.repoints) * len(SCHEMES) + 2

    def check(self, c, passes) -> None:
        state = self.last
        results = {r.scheme: r for r in state["results"]}
        c.losses_finite(results.values())
        ratio = results[SCHEMES[0]].compression_ratio
        c.expect(
            "float32-ratio",
            self.k["f32_floor"] <= ratio <= 1.0,
            f"float32 ratio {ratio!r}",
        )
        # Four workers: the barrier orders pushes by measured wall time, so
        # the ratio repeats to rounding, not bit for bit.
        c.golden(
            "resnet_sweep.ratio.3lc100",
            results[SCHEMES[1]].compression_ratio,
            rel_tol=0.01,
        )
        c.expect("table-rows", len(state["rows"]) == len(SCHEMES), state["text"])
        stats = state["cache"].stats()
        want = len(self.repoints) * len(SCHEMES)
        c.expect(
            "repoints-from-cache",
            stats["recording_misses"] == len(SCHEMES)
            and stats["recording_hits"] == want,
            f"replay cache {stats}",
        )
        c.expect(
            "repoints-same-training",
            all(
                r.loss_curve == results[r.scheme].loss_curve
                and r.compression_ratio == results[r.scheme].compression_ratio
                for r in state["repointed"]
            ),
            "a sim-only re-point changed training outputs",
        )
        c.archive_round_trip(state["results"], state["loaded"])

    def extras(self, part_s, passes) -> dict:
        return {"steps_per_s": len(SCHEMES) * self.k["steps"] / sum(part_s.values())}


WORKLOAD = ResnetSweep
