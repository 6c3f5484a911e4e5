"""``plan_search``: the cost-model plan tuner on the MLP hier config.

Uses the engine and the simulator differently from every other workload:
about twenty short recordings (engine construction and first-touch
extraction paid each time, replay-cache keys exercised) and three times as
many four-worker replays. ROADMAP's "recordings dominate tuner wall-clock"
becomes a measured share here.

``--seed`` is deliberately ignored: every seed field and the tuner's
sampling seed are pinned. The candidate sequence — and with it how many of
the 24 evaluations are recordings (18-24) and how many of those are slow
ring recordings — is a function of the sampling seed and, through the
labels the cost model learns from, of the data seeds. With only the data
seeds varied, ``wall_s`` read 1.9-3.4 s over ten seeds (quartile spread
20 %): a different amount of work on every seed, not a measurement of it.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

from repro.harness import results_io
from repro.harness.config import FAST_CONFIG
from repro.tuner import artifact, search
from repro.tuner.evaluator import PlanEvaluator
from repro.tuner.space import default_space

from perf.bench import Workload, part_seconds, seeded

LINK = "10Mbps"
PINNED_SEED = 0


class PlanSearch(Workload):
    NAME = "plan_search"
    PARTS = ("tune", "artifact_io")
    CHECKS = (
        "evaluations-equal-budget",
        "improvement",
        "artifact-round-trip",
        "best-plan-repeats",
    )
    # The ISSUE sized this at budget 40 on the 24-step config (~9 s a
    # pass); see resnet_sweep for why the pass is shorter here.
    # Six evaluations cannot be asked to beat the default plan.
    SCALES = {
        "full": dict(budget=24, steps=8, min_improvement=0.10),
        "mini": dict(budget=6, steps=4, min_improvement=0.0),
    }

    def setup(self) -> None:
        self.config = seeded(FAST_CONFIG, PINNED_SEED).scaled(
            model_family="mlp",
            num_workers=4,
            topology="hier",
            racks=2,
            rack_size=2,
            cross_bw_fraction=0.1,
            standard_steps=self.k["steps"],
        )
        self.warm_up()

    def new_pass(self):
        return {"plan_path": self.work_dir / "plan.json"}

    def tune(self, state) -> None:
        space = default_space(self.config)
        evaluator = PlanEvaluator(space, link=LINK)
        state["space"], state["evaluator"] = space, evaluator
        state["result"] = search.tune(
            space,
            evaluator,
            strategy="model",
            budget=self.k["budget"],
            seed=PINNED_SEED,
        )

    def artifact_io(self, state) -> None:
        state["plan"] = artifact.plan_to_dict(state["result"], state["space"], link=LINK)
        results_io.save_plan(state["plan_path"], state["plan"])
        state["loaded"] = results_io.load_plan(state["plan_path"])

    def end_pass(self, state) -> dict:
        self.last = state
        result = state["result"]
        return {
            "cache": state["evaluator"].cache.stats(),
            "best": (result.best.point.as_dict(), result.best.step_seconds),
        }

    def operations(self) -> int:
        return self.k["budget"] + 3  # evaluations + to_dict, save, load

    def check(self, c, passes) -> None:
        state = self.last
        result = state["result"]
        c.expect(
            "evaluations-equal-budget",
            result.evaluations == self.k["budget"],
            f"{result.evaluations} evaluations, budget {self.k['budget']}",
        )
        c.expect(
            "improvement",
            result.improvement >= self.k["min_improvement"],
            f"best plan improves {result.improvement:.3f} over the default, "
            f"wanted {self.k['min_improvement']}",
        )
        c.expect(
            "artifact-round-trip",
            state["loaded"] == state["plan"],
            "plan artifact did not round-trip",
        )
        best = passes[0].info["best"]
        c.expect(
            "best-plan-repeats",
            all(record.info["best"] == best for record in passes),
            "same-seed searches in one process found different plans",
        )
        c.golden("plan_search.best_plan", best[0])
        c.golden("plan_search.best_step_seconds", best[1])

    def extras(self, part_s, passes) -> dict:
        return {"evals_per_s": self.k["budget"] / sum(part_s.values())}

    def layer_metrics(self, untraced, traced) -> dict:
        part_s = part_seconds(untraced)
        stats = untraced[0].info["cache"]

        def ratio(level: str) -> float:
            hits, misses = stats[f"{level}_hits"], stats[f"{level}_misses"]
            return hits / (hits + misses) if hits + misses else 0.0

        # One more point on a recording the search already holds: the
        # default plan (hier, so the knob matters) at another cross-rack
        # bandwidth — a recording hit and three fresh simulations.
        state = self.last
        default = state["result"].default.point
        other = next(
            f for f in state["space"].cross_bw_choices if f != default.cross_bw_fraction
        )
        point = state["space"].canonical(replace(default, cross_bw_fraction=other))
        start = perf_counter()
        state["evaluator"].evaluate(point)
        warm_point_s = perf_counter() - start
        return {
            "tuner.evals_per_s": self.k["budget"] / sum(part_s.values()),
            "tuner.recordings": float(stats["recording_misses"]),
            "tuner.recordings_per_s": stats["recording_misses"] / part_s["tune"],
            "tuner.sim_replays": float(stats["simulation_misses"]),
            "netsim.replay.recording_hit_ratio": ratio("recording"),
            "netsim.replay.simulation_hit_ratio": ratio("simulation"),
            "netsim.replay.extraction_hit_ratio": ratio("extraction"),
            "netsim.replay.warm_point_s": warm_point_s,
        }


WORKLOAD = PlanSearch
