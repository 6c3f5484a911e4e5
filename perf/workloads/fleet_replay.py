"""``fleet_replay``: synthesized hier fleet recordings through the simulator.

No training. The **fresh** part replays recordings no simulator has seen
(unpickled before each pass, untimed) on the three ``LINKS`` — one cold
replay that pays first-touch extraction and two warm ones, the Table-1
regime. The **sweep** parts replay one small (32-worker) and one large
(512-worker) recording, already warm, under a grid of sim-only configs
(link rate x cross-rack bandwidth x RTT x transmission priority); the
``smallest`` priority falls back to per-step replay, so a batching gain
that costs the fallback shows. Both ends of the vector core's scaling
curve and both cache states are in one workload.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import pickle
from time import perf_counter

from repro.netsim import NetworkSimulator, link_model_for
from repro.network.bandwidth import LINKS, LinkSpec

from perf import fleet
from perf.bench import Workload, part_seconds

_PRIORITIES = ("registration", "smallest")


def _grid(k: dict):
    rates = [LinkSpec(f"{rate:g}bps", rate) for rate in k["rates"]]
    return list(itertools.product(rates, k["cross_bw"], k["rtts"], _PRIORITIES))


class FleetReplay(Workload):
    NAME = "fleet_replay"
    PARTS = ("fresh", "sweep_small", "sweep_large")
    CHECKS = (
        "scalar-parity",
        "fresh-equals-warm",
        "simulated-seconds-repeat",
    )
    # The ISSUE sized this at 32 fresh recordings and a 96-config grid per
    # recording; see resnet_sweep for why the pass is shorter here. The
    # recording shapes are the ISSUE's, but for the large one's 60 steps.
    SCALES = {
        "full": dict(
            fresh=dict(workers=256, racks=16, steps=100),
            fresh_count=10,
            small=dict(workers=32, racks=4, steps=200),
            large=dict(workers=512, racks=32, steps=60),
            rates=(1e7, 1e8, 1e9),
            cross_bw=(0.05, 1.0),
            rtts=(0.0, 1e-3),
        ),
        "mini": dict(
            fresh=dict(workers=16, racks=4, steps=6),
            fresh_count=2,
            small=dict(workers=8, racks=2, steps=6),
            large=dict(workers=32, racks=4, steps=6),
            rates=(1e7, 1e9),
            cross_bw=(0.1,),
            rtts=(0.0,),
        ),
    }

    def setup(self) -> None:
        k = self.k
        self.timeline = fleet.fleet_timeline(self.seed)
        fresh = fleet.synthesize_fleet_run(**k["fresh"], seed=self.seed)
        self.fresh_blob = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        self.fresh_events = fleet.event_count(fresh)
        self.sweep = {
            "small": fleet.synthesize_fleet_run(**k["small"], seed=self.seed + 1),
            "large": fleet.synthesize_fleet_run(**k["large"], seed=self.seed + 2),
        }
        self.grid = _grid(k)
        # The sweep measures the warm regime: touch each recording once.
        for size, plans in self.sweep.items():
            self._simulator(k[size], LINKS["1Gbps"], 0.1, 0.0, "registration").simulate_run(plans)

    def _simulator(self, shape, link, cross_bw, rtt, priority, *, vectorized=True):
        links = link_model_for(
            "hier",
            link,
            racks=shape["racks"],
            rack_size=shape["workers"] // shape["racks"],
            cross_bw_fraction=cross_bw,
            cross_rtt_seconds=rtt,
        )
        return NetworkSimulator(
            self.timeline,
            links,
            fleet.TIME_MODEL,
            overlap=True,
            serialized_baseline=False,
            vectorized=vectorized,
            priority=priority,
        )

    def new_pass(self):
        # pickle.loads builds brand-new step objects, so nothing the
        # simulator caches on them survives from an earlier pass. Only
        # bytes this process wrote are unpickled.
        # (The collector is paused: walking 30 k new records per recording
        # through every generation triples the load time for nothing.)
        gc.disable()
        try:
            recordings = [
                pickle.loads(self.fresh_blob) for _ in range(self.k["fresh_count"])
            ]
        finally:
            gc.enable()
        gc.collect()
        return {"recordings": recordings, "digest": hashlib.sha256(), "info": {}}

    def fresh(self, state) -> None:
        cold = warm = 0.0
        runs = []
        for plans in state["recordings"]:
            for index, link in enumerate(LINKS.values()):
                simulator = self._simulator(
                    self.k["fresh"], link, 0.1, 0.0, "registration"
                )
                start = perf_counter()
                runs.append(simulator.simulate_run(plans))
                seconds = perf_counter() - start
                if index == 0:
                    cold += seconds
                else:
                    warm += seconds
        state["runs"] = runs
        state["info"].update(cold_s=cold, warm_s=warm)

    def _sweep(self, state, size: str) -> None:
        by_priority = dict.fromkeys(_PRIORITIES, 0.0)
        runs = []
        plans = self.sweep[size]
        for link, cross_bw, rtt, priority in self.grid:
            simulator = self._simulator(self.k[size], link, cross_bw, rtt, priority)
            start = perf_counter()
            runs.append(simulator.simulate_run(plans))
            by_priority[priority] += perf_counter() - start
        state["runs"] = runs
        state["info"][size] = by_priority

    def sweep_small(self, state) -> None:
        self._sweep(state, "small")

    def sweep_large(self, state) -> None:
        self._sweep(state, "large")

    def after_part(self, state, part: str) -> None:
        for run in state.pop("runs"):
            state["digest"].update(
                repr([step.step_seconds for step in run.steps]).encode()
            )

    def end_pass(self, state) -> dict:
        state["info"]["digest"] = state["digest"].hexdigest()
        return state["info"]

    def operations(self) -> int:
        return self.k["fresh_count"] * len(LINKS) + 2 * len(self.grid)

    def _events(self) -> dict[str, int]:
        return {
            "fresh": self.k["fresh_count"] * len(LINKS) * self.fresh_events,
            "small": len(self.grid) * fleet.event_count(self.sweep["small"]),
            "large": len(self.grid) * fleet.event_count(self.sweep["large"]),
        }

    def check(self, c, passes) -> None:
        parity = True
        for size in ("small", "large"):
            head = self.sweep[size][:4]
            args = (self.k[size], LINKS["100Mbps"], 0.1, 1e-4, "registration")
            vector = self._simulator(*args).simulate_run(head)
            scalar = self._simulator(*args, vectorized=False).simulate_run(head)
            parity = parity and all(
                math.isclose(a.step_seconds, b.step_seconds, rel_tol=1e-9)
                for a, b in zip(vector.steps, scalar.steps)
            )
        c.expect("scalar-parity", parity, "vector and scalar cores disagree beyond 1e-9")
        plans = pickle.loads(self.fresh_blob)
        args = (self.k["fresh"], LINKS["10Mbps"], 0.1, 0.0, "registration")
        first = self._simulator(*args).simulate_run(plans)
        again = self._simulator(*args).simulate_run(plans)
        c.expect(
            "fresh-equals-warm",
            [s.step_seconds for s in first.steps] == [s.step_seconds for s in again.steps],
            "a cold and a warm replay of one recording differ",
        )
        digests = {record.info["digest"] for record in passes}
        c.expect(
            "simulated-seconds-repeat",
            len(digests) == 1,
            f"simulated seconds differ between passes: {sorted(digests)}",
        )
        c.golden("fleet_replay.step_seconds_sha256", passes[0].info["digest"])

    def extras(self, part_s, passes) -> dict:
        return {
            "fresh_replay_s": part_s["fresh"],
            "events_per_s": sum(self._events().values()) / sum(part_s.values()),
        }

    def layer_metrics(self, untraced, traced) -> dict:
        part_s = part_seconds(untraced)
        events = self._events()

        def best(fn):
            return min(fn(record.info) for record in untraced)

        cold = best(lambda info: info["cold_s"]) / self.k["fresh_count"]
        warm = best(lambda info: info["warm_s"]) / (
            self.k["fresh_count"] * (len(LINKS) - 1)
        )
        per_priority = len(self.grid) // len(_PRIORITIES)
        return {
            "netsim.fresh_replay_s": part_s["fresh"],
            "netsim.cold_warm_ratio": cold / warm,
            "netsim.sweep_events_per_s.small": events["small"] / part_s["sweep_small"],
            "netsim.sweep_events_per_s.large": events["large"] / part_s["sweep_large"],
            "netsim.replay_ms.registration": 1e3
            * best(lambda info: info["small"]["registration"])
            / per_priority,
            "netsim.replay_ms.smallest": 1e3
            * best(lambda info: info["small"]["smallest"])
            / per_priority,
            "netsim.events": float(sum(events.values())),
        }


WORKLOAD = FleetReplay
