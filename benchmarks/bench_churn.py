#!/usr/bin/env python
"""Accuracy and step time under churn: crashes, restarts, uplink flaps.

3LC moves every deferred update into per-tensor error-feedback buffers,
so a worker's residuals ARE training state: lose them on a crash and the
restarted worker silently corrupts convergence. This benchmark measures
that claim. A fixed-seed cluster trains under increasing churn (worker
crash/restart events on the parameter-server topologies, rack uplink
flaps on the hierarchical one) twice per level — once with checkpointed
error-feedback recovery, once with the naive state-reset rejoin — and
reports accuracy-vs-churn and time-vs-churn tables, with step times from
the discrete-event network simulator replaying the recorded faulted
transmission plans (rejoin resync transfers, link-down floors and all).

Asserted, not just printed: at the heaviest churn level the checkpointed
rejoin lands within one accuracy point of the fault-free run while the
naive rejoin measurably does not; the scalar and vectorized simulator
cores agree on every churn step time to 1e-6; the event-driven core
agrees with the step scheduler on the faulted streams; and the churn
fields (``fault_summary``, resync bytes) survive a results_io round
trip while a legacy archive without them still loads.

Run:  python benchmarks/bench_churn.py [--smoke] [--steps N]
(also collectable by pytest: ``pytest benchmarks/bench_churn.py``)
"""

import argparse
import sys

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange import EngineConfig, ExchangeEngine
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    link_model_for,
    updates_from_bsp_steps,
)
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.utils.format import format_table

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)
SCHEME = "3LC (s=1.00)"
CORE_PARITY = 1e-6

#: Crash ladder for the accuracy-vs-churn sweep: level N injects the
#: first N events. Long outages on a short run make the naive rejoin's
#: corruption (zeroed residuals + a stale replica that never resyncs)
#: visible above evaluation noise.
CRASH_LADDER = (
    WorkerCrash(worker=1, step=10, down_steps=12),
    WorkerCrash(worker=2, step=25, down_steps=12),
    WorkerCrash(worker=3, step=40, down_steps=12),
    WorkerCrash(worker=1, step=55, down_steps=12),
)
FLAP_LADDER = (
    UplinkFlap(rack=1, step=10, down_steps=6, rejoin_delay_seconds=0.2),
    UplinkFlap(rack=0, step=25, down_steps=6, rejoin_delay_seconds=0.2),
)


def train_engine(
    topology: str,
    fault: FaultSpec | None,
    *,
    steps: int,
    depth: int,
    base_width: int,
    eval_size: int,
):
    """Train one fixed-seed engine under ``fault``; returns
    ``(engine, final_accuracy, dataset)`` with transmissions recorded."""
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    config = dict(
        num_workers=4,
        batch_size=8,
        shard_size=64,
        seed=0,
        topology=topology,
        fault=fault,
        record_transmissions=True,
    )
    if fault is not None and fault.crashes:
        # The ladder re-crashes workers; keep every event a restart.
        config["fault"] = FaultSpec(
            crashes=fault.crashes,
            flaps=fault.flaps,
            max_restarts=len(fault.crashes) + 1,
            checkpoint_state=fault.checkpoint_state,
        )
    if topology == "hier":
        config.update(racks=2, rack_size=2)
    engine = ExchangeEngine(
        lambda: build_resnet(depth, base_width=base_width, seed=1),
        dataset,
        make_compressor(SCHEME, seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**config),
    )
    engine.train(steps)
    accuracy = engine.evaluate(test_size=eval_size).test_accuracy
    return engine, accuracy, dataset


def replay_step_seconds(
    engine, timeline, topology: str, link_name: str
) -> float:
    """Replay the recorded (possibly faulted) plan through both simulator
    cores; asserts they agree per step to ``CORE_PARITY`` seconds and
    returns the vectorized mean step seconds."""
    kwargs = {"racks": 2, "rack_size": 2} if topology == "hier" else {}
    lm = link_model_for(topology, link(link_name), num_workers=4, **kwargs)
    runs = {}
    for vectorized in (False, True):
        runs[vectorized] = NetworkSimulator(
            timeline,
            lm,
            TIME_MODEL,
            overlap=True,
            serialized_baseline=False,
            vectorized=vectorized,
        ).simulate_run(engine.transmissions)
    scalar, vector = runs[False], runs[True]
    for a, b in zip(scalar.steps, vector.steps):
        assert abs(a.step_seconds - b.step_seconds) <= CORE_PARITY, (
            f"scalar/vectorized cores disagree on churn step {a.step}: "
            f"{a.step_seconds} vs {b.step_seconds} ({topology} @ {link_name})"
        )
    # Third opinion: the event-driven core must schedule the same faulted
    # stream (link-down floors, resync records) to the same total. The
    # hierarchical BSP fold is out of scope — ``updates_from_bsp_steps``
    # models flat parameter-server streams only.
    if topology != "hier":
        serialized = NetworkSimulator(
            timeline, lm, TIME_MODEL, overlap=False, serialized_baseline=False
        ).simulate_run(engine.transmissions)
        exchange = EventDrivenSimulator(
            timeline, lm, TIME_MODEL, staleness=0, overlap=False
        ).simulate(updates_from_bsp_steps(engine.transmissions, 4))
        assert (
            abs(exchange.total_seconds - serialized.total_seconds)
            <= CORE_PARITY
        ), (
            f"event-driven core disagrees with the step scheduler on the "
            f"faulted stream: {exchange.total_seconds} vs "
            f"{serialized.total_seconds} ({topology} @ {link_name})"
        )
    return vector.mean_step_seconds


def churn_tables(
    *,
    steps: int,
    depth: int,
    base_width: int,
    eval_size: int,
    link_name: str,
    assert_bounds: bool,
) -> str:
    """Accuracy-vs-churn and time-vs-churn on the single-server topology."""
    scale = steps / 80.0
    base_engine, base_acc, dataset = train_engine(
        "single", None, steps=steps, depth=depth,
        base_width=base_width, eval_size=eval_size,
    )
    timeline = profile_backward(
        build_resnet(depth, base_width=base_width, seed=1),
        *dataset.train_shard(0, 8),
    )
    base_seconds = replay_step_seconds(base_engine, timeline, "single", link_name)

    rows = []
    diffs = {}
    for level in range(1, len(CRASH_LADDER) + 1):
        crashes = tuple(
            WorkerCrash(
                worker=c.worker,
                step=max(1, round(c.step * scale)),
                down_steps=max(1, round(c.down_steps * scale)),
            )
            for c in CRASH_LADDER[:level]
        )
        accs, seconds, resync = {}, {}, 0
        for checkpointed in (True, False):
            fault = FaultSpec(crashes=crashes, checkpoint_state=checkpointed)
            engine, acc, _ = train_engine(
                "single", fault, steps=steps, depth=depth,
                base_width=base_width, eval_size=eval_size,
            )
            accs[checkpointed] = acc
            seconds[checkpointed] = replay_step_seconds(
                engine, timeline, "single", link_name
            )
            if checkpointed:
                summary = engine.fault_summary()
                assert summary["crashes"] == level and summary["restarts"] >= 1
                assert summary["resync_bytes"] > 0, (
                    "checkpointed rejoin must pay a full-model resync"
                )
                resync = summary["resync_bytes"]
        diffs[level] = {
            ck: abs(accs[ck] - base_acc) for ck in (True, False)
        }
        rows.append(
            [
                str(level),
                f"{100 * accs[True]:.2f}%",
                f"{100 * accs[False]:.2f}%",
                f"{100 * diffs[level][True]:+.2f}pp",
                f"{100 * diffs[level][False]:+.2f}pp",
                f"{resync / 1e3:.1f} kB",
                f"{1e3 * seconds[True]:.2f} ms",
            ]
        )
    if assert_bounds:
        # The acceptance bar: checkpointed error-feedback rejoin stays
        # within one accuracy point of the fault-free run at the heaviest
        # churn level; the naive state-reset rejoin does not.
        heaviest = diffs[len(CRASH_LADDER)]
        assert heaviest[True] <= 0.01, (
            f"checkpointed rejoin drifted {100 * heaviest[True]:.2f}pp "
            f"from the fault-free accuracy (bound: 1.00pp)"
        )
        assert heaviest[False] > heaviest[True], (
            f"naive state-reset rejoin ({100 * heaviest[False]:.2f}pp) "
            "should corrupt convergence measurably more than the "
            f"checkpointed rejoin ({100 * heaviest[True]:.2f}pp)"
        )
        assert heaviest[False] > 0.01, (
            f"naive rejoin drifted only {100 * heaviest[False]:.2f}pp; "
            "expected > 1pp at the heaviest churn level"
        )
    header = (
        f"fault-free: {100 * base_acc:.2f}% accuracy, "
        f"{1e3 * base_seconds:.2f} ms/step @ {link_name}"
    )
    table = format_table(
        [
            "Crashes",
            "Ckpt acc",
            "Naive acc",
            "Ckpt drift",
            "Naive drift",
            "Resync",
            "Ckpt s/step",
        ],
        rows,
        title=f"Accuracy & step time vs churn (single PS, {steps} steps)",
    )
    return f"{header}\n{table}"


def flap_table(
    *,
    steps: int,
    depth: int,
    base_width: int,
    eval_size: int,
    link_name: str,
) -> str:
    """Elastic rack membership: accuracy and time under uplink flaps."""
    scale = steps / 40.0
    base_engine, base_acc, dataset = train_engine(
        "hier", None, steps=steps, depth=depth,
        base_width=base_width, eval_size=eval_size,
    )
    timeline = profile_backward(
        build_resnet(depth, base_width=base_width, seed=1),
        *dataset.train_shard(0, 8),
    )
    base_seconds = replay_step_seconds(base_engine, timeline, "hier", link_name)
    rows = [["0", f"{100 * base_acc:.2f}%", "0", "0.0 kB",
             f"{1e3 * base_seconds:.2f} ms"]]
    for level in range(1, len(FLAP_LADDER) + 1):
        flaps = tuple(
            UplinkFlap(
                rack=f.rack,
                step=max(1, round(f.step * scale)),
                down_steps=max(1, round(f.down_steps * scale)),
                rejoin_delay_seconds=f.rejoin_delay_seconds,
            )
            for f in FLAP_LADDER[:level]
        )
        engine, acc, _ = train_engine(
            "hier", FaultSpec(flaps=flaps), steps=steps, depth=depth,
            base_width=base_width, eval_size=eval_size,
        )
        summary = engine.fault_summary()
        assert summary["flaps"] == level and summary["rejoins"] == level
        assert summary["degraded_steps"] > 0 and summary["resync_bytes"] > 0
        seconds = replay_step_seconds(engine, timeline, "hier", link_name)
        # A flapped run pays rejoin-delay floors and full-model resyncs;
        # the simulated run must be slower than the fault-free one.
        assert seconds > base_seconds, (
            f"flapped replay ({seconds}) should be slower than the "
            f"fault-free replay ({base_seconds})"
        )
        rows.append(
            [
                str(level),
                f"{100 * acc:.2f}%",
                str(summary["degraded_steps"]),
                f"{summary['resync_bytes'] / 1e3:.1f} kB",
                f"{1e3 * seconds:.2f} ms",
            ]
        )
    return format_table(
        ["Flaps", "Accuracy", "Degraded steps", "Resync", "s/step"],
        rows,
        title=f"Hierarchical exchange under uplink flaps ({steps} steps)",
    )


def roundtrip_check() -> None:
    """Churn fields survive results_io; legacy archives still load."""
    from repro.harness.config import FAST_CONFIG
    from repro.harness.results_io import (
        run_result_from_dict,
        run_result_to_dict,
    )
    from repro.harness.runner import ExperimentRunner

    fault = FaultSpec(crashes=(WorkerCrash(worker=1, step=2, down_steps=2),))
    runner = ExperimentRunner(FAST_CONFIG.scaled(standard_steps=6, fault=fault))
    result = runner.run(SCHEME)
    assert result.fault_summary is not None
    assert result.fault_summary["crashes"] == 1
    restored = run_result_from_dict(run_result_to_dict(result))
    assert restored.fault_summary == result.fault_summary
    assert (
        restored.traffic.total_resync_bytes
        == result.traffic.total_resync_bytes
        > 0
    )
    # A pre-churn archive has neither key; both default to fault-free.
    legacy = run_result_to_dict(result)
    del legacy["fault_summary"]
    for step in legacy["traffic_steps"]:
        del step["resync_bytes"]
    loaded = run_result_from_dict(legacy)
    assert loaded.fault_summary is None
    assert loaded.traffic.total_resync_bytes == 0


def smoke(*, steps: int, depth: int, base_width: int) -> str:
    """One crash/restart and one uplink-flap scenario per topology."""
    crash = FaultSpec(
        crashes=(WorkerCrash(worker=1, step=2, down_steps=2),)
    )
    flap = FaultSpec(
        flaps=(UplinkFlap(rack=1, step=2, down_steps=2,
                          rejoin_delay_seconds=0.3),)
    )
    rows = []
    for topology, fault in (
        ("single", crash),
        ("sharded", crash),
        ("hier", flap),
    ):
        engine, acc, dataset = train_engine(
            topology, fault, steps=steps, depth=depth,
            base_width=base_width, eval_size=200,
        )
        summary = engine.fault_summary()
        if fault.crashes:
            assert summary["crashes"] == 1 and summary["restarts"] == 1
        else:
            assert summary["flaps"] == 1 and summary["rejoins"] == 1
        assert summary["resync_bytes"] > 0
        timeline = profile_backward(
            build_resnet(depth, base_width=base_width, seed=1),
            *dataset.train_shard(0, 8),
        )
        seconds = replay_step_seconds(engine, timeline, topology, "100Mbps")
        rows.append(
            [
                topology,
                "crash" if fault.crashes else "flap",
                f"{100 * acc:.2f}%",
                f"{summary['resync_bytes'] / 1e3:.1f} kB",
                f"{1e3 * seconds:.2f} ms",
            ]
        )
    roundtrip_check()
    return format_table(
        ["Topology", "Fault", "Accuracy", "Resync", "s/step"],
        rows,
        title=f"Churn smoke: one fault per topology ({steps} steps)",
    )


def test_churn_smoke():
    """Pytest entry point: per-topology fault scenarios, core parity,
    and the results_io churn round trip."""
    body = smoke(steps=8, depth=8, base_width=4)
    print(f"\n=== Churn smoke ===\n{body}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI"
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="override the per-scenario step budget",
    )
    parser.add_argument(
        "--link", default="100Mbps", choices=["10Mbps", "100Mbps", "1Gbps"]
    )
    args = parser.parse_args(argv)

    if args.smoke:
        steps = args.steps if args.steps is not None else 8
        report = smoke(steps=steps, depth=8, base_width=4)
        print(report)
        return 0

    crash_steps = args.steps if args.steps is not None else 80
    flap_steps = args.steps if args.steps is not None else 40
    crash_report = churn_tables(
        steps=crash_steps,
        depth=8,
        base_width=4,
        eval_size=2000,
        link_name=args.link,
        # The calibrated drift bounds assume the default budget.
        assert_bounds=args.steps is None,
    )
    flap_report = flap_table(
        steps=flap_steps,
        depth=8,
        base_width=4,
        eval_size=1000,
        link_name=args.link,
    )
    print(crash_report)
    print()
    print(flap_report)
    roundtrip_check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
