"""The engine's telemetry, read from a finished run.

:func:`trace_training` builds everything the ``engine`` group reports — the
counters, gauges and staleness histogram, the spans on a virtual clock and
one registry snapshot per quantum — after training, from what a run keeps
for every quantum: its :class:`~repro.exchange.engine.StepLog` and its
:class:`~repro.network.traffic.StepTraffic` record, plus its service's
``STAGES``. A :class:`~repro.netsim.RecordedTraining` carries all three,
so a replay-cache hit traces exactly as the cold run that recorded it, and
training itself never reaches a tracer.
"""

from __future__ import annotations

__all__ = ["trace_training"]


def trace_training(telemetry, scheme: str, logs, steps, stages) -> None:
    """Trace a finished run's quanta into ``telemetry``.

    ``logs`` and ``steps`` are the run's step logs and traffic records,
    quantum by quantum; ``stages`` maps each codec field of a synchronous
    step to its ``(track, stage)`` (track ``worker`` is every worker's own
    track, work the workers do in parallel). Synchronous steps are laid end
    to end on one clock; an async/SSP update starts at its unit's clock.
    """
    tracer, registry = telemetry.tracer, telemetry.registry
    clock = 0.0
    for log, record in zip(logs, steps):
        if log.arrivals is not None:
            phases, clock = _bsp_step(tracer, log, record, stages, clock)
            meta = dict(step=log.step, clock_seconds=clock)
        else:
            phases, end = _async_update(tracer, log, record, stages)
            meta = dict(update=record.step, step=log.step, clock_seconds=end)
        registry.counter("wire_bytes", phase="push", scheme=scheme).inc(
            record.push_bytes
        )
        registry.counter("wire_bytes", phase="pull", scheme=scheme).inc(
            record.pull_bytes_shared
        )
        if record.intra_rack_bytes or record.cross_rack_bytes:
            registry.counter("wire_bytes", link="intra", scheme=scheme).inc(
                record.intra_rack_bytes
            )
            registry.counter("wire_bytes", link="cross", scheme=scheme).inc(
                record.cross_rack_bytes
            )
        registry.counter("messages", phase="push").inc(record.push_messages)
        registry.counter("messages", phase="pull").inc(record.pull_messages)
        registry.counter("compute_seconds").inc(record.compute_seconds)
        for phase, seconds in phases.items():
            if seconds:
                registry.counter("codec_seconds", phase=phase).inc(seconds)
        if log.staleness is not None:
            registry.histogram("staleness").observe(log.staleness)
        registry.gauge("train_loss").set(log.train_loss)
        registry.gauge("learning_rate").set(log.learning_rate)
        telemetry.snapshot_step(**meta)


def _bsp_step(tracer, log, record, stages, t0: float):
    """Lay one synchronous step from ``t0``; returns its codec seconds by
    stage and the clock it ends at.

    Per-worker tracks carry compute / compress / barrier-wait spans (the
    straggler-scaled arrivals the barrier decided on, each worker's push
    compression). Stages on track ``worker`` run on every worker track in
    parallel — push compression before the barrier wait, the pull decode
    closing the step; the others are the step's serial middle (server or
    collective codec work), one span per stage in field order.
    """
    step, codec = log.step, log.codec
    phases: dict[str, float] = {}
    serial: dict[tuple[str, str], float] = {}
    for field, seconds in codec.items():
        track, stage = stages[field]
        phases[stage] = phases.get(stage, 0.0) + seconds
        if track != "worker":
            serial[track, stage] = serial.get((track, stage), 0.0) + seconds
    push_track, push_stage = stages["push_compress_seconds"]
    pull_track, pull_stage = stages["pull_decompress_seconds"]
    workers = sorted(log.arrivals)
    top = t0 + record.compute_seconds
    codec_end: dict[int, float] = {}
    for wid in workers:
        c0 = t0 + log.arrivals[wid]
        tracer.span("engine", f"worker{wid}", "compute", t0, c0, step=step)
        c1 = c0
        if push_track == "worker":
            c1 += log.compress[wid]
        if c1 > c0:
            tracer.span("engine", f"worker{wid}", push_stage, c0, c1, step=step)
        codec_end[wid] = c1
        top = max(top, c1)
    for wid, c1 in codec_end.items():
        if top > c1:
            tracer.span("engine", f"worker{wid}", "push+wait", c1, top, step=step)
    cursor = top
    for (track, stage), seconds in serial.items():
        if seconds > 0:
            tracer.span("engine", track, stage, cursor, cursor + seconds, step=step)
        cursor += seconds
    pull = codec.get("pull_decompress_seconds", 0.0) if pull_track == "worker" else 0.0
    if pull > 0:
        for wid in workers:
            tracer.span(
                "engine", f"worker{wid}", pull_stage, cursor, cursor + pull, step=step
            )
    return phases, cursor + pull


def _async_update(tracer, log, record, stages):
    """One async/SSP update on its unit's clock; returns its codec seconds
    by phase and the clock it ends at.

    The compute span opens at the unit clock the update ``started`` at, on
    the unit's own track; the push (the unit's compression, or a rack's
    ring-and-uplink pipeline), the server's apply and pull compression and
    the unit's pull decode follow it.
    """
    track, update, codec = log.track, record.step, log.codec
    cursor = log.started + record.compute_seconds
    tracer.span(
        "engine", track, "compute", log.started, cursor,
        update=update, staleness=log.staleness,
    )
    phases: dict[str, float] = {}
    for where, name, seconds in (
        (track, stages["push_compress_seconds"][1], codec["push_compress_seconds"]),
        ("server", "apply", codec["server_seconds"]),
        ("server", "pull-compress", codec["pull_compress_seconds"]),
        (track, "pull-decompress", codec["pull_decompress_seconds"]),
    ):
        if seconds > 0:
            tracer.span("engine", where, name, cursor, cursor + seconds, update=update)
        cursor += seconds
        phases[name] = phases.get(name, 0.0) + seconds
    return phases, cursor
