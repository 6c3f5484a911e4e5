"""Persisting experiment results to JSON.

The benchmark harness and CLI can archive every :class:`RunResult` so that
reported numbers are regenerable and diffable. The format is plain
JSON: one document per run with scalar metrics, curves, and the per-step
traffic log (bytes and element counts only — reconstructions are not
state worth archiving).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.exchange.engine import EvalResult
from repro.harness.runner import RunResult
from repro.network.traffic import StepTraffic, TrafficMeter

__all__ = [
    "run_result_to_dict",
    "run_result_from_dict",
    "save_results",
    "load_results",
    "save_plan",
    "load_plan",
]

_FORMAT_VERSION = 1


def run_result_to_dict(result: RunResult) -> dict:
    """Convert a run to a JSON-serializable dict."""
    return {
        "format_version": _FORMAT_VERSION,
        "scheme": result.scheme,
        "fraction": result.fraction,
        "steps": result.steps,
        "final_accuracy": result.final_accuracy,
        "final_loss": result.final_loss,
        "eval_curve": [asdict(e) for e in result.eval_curve],
        "loss_curve": list(result.loss_curve),
        "compression_ratio": result.compression_ratio,
        "bits_per_value": result.bits_per_value,
        "mean_step_seconds": dict(result.mean_step_seconds),
        "total_seconds": dict(result.total_seconds),
        "traffic_steps": [asdict(s) for s in result.traffic.steps],
        # None means "the simulator didn't run" and must survive the round
        # trip as None (not 0.0 or {}) — consumers branch on it.
        "achieved_overlap": (
            dict(result.achieved_overlap)
            if result.achieved_overlap is not None
            else None
        ),
        "per_worker_throughput": (
            {
                link: {str(worker): value for worker, value in throughput.items()}
                for link, throughput in result.per_worker_throughput.items()
            }
            if result.per_worker_throughput is not None
            else None
        ),
        "staleness_distribution": (
            {str(k): v for k, v in result.staleness_distribution.items()}
            if result.staleness_distribution is not None
            else None
        ),
        "link_utilization": (
            {link: dict(util) for link, util in result.link_utilization.items()}
            if result.link_utilization is not None
            else None
        ),
        # Additive field: already JSON-shaped (Telemetry.summary()), and
        # absent from pre-telemetry archives — from_dict tolerates both.
        "telemetry_summary": result.telemetry_summary,
        # Additive field: churn rollup (fault-injected runs only); None
        # for fault-free runs and absent from pre-churn archives.
        "fault_summary": result.fault_summary,
    }


def _field(data: dict, name: str, parse, optional: bool = False):
    """``parse`` of one field: a malformed value raises ``ValueError``
    naming the field; a missing required one stays a ``KeyError``."""
    value = data.get(name) if optional else data[name]
    if value is None and optional:
        return None
    try:
        return parse(value)
    except (TypeError, AttributeError, ValueError) as error:
        raise ValueError(f"field {name!r}: {error}") from None


def run_result_from_dict(data: dict) -> RunResult:
    """Reconstruct a run from :func:`run_result_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported results format version {version!r}")
    traffic = _field(data, "traffic_steps", lambda rows: [StepTraffic(**s) for s in rows])
    # JSON object keys are strings; worker ids and staleness values are ints.
    per_worker = _field(
        data,
        "per_worker_throughput",
        lambda links: {
            link: {int(worker): value for worker, value in throughput.items()}
            for link, throughput in links.items()
        },
        optional=True,
    )
    staleness = _field(
        data,
        "staleness_distribution",
        lambda histogram: {int(k): v for k, v in histogram.items()},
        optional=True,
    )
    return RunResult(
        scheme=data["scheme"],
        fraction=data["fraction"],
        steps=data["steps"],
        final_accuracy=data["final_accuracy"],
        final_loss=data["final_loss"],
        eval_curve=_field(
            data, "eval_curve", lambda evals: tuple(EvalResult(**e) for e in evals)
        ),
        loss_curve=_field(data, "loss_curve", tuple),
        compression_ratio=data["compression_ratio"],
        bits_per_value=data["bits_per_value"],
        mean_step_seconds=data["mean_step_seconds"],
        total_seconds=data["total_seconds"],
        traffic=TrafficMeter(steps=traffic),
        achieved_overlap=data.get("achieved_overlap"),
        per_worker_throughput=per_worker,
        staleness_distribution=staleness,
        link_utilization=data.get("link_utilization"),
        telemetry_summary=data.get("telemetry_summary"),
        fault_summary=data.get("fault_summary"),
    )


def save_results(results: list[RunResult], path: str | Path) -> None:
    """Write runs to a JSON file (one array of run documents)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump([run_result_to_dict(r) for r in results], fh)


def load_results(path: str | Path) -> list[RunResult]:
    """Load runs written by :func:`save_results`; anything else (truncated
    JSON included) raises ``ValueError`` naming the path and the field."""
    try:
        documents = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(documents, list) or not all(
            isinstance(document, dict) for document in documents
        ):
            raise ValueError("want a JSON list of run documents")
        return [run_result_from_dict(document) for document in documents]
    except KeyError as error:
        raise ValueError(
            f"{path}: a run is missing required field {error.args[0]!r}"
        ) from None
    except ValueError as error:  # a json.JSONDecodeError is one
        raise ValueError(f"{path}: not a results archive: {error}") from None


def save_plan(path: str | Path, data: dict) -> None:
    """Write a validated ``repro.plan/v1`` tuner artifact.

    Thin alias for :func:`repro.tuner.artifact.save_plan` so harness
    consumers have one results-IO entry point (imported lazily: loading
    archived runs must not require the tuner package's dependencies).
    """
    from repro.tuner.artifact import save_plan as _save_plan

    _save_plan(path, data)


def load_plan(path: str | Path) -> dict:
    """Load and validate a ``repro.plan/v1`` tuner artifact."""
    from repro.tuner.artifact import load_plan as _load_plan

    return _load_plan(path)
