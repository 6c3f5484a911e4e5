"""Tests for link specs, traffic metering, and the step-time model."""

import numpy as np
import pytest

from repro.network import (
    LINKS,
    LinkSpec,
    StepTimeModel,
    StepTraffic,
    TrafficMeter,
    extrapolate_training_time,
    link,
)


class TestLinkSpec:
    def test_transfer_seconds(self):
        spec = LinkSpec("test", 8e6)  # 1 MB/s
        assert spec.transfer_seconds(1_000_000) == pytest.approx(1.0)
        assert spec.transfer_seconds(0) == 0.0

    def test_paper_links_registered(self):
        assert set(LINKS) == {"10Mbps", "100Mbps", "1Gbps"}
        assert link("10Mbps").bits_per_second == 10e6

    def test_unknown_link(self):
        with pytest.raises(KeyError, match="unknown link"):
            link("56k")

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", 0)
        with pytest.raises(ValueError, match="positive finite"):
            LinkSpec("bad", -5)
        with pytest.raises(ValueError, match="positive finite"):
            LinkSpec("bad", float("inf"))
        with pytest.raises(ValueError, match="positive finite"):
            LinkSpec("bad", float("nan"))
        with pytest.raises(TypeError, match="must be a number"):
            LinkSpec("bad", "fast")
        with pytest.raises(ValueError, match="non-empty name"):
            LinkSpec("", 1e6)
        with pytest.raises(ValueError):
            LinkSpec("x", 1e6).transfer_seconds(-1)


def _step(**kw):
    defaults = dict(
        step=0,
        push_bytes=1000,
        pull_bytes_shared=500,
        pull_fanout=4,
        push_elements=4000,
        pull_elements=1000,
        model_elements=1000,
        num_workers=4,
        compute_seconds=0.1,
        codec_seconds=0.01,
    )
    defaults.update(kw)
    return StepTraffic(**defaults)


class TestStepTraffic:
    def test_wire_bytes(self):
        s = _step()
        assert s.pull_bytes_total == 2000
        assert s.wire_bytes == 3000

    def test_baseline_bytes_full_model_both_directions(self):
        s = _step()
        # 4 bytes * 1000 elements * (4 workers + 4 fanout)
        assert s.baseline_bytes == 32000

    def test_bits_per_value_uses_main_accounting(self):
        s = _step(push_bytes_main=800, push_elements_main=4000)
        assert s.push_bits_per_value() == pytest.approx(1.6)
        assert _step().push_bits_per_value() == 0.0

    def test_pull_bits_per_value(self):
        s = _step(pull_bytes_main=200, pull_elements_main=1000)
        assert s.pull_bits_per_value() == pytest.approx(1.6)


class TestTrafficMeter:
    def test_compression_ratio(self):
        meter = TrafficMeter()
        meter.record(_step())
        assert meter.compression_ratio() == pytest.approx(32000 / 3000)

    def test_bits_per_value_consistent_with_ratio(self):
        meter = TrafficMeter()
        meter.record(_step())
        meter.record(_step(step=1, push_bytes=2000))
        assert meter.average_bits_per_value() == pytest.approx(
            32.0 / meter.compression_ratio()
        )

    def test_empty_meter(self):
        meter = TrafficMeter()
        assert meter.compression_ratio() == float("inf")
        assert meter.average_bits_per_value() == 0.0
        assert meter.mean_compute_seconds() == 0.0
        assert meter.mean_codec_seconds() == 0.0

    def test_means(self):
        meter = TrafficMeter()
        meter.record(_step(compute_seconds=0.1, codec_seconds=0.02))
        meter.record(_step(step=1, compute_seconds=0.3, codec_seconds=0.04))
        assert meter.mean_compute_seconds() == pytest.approx(0.2)
        assert meter.mean_codec_seconds() == pytest.approx(0.03)


class TestStepTimeModel:
    def test_comm_fully_hidden_when_small(self):
        model = StepTimeModel(overlap=1.0, per_message_overhead=0.0)
        s = _step(push_bytes=10, pull_bytes_shared=1, compute_seconds=1.0)
        assert model.step_seconds(s, link("1Gbps")) == pytest.approx(1.01)

    def test_comm_dominates_on_slow_link(self):
        model = StepTimeModel(overlap=0.0, per_message_overhead=0.0)
        s = _step(compute_seconds=0.0, codec_seconds=0.0)
        expected = 8 * 3000 / 10e6
        assert model.step_seconds(s, link("10Mbps")) == pytest.approx(expected)

    def test_overlap_hides_partially(self):
        model = StepTimeModel(overlap=0.5, per_message_overhead=0.0)
        s = _step(compute_seconds=1.0, codec_seconds=0.0,
                  push_bytes=100_000_000, pull_bytes_shared=0)
        comm = 8 * 100_000_000 / 1e9  # 0.8 s > hidden 0.5 s
        assert model.step_seconds(s, link("1Gbps")) == pytest.approx(
            1.0 + comm - 0.5
        )

    def test_hardware_scales(self):
        model = StepTimeModel(
            overlap=0.0, per_message_overhead=0.0, compute_scale=0.1, codec_scale=0.5
        )
        s = _step(push_bytes=0, pull_bytes_shared=0,
                  compute_seconds=1.0, codec_seconds=0.2)
        assert model.step_seconds(s, link("1Gbps")) == pytest.approx(0.1 + 0.1)

    def test_monotone_in_bandwidth(self):
        model = StepTimeModel()
        s = _step()
        times = [
            model.step_seconds(s, link(n)) for n in ("10Mbps", "100Mbps", "1Gbps")
        ]
        assert times == sorted(times, reverse=True)

    def test_totals(self):
        model = StepTimeModel()
        meter = TrafficMeter()
        meter.record(_step())
        meter.record(_step(step=1))
        spec = link("10Mbps")
        assert model.total_seconds(meter, spec) == pytest.approx(
            2 * model.mean_step_seconds(meter, spec)
        )

    def test_overhead_charged_per_frame(self):
        model = StepTimeModel(overlap=0.0, per_message_overhead=1e-3)
        few = _step(push_messages=5, pull_messages=5)
        many = _step(push_messages=50, pull_messages=5)
        spec = link("1Gbps")
        # Each counted pull message physically crosses the wire once per
        # fan-out subscriber (default fanout in _step is 4).
        assert few.frames == 5 + 5 * 4
        assert model.overhead_seconds(many) == pytest.approx(0.070)
        assert model.step_seconds(many, spec) - model.step_seconds(
            few, spec
        ) == pytest.approx(45e-3)
        # Legacy records without frame counts pay no overhead.
        assert model.overhead_seconds(_step()) == 0.0

    def test_less_overlap_is_slower(self):
        model = StepTimeModel(overlap=0.9, per_message_overhead=0.0)
        measured = StepTimeModel(overlap=0.4, per_message_overhead=0.0)
        s = _step(compute_seconds=1.0, codec_seconds=0.0,
                  push_bytes=100_000_000, pull_bytes_shared=0)
        assert measured.step_seconds(s, link("1Gbps")) > model.step_seconds(
            s, link("1Gbps")
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            StepTimeModel(overlap=1.5)
        with pytest.raises(ValueError):
            StepTimeModel(per_message_overhead=-1)
        with pytest.raises(ValueError):
            StepTimeModel(per_message_overhead=float("nan"))
        with pytest.raises(ValueError):
            StepTimeModel(compute_scale=0)
        with pytest.raises(ValueError):
            StepTimeModel(codec_scale=-1)


class TestExtrapolation:
    def test_paper_formula(self):
        # t_full=100 min at s_full=0.2 s/step; target link s_short=2 s/step.
        assert extrapolate_training_time(100.0, 0.2, 2.0) == pytest.approx(1000.0)

    def test_identity_when_same_speed(self):
        assert extrapolate_training_time(50.0, 0.5, 0.5) == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            extrapolate_training_time(-1, 1, 1)
        with pytest.raises(ValueError):
            extrapolate_training_time(1, 0, 1)

    def test_matches_step_model_for_uniform_steps(self):
        """On uniform per-step traffic the paper's extrapolation and our
        direct model agree exactly."""
        model = StepTimeModel()
        meter = TrafficMeter()
        for i in range(10):
            meter.record(_step(step=i))
        fast, slow = link("1Gbps"), link("10Mbps")
        t_full = model.total_seconds(meter, fast)
        s_full = model.mean_step_seconds(meter, fast)
        s_short = model.mean_step_seconds(meter, slow)
        predicted = extrapolate_training_time(t_full, s_full, s_short)
        assert predicted == pytest.approx(model.total_seconds(meter, slow), rel=1e-9)
