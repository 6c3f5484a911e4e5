"""The command line against the configuration's own rules.

``parse_config`` owns two things — observability (a flag its selector
cannot observe) and ``--plan`` versus explicit flags — and reports
everything else as whatever ``ExperimentConfig`` raised. These tests hold
it to that: no flag pair crashes, no rejection is the CLI's own invention,
and a knob missing from one of the declaration tables fails here first.
"""

import itertools
import json
from dataclasses import fields

import pytest
from retired_schemes import RETIRED_SCHEMES

from repro.distributed.faults import FaultSpec
from repro.exchange import MODELED
from repro.harness import ExperimentRunner
from repro.harness.cli import (
    FIELD_FLAGS,
    _build_parser,
    _parse_crash,
    _parse_flap,
    parse_config,
)
from repro.harness.config import FAST_CONFIG, OBSERVED_UNDER, ExperimentConfig
from repro.tuner.artifact import PLAN_SCHEMA, validate_plan
from repro.tuner.space import PLAN_FIELDS, PlanPoint, default_space

#: Plan fields every topology, sync mode and fusion setting reads.
ALWAYS_OBSERVABLE = {"topology", "transmission_priority", "fuse_small_tensors"}
#: Plan fields only the tuner (and a loaded plan) can set.
NO_FLAG = {"bucket_boundaries"}


def plan_artifact(**overrides) -> dict:
    base = FAST_CONFIG.scaled(model_family="mlp", num_workers=4)
    plan = default_space(base).default_point("3LC (s=1.00)").as_dict() | overrides
    return {"schema": PLAN_SCHEMA, "plan": plan, "objective": {}, "search": {}}


def rejection(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        parse_config(argv)
    assert exit_info.value.code != 0
    return capsys.readouterr().err


class TestDeclarations:
    def test_every_plan_field_is_declared_at_each_remaining_site(self):
        config_fields = {f.name for f in fields(ExperimentConfig)}
        artifact = plan_artifact()
        validate_plan(artifact)
        for field in fields(PlanPoint):
            name = field.name
            assert name in PLAN_FIELDS
            plan = {k: v for k, v in artifact["plan"].items() if k != name}
            with pytest.raises(ValueError, match=name):
                validate_plan(artifact | {"plan": plan})
            if name == "scheme":
                continue
            assert name in config_fields
            assert (name in OBSERVED_UNDER) != (name in ALWAYS_OBSERVABLE), name
            assert (name in FIELD_FLAGS) != (name in NO_FLAG), name

    def test_tables_name_real_fields_and_flags(self):
        config_fields = {f.name for f in fields(ExperimentConfig)}
        flags = {
            option for action in _build_parser()._actions for option in action.option_strings
        }
        assert set(FIELD_FLAGS) <= config_fields
        assert set(FIELD_FLAGS.values()) <= flags
        for field, (selector, value) in OBSERVED_UNDER.items():
            assert {field, selector} <= config_fields
            # The selector's default is not the value: the knob starts inert.
            assert getattr(ExperimentConfig(), selector) != value


#: Each plan-shaping flag at a legal and a hostile value (``None``: the
#: flag takes no value).
FLAG_VALUES = {
    "--steps": ("8", "2"),
    "--workers": ("4", "0"),
    "--topology": ("hier", "ring"),
    "--sync-mode": ("async", "ssp"),
    "--shards": ("2", "0"),
    "--staleness": ("1", "-1"),
    "--backup-workers": ("1", "9"),
    "--racks": ("1", "3"),
    "--rack-size": ("2", "1"),
    "--cross-bw": ("0.5", "0"),
    "--cross-rtt": ("0.01", "-1"),
    "--fuse": (None,),
    "--bucket-elements": ("512", "0"),
    "--fuse-lossy": (None,),
    "--priority": ("smallest", "fifo"),
    "--sim-overlap": (None,),
    "--crash": ("0:2", "7:2"),
    "--flap": ("0:2", "5:2"),
}


#: Flags already on the command line when a pair is tried: alone most pairs
#: only meet the observability rule, under a selector they meet legality.
CONTEXTS = (
    [],
    ["--workers", "4", "--topology", "hier", "--fuse"],
    ["--topology", "sharded", "--sync-mode", "ssp", "--staleness", "2"],
)


def given(flag, value) -> list[str]:
    return [flag] if value is None else [flag, value]


def expected_overrides(args) -> dict:
    """The fields an argv sets, typed by the parser alone."""
    given_values = {
        field: getattr(args, flag[2:].replace("-", "_"))
        for field, flag in FIELD_FLAGS.items()
    }
    overrides = {f: value for f, value in given_values.items() if value is not None}
    if args.crash or args.flap:
        overrides["fault"] = FaultSpec(
            crashes=tuple(_parse_crash(text) for text in args.crash or ()),
            flaps=tuple(_parse_flap(text) for text in args.flap or ()),
        )
    return overrides


class TestPairwiseSweep:
    def test_every_flag_is_swept(self):
        assert set(FIELD_FLAGS.values()) <= set(FLAG_VALUES)

    def test_every_pair_returns_a_config_or_names_a_culprit(self, capsys):
        accepted = unobservable = illegal = invalid = 0
        for (flag_a, values_a), (flag_b, values_b) in itertools.combinations(
            FLAG_VALUES.items(), 2
        ):
            for context, a, b in itertools.product(CONTEXTS, values_a, values_b):
                if flag_a in context or flag_b in context:
                    continue
                argv = ["table1", "--fast", *context, *given(flag_a, a), *given(flag_b, b)]
                try:
                    args = _build_parser().parse_args(argv)
                except SystemExit:
                    # argparse's own (an invalid choice): same exit here.
                    assert "invalid choice" in rejection(argv, capsys)
                    invalid += 1
                    continue
                capsys.readouterr()
                overrides = expected_overrides(args)
                try:
                    expected = FAST_CONFIG.scaled(**overrides)
                except ValueError as error:
                    expected = str(error)
                try:
                    _, config, plan_scheme = parse_config(argv)
                except SystemExit as exit_info:
                    assert exit_info.code != 0
                    message = capsys.readouterr().err
                    # Never the CLI's own legality rule: the config's words
                    # verbatim, or the observability wording.
                    if isinstance(expected, str) and expected in message:
                        illegal += 1
                    else:
                        assert " requires " in message, (argv, message)
                        unobservable += 1
                    names = [
                        name
                        for flag in (flag_a, flag_b)
                        for name in (flag, *(f for f, g in FIELD_FLAGS.items() if g == flag))
                    ]
                    assert any(name in message for name in names), (argv, message)
                else:
                    assert config == expected, argv
                    assert plan_scheme is None
                    accepted += 1
        counts = (accepted, unobservable, illegal, invalid)
        assert min(counts) > 50, counts


class TestPlanFlagConflicts:
    @pytest.fixture()
    def plan_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_artifact(topology="sharded", num_shards=4)))
        return str(path)

    def test_a_flag_for_a_planned_field_is_refused_naming_both(self, plan_path, capsys):
        planned = [field for field in PLAN_FIELDS if field in FIELD_FLAGS]
        assert len(planned) == len(PLAN_FIELDS) - 1 - len(NO_FLAG)
        for field in planned:
            flag = FIELD_FLAGS[field]
            argv = ["fig9", "--fast", "--workers", "4", "--plan", plan_path]
            argv += given(flag, FLAG_VALUES[flag][0])
            message = rejection(argv, capsys)
            assert plan_path in message and field in message and flag in message

    def test_the_reported_drift_case_no_longer_runs(self, plan_path, capsys):
        argv = [
            "fig9", "--fast", "--plan", plan_path, "--topology", "ring",
            "--priority", "smallest", "--fuse", "--bucket-elements", "77",
        ]
        assert "--topology ring" in rejection(argv, capsys)

    def test_flags_for_unplanned_fields_compose(self, plan_path):
        _, config, scheme = parse_config(
            [
                "fig9", "--fast", "--workers", "4", "--steps", "8",
                "--plan", plan_path, "--sync-mode", "ssp", "--staleness", "1",
                "--sim-overlap",
            ]
        )
        assert scheme == "3LC (s=1.00)"
        assert (config.topology, config.num_shards) == ("sharded", 4)
        assert (config.sync_mode, config.staleness) == ("ssp", 1)
        assert config.sim_overlap and config.clock is MODELED

    def test_selector_comes_from_the_plan(self, tmp_path, capsys):
        path = tmp_path / "hier.json"
        path.write_text(
            json.dumps(plan_artifact(topology="hier", racks=2, rack_size=2))
        )
        common = ["fig9", "--fast", "--workers", "4", "--plan", str(path)]
        _, config, _ = parse_config(common + ["--cross-rtt", "0.01", "--flap", "1:2"])
        assert config.cross_rtt_seconds == 0.01 and config.fault.flaps
        # ... and config validation still applies to what composes.
        message = rejection(common + ["--backup-workers", "1"], capsys)
        assert "backup" in message and "--backup-workers 1" in message
        assert f"--plan {path}" in message

    def test_an_unreadable_plan_file_is_named_once(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_artifact())[:15])
        message = rejection(["fig9", "--fast", "--plan", str(path)], capsys)
        assert f"--plan {path}: not a plan artifact" in message
        assert message.count(str(path)) == 1
        missing = tmp_path / "absent.json"
        message = rejection(["fig9", "--fast", "--plan", str(missing)], capsys)
        assert f"--plan {missing}: No such file or directory" in message

    def test_a_scheme_the_config_cannot_run_is_refused(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(
            json.dumps(plan_artifact(scheme="2 local steps", topology="ring"))
        )
        message = rejection(["fig9", "--fast", "--plan", str(path)], capsys)
        assert "'2 local steps' defers transmissions" in message
        path.write_text(json.dumps(plan_artifact(scheme="no such scheme")))
        argv = ["fig9", "--fast", "--workers", "4", "--plan", str(path)]
        assert "unknown scheme" in rejection(argv, capsys)

    @pytest.mark.parametrize("scheme", RETIRED_SCHEMES)
    def test_a_plan_naming_a_retired_scheme_exits_through_the_parser(
        self, scheme, tmp_path, capsys
    ):
        # The scheme is no longer modelled; a plan tuned over it is a usage
        # error, not a traceback.
        from repro.harness.cli import main

        artifact = plan_artifact(scheme=scheme)
        validate_plan(artifact)
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--fast", "--plan", str(path)])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err
        assert f"--plan {path}: unknown scheme {scheme!r}" in message


HIER_FLAGS = ["--workers", "4", "--topology", "hier", "--racks", "2", "--rack-size", "2"]


class TestFailAtTheCause:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            *[
                (HIER_FLAGS + ["--flap", flap], f"--flap {flap!r}: UplinkFlap.rejoin_delay_seconds")
                for flap in ("1:2:1:nan", "1:2:1:inf", "1:2:1:-1")
            ],
            # The config's sync-mode rules, quoted with the flags that set them.
            (["--sync-mode", "ssp", "--staleness", "-1"],
             "staleness must be >= 0, got -1 (set by --sync-mode ssp, --staleness -1)"),
            (["--sync-mode", "ssp"], "SSP requires a staleness bound (set by --sync-mode ssp)"),
            # A bound under async: the observability rule answers first (the
            # config's own message is pinned in tests/exchange/test_matrix.py).
            (["--sync-mode", "async", "--staleness", "2"],
             "--staleness 2 requires --sync-mode ssp (got --sync-mode async)"),
        ],
        ids=["flap-nan", "flap-inf", "flap-negative", "ssp-negative", "ssp-unbounded",
             "async-staleness"],
    )
    def test_a_bad_value_is_refused_naming_the_flag(self, argv, expected, capsys):
        assert expected in rejection(["fig9", "--fast", *argv], capsys)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--priority", "smallest"], "--priority smallest requires --sim-overlap"),
            (HIER_FLAGS + ["--cross-bw", "0.5"], "--cross-bw 0.5 requires --sim-overlap"),
            (HIER_FLAGS + ["--cross-rtt", "0.01"],
             "--cross-rtt 0.01 requires --sim-overlap"),
            # The topology rule answers first.
            (["--cross-bw", "0.5"],
             "--cross-bw 0.5 requires --topology hier (got --topology single)"),
        ],
        ids=["priority", "cross-bw", "cross-rtt", "cross-bw-flat"],
    )
    def test_a_simulator_knob_requires_the_simulator(self, argv, expected, capsys):
        message = rejection(["table1", "--fast", *argv], capsys)
        assert message.endswith(f"repro-3lc: error: {expected}\n"), message

    def test_with_the_simulator_they_compose(self):
        argv = ["table1", "--fast", "--sim-overlap", "--priority", "smallest", *HIER_FLAGS]
        _, config, _ = parse_config(argv + ["--cross-bw", "0.5", "--cross-rtt", "0.01"])
        assert config.transmission_priority == "smallest"
        assert (config.cross_bw_fraction, config.cross_rtt_seconds) == (0.5, 0.01)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(topology="ring"),
            dict(topology="hier", num_workers=4),
            dict(sync_mode="async", sim_overlap=True),
        ],
    )
    def test_deferring_scheme_fails_in_engine_construction(self, overrides):
        runner = ExperimentRunner(FAST_CONFIG.scaled(standard_steps=4, **overrides))
        with pytest.raises(ValueError, match="'2 local steps' defers") as error:
            runner.run("2 local steps")
        # Before any worker, service or forward/backward exists.
        assert error.traceback[-1].name == "__init__"
        assert error.traceback[-1].path.name == "engine.py"

