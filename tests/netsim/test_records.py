"""Transmission records are canonical, and recordings are small.

Every constructed, copied or unpickled record interns its name, route,
phase and names, and has no instance ``__dict__``. The replay cache keeps
whole recordings, so a recorded step pays only for its numbers: it stores
one int64 array and shares its record skeleton with its neighbours. Steps
and updates refuse malformed fields, naming the plan and the field.
"""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import tracemalloc

import pytest

import numpy as np

from repro.netsim import StepTransmissions, TransmissionRecord, UpdateTransmissions

from tests.netsim.test_vector_parity import hier_run


def fresh(text: str) -> str:
    """An equal string that is a distinct object (no compiler interning)."""
    return "".join(list(text))


def make(**overrides) -> TransmissionRecord:
    kwargs = dict(
        name=fresh("w0:grad"),
        params=(fresh("p0"), fresh("p1")),
        wire_bytes=1_000,
        elements=250,
        route=fresh("rack0"),
        worker=0,
        phase=fresh("push"),
        depends_on=(fresh("w1:grad"),),
    )
    kwargs.update(overrides)
    return TransmissionRecord(**kwargs)


def assert_canonical(record: TransmissionRecord) -> None:
    assert type(record) is TransmissionRecord
    for text in (record.name, record.route, record.phase):
        assert text is sys.intern(fresh(text))
    for names in (record.params, record.depends_on):
        assert type(names) is tuple
        for text in names:
            assert text is sys.intern(fresh(text))


def test_equal_strings_are_shared_by_identity():
    assert fresh("w0:grad") is not fresh("w0:grad")
    a, b = make(), make()
    assert a == b
    assert a.name is b.name
    assert a.route is b.route
    assert a.phase is b.phase
    assert all(x is y for x, y in zip(a.params, b.params, strict=True))
    assert all(x is y for x, y in zip(a.depends_on, b.depends_on, strict=True))
    assert_canonical(a)


def test_records_have_no_instance_dict():
    record = make()
    assert not hasattr(record, "__dict__")
    # CPython 3.11's frozen slotted dataclasses raise TypeError here (their
    # generated __setattr__ names the pre-slots class); later ones raise
    # AttributeError.
    with pytest.raises((AttributeError, TypeError)):
        record.note = "ad hoc"
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.wire_bytes = 2


@pytest.mark.parametrize(
    "clone",
    [
        *(
            pytest.param(
                lambda r, p=protocol: pickle.loads(pickle.dumps(r, protocol=p)),
                id=f"pickle{protocol}",
            )
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(dataclasses.replace, id="replace"),
    ],
)
def test_round_trips_are_equal_and_canonical(clone):
    record = make(worker=None, phase="pull", copies=2, frames=2)
    again = clone(record)
    assert again == record
    assert hash(again) == hash(record)
    assert_canonical(again)


def test_replace_builds_through_the_constructor():
    renamed = dataclasses.replace(make(), name=fresh("w9:grad"), route=fresh("rack9"))
    assert_canonical(renamed)
    with pytest.raises(ValueError, match=r"frames must be an integer >= 1, got 0"):
        dataclasses.replace(renamed, frames=0)


class _Forged:
    """Pickles as a ``TransmissionRecord`` whose arguments say copies=0."""

    def __init__(self, record: TransmissionRecord):
        self.args = list(record.__reduce__()[1])
        self.args[6] = 0  # copies

    def __reduce__(self):
        return TransmissionRecord, tuple(self.args)


def test_unpickling_validates_through_the_constructor():
    record = make()
    assert record.__reduce__()[1][6] == record.copies
    blob = pickle.dumps(_Forged(record))
    with pytest.raises(ValueError, match=r"copies must be an integer >= 1, got 0"):
        pickle.loads(blob)


#: Bytes per record a hier recording may hold (tracemalloc, records plus
#: their steps), built and after a pickle round trip. Records as objects
#: (slotted, interned) read ~240 B built and ~270 B reloaded on CPython
#: 3.11; a step's int64 numbers plus a shared skeleton ~62 B and ~50 B.
RECORD_BUDGET_BYTES = 64


def _bytes_per_record(build):
    gc.collect()
    tracemalloc.start()
    try:
        steps = build()
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return used / sum(len(st.records) for st in steps), steps


def test_a_hier_recording_stays_within_its_memory_budget():
    built, steps = _bytes_per_record(
        lambda: hier_run(random.Random(0), 10, racks=16, rack_size=16)
    )
    blob = pickle.dumps(steps, protocol=pickle.HIGHEST_PROTOCOL)
    del steps
    reloaded, _ = _bytes_per_record(lambda: pickle.loads(blob))
    assert built <= RECORD_BUDGET_BYTES, f"built: {built:.0f} B/record"
    assert reloaded <= RECORD_BUDGET_BYTES, f"reloaded: {reloaded:.0f} B/record"


def test_a_step_stores_numbers_and_views_records():
    records = (
        make(),
        make(name="w1:grad", wire_bytes=7, copies=3, frames=2, depends_on=()),
    )
    st = StepTransmissions(step=4, compute_seconds=0.1, records=records)
    assert st.records == records
    assert st.numbers.dtype == np.int64 and not st.numbers.flags.writeable
    assert st.numbers.tolist() == [[1_000, 7], [250, 250], [1, 3], [1, 2]]
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again = clone(st)
        assert again == st and hash(again) == hash(st)
        assert again.records == records
        assert_canonical(again.records[0])
    assert dataclasses.replace(st, step=5).records == records


def test_consecutive_equal_steps_share_one_skeleton_per_load():
    steps = hier_run(random.Random(3), 4)
    assert all(st.skeleton is steps[0].skeleton for st in steps)
    blob = pickle.dumps(steps)
    first, second = pickle.loads(blob), pickle.loads(blob)
    for loaded in (first, second):
        assert all(st.skeleton is loaded[0].skeleton for st in loaded)
        assert loaded == steps
    assert first[0].skeleton is not second[0].skeleton
    assert first[0].skeleton is not steps[0].skeleton
    # An unequal structure gets its own skeleton.
    other = StepTransmissions(step=0, compute_seconds=0.1, records=(make(),))
    assert other.skeleton != steps[0].skeleton


class _ForgedStep:
    """Pickles as a ``StepTransmissions`` with one column value edited:
    ``numbers[row, index]``, or skeleton column ``column``'s first entry."""

    def __init__(self, st: StepTransmissions, *, number=None, column=None):
        self.load, args = st.__reduce__()
        self.args = list(args)
        if number is not None:
            (row, index), value = number
            self.args[7] = st.numbers.copy()
            self.args[7][row, index] = value
        if column is not None:
            at, value = column
            columns = list(st.skeleton.columns)
            columns[at] = (value,) + columns[at][1:]
            self.args[6] = type(st.skeleton)(tuple(columns))

    def __reduce__(self):
        return self.load, tuple(self.args)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"number": ((2, 1), 0)}, "record 'w1:grad': copies must be an integer >= 1"),
        ({"number": ((0, 0), -5)}, "record 'w0:grad': wire_bytes must be an integer"),
        ({"column": (1, "teleport")}, "record 'w0:grad': phase must be one of"),
        ({"column": (0, 7)}, "record: name must be a str, got 7"),
        ({"column": (5, ("w0:grad",))}, "record 'w0:grad': record cannot depend on"),
    ],
    ids=["copies", "bytes", "phase", "name", "self-dependency"],
)
def test_unpickling_a_step_validates_its_columns(edit, message):
    records = (make(), make(name="w1:grad", depends_on=()))
    st = StepTransmissions(step=6, compute_seconds=0.1, records=records)
    blob = pickle.dumps(_ForgedStep(st, **edit))
    with pytest.raises(ValueError) as raised:
        pickle.loads(blob)
    assert str(raised.value).startswith(f"step 6: {message}"), str(raised.value)


STEP, UPDATE = "StepTransmissions", "UpdateTransmissions"
INTEGER = "must be an integer >= 0, got"
#: (plan, changed fields, the error's start): every case is refused.
PLAN_ROWS = [
    (StepTransmissions, {"step": -1}, f"{STEP}: step {INTEGER} -1"),
    (StepTransmissions, {"step": 1.5}, f"{STEP}: step {INTEGER} 1.5"),
    (StepTransmissions, {"step": True}, f"{STEP}: step {INTEGER} True"),
    (StepTransmissions, {"records": [make()]}, "step 0: records must be a tuple"),
    (StepTransmissions, {"records": (make(), "x")}, "step 0: records[1] is not a"),
    (
        StepTransmissions,
        {"link_down": ((3, 1.0),)},
        "step 0: link_down must be a tuple of (str, seconds) pairs, got ((3, 1.0),)",
    ),
    (
        StepTransmissions,
        {"compute_seconds": True},
        "step 0: compute_seconds must be finite and >= 0, got True",
    ),
    (
        StepTransmissions,
        {"records": (make(wire_bytes=2**63),)},
        "step 0: a record size overflows int64",
    ),
    (UpdateTransmissions, {"staleness": 1.5}, f"update 0: staleness {INTEGER} 1.5"),
    (UpdateTransmissions, {"staleness": True}, f"update 0: staleness {INTEGER} True"),
    (UpdateTransmissions, {"update": -3}, f"{UPDATE}: update {INTEGER} -3"),
    (UpdateTransmissions, {"worker": -1}, f"update 0: worker {INTEGER} -1"),
    (UpdateTransmissions, {"worker": 1.5}, f"update 0: worker {INTEGER} 1.5"),
    (UpdateTransmissions, {"local_step": -1}, f"update 0: local_step {INTEGER} -1"),
    (UpdateTransmissions, {"records": (make(), 7)}, "update 0: records[1] is not a"),
    (
        StepTransmissions,
        {"compute_seconds": "1"},
        "step 0: compute_seconds must be finite and >= 0, got '1'",
    ),
    (
        StepTransmissions,
        {"compute_seconds": None},
        "step 0: compute_seconds must be finite and >= 0, got None",
    ),
    (
        UpdateTransmissions,
        {"compute_seconds": "1"},
        "update 0: compute_seconds must be finite and >= 0, got '1'",
    ),
    (
        UpdateTransmissions,
        {"compute_seconds": None},
        "update 0: compute_seconds must be finite and >= 0, got None",
    ),
    (
        StepTransmissions,
        {"link_down": (("server", "x"),)},
        "step 0: link_down['server'] must be finite and >= 0, got 'x'",
    ),
    (
        UpdateTransmissions,
        {"link_down": (("server", "x"),)},
        "update 0: link_down['server'] must be finite and >= 0, got 'x'",
    ),
]


@pytest.mark.parametrize(
    "plan, change, message",
    PLAN_ROWS,
    ids=[f"{plan.__name__}-{i}-{'-'.join(change)}" for i, (plan, change, _) in
         enumerate(PLAN_ROWS)],
)
def test_plans_refuse_malformed_fields(plan, change, message):
    if plan is StepTransmissions:
        fields = dict(step=0, compute_seconds=0.1)
    else:
        fields = dict(
            update=0, worker=0, local_step=0, global_step=0, staleness=0,
            clock_seconds=0.0, compute_seconds=0.1,
        )
    with pytest.raises(ValueError) as raised:
        plan(**{**fields, **change})
    assert str(raised.value).startswith(message), str(raised.value)
