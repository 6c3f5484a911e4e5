"""Transmission records are canonical and small.

A recording holds one :class:`TransmissionRecord` per message per step, and
the replay cache keeps whole recordings, so a record must pay for its
numbers and not for fresh copies of the same strings: every constructed,
copied or unpickled record interns its name, route, phase and names, and
has no instance ``__dict__``.
"""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import tracemalloc

import pytest

from repro.netsim import TransmissionRecord

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
#: their steps), built and after a pickle round trip. A record with an
#: instance ``__dict__`` and its own copies of every string reads ~500 B
#: built and ~560 B reloaded on CPython 3.11; a slotted, interned one
#: ~240 B and ~270 B.
RECORD_BUDGET_BYTES = 320


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
