"""The ``OBSERVED_UNDER`` law: a field is unobservable away from its selector.

The plan tuner's ``canonical`` resets such a field and the CLI refuses a
flag for it, both on the table's word. For each entry, on a base where the
selector does not hold, another value of the field is either refused when
the config is built, or runs to a results archive equal to the base's —
with the simulator on, so the simulation-only fields are held too.
"""

import pytest

from repro.exchange import MODELED
from repro.harness import FAST_CONFIG, ExperimentRunner
from repro.harness.config import OBSERVED_UNDER
from repro.harness.results_io import run_result_to_dict

SCHEME = "3LC (s=1.00)"

#: Topology ``single``, BSP, fusion off: no selector in the table holds.
BASE = FAST_CONFIG.scaled(
    model_family="mlp",
    standard_steps=4,
    eval_size=50,
    clock=MODELED,
    sim_overlap=True,
)

#: field -> a value other than the base's.
OTHER = {
    "num_shards": 3,
    "racks": 3,
    "rack_size": 3,
    "cross_bw_fraction": 0.25,
    "cross_rtt_seconds": 1e-3,
    "staleness": 2,
    "bucket_elements": 1024,
    "fuse_lossy": True,
    "bucket_boundaries": ("fc1/bias",),
}

#: Fields whose other value the config refuses off the selector.
REFUSED = {"staleness", "fuse_lossy", "bucket_boundaries"}


def archive(config) -> dict:
    return run_result_to_dict(ExperimentRunner(config).run(SCHEME))


@pytest.fixture(scope="module")
def base_archive() -> dict:
    base = archive(BASE)
    assert base["achieved_overlap"] is not None, "the simulator did not run"
    return base


def test_every_entry_has_another_value():
    assert set(OTHER) == set(OBSERVED_UNDER)
    for name, (selector, value) in OBSERVED_UNDER.items():
        assert getattr(BASE, selector) != value, name
        assert OTHER[name] != getattr(BASE, name), name


@pytest.mark.parametrize("name", sorted(OBSERVED_UNDER))
def test_off_its_selector_a_field_is_refused_or_unobserved(name, base_archive):
    if name in REFUSED:
        with pytest.raises(ValueError):
            BASE.scaled(**{name: OTHER[name]})
        return
    assert archive(BASE.scaled(**{name: OTHER[name]})) == base_archive
