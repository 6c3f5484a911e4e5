"""Tests for shared utilities: seeding, formatting, logging."""

import logging

import numpy as np
import pytest

from repro.utils import (
    SeedSequenceFactory,
    derive_rng,
    format_table,
    get_logger,
    human_bytes,
)


class TestSeeding:
    def test_same_key_same_stream(self):
        a = derive_rng(7, "worker", 1).normal(size=8)
        b = derive_rng(7, "worker", 1).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_independent(self):
        a = derive_rng(7, "worker", 1).normal(size=8)
        b = derive_rng(7, "worker", 2).normal(size=8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x").normal(size=8)
        b = derive_rng(2, "x").normal(size=8)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        a = derive_rng(0, "a", "b").normal(size=4)
        b = derive_rng(0, "b", "a").normal(size=4)
        assert not np.array_equal(a, b)

    def test_factory_rng_matches_derive(self):
        factory = SeedSequenceFactory(5)
        np.testing.assert_array_equal(
            factory.rng("k").normal(size=4), derive_rng(5, "k").normal(size=4)
        )


class TestFormatting:
    def test_human_bytes(self):
        assert human_bytes(512) == "512.00 B"
        assert human_bytes(1536) == "1.50 KiB"
        assert human_bytes(3 * 1024**2) == "3.00 MiB"
        assert "TiB" in human_bytes(2.0 * 1024**4)

    def test_format_table_alignment(self):
        text = format_table(
            ["Name", "Value"], [["alpha", 1.5], ["b", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_format_table_wide_cells(self):
        text = format_table(["H"], [["a-very-long-cell-value"]])
        assert "a-very-long-cell-value" in text


class TestLogging:
    def test_get_logger_returns_child(self):
        root = get_logger()
        child = get_logger("repro.harness")
        assert child.name == "repro.harness"
        assert isinstance(root, logging.Logger)

    def test_single_handler_installed(self):
        get_logger()
        get_logger("repro.x")
        assert len(logging.getLogger("repro").handlers) == 1
