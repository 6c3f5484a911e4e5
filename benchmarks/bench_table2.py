"""Regenerates Table 2: average traffic compression of 3LC vs. ``s``.

Paper's Table 2 (ResNet-110 training traffic):

    s        Compression ratio   bits per state change
    No ZRE        20.0x               1.60
    1.00          39.4x               0.812
    1.50          70.9x               0.451
    1.75         107x                 0.298
    1.90         160x                 0.200

Shape assertions: ratio is monotone increasing in ``s``; ZRE roughly
doubles the no-ZRE ratio at s=1.00; bits/value = 32/ratio by construction.
"""

import pytest

from repro.harness.tables import table2

from benchmarks.conftest import emit


def test_table2(traffic_runner, benchmark):
    rows, text = benchmark.pedantic(
        lambda: table2(traffic_runner), rounds=1, iterations=1
    )
    emit("Table 2 (reproduction)", text)
    by_name = {r.scheme: r for r in rows}

    no_zre = by_name["3LC (s=1.00, no ZRE)"]
    sweep = [
        by_name[f"3LC (s={s})"].compression_ratio
        for s in ("1.00", "1.50", "1.75", "1.90")
    ]

    # Monotone in s (paper: 39.4 -> 70.9 -> 107 -> 160).
    assert sweep == sorted(sweep)
    assert sweep[-1] > 1.5 * sweep[0]

    # ZRE approximately doubles the no-ZRE ratio at s=1.00 (paper: 20 -> 39.4).
    assert by_name["3LC (s=1.00)"].compression_ratio >= 1.5 * no_zre.compression_ratio

    # No-ZRE quartic floor: 1.6 bits/value + headers + small-layer bypass.
    assert 1.6 <= no_zre.bits_per_value <= 2.6

    # bits/value is 32/ratio by definition of the accounting.
    for row in rows:
        assert row.bits_per_value == pytest.approx(
            32.0 / row.compression_ratio, rel=1e-6
        )
