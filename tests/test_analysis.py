"""Unit tests for the analysis helpers (metrics and reporting)."""

import pytest

from repro.analysis import (ExperimentReport, bucket_series, fmt_mbps,
                            fmt_ms, fmt_pct, fmt_s, fmt_us, fraction_within,
                            mean, percentile, ratio, stddev)


def test_percentile_basics():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 5
    assert percentile(values, 50) == 3
    assert percentile(values, 25) == 2
    assert percentile([7], 99) == 7


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5
    assert percentile([0, 10], 75) == 7.5


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_mean_and_stddev():
    assert mean([2, 4, 6]) == 4
    assert stddev([2, 4, 6]) == pytest.approx(2.0)
    assert stddev([5]) == 0.0
    with pytest.raises(ValueError):
        mean([])


def test_fraction_within():
    values = [10, 11, 12, 20]
    assert fraction_within(values, 11, 1) == 0.75
    assert fraction_within([], 0, 1) == 0.0


def test_ratio_guards_zero():
    assert ratio(3, 2) == 1.5
    with pytest.raises(ValueError):
        ratio(1, 0)


def test_bucket_series_sums_per_bucket():
    samples = [(0, 1), (5, 2), (12, 4), (25, 8)]
    assert bucket_series(samples, bucket_ns=10) == [(0, 3), (10, 4), (20, 8)]
    assert bucket_series([], 10) == []


def test_bucket_series_respects_start_offset():
    samples = [(103, 1), (111, 2)]
    assert bucket_series(samples, bucket_ns=10, start_ns=100) == \
        [(100, 1), (110, 2)]


def test_report_renders_aligned_table():
    report = ExperimentReport("Demo")
    report.add("metric-one", "1", "1.1")
    report.add("m2", "2", "2.0", note="close")
    text = report.render()
    lines = text.splitlines()
    assert lines[0] == "== Demo =="
    assert "metric" in lines[1] and "paper" in lines[1]
    assert "metric-one" in text and "close" in text
    # Columns align: the 'measured' header sits above the values.
    header = lines[1]
    col = header.index("measured")
    assert lines[3][col:col + 3] == "1.1"


def test_formatters():
    assert fmt_ms(1_500_000) == "1.50 ms"
    assert fmt_us(80_000) == "80 us"
    assert fmt_s(2_500_000_000) == "2.5 s"
    assert fmt_mbps(53.25) == "53.25 MB/s"
    assert fmt_pct(0.166) == "16.6%"


def test_golden_digest_reads_stored_tables_and_raises_when_absent():
    from repro.analysis.digest import golden_digest
    from repro.errors import ReproError

    assert len(golden_digest("PIPELINE", "fig4_sleep")) == 64
    assert len(golden_digest("SCHEDULER", "pipe_saturation")) == 64
    with pytest.raises(ReproError, match="no golden digest"):
        golden_digest("PIPELINE", "no_such_scenario")
    with pytest.raises(ReproError, match="no golden digest"):
        golden_digest("NO_SUCH_TABLE", "fig4_sleep")
