"""The percentile rule, the per-second throughput counts and the
scaling of stage times to reference speed."""

import pytest

from perfbench import stats, workload


def test_p99_needs_a_thousand_samples():
    assert stats.samples_needed(99.0) == 1000
    assert stats.samples_needed(50.0) == 20


@pytest.mark.parametrize("count, enough", [(1000, True), (500, False), (5000, True)])
def test_percentile_reports_samples_beyond(count, enough):
    samples = [float(i) for i in range(count)]
    _, beyond = stats.percentile(samples, 99.0)
    assert (beyond >= stats.MIN_BEYOND) is enough


def test_percentile_counts_only_strictly_larger_samples():
    value, beyond = stats.percentile([1.0] * 50 + [2.0] * 50, 50.0)
    assert value == pytest.approx(1.5)
    assert beyond == 50


def test_percentile_tracks_the_empirical_quantile():
    samples = [float(i) for i in range(2001)]
    assert stats.percentile(samples, 50.0)[0] == pytest.approx(1000.0)
    assert stats.percentile(samples, 99.0)[0] == pytest.approx(1980.0, abs=1.0)


def test_per_second_counts_drop_partial_seconds_and_gaps():
    windows = [(10.0, 12.5), (20.0, 21.0)]
    done = [10.1, 10.9, 11.2, 12.2, 15.0, 20.5, 20.6, 20.7]
    # 12.2 falls in the dropped half second, 15.0 between windows.
    assert stats.per_second_counts(done, windows) == [2, 1, 3]


def test_trimmed_mean_drops_a_stall_and_mix_rate_sums_parts():
    assert stats.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    seconds = {5: [0.5] * 10, 6: [1.5] * 9 + [50.0]}
    assert stats.mix_rate(seconds, {5: 1, 6: 1}) == 1.0


def test_stage_samples_scale_by_the_reference_loops_around_them(monkeypatch, tmp_path):
    timings = iter([0.02, 0.03, 0.01])
    monkeypatch.setattr(workload, "reference_loop", lambda: next(timings))
    pipeline = workload.Pipeline(1, tmp_path, workload.Ledger())
    pipeline._time_reference()
    assert pipeline._scale() == pytest.approx(workload.REFERENCE_S / 0.025)
    # The timing after one call is the timing before the next.
    assert pipeline._scale() == pytest.approx(workload.REFERENCE_S / 0.02)
    assert pipeline.samples.reference == [0.02, 0.03, 0.01]
