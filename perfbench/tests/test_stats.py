"""The percentile helper and the quartile spread."""

import common


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1000))
    pct, value, count = common.tail_percentile(values)
    assert (pct, count) == (99.0, 1000)
    assert value == 989  # nearest rank 990 of 0..999
    assert len([v for v in values if v > value]) == 10


def test_tail_steps_down_when_samples_are_short():
    assert common.tail_percentile(list(range(999)))[0] == 95.0
    assert common.tail_percentile(list(range(100)))[0] == 90.0
    assert common.tail_percentile(list(range(20)))[:1] == (50.0,)
    assert common.tail_percentile(list(range(19))) is None


def test_tail_reports_the_sample_count():
    assert common.tail_percentile([1.0] * 400)[2] == 400


def test_spread_matches_statistics_quantiles():
    import statistics

    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert common.spread(values) == (q3 - q1) / q2


def test_speed_scale_is_one_at_reference_speed():
    assert common.speed_scale(common.CALIBRATION_REF_S) == 1.0
    assert common.speed_scale(2 * common.CALIBRATION_REF_S) == 0.5
