import math

import pytest

from metrics import n_within_limit, predicted_seconds, shape_reach

TOP, BOTTOM = 131072, 64


def cubic(n):
    return 1e-6 * n ** 3


def test_interpolates_on_a_power_law():
    # t = 1e-6 n^3 reaches 2 s at n = (2e6)^(1/3), about 126
    solved = [(32, cubic(32)), (64, cubic(64))]
    assert shape_reach(solved, 2.0, TOP, BOTTOM) == pytest.approx((2e6) ** (1 / 3))


def test_uses_only_the_last_two_rungs():
    # a flat start must not bend the slope of the last two rungs
    solved = [(16, 0.5), (32, cubic(32)), (64, cubic(64))]
    assert shape_reach(solved, 2.0, TOP, BOTTOM) == pytest.approx((2e6) ** (1 / 3))


def test_is_continuous_where_a_rung_crosses_the_limit():
    just_in = shape_reach([(64, cubic(64)), (128, 1.999)], 2.0, TOP, BOTTOM)
    assert just_in == pytest.approx(128, rel=1e-3)


def test_caps_at_the_top_rung():
    solved = [(65536, 0.4), (131072, 0.8)]
    assert shape_reach(solved, 2.0, TOP, BOTTOM) == TOP


def test_caps_at_the_rung_that_passed_the_limit():
    # linear growth from one solved rung would reach 256, but 128 took longer
    assert shape_reach([(64, 0.5)], 2.0, 128, BOTTOM) == 128


def test_degenerate_climbs():
    assert shape_reach([], 2.0, TOP, BOTTOM) == BOTTOM / 2
    assert shape_reach([(64, 0.5)], 2.0, TOP, BOTTOM) == pytest.approx(256)  # linear
    assert shape_reach([(64, 0.5), (128, 0.4)], 2.0, 256, BOTTOM) == 256  # no growth


def test_geometric_mean_over_shapes():
    climbs = {"a": ([(32, 0.25), (64, 0.5)], TOP), "b": ([(128, 0.25), (256, 0.5)], TOP)}
    # linear growth: a reaches 256, b reaches 1024
    assert n_within_limit(climbs, 2.0, BOTTOM) == pytest.approx(math.sqrt(256 * 1024))


def test_predicts_the_next_rung_on_a_power_law():
    solved = [(32, cubic(32)), (64, cubic(64))]
    assert predicted_seconds(solved, 128) == pytest.approx(cubic(128))
    assert predicted_seconds([(64, 0.5)], 128) == pytest.approx(1.0)  # linear
    assert predicted_seconds([(64, 0.5), (128, 0.4)], 256) is None  # no growth
