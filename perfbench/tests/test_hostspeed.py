import pytest

import hostspeed


def test_kernel_does_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel() > 0.9 * hostspeed.KERNEL_N


def test_reference_and_wall_seconds_are_inverse():
    ref = hostspeed.KERNEL_REF_S
    # on a host twice as slow as the reference, 2 s of wall time is 1 s
    assert hostspeed.reference_seconds(2.0, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.wall_seconds(1.0, 2 * ref) == pytest.approx(2.0)
    assert hostspeed.reference_seconds(0.3, ref) == pytest.approx(0.3)
