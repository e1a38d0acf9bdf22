"""The speed gauge's scaling arithmetic."""

import pytest

from entbench import speed


def test_timings_are_scaled_by_the_nearest_kernel_medians():
    g = speed.Gauge()
    ref = speed.REFERENCE_S
    # a fast phase (kernel at the reference time), then a phase twice as slow
    g.samples = [(float(t), ref) for t in range(20)] + \
                [(float(t), 2 * ref) for t in range(20, 40)]
    assert g.scaled([(2.5, 1.0), (35.5, 1.0), (0.0, 0.25)]) == \
        pytest.approx([1.0, 0.5, 0.25])
    assert g.median_s() == pytest.approx(1.5 * ref)


def test_tick_samples_at_most_every_interval():
    g = speed.Gauge()
    g.tick()
    g.tick()
    assert len(g.samples) == 1
