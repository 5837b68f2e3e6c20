import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nfcrb import ArrayGeometry, ula


def test_ula_positions_centered_on_centroid():
    geom = ula(4, 0.5, centroid_x=2.0)
    assert geom.count == 4
    np.testing.assert_allclose(geom.positions[:, 0], [1.25, 1.75, 2.25, 2.75])
    np.testing.assert_allclose(geom.positions[:, 1], 0.0)
    np.testing.assert_allclose(geom.centre, [2.0, 0.0])


def test_ula_single_element_sits_at_centroid():
    geom = ula(1, 0.01, centroid_x=-3.0)
    np.testing.assert_allclose(geom.positions, [[-3.0, 0.0]])
    assert geom.aperture == 0.0


@pytest.mark.parametrize("count,spacing", [(0, 0.01), (-2, 0.01), (3, 0.0), (3, -1.0)])
def test_ula_rejects_bad_arguments(count, spacing):
    with pytest.raises(ValueError):
        ula(count, spacing)


@pytest.mark.parametrize("count", [math.inf, -math.inf, math.nan])
def test_ula_rejects_a_non_finite_count(count):
    with pytest.raises(ValueError, match="count must be a positive integer"):
        ula(count, 0.01)


@pytest.mark.parametrize("build", [
    lambda: ArrayGeometry([[0.0, 0.0], [math.nan, 0.0], [0.02, 0.0]]),
    lambda: ula(4, 0.01, centroid_x=math.inf),
    lambda: ula(128, 1e307),
], ids=["nan-position", "inf-centroid", "overflowing-spacing"])
def test_non_finite_element_positions_rejected(build):
    # a non-finite element makes every range of its side NaN or inf; the
    # overflowing layout must fail on the message alone, no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="element positions must be finite"):
            build()


def test_aperture_is_span_of_elements():
    assert ula(256, 0.01).aperture == pytest.approx(2.55)
    free = ArrayGeometry([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    assert free.aperture == pytest.approx(5.0)


@given(st.lists(st.tuples(*[st.floats(-1e150, 1e150)] * 2), min_size=1, max_size=40))
def test_free_form_aperture_is_the_separation_table_maximum_bit_for_bit(points):
    # the row-at-a-time maximum takes the same per-pair operations as the
    # whole (N, N, 2) table; |x| <= 1e150 keeps every squared separation finite
    pos = np.array(points, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    assert ArrayGeometry(pos).aperture == float(np.sqrt((diff ** 2).sum(-1)).max())


def test_free_form_aperture_is_formed_once_without_a_separation_table():
    # an (N, N, 2) table at N = 2048 takes 64 MiB, one row of separations 32 KiB
    geom = ArrayGeometry(np.random.default_rng(0).uniform(-10.0, 10.0, (2048, 2)))
    tracemalloc.start()
    try:
        d = geom.aperture
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert geom.__dict__["aperture"] is d
    assert geom.aperture is d


def test_region_boundaries_frozen_values():
    # D = 2.55 m, lambda = 0.02 m
    reactive, fraunhofer = ula(256, 0.01).region_boundaries(0.02)
    assert reactive == pytest.approx(17.85200345899586, rel=1e-12)
    assert fraunhofer == pytest.approx(650.25, rel=1e-12)
    assert reactive < fraunhofer


def test_region_boundaries_past_the_float_range_of_d_cubed():
    # D = 7e103 m: D^3 overflows, so both boundaries take D / lambda first
    d = 7e103
    reactive, fraunhofer = ula(8, 1e103).region_boundaries(0.02)
    assert reactive == pytest.approx(0.62 * d * math.sqrt(d / 0.02), rel=1e-12)
    assert fraunhofer == pytest.approx(2.0 * d * d / 0.02, rel=1e-12)


def test_region_boundaries_point_array_collapse():
    assert ula(1, 0.01).region_boundaries(0.02) == (0.0, 0.0)


def test_region_boundaries_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        ula(4, 0.01).region_boundaries(0.0)


def test_array_geometry_validates_shape():
    with pytest.raises(ValueError):
        ArrayGeometry([[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        ArrayGeometry(positions=np.zeros((0, 2)), spacing=None, centroid_x=None)


def test_free_form_centroid_is_mean():
    geom = ArrayGeometry([[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_allclose(geom.centre, [1.0, 1.0])
