"""Closed-form bound approximations, gain expansions, and correction terms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfcrb import (ApproximationDomainError, ArrayGeometry, DegenerateGeometryError, Target,
                   brute_gain, closed_form_single, correction_terms,
                   crb_location_approx, crb_rcs_approx, crb_velocity_approx, gain,
                   make_scene, polar_of, relative_error, slow_time_sum, ula)

from util import (plane_wave_angle_factor, plane_wave_bound, shared_and_unshared,
                  sharing_scenes, target_at)


RANGE_GRID = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)


def scene_at(r, angle_deg, n=256, m=256, v=(1.0, 4.0), spacing=0.01):
    return make_scene(targets=[target_at(r, angle_deg, v=v)],
                      tx=ula(n, spacing), rx=ula(n, spacing), snapshots=m)


# gain expansions


def test_gain_point_array_all_variants_equal():
    t = target_at(100.0, 20.0)
    geom = ula(1, 0.01)
    assert brute_gain(geom, t, "g") == pytest.approx(1e-4, rel=1e-14)
    for variant in ("ff", "nf"):
        assert gain(geom, t, variant) == pytest.approx(1e-4, rel=1e-14)


def test_gain_three_element_hand_sum():
    geom = ula(3, 1.0)
    t = target_at(10.0, 0.0)
    # elements at x = -1, 0, 1; ranges squared 101, 100, 101
    assert brute_gain(geom, t, "g") == pytest.approx(2.0 / 101.0 + 1.0 / 100.0,
                                                     rel=1e-15)
    assert gain(geom, t, "ff") == pytest.approx(0.03, rel=1e-15)
    expected_nf = 3.0 / 100.0 + 3.0 * 8.0 * (-1.0) / (12.0 * 1e4)
    assert gain(geom, t, "nf") == pytest.approx(expected_nf, rel=1e-15)


def test_gain_nf_equals_ff_where_correction_root_sits():
    # 4 sin^2(30 deg) - 1 = 0 kills the second-order term
    geom = ula(64, 0.01)
    t = target_at(100.0, 30.0)
    assert gain(geom, t, "nf") == gain(geom, t, "ff")


def test_gain_expansion_orders():
    geom = ula(256, 0.01)
    ff_err, nf_err = [], []
    for r in RANGE_GRID:
        t = target_at(r, 20.0)
        truth = brute_gain(geom, t, "g")
        ff_err.append(abs(gain(geom, t, "ff") - truth) / truth)
        nf_err.append(abs(gain(geom, t, "nf") - truth) / truth)
    assert np.all(np.array(nf_err) < np.array(ff_err))
    slope = np.polyfit(np.log(RANGE_GRID), np.log(nf_err), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.3)


def test_gain_rejects_non_positive_gain_factor():
    # 25.6 m aperture at 5 m: 1 + delta = -1.18 would give a negative gain,
    # while the true element sum is positive
    geom, t = ula(256, 0.1), target_at(5.0, 0.0)
    assert brute_gain(geom, t, "g") == pytest.approx(4.79, rel=1e-3)
    with pytest.raises(ApproximationDomainError):
        gain(geom, t, "nf")
    assert gain(geom, t, "ff") == 256 / 25.0


def test_gain_expansions_need_ula():
    geom = ArrayGeometry([[0.0, 0.0], [0.3, 0.4], [1.0, 0.0]])
    t = target_at(100.0, 20.0)
    assert brute_gain(geom, t, "g") > 0.0
    with pytest.raises(ValueError, match="uniform linear"):
        gain(geom, t, "nf")


def test_gain_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        gain(ula(3, 0.01), target_at(100.0, 20.0), "mid-field")
    with pytest.raises(ValueError, match="brute_gain"):
        gain(ula(3, 0.01), target_at(100.0, 20.0), "exact")


# correction terms


def test_point_array_corrections_collapse():
    s = scene_at(100.0, 20.0, n=1, m=16)
    c = correction_terms(s, 0)
    assert c.delta_tx == 0.0 and c.delta_rx == 0.0
    assert c.a_tx == 1.0 and c.a_rx == 1.0
    assert c.psi_x == 1.0 and c.psi_y == 1.0


def test_slow_time_sum_closed_form():
    assert slow_time_sum(3) == 14
    assert slow_time_sum(256) == 5625216
    for m in (1, 2, 7, 100):
        assert slow_time_sum(m) == sum(i * i for i in range(1, m + 1))


def test_correction_terms_carry_slow_time_sum():
    s = scene_at(100.0, 20.0, m=3)
    assert correction_terms(s, 0).c_m == 14.0


def test_psi_approaches_one_beyond_fraunhofer():
    geom = ula(256, 0.01)
    r = 10.0 * geom.region_boundaries(0.02)[1]
    for angle in (-60.0, -40.0, -20.0, 20.0, 40.0, 60.0):
        c = correction_terms(scene_at(r, angle), 0)
        assert abs(c.psi_x - 1.0) < 1e-3
        assert abs(c.psi_y - 1.0) < 1e-3


def test_psi_divergence_marker_at_broadside():
    # monostatic broadside: sin(theta_tx) + sin(theta_rx) = 0
    c = correction_terms(scene_at(100.0, 0.0), 0)
    assert math.isinf(c.psi_x)
    assert math.isfinite(c.psi_y)


# closed-form bounds vs the exact single-target reference


def test_point_array_bounds_match_exact():
    # second-order corrections vanish for a point array, so the plane-wave and
    # curved-wave forms coincide with the exact bounds for rcs and velocity;
    # the location forms omit the amplitude sensitivity (relative size
    # 1/(k r)^2), so they sit a decade above rounding at 100 m
    s = scene_at(100.0, 20.0, n=1, m=16, v=(0.0, 0.0))
    b = closed_form_single(s, 0).targets[0]
    for variant in ("ff", "nf"):
        assert crb_rcs_approx(s, 0, variant) == pytest.approx(b.crb_alpha, rel=1e-12)
        for axis in ("x", "y"):
            vel = crb_velocity_approx(s, 0, axis, variant)
            assert vel == pytest.approx(b.by_name("v" + axis), rel=1e-12)
            loc = crb_location_approx(s, 0, axis, variant)
            assert loc == pytest.approx(b.by_name(axis), rel=1e-8)


def test_rcs_ff_range_power_law():
    s1 = scene_at(100.0, 20.0)
    s2 = scene_at(200.0, 20.0)
    ratio = crb_rcs_approx(s2, 0, "ff") / crb_rcs_approx(s1, 0, "ff")
    assert ratio == pytest.approx(16.0, rel=1e-12)


def test_velocity_location_ratio_is_slow_time_factor():
    s = scene_at(100.0, 20.0, m=64)
    expected = s.snapshots / (s.t_sym_s ** 2 * slow_time_sum(s.snapshots))
    for variant in ("ff", "nf"):
        for axis in ("x", "y"):
            ratio = (crb_velocity_approx(s, 0, axis, variant)
                     / crb_location_approx(s, 0, axis, variant))
            assert ratio == pytest.approx(expected, rel=1e-13)


def test_broadside_ff_velocity_diverges():
    s = scene_at(100.0, 0.0)
    assert math.isinf(crb_velocity_approx(s, 0, "x", "ff"))
    assert math.isfinite(crb_velocity_approx(s, 0, "y", "ff"))
    # wavefront curvature keeps the near-field x form finite at broadside
    assert math.isfinite(crb_velocity_approx(s, 0, "x", "nf"))


def test_dark_target_bounds_diverge():
    s = make_scene(targets=[target_at(100.0, 20.0, alpha=(0.0, 0.0))])
    assert math.isinf(crb_velocity_approx(s, 0, "x", "ff"))
    assert math.isinf(crb_location_approx(s, 0, "y", "nf"))


def test_exact_variant_reserved_for_crb_module():
    s = scene_at(100.0, 20.0)
    with pytest.raises(ValueError, match="crb module"):
        crb_rcs_approx(s, 0, "exact")
    with pytest.raises(ValueError, match="crb module"):
        crb_velocity_approx(s, 0, "x", "exact")


def test_reactive_region_target_out_of_domain():
    # 25.6 m aperture at 5 m range: the expansion has no business there
    s = scene_at(5.0, 0.0, spacing=0.1, v=(0.0, 0.0))
    with pytest.raises(ApproximationDomainError):
        crb_rcs_approx(s, 0, "nf")


def test_range_trend_nf_dominates_ff():
    for r in RANGE_GRID:
        s = scene_at(r, 20.0)
        b = closed_form_single(s, 0).targets[0]
        e_ff = relative_error(crb_rcs_approx(s, 0, "ff"), b.crb_alpha)
        e_nf = relative_error(crb_rcs_approx(s, 0, "nf"), b.crb_alpha)
        assert e_nf <= e_ff
        for axis in ("x", "y"):
            tr = b.by_name("v" + axis)
            assert (relative_error(crb_velocity_approx(s, 0, axis, "nf"), tr)
                    <= relative_error(crb_velocity_approx(s, 0, axis, "ff"), tr))


def test_range_trend_errors_decay_monotonically():
    err = {("rcs", v): [] for v in ("ff", "nf")}
    err.update({("vx", v): [] for v in ("ff", "nf")})
    err.update({("x", v): [] for v in ("ff", "nf")})
    for r in RANGE_GRID:
        moving = scene_at(r, 20.0)
        bm = closed_form_single(moving, 0).targets[0]
        # the location closed forms drop the slow-time coupling a moving
        # target induces, so their decay trend is a static-target statement
        static = scene_at(r, 20.0, v=(0.0, 0.0))
        bs = closed_form_single(static, 0).targets[0]
        for v in ("ff", "nf"):
            err["rcs", v].append(relative_error(crb_rcs_approx(moving, 0, v), bm.crb_alpha))
            err["vx", v].append(relative_error(crb_velocity_approx(moving, 0, "x", v), bm.crb_vx))
            err["x", v].append(relative_error(crb_location_approx(static, 0, "x", v), bs.crb_x))
    for series in err.values():
        assert np.all(np.diff(series) < 0.0)


@st.composite
def plane_wave_scenes(draw):
    """One target, anywhere from the reactive region out, seen by monostatic
    or bistatic ULAs with offset centroids."""
    spacing = draw(st.sampled_from([0.005, 0.01, 0.1]))
    tx = ula(draw(st.integers(1, 512)), spacing, draw(st.floats(-10.0, 10.0)))
    rx = tx if draw(st.booleans()) else ula(draw(st.integers(1, 512)), spacing,
                                            draw(st.floats(-10.0, 10.0)))
    th = math.radians(draw(st.floats(-85.0, 85.0)))
    r = draw(st.floats(0.5, 2000.0))
    rcs = st.sampled_from([0.0, 0.3, -1.0])
    # static, so no draw strains the small-displacement model
    target = Target(x=r * math.sin(th), y=r * math.cos(th), vx=0.0, vy=0.0,
                    rcs_re=draw(rcs), rcs_im=draw(rcs))
    try:
        return make_scene(targets=[target], tx=tx, rx=rx, snapshots=draw(st.integers(1, 300)))
    except DegenerateGeometryError:
        assume(False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _assert_same(got, want, rtol):
    if isinstance(want, type):
        assert got is want
    elif math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=rtol, abs=0.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(plane_wave_scenes())
def test_ff_is_the_plane_wave_formula(scene):
    t = scene.targets[0]
    c = correction_terms(scene, 0)
    _assert_same(_outcome(crb_rcs_approx, scene, 0, "ff"),
                 _outcome(plane_wave_bound, scene, 0, "rcs"), 1e-14)
    for axis in ("x", "y"):
        _assert_same(_outcome(crb_location_approx, scene, 0, axis, "ff"),
                     _outcome(plane_wave_bound, scene, 0, axis), 1e-14)
        _assert_same(_outcome(crb_velocity_approx, scene, 0, axis, "ff"),
                     _outcome(plane_wave_bound, scene, 0, "v" + axis), 1e-14)
        den = plane_wave_angle_factor(scene, 0, axis)
        phi = getattr(c, "phi_" + axis)
        _assert_same(getattr(c, "psi_" + axis), phi / den if den >= 1e-12 else math.inf, 1e-14)
    assert gain(scene.tx, t, "ff") == scene.tx.count / polar_of(t, scene.tx)[0] ** 2


def test_relative_error_semantics():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(2.0, 1.0) == 1.0
    assert relative_error(0.5, 1.0) == 0.5
    assert math.isinf(relative_error(math.inf, 1.0))
    with pytest.raises(ValueError):
        relative_error(1.0, 0.0)
    with pytest.raises(ValueError):
        relative_error(1.0, math.inf)
    with pytest.raises(ValueError):
        relative_error(1.0, None)


@pytest.mark.parametrize("key", [k for k in sharing_scenes() if "free-form" not in k])
def test_correction_terms_equal_their_per_side_evaluation_bit_for_bit(monkeypatch, key):
    # a monostatic scene expands one side for both; free-form arrays have no expansion
    scene = sharing_scenes()[key]
    shared, unshared = shared_and_unshared(
        monkeypatch, lambda s: [correction_terms(s, q) for q in range(s.q_count)], scene)
    assert repr(shared) == repr(unshared)
