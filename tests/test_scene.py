import dataclasses
import math
import warnings

import numpy as np
import pytest

from nfcrb import (BLOCKS, DegenerateGeometryError, Target, dbm_to_watts,
                   from_positions, make_scene, polar_of, target_indices, ula)

from util import target_at


def test_default_scene_matches_reference_configuration():
    s = make_scene()
    assert s.carrier_hz == 15.0e9
    assert s.wavelength_m == pytest.approx(0.02, rel=1e-12)
    assert s.snapshots == 256
    assert s.power_w == pytest.approx(0.1)
    assert s.noise_var_w == pytest.approx(3.9810717055349695e-15, rel=1e-12)
    assert s.tx.count == s.rx.count == 256
    assert s.tx.spacing == pytest.approx(0.01)
    t = s.targets[0]
    assert t.x == pytest.approx(34.20201433256687, rel=1e-12)
    assert t.y == pytest.approx(93.96926207859084, rel=1e-12)
    assert (t.vx, t.vy) == (1.0, 4.0)
    assert t.rcs == 1.0 + 0.1j


def test_dbm_conversion():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-114.0) == pytest.approx(3.9810717055349695e-15, rel=1e-12)


def test_wavelength_follows_carrier_and_lightspeed():
    s = make_scene(tx=ula(4, 0.01), rx=ula(4, 0.01))
    assert s.wavelength_m == s.lightspeed / s.carrier_hz
    retuned = dataclasses.replace(s, carrier_hz=30e9)
    assert retuned.wavelength_m == pytest.approx(0.01, rel=1e-12)
    slowed = dataclasses.replace(s, lightspeed=1.5e8)
    assert slowed.wavelength_m == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("lightspeed", [0.0, -3e8])
def test_scene_rejects_non_positive_lightspeed(lightspeed):
    with pytest.raises(ValueError, match="lightspeed must be positive"):
        make_scene(tx=ula(4, 0.01), rx=ula(4, 0.01), lightspeed=lightspeed)
    with pytest.raises(ValueError, match="lightspeed must be positive"):
        dataclasses.replace(make_scene(), lightspeed=lightspeed)


@pytest.mark.parametrize("kwargs", [
    {"power_w": 0.0},
    {"power_w": -1.0},
    {"noise_var_w": 0.0},
    {"snapshots": 0},
    {"t_sym_s": 0.0},
    {"carrier_hz": -15e9},
])
def test_scene_rejects_nonpositive_scalars(kwargs):
    with pytest.raises(ValueError):
        make_scene(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"power_w": math.nan},
    {"noise_var_w": math.inf},
    {"snapshots": math.inf},
    {"t_sym_s": math.nan},
    {"carrier_hz": 1e-320, "tx": ula(4, 0.01), "rx": ula(4, 0.01)},
], ids=["power-nan", "noise-inf", "snapshots-inf", "tsym-nan", "wavelength-inf"])
def test_scene_rejects_non_finite_scalars(kwargs):
    with pytest.raises(ValueError, match="finite"):
        make_scene(**kwargs)


@pytest.mark.parametrize("power_w, noise_var_w", [
    (0.1, 1e-320),
    (1e300, 1e-10),
    (1e-300, 1e300),
], ids=["noise-subnormal", "ratio-overflows", "ratio-underflows"])
def test_scene_rejects_unrepresentable_power_over_noise(power_w, noise_var_w):
    # 2 * power_w / noise_var_w scales every FIM entry, so inf or 0 is no bound
    with pytest.raises(ValueError, match="2\\*power_w/noise_var_w must be finite and nonzero"):
        make_scene(tx=ula(4, 0.01), rx=ula(4, 0.01), power_w=power_w,
                   noise_var_w=noise_var_w)


@pytest.mark.parametrize("name", BLOCKS)
def test_scene_rejects_non_finite_target_fields(name):
    fields = {"x": 30.0, "y": 100.0, name: math.nan}
    with pytest.raises(ValueError, match="target 0 has a non-finite field"):
        make_scene(targets=[Target(**fields)], tx=ula(4, 0.01), rx=ula(4, 0.01))


def test_snapshots_must_be_integral():
    with pytest.raises(ValueError):
        make_scene(snapshots=2.5)


def test_target_on_element_is_degenerate():
    geom = ula(4, 0.01)
    on_top = Target(x=float(geom.positions[0, 0]), y=0.0)
    with pytest.raises(DegenerateGeometryError):
        make_scene(targets=[on_top], tx=geom, rx=geom)


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_target_at_even_array_centroid_is_degenerate(side):
    # the nearest element of an even-count array is half a pitch away, so
    # the element clearance passes this target; polar_of would fail on it
    near = Target(x=0.0, y=5e-7)
    arrays = {"tx": ula(4, 0.01, centroid_x=3.0), "rx": ula(4, 0.01, centroid_x=3.0)}
    arrays[side] = ula(32, 0.01)
    with pytest.raises(DegenerateGeometryError, match="array centroid"):
        make_scene(targets=[near], **arrays)
    free = from_positions(ula(32, 0.01).positions + [0.0, 1.0])  # centroid (0, 1)
    with pytest.raises(DegenerateGeometryError, match="array centroid"):
        make_scene(targets=[Target(x=0.0, y=1.0 + 5e-7)], **{**arrays, side: free})
    # just beyond the clearance the scene builds and polar_of answers
    clear = Target(x=0.0, y=2e-6)
    s = make_scene(targets=[clear], **arrays)
    assert polar_of(clear, getattr(s, side))[0] == pytest.approx(2e-6)


def test_fast_target_warns_but_builds():
    quick = target_at(10.0, 0.0, v=(300.0, 0.0))
    with pytest.warns(UserWarning):
        s = make_scene(targets=[quick], tx=ula(4, 0.01), rx=ula(4, 0.01))
    assert s.q_count == 1


def test_default_scene_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_scene()


def test_param_vector_layout():
    assert BLOCKS == ("x", "y", "vx", "vy", "rcs_re", "rcs_im")
    targets = [target_at(100, 20), target_at(150, -45, v=(4, 3), alpha=(0.8, -0.2))]
    # block-major layout: all x first, then all y, ...
    values = np.array([getattr(t, name) for name in BLOCKS for t in targets])
    for q, t in enumerate(targets):
        idx = target_indices(q, 2)
        np.testing.assert_allclose(
            values[idx], [t.x, t.y, t.vx, t.vy, t.rcs_re, t.rcs_im])


def test_polar_of_uses_array_centroid():
    s = make_scene()
    r, th = polar_of(s.targets[0], s.tx)
    assert r == pytest.approx(100.0, rel=1e-12)
    assert math.degrees(th) == pytest.approx(20.0, rel=1e-12)
    shifted = ula(16, 0.01, centroid_x=-2.0)
    r2, th2 = polar_of(Target(x=-2.0, y=50.0), shifted)
    assert r2 == pytest.approx(50.0, rel=1e-12)
    assert th2 == pytest.approx(0.0, abs=1e-15)


def test_monostatic_needs_one_layout_on_both_sides():
    positions = ula(8, 0.01).positions
    assert make_scene().monostatic  # two ULAs built alike
    one = ula(8, 0.01)
    assert make_scene(tx=one, rx=one).monostatic
    assert make_scene(tx=from_positions(positions), rx=from_positions(positions.copy())).monostatic
    assert not make_scene(tx=ula(8, 0.01), rx=ula(9, 0.01)).monostatic
    assert not make_scene(tx=ula(8, 0.01), rx=ula(8, 0.01, 0.5)).monostatic
    assert not make_scene(tx=one, rx=dataclasses.replace(one, centroid_x=0.5)).monostatic
    assert not make_scene(tx=one, rx=from_positions(positions)).monostatic
    # bit-identical positions, not equal ones: -0.0 and 0.0 differ
    assert not make_scene(tx=from_positions(positions),
                          rx=from_positions(positions * [1.0, -1.0])).monostatic


def test_scene_is_immutable():
    s = make_scene()
    with pytest.raises(Exception):
        s.power_w = 1.0
