import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (BLOCKS, ArrayGeometry, DegenerateGeometryError, Scene, Target,
                   dbm_to_watts, fim, make_scene, polar_of, target_indices, ula)
from nfcrb.crb import closed_form_single
from nfcrb.scene import FLOAT_INT_LIMIT, MIN_ELEMENT_CLEARANCE, check_states

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


def test_integral_float_snapshots_are_stored_as_an_int():
    # fim sizes its arrays by snapshots, which numpy refuses as a float
    arrays = {"tx": ula(4, 0.01), "rx": ula(4, 0.01)}
    s = make_scene(snapshots=8.0, **arrays)
    assert type(s.snapshots) is int
    assert fim(s).matrix.tobytes() == fim(make_scene(snapshots=8, **arrays)).matrix.tobytes()


def _largest_snapshot_count():
    """The largest M whose M (M^2 - 1) converts to a float, by bisection."""
    low, high = 1, 10 ** 104
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if mid * (mid * mid - 1) < FLOAT_INT_LIMIT else (low, mid)
    return low


def test_scene_rejects_snapshots_whose_slow_time_moments_leave_the_float_range():
    # T^2 M^3 = 1e109 is finite here, but crb forms V from the integer
    # M (M^2 - 1), which past about 5.6e102 no float holds
    arrays = {"tx": ula(4, 0.01), "rx": ula(4, 0.01), "t_sym_s": 1e-100}
    with pytest.raises(ValueError, match=r"^the CPI of 1e\+103 snapshots of 1e-100 s is too "
                                         r"long: its slow-time moments overflow$"):
        make_scene(snapshots=1e103, **arrays)
    m = _largest_snapshot_count()
    assert 5.6e102 < m < 5.7e102 and float(m * (m * m - 1)) == 1.7976931348623157e308
    with pytest.raises(ValueError, match="slow-time moments overflow"):
        make_scene(snapshots=m + 1, **arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the target travels far over so long a CPI
        scene = make_scene(snapshots=m, **arrays)
    bounds = dataclasses.astuple(closed_form_single(scene, 0).targets[0])
    assert all(0.0 < b < math.inf for b in bounds)


def test_scene_without_targets_is_rejected():
    with pytest.raises(ValueError, match="^scene needs at least one target$"):
        make_scene(targets=[])


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
    free = ArrayGeometry(ula(32, 0.01).positions + [0.0, 1.0])  # centroid (0, 1)
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


def test_small_displacement_warning_reads_each_targets_own_range():
    arrays = {"tx": ula(4, 0.01), "rx": ula(4, 0.01)}
    # 0.5 m of travel over the 25.6 ms CPI is 0.1% of 500 m but 5% of 10 m
    far = target_at(500.0, 0.0, v=(0.5 / 0.0256, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_scene(targets=[target_at(10.0, 0.0, v=(0.0, 0.0)), far], **arrays)
    near = target_at(10.0, 0.0, v=(0.5 / 0.0256, 0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        make_scene(targets=[far, near], **arrays)
    assert [str(w.message) for w in caught] == [
        "target 1 moves 0.5 m over the CPI at minimum range 10 m; "
        "the small-displacement model is strained"]


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
    assert make_scene(tx=ArrayGeometry(positions), rx=ArrayGeometry(positions.copy())).monostatic
    assert not make_scene(tx=ula(8, 0.01), rx=ula(9, 0.01)).monostatic
    assert not make_scene(tx=ula(8, 0.01), rx=ula(8, 0.01, 0.5)).monostatic
    assert not make_scene(tx=one, rx=dataclasses.replace(one, centroid_x=0.5)).monostatic
    assert not make_scene(tx=one, rx=ArrayGeometry(positions)).monostatic
    # bit-identical positions, not equal ones: -0.0 and 0.0 differ
    assert not make_scene(tx=ArrayGeometry(positions),
                          rx=ArrayGeometry(positions * [1.0, -1.0])).monostatic


def test_monostatic_is_computed_once_and_patchable(monkeypatch):
    s = make_scene(tx=ula(8, 0.01), rx=ula(8, 0.01))
    assert s.monostatic and s.__dict__["monostatic"] is True
    # a property patched onto the class wins over the cached value
    monkeypatch.setattr(Scene, "monostatic", property(lambda self: False))
    assert s.monostatic is False


def test_states_hold_each_targets_blocks_fields_bit_for_bit():
    targets = [Target(x=-0.0, y=50.0, vx=0.0, vy=-0.0, rcs_re=-0.0, rcs_im=0.5),
               Target(x=3.25, y=40.0, vx=-2.0, vy=0.0, rcs_re=1.5, rcs_im=-0.0)]
    s = make_scene(targets=targets, tx=ula(8, 0.01), rx=ula(8, 0.01), snapshots=4)
    assert (s.states.shape, s.states.dtype) == ((2, 6), np.float64)
    assert s.states[0].tobytes() == np.array([-0.0, 50.0, 0.0, -0.0, -0.0, 0.5]).tobytes()
    for row, t in zip(s.states, targets):
        for value, name in zip(row, BLOCKS):
            assert value.tobytes() == np.float64(getattr(t, name)).tobytes()
    assert s.states is s.states and "states" not in [f.name for f in dataclasses.fields(Scene)]
    with pytest.raises(ValueError, match="read-only"):
        s.states[0, 0] = 1.0
    # a replaced scene forms the states of its own targets
    swapped = dataclasses.replace(s, targets=targets[::-1])
    assert swapped.states.tobytes() == s.states[::-1].tobytes()


def test_side_names_the_tx_or_rx_array():
    s = make_scene(tx=ula(8, 0.01), rx=ula(9, 0.01))
    assert s.side("tx") is s.tx and s.side("rx") is s.rx
    with pytest.raises(ValueError, match=r"^side must be 'tx' or 'rx', got 'sum'$"):
        s.side("sum")


@pytest.mark.parametrize("rx, calls", [(ula(8, 0.01), ["rx"]), (ula(8, 0.01, 0.5), ["rx", "tx"])],
                         ids=["monostatic", "bistatic"])
def test_per_side_evaluates_rx_and_then_tx_only_if_bistatic(rx, calls):
    s = make_scene(tx=ula(8, 0.01), rx=rx)
    seen = []

    def evaluate(side):
        seen.append(side)
        return object()

    tx_value, rx_value = s.per_side(evaluate)
    assert seen == calls
    assert (tx_value is rx_value) == s.monostatic


# the reference for Scene validation: each target in turn, each side, an element before a centroid


def _loop_validation(targets, tx, rx, snapshots, t_sym_s):
    for q, t in enumerate(targets):
        if not all(math.isfinite(getattr(t, name)) for name in BLOCKS):
            raise ValueError(f"target {q} has a non-finite field")
    min_ranges = []  # per target, its closest element range over both sides
    for q, t in enumerate(targets):
        min_ranges.append(math.inf)
        for geom in (tx, rx):
            d = np.hypot(t.x - geom.positions[:, 0], t.y - geom.positions[:, 1])
            if d.min() <= MIN_ELEMENT_CLEARANCE:
                raise DegenerateGeometryError(
                    f"target {q} is within {MIN_ELEMENT_CLEARANCE} m of an array element"
                )
            cx, cy = ((geom.centroid_x, 0.0) if geom.centroid_x is not None
                      else geom.positions.mean(axis=0))
            if math.hypot(t.x - cx, t.y - cy) <= MIN_ELEMENT_CLEARANCE:
                raise DegenerateGeometryError("target sits at the array centroid")
            min_ranges[q] = min(min_ranges[q], float(d.min()))
    for q, t in enumerate(targets):
        travel = math.hypot(t.vx, t.vy) * snapshots * t_sym_s
        if travel / min_ranges[q] > 1e-2:
            warnings.warn(
                f"target {q} moves {travel:.3g} m over the CPI at minimum range "
                f"{min_ranges[q]:.3g} m; the small-displacement model is strained"
            )


def _outcome(build):
    """(exception type and message or None, [(category, message, filename)]) of build()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            build()
            error = None
        except ValueError as e:
            error = (type(e), str(e))
    return error, [(w.category, str(w.message), w.filename) for w in caught]


@st.composite
def validation_cases(draw):
    """1-5 targets on, near and a few ulps around the elements and centroids of their arrays."""
    def array():
        geom = ula(draw(st.integers(1, 6)), draw(st.sampled_from([0.01, 0.3])),
                   draw(st.sampled_from([0.0, 0.25])))
        if draw(st.booleans()):
            geom = ArrayGeometry(geom.positions + [0.0, draw(st.sampled_from([0.0, 0.5]))])
        return geom

    tx = array()
    rx = draw(st.sampled_from([tx, dataclasses.replace(tx), array()]))
    targets = []
    for _ in range(draw(st.integers(1, 5))):
        geom = draw(st.sampled_from([tx, rx]))
        spot = draw(st.sampled_from(["free", "element", "centroid"]))
        if spot == "free":
            cx, cy = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.5, 5.0))
        elif spot == "element":
            cx, cy = geom.positions[draw(st.integers(0, geom.count - 1))]
        else:
            cx, cy = geom.centre
        dist = draw(st.sampled_from([0.0, 5e-7, 2e-6, MIN_ELEMENT_CLEARANCE]))
        if dist == MIN_ELEMENT_CLEARANCE:
            dist += draw(st.integers(-3, 3)) * math.ulp(MIN_ELEMENT_CLEARANCE)
        angle = draw(st.sampled_from([0.0, 0.6, math.pi / 2, 2.0]))
        fields = {"x": float(cx + dist * math.sin(angle)), "y": float(cy + dist * math.cos(angle)),
                  "vx": draw(st.sampled_from([0.0, 1.0, 50.0, 1e4])), "vy": 1.0}
        if draw(st.integers(0, 9)) == 0:
            fields[draw(st.sampled_from(BLOCKS))] = math.nan
        targets.append(Target(**fields))
    return tuple(targets), tx, rx


@settings(derandomize=True, max_examples=300, deadline=None)
@given(validation_cases())
def test_validation_of_all_targets_at_once_matches_the_per_target_loop(case):
    targets, tx, rx = case
    error, warned = _outcome(lambda: Scene(carrier_hz=15e9, t_sym_s=1e-4, snapshots=8,
                                           power_w=0.1, noise_var_w=1e-15, tx=tx, rx=rx,
                                           targets=targets))
    want_error, want_warned = _outcome(lambda: _loop_validation(targets, tx, rx, 8, 1e-4))
    assert error == want_error
    assert [w[:2] for w in warned] == [w[:2] for w in want_warned]
    # stacklevel points each warning at the code that built the scene
    assert all(w[2] == __file__ for w in warned)


def test_first_target_in_order_names_the_failure():
    # target 1 sits at the centroid of an even array, target 2 on an element
    geom = ula(4, 0.01)
    targets = [target_at(30.0, 10.0), Target(x=0.0, y=5e-7), Target(x=0.005, y=0.0)]
    with pytest.raises(DegenerateGeometryError, match="array centroid"):
        make_scene(targets=targets, tx=geom, rx=geom)
    with pytest.raises(DegenerateGeometryError, match="target 0 is within"):
        make_scene(targets=targets[::-1], tx=geom, rx=geom)


def test_check_states_checks_an_array_object_listed_twice_once():
    # the test is identity: an equal but distinct array is still checked, and
    # the result and the first error do not depend on the repeat
    g = ula(4, 0.01)
    states = make_scene(targets=[target_at(30.0, 10.0), target_at(80.0, -40.0)], tx=g,
                        rx=g).states
    near = check_states(states, (g,))
    assert check_states(states, (g, g)).tobytes() == near.tobytes()
    on_element, at_centroid = states.copy(), states.copy()
    on_element[1, :2] = g.positions[2]
    at_centroid[0, :2] = g.centre
    for rows in (on_element, at_centroid):
        with pytest.raises(ValueError) as once:
            check_states(rows, (g,))
        with pytest.raises(ValueError) as twice:
            check_states(rows, (g, g))
        assert (type(twice.value), str(twice.value)) == (type(once.value), str(once.value))

    class Counted:
        """g's centre and positions, counting the reads of its positions."""

        centre, reads = g.centre, 0

        @property
        def positions(self):
            self.reads += 1
            return g.positions

    shared, distinct = Counted(), Counted()
    assert check_states(states, (shared, shared)).tobytes() == near.tobytes()
    check_states(states, (distinct, Counted()))
    assert (shared.reads, distinct.reads) == (1, 1)


def test_scene_is_immutable():
    s = make_scene()
    with pytest.raises(Exception):
        s.power_w = 1.0


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(finite, finite, st.dictionaries(st.sampled_from(BLOCKS[2:]), finite))
def test_target_at_places_by_range_and_broadside_angle(r, theta, fields):
    want = Target(r * math.sin(theta), r * math.cos(theta), **fields)
    assert repr(Target.at(r, theta, **fields)) == repr(want)


# below |theta| = 1e-300, r*sin(theta) can be subnormal and keep fewer bits than theta
angles = st.one_of(st.just(0.0), st.floats(1e-300, math.pi, exclude_max=True),
                   st.floats(-math.pi, -1e-300, exclude_min=True))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e300, exclude_min=True), angles)
def test_polar_of_inverts_target_at_about_the_origin(r, theta):
    back_r, back_theta = polar_of(Target.at(r, theta), ula(1, 1.0))
    assert abs(back_r - r) <= 4 * math.ulp(r)
    assert abs(back_theta - theta) <= 4 * math.ulp(theta)


def test_default_target_is_the_reference_target():
    want = Target(x=100 * math.sin(math.radians(20.0)), y=100 * math.cos(math.radians(20.0)),
                  vx=1.0, vy=4.0, rcs_re=1.0, rcs_im=0.1)
    assert repr(make_scene().targets) == repr((want,))
