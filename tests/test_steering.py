import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (ArrayGeometry, Target, doppler_shift, make_scene, pathloss,
                   steering_stack, ula)
from nfcrb.oracle import fd_steering_rows
from nfcrb.steering import KEYS, LOW_ROWS, _stack, side_factors, steering_values

from util import canonical_scene, many_target_scene, small_scene, target_at


def test_single_element_entry_frozen_value():
    # one element at the origin, static target 100 m up, lambda = 0.02 m:
    # the range is an integer number of wavelengths so the phase winds to ~0
    s = make_scene(targets=[Target(x=0.0, y=100.0)],
                   tx=ula(1, 0.01), rx=ula(1, 0.01), snapshots=1)
    entry = steering_stack(s, "tx", 0)[0][0, 0]
    g = 1.5915494309189534e-05
    assert abs(entry) == pytest.approx(g, rel=1e-12)
    expected = g * np.exp(-1j * (2 * np.pi / 0.02) * 100.0)
    assert entry == pytest.approx(expected, rel=1e-12)


def test_entry_magnitude_equals_pathloss_everywhere():
    s = small_scene(n=8, m=4)
    t = s.targets[0]
    for side in ("tx", "rx"):
        geom = getattr(s, side)
        stack = steering_stack(s, side, 0)
        per_element = np.array([pathloss((t.x, t.y), pos, s.wavelength_m)
                                for pos in geom.positions])
        np.testing.assert_allclose(np.abs(stack[0]),
                                   np.broadcast_to(per_element, stack[0].shape),
                                   rtol=1e-13)


def test_static_target_steering_identical_across_snapshots():
    s = small_scene(v=(0.0, 0.0))
    stack = steering_stack(s, "rx", 0)
    np.testing.assert_array_equal(stack[0], np.broadcast_to(stack[0][0], stack[0].shape))


def test_snapshot_phase_progression_matches_doppler():
    s = small_scene(n=4, m=3)
    t = s.targets[0]
    stack = steering_stack(s, "tx", 0)
    ratio = stack[0][1:] / stack[0][:-1]
    # one-way shift of each element path = half the monostatic two-way shift
    shift = np.array([doppler_shift(t, pos, pos, s.carrier_hz, s.lightspeed) / 2
                      for pos in s.tx.positions])
    expected = np.exp(1j * 2 * np.pi * shift * s.t_sym_s)
    # ratios inherit ~eps*k*r relative noise from the large common carrier phase
    np.testing.assert_allclose(ratio, np.broadcast_to(expected, ratio.shape), rtol=1e-10)


def test_velocity_derivative_linear_in_slow_time():
    s = small_scene(m=8, v=(0.0, 0.0))
    d_vx = steering_stack(s, "rx", 0)[KEYS.index("d_vx")]  # row m-1 is snapshot m
    for m in (2, 5, 8):
        np.testing.assert_allclose(d_vx[m - 1], m * d_vx[0], rtol=1e-13)


def test_velocity_derivative_magnitude_factor():
    s = small_scene(n=4, m=4)
    m = 3
    stack = steering_stack(s, "tx", 0)
    d, a = stack[KEYS.index("d_vx"), m - 1], stack[0, m - 1]
    t = s.targets[0]
    dx = t.x - s.tx.positions[:, 0]
    dy = t.y - s.tx.positions[:, 1]
    r = np.hypot(dx, dy)
    k = 2 * np.pi * s.carrier_hz / s.lightspeed
    np.testing.assert_allclose(np.abs(d), k * m * s.t_sym_s * np.abs(dx) / r * np.abs(a),
                               rtol=1e-13)


def test_broadside_element_kills_x_derivatives():
    # static target directly above the only element
    s = make_scene(targets=[Target(x=0.0, y=50.0)],
                   tx=ula(1, 0.01), rx=ula(1, 0.01), snapshots=2)
    stack = steering_stack(s, "tx", 0)
    assert stack[KEYS.index("d_vx"), 0, 0] == 0
    assert stack[KEYS.index("d_x"), 0, 0] == 0


def test_static_location_factor_reduces_to_two_terms():
    s = small_scene(n=4, m=4, v=(0.0, 0.0))
    m = 2
    stack = steering_stack(s, "rx", 0)
    d, a = stack[KEYS.index("d_x"), m - 1], stack[0, m - 1]
    t = s.targets[0]
    dx = t.x - s.rx.positions[:, 0]
    r = np.hypot(dx, t.y - s.rx.positions[:, 1])
    k = 2 * np.pi * s.carrier_hz / s.lightspeed
    factor = -1j * k * dx / r - dx / r ** 2
    np.testing.assert_allclose(d, factor * a, rtol=1e-13)


@pytest.mark.parametrize("kind", ["x", "y", "vx", "vy"])
def test_derivatives_match_finite_differences(kind):
    s = canonical_scene()
    for side in ("tx", "rx"):
        stack = steering_stack(s, side, 0)
        for m in (2, 8, 16):
            ana = stack[KEYS.index("d_" + kind)][m - 1]
            ref = fd_steering_rows(s, side, [0], [(kind, None)], [m])[0, 0][0]
            err = np.linalg.norm(ana - ref) / np.linalg.norm(ref)
            assert err < 1e-6, (side, m, kind, err)


def test_fd_rejects_underflowing_step():
    s = small_scene()
    with pytest.raises(ValueError):
        fd_steering_rows(s, "tx", [0], [("x", 1e-22)], [1])


@st.composite
def stack_cases(draw):
    """1-4 target indices into a scene on ULA or free-form arrays, one side or two."""
    def array():
        geom = ula(draw(st.integers(1, 8)), draw(st.sampled_from([0.01, 0.3])),
                   draw(st.sampled_from([0.0, 0.5])))
        if draw(st.booleans()):
            geom = ArrayGeometry(geom.positions + [0.0, draw(st.sampled_from([0.0, -0.2]))])
        return geom

    tx = array()
    rx = tx if draw(st.booleans()) else array()
    speed = st.floats(-20.0, 20.0)
    targets = [target_at(draw(st.floats(10.0, 400.0)), draw(st.floats(-80.0, 80.0)),
                         v=(draw(speed), draw(speed)))
               for _ in range(draw(st.integers(1, 4)))]
    scene = make_scene(targets=targets, tx=tx, rx=rx, snapshots=draw(st.integers(1, 16)))
    qs = draw(st.lists(st.integers(0, len(targets) - 1), min_size=1, max_size=4))
    m_values = draw(st.one_of(st.none(),
                              st.lists(st.integers(1, scene.snapshots), min_size=1, max_size=3)))
    return scene, draw(st.sampled_from([list, tuple]))(qs), m_values


@settings(derandomize=True, max_examples=80, deadline=None)
@given(stack_cases())
def test_stack_of_a_target_list_equals_one_stack_per_target_bit_for_bit(case):
    scene, qs, m_values = case
    for side in ("tx", "rx"):
        many = steering_stack(scene, side, qs, m_values)
        values = steering_values(scene, side, m_values)
        for j, q in enumerate(qs):
            one = steering_stack(scene, side, q, m_values)
            for field in range(len(KEYS)):
                got, want = many[field, j], one[field]
                assert got.shape == want.shape
                assert (got == want).all()
            # steering_values' slice q is the stack's first field, a
            assert values[q].shape == one[0].shape
            assert (values[q] == one[0]).all()


def chunk_fields(scene, factors, start, rows, out=None):
    """_stack of snapshot rows start.. start + rows, cut at M, from one set of side_factors."""
    stop = min(start + rows, scene.snapshots)
    return _stack(scene, *factors, np.arange(start + 1, stop + 1), out)


def assert_chunks_join_into_the_stack(scene, qs, rows):
    for side in ("tx", "rx"):
        whole = steering_stack(scene, side, qs)
        factors = side_factors(scene, side, qs)
        starts = range(0, scene.snapshots, rows)
        chunks = [chunk_fields(scene, factors, start, rows) for start in starts]
        assert [fields.shape[2] for fields in chunks] == [min(rows, scene.snapshots - start)
                                                          for start in starts]
        joined = np.concatenate(chunks, axis=2)
        assert joined.shape == whole.shape
        assert (joined == whole).all()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stack_cases(), st.integers(1, 16))
def test_snapshot_chunks_join_into_the_stack_bit_for_bit(case, rows):
    scene, qs, _ = case
    assert_chunks_join_into_the_stack(scene, list(qs), rows)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(stack_cases(), st.integers(1, 16))
def test_snapshot_chunks_written_into_slots_join_into_the_stack_bit_for_bit(case, rows):
    # two lanes, chunks 0, 2, 4, ... and 1, 3, 5, ..., each written into its own
    # slot from one set of element factors, as fim forms them
    scene, qs, _ = case
    for side, geom in (("tx", scene.tx), ("rx", scene.rx)):
        slots = np.full((2, (len(KEYS) + 1) * len(qs) * rows * geom.count), np.nan, dtype=complex)
        factors = side_factors(scene, side, list(qs))
        starts = range(0, scene.snapshots, rows)
        lanes = [iter(starts[i::2]) for i in range(len(slots))]
        chunks = []
        for i, start in enumerate(starts):
            assert next(lanes[i % 2]) == start
            fields = chunk_fields(scene, factors, start, rows, slots[i % 2])
            assert np.shares_memory(fields, slots[i % 2])
            chunks.append(fields.copy())
        assert [next(lane, None) for lane in lanes] == [None, None]
        assert (np.concatenate(chunks, axis=2) == steering_stack(scene, side, list(qs))).all()


@pytest.mark.parametrize("rows", [1, 13])
def test_eval_size_chunks_join_into_the_stack_bit_for_bit(rows):
    # the whole stack's (8, 128, 128) complex temporaries lie above numpy's
    # 256 KiB threshold for reusing a temporary in place, the chunks' below it
    scene = many_target_scene()
    assert_chunks_join_into_the_stack(scene, list(range(scene.q_count)), rows)


def block_scene(m):
    """Three targets on 5 Tx and 3 Rx elements over m snapshots."""
    targets = [target_at(120.0, 25.0, v=(7.0, -3.0)), target_at(340.0, -50.0, v=(-12.0, 9.0)),
               target_at(35.0, 5.0, v=(0.5, 19.0))]
    return make_scene(targets=targets, tx=ula(5, 0.01), rx=ula(3, 0.3, 0.5), snapshots=m)


@pytest.mark.parametrize("m", [LOW_ROWS - 1, LOW_ROWS, LOW_ROWS + 1, 2 * LOW_ROWS + 5])
def test_stacks_across_phasor_rows_are_bit_identical(m):
    # the hypothesis scenes above stay within one high row of the phasor table
    scene, qs = block_scene(m), [2, 0, 1, 0]
    for rows in range(1, m + 1):
        assert_chunks_join_into_the_stack(scene, qs, rows)
    rng = np.random.default_rng(m)
    subsets = [[m], [1, m], list(range(m, 0, -1)), rng.integers(1, m + 1, 7).tolist(),
               sorted(rng.choice(np.arange(1, m + 1), min(m, 9), replace=False).tolist())]
    for side in ("tx", "rx"):
        whole = steering_stack(scene, side, qs)
        for m_values in subsets:
            rows = np.array(m_values) - 1
            assert (steering_stack(scene, side, qs, m_values) == whole[:, :, rows]).all()
            values = steering_values(scene, side, m_values)
            assert (values[qs] == whole[0][:, rows]).all()
