import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (ArrayGeometry, DegenerateGeometryError, Target, doppler_shift, make_scene,
                   pathloss, steering_stack, ula)
from nfcrb.oracle import fd_steering_rows
from nfcrb import steering
from nfcrb.crb import _element_moments
from nfcrb.steering import (KEYS, LOW_ROWS, _stack, element_factors, side_factors,
                            steering_values)

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


def test_element_factors_of_a_target_on_an_element_are_degenerate():
    # Scene validation keeps targets off the elements; element_factors takes
    # any target, so it checks its own ranges
    s = small_scene()
    on_top = Target(x=float(s.tx.positions[3, 0]), y=0.0)
    with pytest.raises(DegenerateGeometryError, match="coincides with an array element"):
        element_factors(s, s.tx, on_top)


def test_pathloss_and_doppler_reject_a_zero_distance():
    with pytest.raises(DegenerateGeometryError, match="zero propagation distance"):
        pathloss((1.0, 2.0), (1.0, 2.0), 0.02)
    for tx, rx in (((1.0, 2.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 2.0))):
        with pytest.raises(DegenerateGeometryError, match="zero propagation distance"):
            doppler_shift(Target(x=1.0, y=2.0, vx=1.0), tx, rx, 15.0e9, 3.0e8)


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
        slots = np.full((2, (2 * len(KEYS) - 1) * len(qs) * rows * geom.count), np.nan,
                        dtype=complex)
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


def closure_factors(scene, geom, target):
    """element_factors as a per-row closure restacked by np.array, the form it replaced."""
    dx, dy, r, u, g = steering._paths(scene, geom, target.x, target.y, target.vx, target.vy)
    jk = 2j * np.pi * scene.carrier_hz / scene.lightspeed

    def factors(key):  # the (alpha_p, beta_p) row pair of field key
        along, across, turn = (dx, dy, jk) if key.endswith("x") else (dy, dx, -jk)
        if key.startswith("d_v"):
            return np.zeros_like(r), jk * along / r
        return -jk * along / r - along / r2, turn * across * v_tan / r2

    v_tan = (target.vx * dy - target.vy * dx) / r
    r2 = r ** 2
    alpha, beta = (np.array(rows, dtype=complex) for rows in zip(*map(factors, KEYS[1:])))
    return g, r, u, alpha, beta


def loop_stack(scene, g, r, u, alpha, beta, m_values):
    """_stack as one scratch field and a loop over the derivative fields, the form it replaced."""
    if m_values is None:
        m_values = np.arange(1, scene.snapshots + 1)
    shape = r.shape[:-2] + (len(m_values), r.shape[-1])
    fields = np.empty((len(KEYS),) + shape, dtype=complex)
    scratch = np.empty(shape, dtype=complex)
    a = steering._entries(scene, g, r, u, m_values, out=fields[0])
    t = (np.asarray(m_values, dtype=float)[:, None] * scene.t_sym_s).astype(complex)
    for field, alpha_p, beta_p in zip(fields[1:], alpha, beta):
        np.add(alpha_p, np.multiply(beta_p, t, out=scratch), out=scratch)
        np.multiply(scratch, a, out=field)
    return fields


def assert_same_bytes(got, want):
    for x, y in zip(got, want, strict=True):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stack_cases(), st.data())
def test_element_factors_equal_the_per_row_closure_bit_for_bit(case, data):
    # zero offsets and signed zero velocities make zeros whose sign a
    # reordered product, jk (-dx) for -jk dx, would flip
    scene, qs, _ = case
    signed = st.sampled_from([0.0, -0.0, 2.5, -11.0])
    targets = [dataclasses.replace(t, x=data.draw(st.sampled_from([t.x, 0.0, -0.0])),
                                   vx=data.draw(signed), vy=data.draw(signed))
               for t in scene.targets]
    scene = make_scene(targets=targets, tx=scene.tx, rx=scene.rx, snapshots=scene.snapshots)
    for side in ("tx", "rx"):
        geom = scene.side(side)
        columns = steering._Columns(*scene.states[list(qs), :4].T[:, :, None, None])
        for target in [*targets, columns]:
            assert_same_bytes(element_factors(scene, geom, target),
                              closure_factors(scene, geom, target))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(stack_cases(), st.data())
def test_stack_fields_equal_the_per_field_loop_bit_for_bit(case, data):
    scene, qs, m_values = case
    start = data.draw(st.integers(1, scene.snapshots))
    subsets = [None, range(start, scene.snapshots + 1), np.arange(1, start + 1), m_values]
    for side in ("tx", "rx"):
        for q in [*qs, list(qs)]:  # without and with a target axis
            factors = side_factors(scene, side, q)
            for ms in subsets:
                assert_same_bytes([_stack(scene, *factors, ms)], [loop_stack(scene, *factors, ms)])


@st.composite
def block_factor_cases(draw):
    """A scene's carrier and slow time, 1-5 arrays of 1-300 elements and 1-4 target states.

    Half the time the arrays share one spacing and centroid, so the smaller
    ones of a count parity lie in the middle of a larger one.
    """
    layout = (st.floats(1e-3, 0.5), st.sampled_from([0.0, -0.0, 0.5, -1.7]))
    shared = [draw(x) for x in layout] if draw(st.booleans()) else None
    arrays = [ula(n, *(shared or [draw(x) for x in layout]))
              for n in draw(st.lists(st.integers(1, 300), min_size=1, max_size=5))]
    if draw(st.booleans()):  # free-form arrays, off the x-axis
        arrays = [ArrayGeometry(geom.positions + [0.0, draw(st.sampled_from([0.0, -0.2]))])
                  for geom in arrays]
    speed = st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0)
    targets = [target_at(draw(st.floats(0.5, 1e4)), draw(st.floats(-80.0, 80.0)),
                         v=(draw(speed), draw(speed)))
               for _ in range(draw(st.integers(1, 4)))]
    states = np.array([[t.x, t.y, t.vx, t.vy, t.rcs_re, t.rcs_im] for t in targets])
    # the scene gives the carrier and slow time alone; its own target is the default
    scene = make_scene(tx=arrays[0], rx=arrays[0], snapshots=draw(st.integers(1, 512)),
                       carrier_hz=draw(st.sampled_from([2.4e9, 15e9, 77e9])))
    return scene, arrays, states


@settings(derandomize=True, max_examples=60, deadline=None)
@given(block_factor_cases())
def test_block_factors_and_their_moments_equal_per_array_bit_for_bit(case):
    # one element_factors evaluation over concatenated arrays and stacked
    # states, as a sweep block takes it: each (state, array) view holds the
    # bits of its own one-target, one-array evaluation, and the element
    # moments of a view those of a contiguous copy
    scene, arrays, states = case
    factors, starts = steering.block_factors(scene, arrays, states)
    t_bar = scene.t_sym_s * (scene.snapshots + 1) / 2.0
    for geom, start in zip(arrays, starts):
        for t in range(len(states)):
            view = tuple(x[..., t:t + 1, :, start:start + geom.count] for x in factors)
            alone = element_factors(scene, geom, steering._Columns(
                *states[t:t + 1, :4].T[:, :, None, None]))
            assert_same_bytes(view, alone)
            moments = _element_moments(view, t_bar)
            assert_same_bytes(moments, _element_moments(tuple(x.copy() for x in view), t_bar))
            assert_same_bytes(moments, _element_moments(alone, t_bar))


def test_block_factors_read_a_smaller_ula_from_a_larger_one():
    # the ULAs of one spacing and centroid: each count parity is one run of
    # elements, the largest array's; a free-form copy, 0.2 m off the axis,
    # and a moved centroid are runs of their own
    scene = canonical_scene()
    arrays = [ula(n, 0.01) for n in (16, 2048, 17, 33, 32)]
    arrays += [ArrayGeometry(arrays[0].positions + [0.0, -0.2]), ula(16, 0.01, 0.5)]
    factors, starts = steering.block_factors(scene, arrays, scene.states)
    assert factors[0].shape[-1] == 2048 + 33 + 16 + 16
    assert starts == [1016, 0, 2048 + 8, 2048, 1008, 2048 + 33, 2048 + 33 + 16]
    for geom, start in zip(arrays, starts):
        assert_same_bytes([x[..., start:start + geom.count] for x in factors],
                          side_factors(dataclasses.replace(scene, tx=geom, rx=geom), "tx", [0]))


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


@pytest.mark.parametrize("m", [1, 3, LOW_ROWS - 1, LOW_ROWS, LOW_ROWS + 1, 2 * LOW_ROWS + 5])
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
