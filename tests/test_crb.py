"""Bound extraction: full inverse, Schur conditioning, closed single-target forms."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (ArrayGeometry, FisherInfo, SingularFimError, Target,
                   closed_form_single, fim, full_crb, make_scene, schur_target_report,
                   target_indices, ula)
from nfcrb.approx import VARIANTS
from nfcrb.cli import BOUNDS, _bound_cells
from nfcrb.crb import own_bounds, own_information
from nfcrb.steering import side_factors

from util import (canonical_scene, many_target_scene, rotate_scene, shared_and_unshared,
                  sharing_scenes, stack_closed_form, target_at)


def near_scene(v=(3.0, -2.0)):
    # close range and short aperture keep the x/vx pair distinguishable
    return make_scene(targets=[target_at(10.0, 30.0, v=v)],
                      tx=ula(32, 0.01), rx=ula(32, 0.01), snapshots=64)


def synthetic_info(q_count=2, seed=5, spread=4.0):
    rng = np.random.default_rng(seed)
    n = 6 * q_count
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = 10.0 ** rng.uniform(0.0, spread, size=n)
    return FisherInfo(centred=(basis * w) @ basis.T)


def schur_diag(info, q):
    b = schur_target_report(info, q).targets[0]
    return np.array([b.crb_x, b.crb_y, b.crb_vx, b.crb_vy, b.crb_alpha_r, b.crb_alpha_i])


def test_diagonal_fim_inverts_to_reciprocals():
    d = np.array([4.0, 2.0, 0.5, 8.0, 10.0, 0.25])
    info = FisherInfo(centred=np.diag(d))
    crb, report = full_crb(info)
    np.testing.assert_allclose(crb, np.diag(1.0 / d), rtol=1e-15)
    assert report.status == "ok"
    # the condition number is taken after Jacobi scaling to a unit diagonal
    assert report.condition_number == pytest.approx(1.0)
    b = report.targets[0]
    assert (b.crb_x, b.crb_y, b.crb_vx, b.crb_vy, b.crb_alpha_r, b.crb_alpha_i) \
        == pytest.approx((0.25, 0.5, 2.0, 0.125, 0.1, 4.0))


def test_full_crb_inverts_physical_fim():
    info = fim(near_scene())
    crb, _ = full_crb(info)
    # judge the residual in equilibrated coordinates, where conditioning is fair
    d = np.sqrt(np.diag(info.matrix))
    fe = info.matrix / np.outer(d, d)
    ce = crb * np.outer(d, d)
    assert np.abs(fe @ ce - np.eye(6)).max() < 1e-4


def test_by_name_and_alpha_sum():
    info = fim(near_scene())
    b = full_crb(info)[1].targets[0]
    assert b.by_name("x") == b.crb_x
    assert b.by_name("alpha_i") == b.crb_alpha_i
    assert b.by_name("rcs") == b.crb_alpha
    assert b.crb_alpha == b.crb_alpha_r + b.crb_alpha_i


def test_conditional_equals_full_inverse_subblock_synthetic():
    info = synthetic_info()
    crb, _ = full_crb(info)
    for q in range(2):
        np.testing.assert_allclose(schur_diag(info, q), np.diag(crb)[target_indices(q, 2)],
                                   rtol=1e-10)


def test_conditional_equals_full_inverse_subblock_physical():
    # the x/vx and y/vy pairs are nearly collinear over a short aperture in
    # slow time, so agreement here is limited by the physical conditioning
    info = fim(near_scene())
    crb, _ = full_crb(info)
    assert np.abs((schur_diag(info, 0) - np.diag(crb)) / np.diag(crb)).max() < 1e-6


def criterion_10_scene():
    return make_scene(targets=[target_at(100.0, 20.0),
                               target_at(150.0, -45.0, v=(4.0, 3.0), alpha=(0.8, -0.2)),
                               target_at(50.0, -5.0, v=(10.0, 6.0))],
                      tx=ula(256, 0.01, -2.0), rx=ula(256, 0.01, 2.0))


@pytest.mark.parametrize("build", [criterion_10_scene, many_target_scene],
                         ids=["criterion-10", "q8"])
def test_schur_report_is_full_crbs_target_bit_for_bit(build):
    info = fim(build())
    _, full = full_crb(info)
    for q in range(info.q_count):
        report = schur_target_report(info, q)
        assert report.targets == (full.targets[q],)
        assert report.condition_number == full.condition_number
        assert report.status == full.status


def test_schur_report_indexes_its_target():
    # -1 reads the last target, as closed_form_single does; past Q is an error
    info = fim(criterion_10_scene())
    assert schur_target_report(info, -1).targets == (full_crb(info)[1].targets[-1],)
    with pytest.raises(IndexError):
        schur_target_report(info, info.q_count)


def test_conditional_block_diagonal_shortcut():
    # the two targets' blocks do not couple, so target 0's Schur complement
    # is its own 6x6 block; the alternating layout puts that block on the
    # even rows and columns
    f = np.zeros((12, 12))
    own = np.diag([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    own[0, 1] = own[1, 0] = 1.0
    f[0::2, 0::2] = own
    f[1::2, 1::2] = np.eye(6) * 3.0
    info = FisherInfo(centred=f)
    np.testing.assert_allclose(schur_diag(info, 0), np.diag(np.linalg.inv(own)),
                               rtol=1e-14)


def test_marginal_never_below_reciprocal_diagonal():
    info = fim(near_scene())
    crb, _ = full_crb(info)
    assert np.all(np.diag(crb) * np.diag(info.matrix) >= 1.0 - 1e-9)


def test_coincident_targets_are_singular():
    t = target_at(100.0, 20.0)
    s = make_scene(targets=[t, t], tx=ula(16, 0.01), rx=ula(16, 0.01), snapshots=8)
    with pytest.raises(SingularFimError):
        full_crb(fim(s))


def test_singular_nuisance_block_raises():
    # a dark second target carries no kinematic information at all
    s = make_scene(targets=[target_at(100.0, 20.0),
                            target_at(150.0, -40.0, alpha=(0.0, 0.0))],
                   tx=ula(16, 0.01), rx=ula(16, 0.01), snapshots=8)
    info = fim(s)
    with pytest.raises(SingularFimError, match="information matrix is singular"):
        schur_target_report(info, 0)


def test_dark_target_is_singular():
    s = make_scene(targets=[target_at(100.0, 20.0), target_at(150.0, -40.0, alpha=(0.0, 0.0))],
                   tx=ula(16, 0.01), rx=ula(16, 0.01), snapshots=8)
    with pytest.raises(SingularFimError, match="information matrix is singular"):
        full_crb(fim(s))


def test_default_scene_is_well_conditioned():
    # the raw matrix's condition number is 1.7e15 in metres and 2.1e10 in
    # millimetres; the centred, Jacobi-scaled one is 4.4e4 in either
    _, report = full_crb(fim(make_scene()))
    assert report.status == "ok"
    assert report.condition_number == pytest.approx(4.351e4, rel=1e-3)


def test_ill_conditioned_status_on_a_synthetic_fim():
    # two parameters whose scaled information differs from collinear by 1e-13
    f = np.eye(6)
    f[0, 1] = f[1, 0] = 1.0 - 1e-13
    crb, report = full_crb(FisherInfo(centred=f))
    assert report.status == "ill-conditioned"
    assert 1e12 < report.condition_number < 1e14
    assert np.all(np.isfinite(crb))


def test_status_and_bounds_do_not_depend_on_units():
    # the reference scene in millimetres: lengths and speeds times 1e3
    metres = make_scene()
    t = metres.targets[0]
    millimetres = make_scene(
        targets=[Target(x=t.x * 1e3, y=t.y * 1e3, vx=t.vx * 1e3, vy=t.vy * 1e3,
                        rcs_re=t.rcs_re, rcs_im=t.rcs_im)],
        tx=ula(256, 10.0), rx=ula(256, 10.0), lightspeed=3e11)
    (_, in_m), (_, in_mm) = (full_crb(fim(s)) for s in (metres, millimetres))
    assert in_mm.status == in_m.status == "ok"
    assert in_mm.condition_number == pytest.approx(in_m.condition_number, rel=1e-9)
    assert in_mm.targets[0].crb_x / 1e6 == pytest.approx(in_m.targets[0].crb_x, rel=1e-9)
    assert in_m.targets[0].crb_x == pytest.approx(23.285443523, rel=1e-9)


@st.composite
def rigid_motion_cases(draw):
    """Q = 1-3 lit targets at 5-400 m on N = 1-32 elements a side over M = 1-40, and an angle."""
    def reflectivity():
        magnitude, phase = draw(st.floats(0.1, 1.0)), draw(st.floats(-math.pi, math.pi))
        return magnitude * math.cos(phase), magnitude * math.sin(phase)

    targets = [target_at(draw(st.floats(5.0, 400.0)), draw(st.floats(-60.0, 60.0)),
                         v=(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))),
                         alpha=reflectivity())
               for _ in range(draw(st.integers(1, 3)))]
    tx = ula(draw(st.integers(1, 32)), 0.01)
    rx = tx if draw(st.booleans()) else ula(draw(st.integers(1, 32)), 0.01, 0.5)
    scene = make_scene(targets=targets, tx=tx, rx=rx, snapshots=draw(st.integers(1, 40)))
    return scene, draw(st.floats(-180.0, 180.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rigid_motion_cases())
def test_full_crb_follows_a_rigid_rotation(case):
    # rotating arrays, positions and velocities about the origin by R maps each
    # target's location and velocity blocks to R C R^T and keeps its
    # reflectivity bounds. The inverse is good to cond eps, cond the larger
    # scaled condition number. The rotation re-rounds every element range, and
    # a target's kinematic information is the spread of its element factors
    # over the aperture D, down to (D / r)^2 of their size for a far target
    # near broadside: the Fisher entries are good to eps (r / D)^2 there
    scene, deg = case
    rotated = rotate_scene(scene, deg)
    try:
        (c0, r0), (c1, r1) = (full_crb(fim(s)) for s in (scene, rotated))
    except SingularFimError:
        return
    aperture = max(scene.tx.aperture, scene.rx.aperture)
    spread = max(math.hypot(t.x, t.y) for t in scene.targets) / aperture if aperture else math.inf
    tol = (100.0 * max(r0.condition_number, r1.condition_number) * np.finfo(float).eps
           * max(1.0, spread ** 2))
    th = math.radians(deg)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    q_count = scene.q_count
    for q in range(q_count):
        for block in (0, 2):  # x, y and vx, vy
            rows = np.ix_(*[[block * q_count + q, (block + 1) * q_count + q]] * 2)
            want = rot @ c0[rows] @ rot.T
            assert np.abs(c1[rows] - want).max() <= tol * np.abs(want).max()
        for row in (4 * q_count + q, 5 * q_count + q):
            assert c1[row, row] == pytest.approx(c0[row, row], rel=tol)


def test_eval_size_scene_inverts_with_marginals_above_exact():
    scene = many_target_scene()
    crb, report = full_crb(fim(scene))
    assert report.status == "ok"
    for q in range(scene.q_count):
        exact = closed_form_single(scene, q).targets[0]
        for name in ("x", "y", "vx", "vy", "alpha_r", "alpha_i"):
            assert report.targets[q].by_name(name) >= exact.by_name(name)


def test_closed_form_matches_fisher_diagonal():
    s = canonical_scene()
    info = fim(s)
    b = closed_form_single(s, 0).targets[0]
    for i, name in enumerate(("x", "y", "vx", "vy", "alpha_r", "alpha_i")):
        assert b.by_name(name) * info.matrix[i, i] == pytest.approx(1.0, rel=1e-10)


def test_closed_form_alpha_parts_equal_exactly():
    s = make_scene(targets=[target_at(100.0, 20.0, v=(0.0, 0.0))])
    b = closed_form_single(s, 0).targets[0]
    assert b.crb_alpha_r == b.crb_alpha_i


def test_closed_form_dark_target_diverges():
    s = make_scene(targets=[target_at(100.0, 20.0, alpha=(0.0, 0.0))],
                   tx=ula(16, 0.01), rx=ula(16, 0.01), snapshots=8)
    b = closed_form_single(s, 0).targets[0]
    assert math.isinf(b.crb_x) and math.isinf(b.crb_vx)
    assert math.isfinite(b.crb_alpha_r)


def test_closed_form_finite_at_broadside():
    # wavefront curvature keeps the exact cross-range bounds finite where the
    # plane-wave closed form diverges
    s = make_scene(targets=[target_at(100.0, 0.0, v=(0.0, 0.0))], snapshots=256)
    b = closed_form_single(s, 0).targets[0]
    assert math.isfinite(b.crb_vx) and math.isfinite(b.crb_x)


def test_bounds_scale_with_noise_over_power():
    base = near_scene()
    boosted = make_scene(targets=base.targets, tx=base.tx, rx=base.rx,
                         snapshots=base.snapshots, power_w=2.0 * base.power_w,
                         noise_var_w=base.noise_var_w)
    crb_base, _ = full_crb(fim(base))
    crb_boost, _ = full_crb(fim(boosted))
    np.testing.assert_allclose(crb_boost, 0.5 * crb_base, rtol=1e-10)


def test_high_snr_bounds_scale_by_exact_powers_of_two():
    # past diag F' = 1e154 the Jacobi scale's d_i d_j would overflow: scaling
    # the noise by 2^-500 or 2^-800 scales every bound by exactly that power
    # and leaves the condition number and status as they are
    def solve(exponent):
        info = fim(make_scene(tx=ula(8, 0.01), snapshots=8, noise_var_w=2.0 ** -exponent))
        return info.centred.diagonal().max(), *full_crb(info)

    _, base, base_report = solve(100)
    for exponent in (600, 900):
        top, crb, report = solve(exponent)
        assert top > 1e160
        assert (report.condition_number, report.status) == (base_report.condition_number, "ok")
        assert (crb.diagonal() == base.diagonal() * 2.0 ** (100 - exponent)).all()


@st.composite
def closed_form_scenes(draw):
    """Single-target scenes over array layouts, sizes and target states."""
    n = draw(st.integers(1, 512))
    m = draw(st.integers(1, 256))
    spacing = draw(st.sampled_from([0.005, 0.01]))
    layout = draw(st.sampled_from(["monostatic", "bistatic", "free-form"]))
    if layout == "bistatic":
        # symmetric bistatic arrays at broadside cancel the vx information to
        # zero, so both forms return rounding residue (inf against ~1e21)
        # for a bound that is truly infinite; keep such layouts off broadside
        angle = draw(st.floats(5.0, 80.0)) * draw(st.sampled_from([-1.0, 1.0]))
        tx, rx = ula(n, spacing, -2.0), ula(n, spacing, 2.0)
    else:
        angle = draw(st.one_of(st.just(0.0), st.floats(-80.0, 80.0)))
        tx = rx = ula(n, spacing)
        if layout == "free-form":
            k = np.arange(n)
            tx = rx = ArrayGeometry(np.column_stack(
                [spacing * (k - (n - 1) / 2.0), 0.3 * spacing * np.sin(1.7 * k)]))
    speed = st.floats(-5.0, 5.0)
    v = draw(st.one_of(st.just((0.0, 0.0)), st.tuples(speed, speed)))
    alpha = draw(st.one_of(st.just((0.0, 0.0)),
                           st.tuples(st.floats(0.1, 2.0), st.floats(-1.0, 1.0))))
    target = target_at(draw(st.floats(5.0, 400.0)), angle, v=v, alpha=alpha)
    return make_scene(targets=[target], tx=tx, rx=rx, snapshots=m,
                      t_sym_s=draw(st.sampled_from([1e-4, 1e-3])))


@pytest.mark.filterwarnings("ignore:target 0 moves")
@settings(derandomize=True, max_examples=80, deadline=None)
@given(closed_form_scenes())
def test_closed_form_moments_match_stack_form(scene):
    b = closed_form_single(scene, 0).targets[0]
    moments = (b.crb_x, b.crb_y, b.crb_vx, b.crb_vy, b.crb_alpha_r, b.crb_alpha_i)
    for got, want in zip(moments, stack_closed_form(scene, 0)):
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_closed_form_and_stacks_read_one_factor_table(monkeypatch):
    # a perturbed location factor must move the moment form and the stack
    # form alike: neither may keep its own copy of the derivative factors
    original = sys.modules["nfcrb.steering"].element_factors

    def scaled(scene, geom, target):
        g, r, u, alpha, beta = original(scene, geom, target)
        alpha[0] *= 1.0 + 1e-3
        beta[0] *= 1.0 + 1e-3
        return g, r, u, alpha, beta

    scene = canonical_scene()
    before = closed_form_single(scene, 0).targets[0].crb_x
    monkeypatch.setattr(sys.modules["nfcrb.steering"], "element_factors", scaled)
    b = closed_form_single(scene, 0).targets[0]
    moments = (b.crb_x, b.crb_y, b.crb_vx, b.crb_vy, b.crb_alpha_r, b.crb_alpha_i)
    for got, want in zip(moments, stack_closed_form(scene, 0)):
        assert got == pytest.approx(want, rel=1e-12)
    assert abs(b.crb_x / before - 1.0) > 1e-6


def test_closed_form_builds_no_steering_stack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("steering_stack called")

    for name, module in list(sys.modules.items()):
        if name.startswith("nfcrb") and hasattr(module, "steering_stack"):
            monkeypatch.setattr(module, "steering_stack", refuse)
    reference = make_scene()
    closed_form_single(reference, 0)
    _bound_cells(reference, 0, BOUNDS, VARIANTS, closed_form_single(reference, 0).targets[0])

    large = make_scene(tx=ula(2048, 0.01), rx=ula(2048, 0.01), snapshots=256)
    tracemalloc.start()
    try:
        closed_form_single(large, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("rx", [ula(24, 0.01), ula(17, 0.01, 0.5)], ids=["monostatic", "bistatic"])
def test_own_information_over_targets_equals_its_one_target_calls_bit_for_bit(rx):
    # fim calls it once for every target, closed_form_single for one target;
    # a dark target's kinematic bounds are inf
    scene = make_scene(targets=[target_at(100.0, 20.0), target_at(80.0, 5.0, alpha=(0.0, 0.0)),
                                target_at(150.0, -45.0, v=(4.0, 3.0), alpha=(0.8, -0.2))],
                       tx=ula(24, 0.01), rx=rx, snapshots=8)

    def factors(qs):
        tx = side_factors(scene, "tx", qs)
        return tx, tx if scene.monostatic else side_factors(scene, "rx", qs)

    qs = list(range(scene.q_count))
    own, c, shifts = own_information(scene, *factors(qs), [t.rcs for t in scene.targets])
    for q in qs:
        own_q, c_q, shifts_q = own_information(scene, *factors([q]), [scene.targets[q].rcs])
        assert own[q].tobytes() == own_q[0].tobytes()
        assert c[q].tobytes() == c_q[0].tobytes()
        for side, side_q in zip(shifts, shifts_q):
            assert [x[q].tobytes() for x in side] == [x[0].tobytes() for x in side_q]
        assert repr(own_bounds(own[q], c[q])) == repr(closed_form_single(scene, q).targets[0])
    dark = own_bounds(own[1], c[1])
    assert [dark.crb_x, dark.crb_y, dark.crb_vx, dark.crb_vy] == [math.inf] * 4
    assert math.isfinite(dark.crb_alpha)


@pytest.mark.parametrize("rx_centroid, limit_kib", [(0.0, 835), (0.5, 1140)],
                         ids=["monostatic", "bistatic"])
def test_closed_form_peak_memory_at_2048_elements(rx_centroid, limit_kib):
    # one target's O(N) element moments; each broadcast complex difference
    # holds a numpy buffer as large as its result
    scene = make_scene(tx=ula(2048, 0.01), rx=ula(2048, 0.01, rx_centroid), snapshots=256)
    closed_form_single(scene, 0)
    tracemalloc.start()
    try:
        closed_form_single(scene, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_kib * 1024


@pytest.mark.parametrize("key", list(sharing_scenes()))
def test_closed_form_equals_its_per_side_evaluation_bit_for_bit(monkeypatch, key):
    # a monostatic scene sums one side's element moments for both
    scene = sharing_scenes()[key]
    assert scene.monostatic == key.startswith("monostatic")
    shared, unshared = shared_and_unshared(
        monkeypatch, lambda s: [closed_form_single(s, q) for q in range(s.q_count)], scene)
    assert repr(shared) == repr(unshared)
