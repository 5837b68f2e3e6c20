"""Independent numeric checks: finite differences, brute sums, report plumbing."""

import dataclasses
import math
import platform
import resource
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfcrb import (BLOCKS, ArrayGeometry, Scene, Target, brute_gain, fd_fim, fim, make_scene,
                   steering_stack, ula)
from nfcrb.fim import derivative_terms
from nfcrb.oracle import (DEFAULT_STEPS, _channel_derivatives, _target_channels,
                          _verify_consistency, _verify_expansions, _verify_steering,
                          fd_steering_rows, make_report, relative_difference, run_battery)
from nfcrb.steering import KEYS, steering_values

from util import canonical_scene, many_target_scene, small_scene, target_at


def test_relative_difference_plain_quotient():
    assert relative_difference(1.1, 1.0) == pytest.approx(0.1)
    assert relative_difference(0.0, 2.0) == 1.0


def test_relative_difference_floor_guards_zero_oracle():
    # a zero oracle value must not divide by zero
    assert relative_difference(1e-40, 0.0) == pytest.approx(1e-10)
    assert relative_difference(0.0, 0.0) == 0.0


def test_make_report_verdicts():
    good = make_report("check", 1.0 + 1e-8, 1.0, tol=1e-6)
    assert good.passed and good.rel_err < 1e-6
    bad = make_report("check", 1.1, 1.0, tol=1e-6, steps=(1e-4,))
    assert not bad.passed
    assert bad.steps == (1e-4,)
    assert bad.name == "check"
    # a given rel_err decides the verdict, whatever analytic and oracle say
    worst = make_report("battery", np.float64(2e-6), 0.0, tol=1e-6, rel_err=np.float64(2e-6))
    assert not worst.passed and worst.rel_err == 2e-6
    assert make_report("battery", 1.1, 1.0, tol=1e-6, rel_err=1e-7).passed
    assert not make_report("battery", 1.0, 1.0, tol=1e-6, rel_err=0.5).passed
    assert not make_report("battery", math.nan, 0.0, tol=1e-6, rel_err=math.nan).passed
    for report in (good, worst):
        assert all(type(v) is float for v in (report.analytic, report.oracle, report.rel_err))


def test_fd_steering_default_steps():
    s = canonical_scene()
    a = steering_stack(s, "tx", 0)
    for kind in ("x", "y", "vx", "vy"):
        analytic = a[KEYS.index("d_" + kind)][7]  # stack row 7 is snapshot m = 8
        numeric = fd_steering_rows(s, "tx", [0], [(kind, None)], [8])[0, 0][0]
        err = np.abs(analytic - numeric).max() / np.abs(analytic).max()
        assert err < 1e-5


def test_fd_step_underflow_rejected():
    s = small_scene()
    with pytest.raises(ValueError, match="underflows"):
        fd_steering_rows(s, "tx", [0], [("x", 1e-18)], [1])
    with pytest.raises(ValueError, match="underflows"):
        fd_fim(s, steps={"x": 1e-18})


def test_fd_step_underflow_rejected_at_every_listed_target():
    # the step suits target 0 but underflows at target 1's x = 1e5
    s = make_scene(targets=[target_at(100.0, 20.0), Target(x=1e5, y=100.0)],
                   tx=ula(4, 0.01), rx=ula(4, 0.01), snapshots=4)
    fd_steering_rows(s, "tx", [0], [("x", 1e-10)], [1])
    with pytest.raises(ValueError, match="underflows at value 100000.0"):
        fd_steering_rows(s, "tx", [0, 1], [("x", 1e-10)], [1])


# the finite-difference route before steering_values: one perturbed scene per
# step, each side read from a full steering stack


def _perturbed(scene, q, kind, delta):
    target = scene.targets[q]
    targets = list(scene.targets)
    targets[q] = dataclasses.replace(target, **{kind: getattr(target, kind) + delta})
    return dataclasses.replace(scene, targets=tuple(targets))


def _stack_fd_steering_rows(scene, q, kind, m_values):
    h = DEFAULT_STEPS[kind]
    shifted = {d: _perturbed(scene, q, kind, d) for d in (h, -h, 2.0 * h, -2.0 * h)}
    out = {}
    for side in ("tx", "rx"):
        a = {d: steering_stack(s, side, q, m_values=m_values)[0] for d, s in shifted.items()}
        d_h = (a[h] - a[-h]) / (2.0 * h)
        d_2h = (a[2.0 * h] - a[-2.0 * h]) / (4.0 * h)
        out[side] = (4.0 * d_h - d_2h) / 3.0
    return out


def _stack_channel(scene):
    out = np.zeros((scene.snapshots, scene.rx.count, scene.tx.count), dtype=complex)
    for q in range(scene.q_count):
        a_t = steering_stack(scene, "tx", q)[0]
        a_r = steering_stack(scene, "rx", q)[0]
        out += np.einsum("mr,mt->mrt", a_r, a_t) * scene.targets[q].rcs
    return out


def _stack_fd_fim(scene):
    derivs = []
    for kind in BLOCKS:
        for q in range(scene.q_count):
            h = DEFAULT_STEPS[kind]
            plus = _stack_channel(_perturbed(scene, q, kind, +h))
            minus = _stack_channel(_perturbed(scene, q, kind, -h))
            derivs.append((plus - minus) / (2.0 * h))
    n_par = len(derivs)
    f = np.zeros((n_par, n_par))
    for i in range(n_par):
        for j in range(i, n_par):
            f[i, j] = f[j, i] = (2.0 * scene.power_w / scene.noise_var_w
                                 * np.einsum("mrt,mrt->", derivs[i].conj(), derivs[j]).real)
    return f


@st.composite
def fd_cases(draw):
    """One- and two-target scenes on small arrays, a target index and snapshot rows."""
    q_count = draw(st.integers(1, 2))
    offset = draw(st.sampled_from([0.0, 2.0]))
    speed, rcs = st.floats(-20.0, 20.0), st.floats(-2.0, 2.0)
    targets = [target_at(draw(st.floats(5.0, 400.0)), draw(st.floats(-80.0, 80.0)),
                         v=(draw(speed), draw(speed)), alpha=(draw(rcs), draw(rcs)))
               for _ in range(q_count)]
    scene = make_scene(targets=targets, tx=ula(draw(st.integers(1, 8)), 0.01, -offset),
                       rx=ula(draw(st.integers(1, 8)), 0.01, offset),
                       snapshots=draw(st.integers(1, 16)))
    q = draw(st.integers(0, q_count - 1))
    m_values = draw(st.lists(st.integers(1, scene.snapshots), min_size=1, max_size=3))
    return scene, q, m_values


@settings(derandomize=True, max_examples=40, deadline=None)
@given(fd_cases())
def test_batched_fd_equals_the_per_step_stack_route_bit_for_bit(case):
    scene, q, m_values = case
    kinds = ("x", "y", "vx", "vy")
    # all checks in one call, a kind repeated at its own step among them
    checks = [(kind, None) for kind in kinds] + [("vx", 3e-4)]
    batched = {side: fd_steering_rows(scene, side, [q], checks, m_values) for side in ("tx", "rx")}
    assert batched["tx"].shape[1] == batched["rx"].shape[1] == len(checks)
    for c, check in enumerate(checks):
        for side in ("tx", "rx"):
            got = fd_steering_rows(scene, side, [q], [check], m_values)
            assert (batched[side][0, c] == got[0, 0]).all()
    for c, kind in enumerate(kinds):
        want = _stack_fd_steering_rows(scene, q, kind, m_values)
        for side in ("tx", "rx"):
            assert batched[side][0, c].shape == want[side].shape
            assert (batched[side][0, c] == want[side]).all()
    assert (fd_fim(scene).matrix == _stack_fd_fim(scene)).all()


def _per_check_verify_steering(seed, battery):
    """The steering battery before one call per scene: a call and a norm per check and side."""
    reports = []
    for i in range(battery):
        rng = np.random.default_rng(100003 * (seed + 1) + i)
        n = int(rng.choice([4, 32]))
        m_total = int(rng.choice([4, 16]))
        r = float(rng.uniform(10.0, 500.0))
        th = math.radians(float(rng.uniform(-60.0, 60.0)))
        vx, vy = (float(v) for v in rng.uniform(-20.0, 20.0, 2))
        scene = make_scene(
            targets=[Target(x=r * math.sin(th), y=r * math.cos(th), vx=vx, vy=vy,
                            rcs_re=float(rng.normal()), rcs_im=float(rng.normal()))],
            tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m_total)
        rows = [1, m_total]
        k = 2.0 * math.pi * scene.carrier_hz / scene.lightspeed
        v_steps = [0.05 / (k * m * scene.t_sym_s) for m in rows]
        checks = [(kind, [0, 1], 1e-4) for kind in ("x", "y")]
        checks += [(kind, [row], v_steps[row]) for kind in ("vx", "vy") for row in (0, 1)]
        stacks = {side: steering_stack(scene, side, 0, m_values=rows) for side in ("tx", "rx")}
        worst = 0.0
        for kind, picked, step in checks:
            for side in ("tx", "rx"):
                ref = fd_steering_rows(scene, side, [0], [(kind, step)],
                                       [rows[row] for row in picked])
                ana = stacks[side][KEYS.index("d_" + kind)][picked]
                err = np.linalg.norm(ana - ref[0, 0], axis=1) / np.linalg.norm(ref[0, 0], axis=1)
                worst = max(worst, float(err.max()))
        reports.append(make_report(f"steering-fd-{i:02d}", worst, 0.0, 1e-5,
                                   steps=(1e-4, *v_steps), rel_err=worst))
    return reports


@pytest.mark.parametrize("seed", range(5))
def test_one_call_steering_battery_equals_the_per_check_route_bit_for_bit(seed):
    # at 20 scenes every (N, M) shape group of the battery has several members
    for battery in (3, 20):
        got = _verify_steering(seed, battery)
        want = _per_check_verify_steering(seed, battery)
        assert [repr(r) for r in got] == [repr(r) for r in want]
        assert got == want


def test_steering_battery_raises_no_warning():
    # a shape group's scene holds each target to the small-displacement
    # warning at its own range, as a scene of its own would; no battery draw
    # comes near it, nor may a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            assert len(_verify_steering(seed, 20)) == 20


@settings(derandomize=True, max_examples=40, deadline=None)
@given(fd_cases(), st.lists(st.integers(0, 1), min_size=1, max_size=3),
       st.sampled_from([list, tuple]))
def test_fd_rows_of_a_target_list_equal_one_call_per_target_bit_for_bit(case, picks, kind_of):
    scene, _, m_values = case
    qs = kind_of(p % scene.q_count for p in picks)
    checks = [(kind, None) for kind in ("x", "y", "vx", "vy")] + [("vx", 3e-4)]
    for side in ("tx", "rx"):
        many = fd_steering_rows(scene, side, qs, checks, m_values)
        for j, q in enumerate(qs):
            one = fd_steering_rows(scene, side, [q], checks, m_values)
            for c in range(len(checks)):
                assert many[j, c].shape == one[0, c].shape
                assert (many[j, c] == one[0, c]).all()


@pytest.mark.parametrize("seed", [47, 62, 77, 82, 101, 300495, 808278])
def test_steering_battery_passes_at_formerly_failing_seeds(seed):
    # seeds that failed steering-fd-* under an earlier finite-difference step
    # choice (the first at 47); a step change must not bring them back
    assert all(r.passed for r in _verify_steering(seed, 20))


def test_three_target_fd_fim_keeps_the_target_addition_order():
    # with two targets the channel sum is exact in either order; three show it
    s = many_target_scene(q=3, n=4, m=4)
    assert (fd_fim(s).matrix == _stack_fd_fim(s)).all()


@pytest.mark.parametrize("scene, large", [(small_scene(), False), (canonical_scene(), True)],
                         ids=["4KiB", "256KiB"])
def test_target_channels_multiply_by_the_reflectivity_in_one_operand_order(scene, large):
    # numpy reuses a temporary of 256 KiB or more in place as the left operand,
    # and a complex product rounds by operand order: below and above that size
    # the channel must be the same product e * rcs
    a_t, a_r = steering_values(scene, "tx"), steering_values(scene, "rx")
    for q, channel in enumerate(_target_channels(scene)):
        e = np.einsum("mr,mt->mrt", a_r[q], a_t[q])
        assert (e.nbytes >= 256 * 1024) == large
        assert channel.tobytes() == np.multiply(e, scene.targets[q].rcs).tobytes()


@pytest.mark.parametrize("scene, large", [(small_scene(), False), (canonical_scene(), True)],
                         ids=["4KiB", "256KiB"])
def test_channel_derivatives_multiply_by_the_coefficient_in_one_operand_order(scene, large):
    # as for the target channels: below and above numpy's 256 KiB threshold
    # every rank-1 term must be the same product c * e
    tx, rx = steering_stack(scene, "tx", 0), steering_stack(scene, "rx", 0)
    want = []
    for kind in BLOCKS:
        terms = []
        for c, rk, tk in derivative_terms(kind, scene.targets[0].rcs):
            e = np.einsum("mr,mt->mrt", rx[KEYS.index(rk)], tx[KEYS.index(tk)])
            assert (e.nbytes >= 256 * 1024) == large
            terms.append(np.multiply(c, e))
        want.append(sum(terms))
    assert _channel_derivatives(scene).tobytes() == np.stack(want).tobytes()


def test_fd_oracles_build_no_steering_stack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("steering_stack called")

    for name, module in list(sys.modules.items()):
        if name.startswith("nfcrb") and hasattr(module, "steering_stack"):
            monkeypatch.setattr(module, "steering_stack", refuse)
    s = small_scene()
    fd_steering_rows(s, "tx", [0], [("x", None)], [1, 4])
    fd_fim(s)


def _route_scenes():
    """One two-target scene per route, all on one Tx array object and the same targets.

    "shared" has rx is tx, "equal" an equal but distinct Rx ArrayGeometry
    (built apart, bit-identical positions) and "bistatic" an Rx moved to
    centroid x = 0.5.
    """
    tx = ula(4, 0.01)
    targets = [target_at(60.0, 20.0, v=(3.0, -2.0), alpha=(0.8, 0.3)),
               target_at(90.0, -35.0, v=(-1.0, 4.0), alpha=(1.0, -0.2))]
    rxs = {"shared": tx, "equal": ArrayGeometry(tx.positions.copy(), 0.01, 0.0),
           "bistatic": ula(4, 0.01, 0.5)}
    return {route: make_scene(targets=targets, tx=tx, rx=rx, snapshots=4)
            for route, rx in rxs.items()}


def _per_side_channel_derivatives(scene):
    """_channel_derivatives' stacks from two steering_stack calls per target, one per side."""
    derivs = []
    for kind in BLOCKS:
        for q in range(scene.q_count):
            tx, rx = steering_stack(scene, "tx", q), steering_stack(scene, "rx", q)
            derivs.append(sum(np.multiply(c, np.einsum("mr,mt->mrt", rx[KEYS.index(rk)],
                                                       tx[KEYS.index(tk)]))
                              for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs)))
    return np.stack(derivs)


FD_CHECKS = [(kind, None) for kind in ("x", "y", "vx", "vy")] + [("vx", 3e-4)]


def test_oracles_equal_their_unshared_routes_bit_for_bit():
    # each route's output equals the route that evaluates every side on its
    # own, and a side's bytes do not depend on the route that evaluated it
    scenes = _route_scenes()
    assert scenes["shared"].rx is scenes["shared"].tx
    assert scenes["equal"].rx is not scenes["equal"].tx and scenes["equal"].monostatic
    assert not scenes["bistatic"].monostatic
    out = {}
    for route, s in scenes.items():
        rows = {side: fd_steering_rows(s, side, [0, 1], FD_CHECKS, [1, 4])
                for side in ("tx", "rx")}
        for j in (0, 1):
            for c, kind in enumerate(("x", "y", "vx", "vy")):
                want = _stack_fd_steering_rows(s, j, kind, [1, 4])
                for side in ("tx", "rx"):
                    assert rows[side][j, c].tobytes() == want[side].tobytes()
        a_t, a_r = steering_values(s, "tx"), steering_values(s, "rx")
        channels = list(_target_channels(s))
        for q, channel in enumerate(channels):
            want = np.multiply(np.einsum("mr,mt->mrt", a_r[q], a_t[q]), s.targets[q].rcs)
            assert channel.tobytes() == want.tobytes()
        derivs = _channel_derivatives(s)
        assert derivs.tobytes() == _per_side_channel_derivatives(s).tobytes()
        info = fd_fim(s)
        assert (info.matrix == _stack_fd_fim(s)).all()
        out[route] = [rows["tx"], rows["rx"], *channels, derivs, info.matrix]
    assert out["bistatic"][0].tobytes() == out["shared"][0].tobytes()
    assert [a.tobytes() for a in out["shared"]] == [a.tobytes() for a in out["equal"]]


@pytest.mark.parametrize("route", ["shared", "equal", "bistatic"])
def test_fd_steering_rows_evaluates_the_named_side_once(monkeypatch, route):
    # one steering_values call, on the side the caller names, whatever the Rx
    # array; the Rx rows equal the Tx rows bit for bit on one array object or
    # an equal one, and differ on a bistatic scene
    oracle = sys.modules["nfcrb.oracle"]
    calls = []

    def counted(scene, side, *args, _original=oracle.steering_values, **kwargs):
        calls.append(side)
        return _original(scene, side, *args, **kwargs)

    monkeypatch.setattr(oracle, "steering_values", counted)
    s = _route_scenes()[route]
    rows = {side: fd_steering_rows(s, side, [0, 1], FD_CHECKS, [1, 4]) for side in ("tx", "rx")}
    assert calls == ["tx", "rx"]
    assert (rows["rx"].tobytes() == rows["tx"].tobytes()) == (route != "bistatic")


def test_steering_battery_evaluates_one_side_per_shape_group(monkeypatch):
    # every shape group's scene holds one array object: one fd_steering_rows
    # steering_values call and one steering_stack call on each group's scene
    oracle = sys.modules["nfcrb.oracle"]
    calls = []
    for name in ("steering_values", "steering_stack"):
        def counted(scene, side, *args, _original=getattr(oracle, name), _name=name, **kwargs):
            calls.append((_name, side, scene.rx is scene.tx, len(scene.targets)))
            return _original(scene, side, *args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)
    assert all(r.passed for r in _verify_steering(0, 20))
    stacks = [c for c in calls if c[0] == "steering_stack"]
    values = [c for c in calls if c[0] == "steering_values"]
    assert len(stacks) == len(values) == len(calls) // 2 >= 2
    assert {c[1:3] for c in calls} == {("tx", True)}
    assert sum(c[3] for c in stacks) == 20


def test_no_oracle_reads_scene_monostatic(monkeypatch):
    # no oracle shares a side by Scene.monostatic's equality test: it raises
    # for every reader but Scene's own validation, which still reads it
    validate = Scene.__post_init__.__code__
    original = Scene.__dict__["monostatic"].func

    def refuse(self):
        caller = sys._getframe(1).f_code
        if caller is not validate:
            raise AssertionError(f"Scene.monostatic read by {caller.co_name}")
        return original(self)

    monkeypatch.setattr(Scene, "monostatic", property(refuse))
    for scene in _route_scenes().values():
        with pytest.raises(AssertionError, match="read by"):
            scene.monostatic
        for side in ("tx", "rx"):
            fd_steering_rows(scene, side, [0, 1], FD_CHECKS, [1, 4])
        fd_fim(scene)
        _channel_derivatives(scene)
    assert all(r.passed for r in _verify_steering(0, 20))


def test_verify_steering_catches_a_wrong_derivative_factor(monkeypatch):
    # a wrong x factor moves the analytic derivative but not the differences
    assert all(r.passed for r in _verify_steering(0, 1))
    original = sys.modules["nfcrb.steering"].element_factors

    def scaled(scene, geom, target):
        g, r, u, alpha, beta = original(scene, geom, target)
        alpha[0] *= 1.0 + 1e-3
        beta[0] *= 1.0 + 1e-3
        return g, r, u, alpha, beta

    monkeypatch.setattr(sys.modules["nfcrb.steering"], "element_factors", scaled)
    assert not any(r.passed for r in _verify_steering(0, 1))


def test_verify_steering_fails_on_a_nan_derivative(monkeypatch):
    # a NaN error must fail its scene, not drop out of the worst-case maximum
    original = sys.modules["nfcrb.steering"].element_factors

    def nan_x(scene, geom, target):
        g, r, u, alpha, beta = original(scene, geom, target)
        alpha[0] *= np.nan
        return g, r, u, alpha, beta

    monkeypatch.setattr(sys.modules["nfcrb.steering"], "element_factors", nan_x)
    with np.errstate(invalid="ignore"):
        reports = _verify_steering(0, 2)
    assert not any(r.passed for r in reports)


def test_closed_form_diagonal_check_fails_on_a_nan_bound(monkeypatch):
    # a NaN closed-form bound must fail the check, not drop out of its maximum
    oracle = sys.modules["nfcrb.oracle"]
    original = oracle.closed_form_single

    def nan_vy(scene, q):
        report = original(scene, q)
        bounds = dataclasses.replace(report.targets[0], crb_vy=math.nan)
        return dataclasses.replace(report, targets=(bounds,))

    monkeypatch.setattr(oracle, "closed_form_single", nan_vy)
    scene = canonical_scene()
    reports = {r.name: r for r in _verify_consistency(scene, fim(scene))}
    assert math.isnan(reports["closed-form-diagonal"].rel_err)
    assert not reports["closed-form-diagonal"].passed


def test_psi_limit_check_fails_on_a_nan_factor(monkeypatch):
    # a NaN psi factor in one far scene must fail the check, not drop out of
    # its maximum
    oracle = sys.modules["nfcrb.oracle"]
    original = oracle.correction_terms
    calls = []

    def nan_psi_y(scene, q):
        calls.append(q)
        terms = original(scene, q)
        return dataclasses.replace(terms, psi_y=math.nan) if len(calls) == 3 else terms

    monkeypatch.setattr(oracle, "correction_terms", nan_psi_y)
    reports = {r.name: r for r in _verify_expansions()}
    assert len(calls) == 6
    assert math.isnan(reports["psi-limit"].rel_err)
    assert not reports["psi-limit"].passed


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's heap trimming")
def test_verify_does_not_refault_its_heap_on_every_item():
    # the oracles' derivative stacks are one array each: as a list of separate
    # stacks the heap is handed back and faulted in again on every item, over
    # 800 minor faults here
    for _ in range(2):
        run_battery(0, 20)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_battery(0, 20)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 64, faults


def test_fd_fim_error_is_second_order_in_step():
    # halving the step should cut the central-difference error by about 4
    s = canonical_scene()
    exact = fim(s).matrix
    def err(h):
        steps = {k: v * h for k, v in DEFAULT_STEPS.items()}
        numeric = fd_fim(s, steps=steps).matrix
        return np.linalg.norm(numeric - exact, "fro") / np.linalg.norm(exact, "fro")
    ratio = err(16.0) / err(8.0)
    assert 2.8 < ratio < 5.5


def test_brute_gain_hand_sums():
    geom = ula(3, 1.0)  # elements at x = -1, 0, 1
    t = Target(x=0.0, y=10.0, vx=0.0, vy=0.0, rcs_re=1.0, rcs_im=0.0)
    assert brute_gain(geom, t, "g") == pytest.approx(2.0 / 101.0 + 1.0 / 100.0, rel=1e-15)


def test_brute_gain_rejects_unknown_kind():
    for kind in ("gdot_z", "gdot_x", "cross_y"):
        with pytest.raises(ValueError, match="kind"):
            brute_gain(ula(3, 1.0), target_at(10.0, 0.0), kind)


def test_brute_gain_rejects_on_element_target():
    t = Target(x=1.0, y=0.0, vx=0.0, vy=0.0, rcs_re=1.0, rcs_im=0.0)
    with pytest.raises(ValueError, match="coincides"):
        brute_gain(ula(3, 1.0), t, "g")

