"""Release gate: one test per acceptance criterion, named so `pytest -v`
prints a pass/fail line for each. Tolerances and runtime budgets are part
of the criteria, so the assertions here pin them explicitly.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from nfcrb import (Target, closed_form_single, correction_terms,
                   crb_location_approx, crb_rcs_approx, crb_velocity_approx,
                   fim, full_crb, gain, make_scene, relative_error,
                   schur_target_report, slow_time_sum, ula)
from nfcrb.oracle import _canonical_scene, _two_target_scene, _verify_steering
from nfcrb.oracle import brute_gain, fd_fim

from util import rotate_scene, target_at


RANGE_GRID = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
ANTENNA_GRID = (16, 32, 64, 128, 256)
NAMES = ("x", "y", "vx", "vy", "alpha_r", "alpha_i")


def _strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def _default_arrays_scene(r, angle_deg, v=(1.0, 4.0), n=256, snapshots=256):
    return make_scene(targets=[target_at(r, angle_deg, v=v)],
                      tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=snapshots)


def test_criterion_01_steering_derivatives_match_finite_differences():
    start = time.monotonic()
    reports = _verify_steering(seed=0, battery=20)
    elapsed = time.monotonic() - start
    assert len(reports) == 20
    assert all(r.passed for r in reports)
    assert max(r.rel_err for r in reports) <= 1e-5
    assert elapsed < 10.0


def test_criterion_02_fim_matches_finite_difference_oracle():
    start = time.monotonic()
    for scene in (_canonical_scene(), _two_target_scene()):
        analytic = fim(scene).matrix
        reference = fd_fim(scene).matrix
        err = (np.linalg.norm(analytic - reference, "fro")
               / np.linalg.norm(reference, "fro"))
        assert err <= 1e-5
    assert time.monotonic() - start < 30.0


def test_criterion_03_closed_forms_equal_reciprocal_fisher_diagonal():
    scene = _canonical_scene()
    bounds = closed_form_single(scene, 0).targets[0]
    diag = np.diag(fim(scene).matrix)
    for i, name in enumerate(NAMES):
        assert abs(bounds.by_name(name) * diag[i] - 1.0) <= 1e-10


def test_criterion_04_point_arrays_make_the_closed_forms_exact():
    scene = make_scene(tx=ula(1, 0.01), rx=ula(1, 0.01))
    exact = closed_form_single(scene, 0).targets[0].crb_alpha
    for variant in ("ff", "nf"):
        assert abs(crb_rcs_approx(scene, 0, variant) / exact - 1.0) <= 1e-12
    c = correction_terms(scene, 0)
    assert c.psi_x == 1.0 and c.psi_y == 1.0
    assert c.delta_tx == 0.0 and c.delta_rx == 0.0
    assert c.a_tx == 1.0 and c.a_rx == 1.0
    assert c.delta_nf_x_tx == 0.0 and c.delta_nf_x_rx == 0.0
    assert c.delta_nf_y_tx == 0.0 and c.delta_nf_y_rx == 0.0


def test_criterion_05_gain_expansion_error_decays_fourth_order():
    start = time.monotonic()
    lam = 0.02
    geom = ula(256, lam / 2.0)
    residuals = []
    for r in RANGE_GRID:
        t = target_at(r, 20.0)
        truth = brute_gain(geom, t, "g")
        err_ff = abs(gain(geom, t, "ff") - truth) / truth
        err_nf = abs(gain(geom, t, "nf") - truth) / truth
        assert err_nf < err_ff
        residuals.append(err_nf)
    slope = float(np.polyfit(np.log(RANGE_GRID), np.log(residuals), 1)[0])
    assert abs(slope + 4.0) <= 0.3
    assert time.monotonic() - start < 5.0


def test_criterion_06_bounds_and_expansion_errors_over_range():
    start = time.monotonic()
    curves = {name: [] for name in NAMES}
    for r in RANGE_GRID:
        moving = _default_arrays_scene(r, 20.0)
        bounds = closed_form_single(moving, 0).targets[0]
        for name in NAMES:
            curves[name].append(bounds.by_name(name))
        checks = [(crb_rcs_approx(moving, 0, "ff"),
                   crb_rcs_approx(moving, 0, "nf"), bounds.crb_alpha)]
        for axis in ("x", "y"):
            checks.append((crb_velocity_approx(moving, 0, axis, "ff"),
                           crb_velocity_approx(moving, 0, axis, "nf"),
                           bounds.by_name("v" + axis)))
        # the location closed forms model a static target, so their error
        # is measured against the matching static scene
        static = _default_arrays_scene(r, 20.0, v=(0.0, 0.0))
        static_bounds = closed_form_single(static, 0).targets[0]
        for axis in ("x", "y"):
            checks.append((crb_location_approx(static, 0, axis, "ff"),
                           crb_location_approx(static, 0, axis, "nf"),
                           static_bounds.by_name(axis)))
        for ff, nf, truth in checks:
            assert relative_error(nf, truth) <= relative_error(ff, truth)
    for name in NAMES:
        assert _strictly_increasing(curves[name])
    assert time.monotonic() - start < 60.0


def test_criterion_07_bounds_and_expansion_errors_over_antennas():
    curves = {name: [] for name in NAMES}
    ff_errors = {key: [] for key in ("vx", "vy", "x", "y")}
    for n in ANTENNA_GRID:
        moving = _default_arrays_scene(100.0, 20.0, n=n)
        bounds = closed_form_single(moving, 0).targets[0]
        for name in NAMES:
            curves[name].append(bounds.by_name(name))
        static = _default_arrays_scene(100.0, 20.0, v=(0.0, 0.0), n=n)
        static_bounds = closed_form_single(static, 0).targets[0]
        for axis in ("x", "y"):
            truth = bounds.by_name("v" + axis)
            ff_errors["v" + axis].append(
                relative_error(crb_velocity_approx(moving, 0, axis, "ff"), truth))
            assert relative_error(
                crb_velocity_approx(moving, 0, axis, "nf"), truth) < 1e-2
            truth = static_bounds.by_name(axis)
            ff_errors[axis].append(
                relative_error(crb_location_approx(static, 0, axis, "ff"), truth))
            assert relative_error(
                crb_location_approx(static, 0, axis, "nf"), truth) < 1e-2
    for name in NAMES:
        assert _strictly_increasing(list(reversed(curves[name])))
    for key in ff_errors:
        assert _strictly_increasing(ff_errors[key])


def test_criterion_08_scaling_laws():
    # doubling the transmit power halves every exact bound
    base = closed_form_single(make_scene(), 0).targets[0]
    doubled = closed_form_single(make_scene(power_w=0.2), 0).targets[0]
    for name in NAMES:
        assert abs(doubled.by_name(name) / base.by_name(name) - 0.5) <= 1e-12
    near = lambda p: make_scene(targets=[target_at(10.0, 30.0, v=(3.0, -2.0))],
                                tx=ula(32, 0.01), rx=ula(32, 0.01),
                                snapshots=64, power_w=p)
    full_base = full_crb(fim(near(0.1)))[1].targets[0]
    full_doubled = full_crb(fim(near(0.2)))[1].targets[0]
    for name in NAMES:
        assert abs(full_doubled.by_name(name)
                   / full_base.by_name(name) - 0.5) <= 1e-12

    # the reflectivity bound is inversely proportional to the snapshot count
    # (snapshot-invariant gains, hence a static target)
    static = lambda **kw: make_scene(
        targets=[target_at(100.0, 20.0, v=(0.0, 0.0))], **kw)
    alpha = [closed_form_single(static(snapshots=m), 0).targets[0].crb_alpha
             for m in (128, 256, 512)]
    assert abs(alpha[1] * 256 / (alpha[0] * 128) - 1.0) <= 1e-12
    assert abs(alpha[2] * 512 / (alpha[1] * 256) - 1.0) <= 1e-12

    # stretching the symbol period by s scales static velocity bounds by 1/s^2
    b1 = closed_form_single(static(), 0).targets[0]
    b3 = closed_form_single(static(t_sym_s=3e-4), 0).targets[0]
    assert abs(b3.crb_vx / b1.crb_vx * 9.0 - 1.0) <= 1e-9
    assert abs(b3.crb_vy / b1.crb_vy * 9.0 - 1.0) <= 1e-9

    # velocity and location closed forms differ only in the slow-time factor
    scene = make_scene()
    law = scene.snapshots / (scene.t_sym_s ** 2 * slow_time_sum(scene.snapshots))
    for variant in ("ff", "nf"):
        for axis in ("x", "y"):
            ratio = (crb_velocity_approx(scene, 0, axis, variant)
                     / crb_location_approx(scene, 0, axis, variant))
            assert abs(ratio / law - 1.0) <= 1e-13


def test_criterion_09_psi_factors_converge_far_out():
    scene = make_scene()
    fraunhofer = scene.tx.region_boundaries(scene.wavelength_m)[1]
    r = 10.0 * fraunhofer
    for deg in (-60.0, -40.0, -20.0, 20.0, 40.0, 60.0):
        c = correction_terms(make_scene(targets=[target_at(r, deg)]), 0)
        assert abs(c.psi_x - 1.0) < 1e-3
        assert abs(c.psi_y - 1.0) < 1e-3


def test_criterion_10_multi_target_coupling_is_negligible():
    tx, rx = ula(256, 0.01, -2.0), ula(256, 0.01, 2.0)
    targets = [target_at(100.0, 20.0),
               target_at(150.0, -45.0, v=(4.0, 3.0), alpha=(0.8, -0.2)),
               target_at(50.0, -5.0, v=(10.0, 6.0))]
    joint = fim(make_scene(targets=targets, tx=tx, rx=rx))
    for q, t in enumerate(targets):
        multi = schur_target_report(joint, q).targets[0]
        alone = schur_target_report(
            fim(make_scene(targets=[t], tx=tx, rx=rx)), 0).targets[0]
        for name in NAMES:
            assert abs(multi.by_name(name) / alone.by_name(name) - 1.0) <= 0.05


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_11_structural_invariants():
    # symmetry and positive semidefiniteness across the randomized battery
    for i in range(20):
        rng = np.random.default_rng(100003 + i)
        n = int(rng.choice([4, 32]))
        m = int(rng.choice([4, 16]))
        r = float(rng.uniform(10.0, 500.0))
        th = math.radians(float(rng.uniform(-60.0, 60.0)))
        vx, vy = (float(v) for v in rng.uniform(-20.0, 20.0, 2))
        scene = make_scene(
            targets=[Target(x=r * math.sin(th), y=r * math.cos(th), vx=vx,
                            vy=vy, rcs_re=float(rng.normal()),
                            rcs_im=float(rng.normal()))],
            tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)
        f = fim(scene).matrix
        np.testing.assert_array_equal(f, f.T)
        w = np.linalg.eigvalsh(f)
        assert w.min() >= -1e-8 * np.linalg.norm(f, 2)

    # a rigid rotation permutes nothing but reorients the axes, so the x/y
    # and vx/vy bound traces are invariant
    base = make_scene(targets=[target_at(20.0, 30.0, v=(8.0, -5.0))],
                      tx=ula(128, 0.01), rx=ula(128, 0.01))
    c0 = full_crb(fim(base))[0]
    c1 = full_crb(fim(rotate_scene(base, 30.0)))[0]
    for rows in ((0, 1), (2, 3)):
        t0 = c0[rows[0], rows[0]] + c0[rows[1], rows[1]]
        t1 = c1[rows[0], rows[0]] + c1[rows[1], rows[1]]
        assert abs(t1 / t0 - 1.0) <= 1e-8

    bounds = closed_form_single(make_scene(), 0).targets[0]
    assert bounds.crb_alpha_r == bounds.crb_alpha_i

    broadside = make_scene(targets=[target_at(100.0, 0.0, v=(0.0, 0.0))])
    assert math.isinf(crb_location_approx(broadside, 0, "x", "ff"))
    exact_x = closed_form_single(broadside, 0).targets[0].crb_x
    assert math.isfinite(exact_x) and exact_x > 0.0


def test_criterion_12_reports_are_deterministic(tmp_path):
    cmd = [sys.executable, "-m", "nfcrb", "verify", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    cfg = tmp_path / "scene.cfg"
    cfg.write_text("\n".join([
        "carrier_hz = 15e9", "snapshots = 16", "power_w = 0.1",
        "tx.count = 32", "tx.spacing_m = 0.01",
        "rx.count = 32", "rx.spacing_m = 0.01",
        "target.0.range = 100", "target.0.angle_deg = 20",
        "target.0.vx = 1", "target.0.vy = 4",
        "target.0.rcs_re = 1", "target.0.rcs_im = 0.1",
    ]) + "\n")
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "nfcrb", "sweep", str(cfg), "--var", "range",
             "--grid", "50,100,200,400", "--out", str(out)],
            capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())
    # the sweep engine is serial, so no worker count can reorder the rows
    assert outputs[0] == outputs[1]
