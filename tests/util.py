"""Shared scene builders and output parsers for the test suite."""

import dataclasses
import math

import numpy as np

from nfcrb import (BLOCKS, ArrayGeometry, Scene, Target, make_scene, polar_of,
                   slow_time_sum, ula)
from nfcrb.steering import KEYS, steering_stack


def target_at(range_m, angle_deg, v=(1.0, 4.0), alpha=(1.0, 0.1)):
    """Target at origin-frame polar coordinates (range, angle from +y)."""
    th = math.radians(angle_deg)
    return Target(x=range_m * math.sin(th), y=range_m * math.cos(th),
                  vx=v[0], vy=v[1], rcs_re=alpha[0], rcs_im=alpha[1])


def small_scene(n=8, m=4, r=100.0, angle_deg=20.0, v=(1.0, 4.0)):
    return make_scene(targets=[target_at(r, angle_deg, v=v)],
                      tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)


def canonical_scene():
    # single default target, N=32, M=16
    return make_scene(tx=ula(32, 0.01), rx=ula(32, 0.01), snapshots=16)


def many_target_scene(q=8, n=128, m=128, seed=0):
    """Seeded q-target scene at 60-400 m and +-60 deg, N_t = N_r = n, M = m.

    The defaults match the size of the eval_multi benchmark scenes.
    """
    rng = np.random.default_rng(seed)
    targets = [target_at(rng.uniform(60.0, 400.0), rng.uniform(-60.0, 60.0),
                         v=tuple(rng.uniform(-5.0, 5.0, 2)),
                         alpha=tuple(rng.normal(0.0, 0.5 ** 0.5, 2)))
               for _ in range(q)]
    return make_scene(targets=targets, tx=ula(n, 0.01), rx=ula(n, 0.01), snapshots=m)


def sharing_scenes():
    """Scenes to check the monostatic sharing of per-side values on, keyed by a test id.

    Ids starting with "monostatic" have equal Tx and Rx layouts: the reference
    scene, an eval-size Q=8 scene, and two equal free-form arrays built
    separately. The "near-twin" ones differ in one respect only: the pitch,
    the centroid_x of otherwise equal ULAs, or a ULA against a free-form
    array of the same positions.
    """
    tx = ula(16, 0.01)
    targets = [target_at(30.0, 20.0), target_at(45.0, -35.0, v=(4.0, 3.0), alpha=(0.8, -0.2))]
    pairs = {"monostatic-free-form": (ArrayGeometry(tx.positions),
                                      ArrayGeometry(tx.positions.copy())),
             "near-twin-spacing": (tx, ula(16, 0.011)),
             "near-twin-centroid": (tx, dataclasses.replace(tx, centroid_x=0.5)),
             "near-twin-free-form": (tx, ArrayGeometry(tx.positions))}
    return {"monostatic-reference": make_scene(), "monostatic-q8": many_target_scene(q=8),
            **{key: make_scene(targets=targets, tx=a, rx=b, snapshots=8)
               for key, (a, b) in pairs.items()}}


def shared_and_unshared(monkeypatch, func, scene):
    """func(scene) as computed, and again with every scene read as bistatic.

    With Scene.monostatic patched to False each array side is computed on its
    own, which is the reference the shared evaluation must equal bit for bit.
    """
    shared = func(scene)
    with monkeypatch.context() as patch:
        patch.setattr(Scene, "monostatic", property(lambda self: False))
        return shared, func(scene)


def rotate_scene(scene, deg):
    """Rigidly rotate arrays, positions, and velocities about the origin."""
    th = math.radians(deg)
    rot = np.array([[math.cos(th), -math.sin(th)],
                    [math.sin(th), math.cos(th)]])
    targets = []
    for t in scene.targets:
        p = rot @ np.array([t.x, t.y])
        v = rot @ np.array([t.vx, t.vy])
        targets.append(Target(x=p[0], y=p[1], vx=v[0], vy=v[1],
                              rcs_re=t.rcs_re, rcs_im=t.rcs_im))
    return dataclasses.replace(
        scene, tx=ArrayGeometry(scene.tx.positions @ rot.T),
        rx=ArrayGeometry(scene.rx.positions @ rot.T), targets=tuple(targets))


def parse_kv_lines(text):
    """key=value report lines into a dict (floats where possible)."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        try:
            out[key] = float(value) if value else None
        except ValueError:
            out[key] = value
    return out


def parse_csv(text):
    """Sweep CSV into (metadata lines, header list, row dicts of strings)."""
    meta, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def stack_closed_form(scene, q):
    """Reciprocal Fisher diagonal of one target from full M x N steering stacks.

    Per-snapshot norms and inner products reduced by einsum: an independent
    reference for the element-moment form of closed_form_single. Returns
    (crb_x, crb_y, crb_vx, crb_vy, crb_alpha_r, crb_alpha_i).
    """
    tx = steering_stack(scene, "tx", q)
    rx = steering_stack(scene, "rx", q)
    half = 2.0 * scene.power_w / scene.noise_var_w
    alpha2 = abs(scene.targets[q].rcs) ** 2

    norm_at = np.einsum("mn,mn->m", tx[0].conj(), tx[0]).real  # (M,)
    norm_ar = np.einsum("mn,mn->m", rx[0].conj(), rx[0]).real
    f_alpha = half * (norm_ar * norm_at).sum()
    crb_alpha_part = 1.0 / f_alpha if f_alpha > 0.0 else math.inf

    def kinematic(kind):
        d_t = tx[KEYS.index("d_" + kind)]
        d_r = rx[KEYS.index("d_" + kind)]
        s = (np.einsum("mn,mn->m", d_r.conj(), d_r).real * norm_at
             + 2.0 * (np.einsum("mn,mn->m", d_r.conj(), rx[0])
                      * np.einsum("mn,mn->m", tx[0].conj(), d_t)).real
             + norm_ar * np.einsum("mn,mn->m", d_t.conj(), d_t).real)
        f = half * alpha2 * s.sum()
        return 1.0 / f if f > 0.0 else math.inf

    return (kinematic("x"), kinematic("y"), kinematic("vx"), kinematic("vy"),
            crb_alpha_part, crb_alpha_part)


def explicit_fim(scene, x):
    """Fisher information of concrete (..., N_t, M) symbol matrices x.

    Per snapshot, each channel derivative D_p is built as an N_r x N_t
    matrix by the product rule on the steering stacks and applied to the
    symbols, mu_p = D_p x_m; the FIM is 2 / sigma^2 Re sum_m mu_p^H mu_q,
    one (6Q, 6Q) matrix per leading index of x. A per-draw reference for the
    sample-covariance form of monte_carlo_isotropic.
    """
    stacks = {(side, q): steering_stack(scene, side, q)
              for q in range(scene.q_count) for side in ("tx", "rx")}
    n_par = 6 * scene.q_count
    f = np.zeros(x.shape[:-2] + (n_par, n_par))
    for m in range(scene.snapshots):
        mu = []
        for kind in BLOCKS:
            for q in range(scene.q_count):
                tx, rx = stacks["tx", q], stacks["rx", q]
                if kind == "rcs_re":
                    d = np.outer(rx[0][m], tx[0][m])
                elif kind == "rcs_im":
                    d = 1j * np.outer(rx[0][m], tx[0][m])
                else:
                    key = KEYS.index("d_" + kind)
                    d = scene.targets[q].rcs * (np.outer(rx[key][m], tx[0][m])
                                                + np.outer(rx[0][m], tx[key][m]))
                mu.append(x[..., :, m] @ d.T)  # D_p x_m, (..., N_r)
        mu = np.stack(mu, axis=-2)  # (..., 6Q, N_r)
        f += (mu.conj() @ np.swapaxes(mu, -1, -2)).real
    return 2.0 / scene.noise_var_w * f


def plane_wave_angle_factor(scene, q, axis):
    """(sin th_tx + sin th_rx)^2 for axis x, the cosines for y: the ff angle factor."""
    trig = math.sin if axis == "x" else math.cos
    th_tx = polar_of(scene.targets[q], scene.tx)[1]
    th_rx = polar_of(scene.targets[q], scene.rx)[1]
    return (trig(th_tx) + trig(th_rx)) ** 2


def plane_wave_bound(scene, q, bound):
    """Far-field closed form of one bound ("rcs", "x", "y", "vx", "vy") for ULAs.

    The explicit plane-wave formulas, an independent reference for the zeroth
    aperture order of approx:
      rcs:  256 sigma^2 pi^4 (r_tx r_rx)^2 / (P M N_t N_r lambda^4)
      x, y: 32 pi^2 sigma^2 (r_tx r_rx)^2 / (|alpha|^2 P N_t N_r S lambda^2 den)
    with den the plane_wave_angle_factor of the axis, S = M for location
    and T_sym^2 sum_m m^2 for velocity; inf for a dark target or a den below
    1e-12.
    """
    t = scene.targets[q]
    r_tx, r_rx = polar_of(t, scene.tx)[0], polar_of(t, scene.rx)[0]
    if bound == "rcs":
        return (256.0 * scene.noise_var_w * math.pi ** 4 * (r_tx * r_rx) ** 2
                / (scene.power_w * scene.snapshots * scene.tx.count * scene.rx.count
                   * scene.wavelength_m ** 4))
    alpha2 = abs(t.rcs) ** 2
    if alpha2 == 0.0:
        return math.inf
    slow = (scene.t_sym_s ** 2 * slow_time_sum(scene.snapshots) if bound.startswith("v")
            else float(scene.snapshots))
    base = (32.0 * math.pi ** 2 * scene.noise_var_w * (r_tx * r_rx) ** 2
            / (alpha2 * scene.power_w * scene.tx.count * scene.rx.count
               * slow * scene.wavelength_m ** 2))
    den = plane_wave_angle_factor(scene, q, bound[-1])
    return base / den if den >= 1e-12 else math.inf
