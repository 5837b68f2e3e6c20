"""Shared scene builders and output parsers for the test suite."""

import dataclasses
import math

import numpy as np

from nfcrb import Target, from_positions, make_scene, ula
from nfcrb.steering import steering_stack


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
        scene, tx=from_positions(scene.tx.positions @ rot.T),
        rx=from_positions(scene.rx.positions @ rot.T), targets=tuple(targets))


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

    norm_at = np.einsum("mn,mn->m", tx.a.conj(), tx.a).real  # (M,)
    norm_ar = np.einsum("mn,mn->m", rx.a.conj(), rx.a).real
    f_alpha = half * (norm_ar * norm_at).sum()
    crb_alpha_part = 1.0 / f_alpha if f_alpha > 0.0 else math.inf

    def kinematic(kind):
        d_t = tx.derivative(kind)
        d_r = rx.derivative(kind)
        s = (np.einsum("mn,mn->m", d_r.conj(), d_r).real * norm_at
             + 2.0 * (np.einsum("mn,mn->m", d_r.conj(), rx.a)
                      * np.einsum("mn,mn->m", tx.a.conj(), d_t)).real
             + norm_ar * np.einsum("mn,mn->m", d_t.conj(), d_t).real)
        f = half * alpha2 * s.sum()
        return 1.0 / f if f > 0.0 else math.inf

    return (kinematic("x"), kinematic("y"), kinematic("vx"), kinematic("vy"),
            crb_alpha_part, crb_alpha_part)
