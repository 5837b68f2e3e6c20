"""Near-field steering vectors and their analytic parameter derivatives.

Entries follow the spherical-wavefront model: element n of one array sees the
target at its own range r_n, so the phase carries the exact per-element
propagation delay and the per-path Doppler progression over slow time, and
the magnitude carries the per-element free-space pathloss lambda/(4 pi r_n).

All derivative factors below were checked against central finite differences;
the location factor keeps the pathloss-gradient term even though pathloss is
treated as snapshot-invariant elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from .scene import DegenerateGeometryError


@dataclass(frozen=True)
class SteeringStack:
    """One array side, one target, all snapshots: (M, N) complex arrays.

    a is the steering vector; d_* are its derivatives with respect to the
    target parameters (location x/y, velocity vx/vy).
    """

    a: np.ndarray
    d_x: np.ndarray
    d_y: np.ndarray
    d_vx: np.ndarray
    d_vy: np.ndarray

    def derivative(self, kind):
        return {"x": self.d_x, "y": self.d_y, "vx": self.d_vx, "vy": self.d_vy}[kind]


def _side_geometry(scene, side):
    if side == "tx":
        return scene.tx
    if side == "rx":
        return scene.rx
    raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")


def _offsets(scene, side, q):
    """Per-element target offsets dx, dy (m), ranges r (m), radial speed u (m/s)."""
    geom = _side_geometry(scene, side)
    t = scene.targets[q]
    dx = t.x - geom.positions[:, 0]
    dy = t.y - geom.positions[:, 1]
    r = np.hypot(dx, dy)
    if r.min() <= 0.0:
        raise DegenerateGeometryError("target coincides with an array element")
    u = (t.vx * dx + t.vy * dy) / r
    return dx, dy, r, u


def steering_stack(scene, side, q, m_values=None):
    """Steering vectors and all four derivatives for snapshots m_values.

    Parameters
    ----------
    scene : Scene
    side : {'tx', 'rx'}
    q : int
        Target index.
    m_values : array_like of int, optional
        Slow-time indices, defaults to 1..M.

    Returns
    -------
    SteeringStack with (len(m_values), N) entries.
    """
    t = scene.targets[q]
    dx, dy, r, u = _offsets(scene, side, q)
    g = scene.wavelength_m / (4.0 * np.pi * r)
    k = 2.0 * np.pi * scene.carrier_hz / scene.lightspeed
    if m_values is None:
        m_values = np.arange(1, scene.snapshots + 1)
    mt = np.asarray(m_values, dtype=float)[:, None] * scene.t_sym_s  # (M, 1)

    a = g * np.exp(1j * k * (u * mt - r))  # (M, N)
    d_vx = (1j * k * mt * dx / r) * a
    d_vy = (1j * k * mt * dy / r) * a
    # d/dx of g*exp(j*k*(u*m*T - r)): phase advance, pathloss gradient, and
    # the Doppler curvature of u, grouped as printed in the derivation
    f_x = (1j * k * (t.vx * mt - dx) / r - dx / r ** 2
           - 1j * k * mt * (t.vx * dx ** 2 + t.vy * dx * dy) / r ** 3)
    f_y = (1j * k * (t.vy * mt - dy) / r - dy / r ** 2
           - 1j * k * mt * (t.vy * dy ** 2 + t.vx * dx * dy) / r ** 3)
    return SteeringStack(a=a, d_x=f_x * a, d_y=f_y * a, d_vx=d_vx, d_vy=d_vy)


def pathloss(target_pos, element_pos, wavelength):
    """Free-space amplitude factor lambda/(4 pi r) between two points."""
    d = np.hypot(target_pos[0] - element_pos[0], target_pos[1] - element_pos[1])
    if d <= 0.0:
        raise DegenerateGeometryError("zero propagation distance")
    return wavelength / (4.0 * np.pi * d)


def doppler_shift(target, tx_element_pos, rx_element_pos, carrier_hz, lightspeed):
    """Two-way Doppler of the path Tx element -> target -> Rx element, in Hz."""
    f = 0.0
    for pos in (tx_element_pos, rx_element_pos):
        dx = target.x - pos[0]
        dy = target.y - pos[1]
        r = np.hypot(dx, dy)
        if r <= 0.0:
            raise DegenerateGeometryError("zero propagation distance")
        f += (target.vx * dx + target.vy * dy) / r
    return carrier_hz / lightspeed * f
