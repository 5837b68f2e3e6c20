"""Near-field steering vectors and the one table of their derivative factors.

Entries follow the spherical-wavefront model: element n of one array sees the
target at its own range r_n, so the phase carries the exact per-element
propagation delay and the per-path Doppler progression over slow time, and
the magnitude carries the per-element free-space pathloss lambda/(4 pi r_n).

element_factors alone writes down d a_n / dp = (alpha_p + beta_p t) a_n at
slow time t = m T, pathloss gradient included, with one row p of the complex
arrays alpha and beta per field of KEYS[1:]: _stack multiplies the rows into
derivative fields and crb sums them into element moments. The steering
vector and its four derivatives are one complex (5, [Q,] M, N) field array in
KEYS order, the only statement of that order. steering_stack returns it for
one target or, with a leading target axis, for a list of targets in one
broadcast: each target field enters as a (Q, 1, 1) column against the (M, N)
snapshot grid; fim forms it a few snapshot rows at a time by _stack, from
one set of side_factors. steering_values evaluates the entries alone, for
every target of a scene in one broadcast. All of them read the element paths
from _paths and the entries from _entries, so the model is written once.
"""

from collections import namedtuple

import numpy as np

from .scene import DegenerateGeometryError

# the fields of a steering field array: the steering vector a, then its
# derivatives with respect to the target location x/y and velocity vx/vy
KEYS = ("a", "d_x", "d_y", "d_vx", "d_vy")

# target states as (Q, 1, 1) columns; element_factors reads them like a Target
_Columns = namedtuple("_Columns", "x y vx vy")


def _columns(targets):
    """Each target field of targets as a (Q, 1, 1) column against the (M, N) snapshot grid."""
    return _Columns(*np.array([(t.x, t.y, t.vx, t.vy) for t in targets]).T[:, :, None, None])


def _side_geometry(scene, side):
    if side == "tx":
        return scene.tx
    if side == "rx":
        return scene.rx
    raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")


def _paths(scene, geom, x, y, vx, vy):
    """Offsets dx, dy, range r, radial speed u and gain g of every element path.

    The target state x, y, vx, vy is scalar or an array broadcast against the
    element axis, which is last.
    """
    dx = x - geom.positions[:, 0]
    dy = y - geom.positions[:, 1]
    r = np.hypot(dx, dy)
    if r.min() <= 0.0:
        raise DegenerateGeometryError("target coincides with an array element")
    u = (vx * dx + vy * dy) / r
    g = scene.wavelength_m / (4.0 * np.pi * r)
    return dx, dy, r, u, g


def _entries(scene, g, r, u, m_values, out=None, work=(None, None)):
    """Steering entries a = g exp(j k (u t - r)) and their slow times t = m T.

    m_values are slow-time indices, 1..M by default; t has shape (M, 1). out,
    if given, takes a, and work, two contiguous complex arrays of a's shape,
    the exponent and its exp; the path u t - r is formed in the second, seen
    as float. Each step but the path's writes apart from its inputs.
    """
    if m_values is None:
        m_values = np.arange(1, scene.snapshots + 1)
    mt = np.asarray(m_values, dtype=float)[:, None] * scene.t_sym_s
    k = 2.0 * np.pi * scene.carrier_hz / scene.lightspeed
    exponent, e = work
    path = None if e is None else e.reshape(-1).view(float)[:e.size].reshape(e.shape)
    path = np.subtract(np.multiply(u, mt, out=path), r, out=path)
    e = np.exp(np.multiply(1j * k, path, out=exponent), out=e)
    return np.multiply(g, e, out=out), mt


def element_factors(scene, geom, target):
    """Per-element gain, range, radial speed and derivative factors of one side.

    Returns (g, r, u, alpha, beta) with g = lambda/(4 pi r) and complex
    alpha, beta of shape (4, [Q, 1,] N), one row per kinematic parameter p in
    KEYS[1:] order, so that the entry a_n = g exp(j k (u t - r)) has
    d a_n / dp = (alpha[p] + beta[p] t) a_n.
    """
    dx, dy, r, u, g = _paths(scene, geom, target.x, target.y, target.vx, target.vy)
    jk = 2j * np.pi * scene.carrier_hz / scene.lightspeed
    # alpha_p = d(ln g - j k r)/dp and beta_p = j k du/dp; du/dx = dy v_tan / r^2
    # and du/dy = -dx v_tan / r^2 with v_tan the tangential speed seen from
    # element n, while du/dvx = dx / r and du/dvy = dy / r
    v_tan = (target.vx * dy - target.vy * dx) / r

    def factors(key):  # the (alpha_p, beta_p) row pair of field key
        along, across, turn = (dx, dy, jk) if key.endswith("x") else (dy, dx, -jk)
        if key.startswith("d_v"):
            return np.zeros_like(r), jk * along / r
        return -jk * along / r - along / r ** 2, turn * across * v_tan / r ** 2

    alpha, beta = (np.array(rows, dtype=complex) for rows in zip(*map(factors, KEYS[1:])))
    return g, r, u, alpha, beta


def side_factors(scene, side, q):
    """element_factors of target q on one side, with a target axis if q is a list or tuple."""
    target = (_columns([scene.targets[j] for j in q]) if isinstance(q, (list, tuple))
              else scene.targets[q])
    return element_factors(scene, _side_geometry(scene, side), target)


def steering_stack(scene, side, q, m_values=None):
    """Steering vector and all four derivatives of target q on one side.

    side is 'tx' or 'rx'; m_values are slow-time indices, 1..M by default.
    Returns one complex (5, len(m_values), N) array of the fields in KEYS
    order. q may also be a list or tuple of target indices, never a slice:
    the array then has a target axis, (5, len(q), len(m_values), N), and
    [:, j] equals steering_stack(scene, side, q[j], m_values) bit for bit.
    """
    return _stack(scene, *side_factors(scene, side, q), m_values)


def _stack(scene, g, r, u, alpha, beta, m_values, out=None):
    """One complex (5, [Q,] M, N) array of the entries a and their derivatives (alpha + beta t) a.

    t and alpha enter as complex, so every product runs numpy's plain complex
    loop, not a buffered cast per product; the values and bits are the same.
    alpha + beta t is formed in a scratch field, so each product writes apart
    from its inputs, as into a new array, and keeps that array's loop and
    bits. out, if given, is a flat complex buffer that takes the fields and
    then the scratch.
    """
    m_count = scene.snapshots if m_values is None else len(m_values)
    shape = r.shape[:-2] + (m_count, r.shape[-1])  # ([Q,] M, N) from r's ([Q, 1,] N)
    size, count = m_count * r.size, 1 + len(alpha)
    if out is None:
        out = np.empty((count + 1) * size, dtype=complex)
    fields = out[:count * size].reshape((count,) + shape)
    scratch = out[count * size:(count + 1) * size].reshape(shape)
    # the entries' intermediates go into derivative fields not yet formed
    a, mt = _entries(scene, g, r, u, m_values, out=fields[0], work=fields[1:3])
    t = mt.astype(complex)
    for field, alpha_p, beta_p in zip(fields[1:], alpha, beta):
        np.add(alpha_p, np.multiply(beta_p, t, out=scratch), out=scratch)
        np.multiply(scratch, a, out=field)
    return fields


def steering_values(scene, side, m_values=None):
    """Steering vectors alone of every target on one side, in one broadcast.

    Returns a (Q, len(m_values), N) complex array whose slice q equals
    steering_stack(scene, side, q, m_values)[0] bit for bit; no derivative is
    formed.
    """
    _, _, r, u, g = _paths(scene, _side_geometry(scene, side), *_columns(scene.targets))
    return _entries(scene, g, r, u, m_values)[0]


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
