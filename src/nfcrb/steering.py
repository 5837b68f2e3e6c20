"""Near-field steering vectors and the one table of their derivative factors.

Entries follow the spherical-wavefront model: element n of one array sees the
target at its own range r_n, so the phase carries the exact per-element
propagation delay and the per-path Doppler progression over slow time, and
the magnitude carries the per-element free-space pathloss lambda/(4 pi r_n).

element_factors alone writes down d a_n / dp = (alpha_p + beta_p t) a_n at
slow time t = m T, pathloss gradient included: _stack multiplies the factors
into derivative fields and crb sums them into element moments. The steering
vector and its four derivatives are one complex (5, [Q,] M, N) field array in
KEYS order, the only statement of that order. steering_stack returns it for
one target or, with a leading target axis, for a list of targets in one
broadcast: each target field enters as a (Q, 1, 1) column against the (M, N)
snapshot grid. steering_chunks yields the same array a few snapshot rows at a
time, so a stack is the one-chunk case. steering_values evaluates the entries
alone, for every target of a scene in one broadcast. All of them read the
element paths from _paths and the entries from _entries, so the model is
written once.
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


def _entries(scene, g, r, u, m_values):
    """Steering entries a = g exp(j k (u t - r)) and their slow times t = m T.

    m_values are slow-time indices, 1..M by default; t has shape (M, 1).
    """
    if m_values is None:
        m_values = np.arange(1, scene.snapshots + 1)
    mt = np.asarray(m_values, dtype=float)[:, None] * scene.t_sym_s
    k = 2.0 * np.pi * scene.carrier_hz / scene.lightspeed
    return g * np.exp(1j * k * (u * mt - r)), mt


def element_factors(scene, geom, target):
    """Per-element gain, range, radial speed and derivative factors of one side.

    Returns (g, r, u, factors) with g = lambda/(4 pi r) and, per kinematic
    parameter p, factors[p] = (alpha, beta), so that the entry
    a_n = g exp(j k (u t - r)) has d a_n / dp = (alpha + beta t) a_n.
    """
    dx, dy, r, u, g = _paths(scene, geom, target.x, target.y, target.vx, target.vy)
    jk = 2j * np.pi * scene.carrier_hz / scene.lightspeed
    # alpha_p = d(ln g - j k r)/dp and beta_p = j k du/dp; du/dx = dy v_tan / r^2
    # and du/dy = -dx v_tan / r^2 with v_tan the tangential speed seen from
    # element n
    v_tan = (target.vx * dy - target.vy * dx) / r
    zero = np.zeros_like(r)
    factors = {"x": (-jk * dx / r - dx / r ** 2, jk * dy * v_tan / r ** 2),
               "y": (-jk * dy / r - dy / r ** 2, -jk * dx * v_tan / r ** 2),
               "vx": (zero, jk * dx / r),
               "vy": (zero, jk * dy / r)}
    return g, r, u, factors


def steering_stack(scene, side, q, m_values=None):
    """Steering vector and all four derivatives of target q on one side.

    side is 'tx' or 'rx'; m_values are slow-time indices, 1..M by default.
    Returns one complex (5, len(m_values), N) array of the fields in KEYS
    order. q may also be a list or tuple of target indices, never a slice:
    the array then has a target axis, (5, len(q), len(m_values), N), and
    [:, j] equals steering_stack(scene, side, q[j], m_values) bit for bit.
    """
    if isinstance(q, (list, tuple)):
        target = _columns([scene.targets[j] for j in q])
    else:
        target = scene.targets[q]
    return _stack(scene, *_factors(scene, side, target), m_values)


def steering_chunks(scene, side, q, rows):
    """steering_stack of a list of targets q on one side, rows snapshots at a time.

    Yields (s, fields) per chunk of snapshots: s is the slice of rows, and
    fields the complex (5, len(q), rows, N) array of those rows. The element
    factors are computed once, for every chunk. Joined along the snapshot
    axis, the chunks equal steering_stack(scene, side, q) bit for bit.
    """
    factors = _factors(scene, side, _columns([scene.targets[j] for j in q]))
    for start in range(0, scene.snapshots, rows):
        s = slice(start, min(start + rows, scene.snapshots))
        yield s, _stack(scene, *factors, np.arange(s.start + 1, s.stop + 1))


def _factors(scene, side, target):
    """element_factors of one side, in KEYS order, each alpha cast to complex once for _stack."""
    g, r, u, factors = element_factors(scene, _side_geometry(scene, side), target)
    picked = (factors[key.removeprefix("d_")] for key in KEYS[1:])
    return g, r, u, [(np.asarray(alpha, dtype=complex), beta) for alpha, beta in picked]


def _stack(scene, g, r, u, factors, m_values):
    """One complex (5, [Q,] M, N) array of the entries a and their derivatives (alpha + beta t) a.

    t and alpha enter as complex, so every product runs numpy's plain complex
    loop, not a buffered cast per product; the values and bits are the same.
    """
    a, mt = _entries(scene, g, r, u, m_values)  # ([Q,] M, N), (M, 1)
    fields = np.empty((1 + len(factors),) + a.shape, dtype=complex)
    fields[0] = a
    t = mt.astype(complex)
    for field, (alpha, beta) in zip(fields[1:], factors):
        np.multiply(alpha + beta * t, a, out=field)
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
