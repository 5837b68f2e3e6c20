"""Near-field steering vectors and the one table of their derivative factors.

Entries follow the spherical-wavefront model: element n of one array sees the
target at its own range r_n, so the phase carries the exact per-element
propagation delay and the per-path Doppler progression over slow time, and
the magnitude carries the per-element free-space pathloss lambda/(4 pi r_n).

element_factors alone writes down d a_n / dp = (alpha_p + beta_p t) a_n at
slow time t = m T, pathloss gradient included, with one row p of the complex
arrays alpha and beta per field of KEYS[1:]: _stack multiplies the rows into
derivative fields, and crb sums them into the element moments of every own
Fisher block. The steering vector and its four derivatives are one complex
(5, [Q,] M, N) field array in KEYS order, the only statement of that order.
steering_stack returns it for one target or, with a leading target axis, for
a list of targets in one broadcast: each target field enters as a (Q, 1, 1)
column against the (M, N) snapshot grid; fim forms it a few snapshot rows at
a time by _stack, from side_factors shifted to centre each target, for its
cross-target blocks; a list of targets enters as the columns of its rows of
Scene.states, the one array form of the targets. steering_values evaluates
the entries alone, in one broadcast over the rows of a (K, 6) state array in
BLOCKS order: Scene.states, or the shifted states that the oracle's finite
differences pass in its place. All of them read the element paths
from _paths and the entries from _entries, so the model is written once.
_entries forms each entry as the product of two rows of the phasor table of
_phasors, a few exp calls per element path instead of one per snapshot. The
table has one layout, which _table_rows states: a function of the side
alone, whatever snapshots a call asks for. fim forms each side's table once
and reads it for every chunk.
"""

import math
from collections import namedtuple

import numpy as np

from .scene import DegenerateGeometryError

# snapshots per high row of the phasor table (_phasors): snapshot m = LOW_ROWS h + l
LOW_ROWS = 16

# the fields of a steering field array: the steering vector a, then its
# derivatives with respect to the target location x/y and velocity vx/vy
KEYS = ("a", "d_x", "d_y", "d_vx", "d_vy")

# rows of Scene.states as (Q, 1, 1) columns; element_factors reads them like a Target
_Columns = namedtuple("_Columns", "x y vx vy")
# the elements of several arrays in one (N, 2) table; element_factors reads it like an ArrayGeometry
_Elements = namedtuple("_Elements", "positions")


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


def _table_rows(scene):
    """The phasor table's high and z^l row counts: ceil(M / LOW_ROWS) and min(LOW_ROWS, M)."""
    return -(-scene.snapshots // LOW_ROWS), min(LOW_ROWS, scene.snapshots)


def _phasors(scene, g, r, u, out=None):
    """The phasor table of one side's entries at slow-time indices 1..M.

    Snapshot m = LOW_ROWS h + l, with l in 1..LOW_ROWS, has the entry
    g exp(j k (u LOW_ROWS h T - r)) z^l, z = exp(j k u T): the entry at slow
    time LOW_ROWS h T, a high row, advanced by l snapshots. The table holds
    the high rows h, then the rows z^l, in the counts of _table_rows. The
    high rows and z take one exp; then z^(b+1..2b) = z^(1..b) z^b, for each
    power of two b below the z^l count, is one product. So each row is one
    fixed chain of products, and a side costs 2 + M / LOW_ROWS exp calls per
    element path. Returns the (rows, Q or 1, N) table; out, if given, is a
    flat complex buffer that takes it.
    """
    high, low = _table_rows(scene)
    # every path of the side in one (Q or 1, N) row
    g, r, u = (x.reshape(-1, x.shape[-1]) for x in (g, r, u))
    shape = (high + low,) + r.shape
    table = (np.empty(shape, dtype=complex) if out is None
             else out[:math.prod(shape)].reshape(shape))
    # the high rows' paths u t - r at their slow times t, then z's u T
    times = [LOW_ROWS * h * scene.t_sym_s for h in range(high)] + [scene.t_sym_s]
    path = np.multiply(u, np.array(times)[:, None, None])
    np.subtract(path[:-1], r, out=path[:-1])
    e = table[:high + 1]
    np.exp(np.multiply(2j * np.pi * scene.carrier_hz / scene.lightspeed, path, out=e), out=e)
    np.multiply(g, table[:high], out=table[:high])
    z = table[high:]  # z^l in row l - 1
    for b in (1 << i for i in range((low - 1).bit_length())):
        # z^b as a (1, Q or 1, N) block: numpy multiplies size-one operands
        # broadcast from fewer axes in a loop that rounds unlike its vector one
        np.multiply(z[:min(b, low - b)], z[b - 1, None], out=z[b:2 * b])
    return table


def _entries(scene, g, r, u, m_values, out=None, table=None):
    """Steering entries a = g exp(j k (u m T - r)) at slow-time indices m_values, 1..M by default.

    Entry m = LOW_ROWS h + l is the product of high row h and row z^l of
    _phasors' table, which table holds if given. Each run of consecutive m
    in one high row is one product, into out if given, seen snapshot-major.
    """
    ms = range(1, scene.snapshots + 1) if m_values is None else np.asarray(m_values).tolist()
    if table is None:
        table = _phasors(scene, g, r, u)
    high = _table_rows(scene)[0]
    if out is None:
        out = np.empty(r.shape[:-2] + (len(ms), r.shape[-1]), dtype=complex)
    a = out.reshape((-1,) + out.shape[-2:]).swapaxes(0, 1)  # (M, Q or 1, N)
    start = 0
    for i, m in enumerate(ms):
        # a run ends before a gap or at the last snapshot of a high row
        if i + 1 == len(ms) or ms[i + 1] != m + 1 or m % LOW_ROWS == 0:
            h, l = divmod(ms[start] - 1, LOW_ROWS)
            np.multiply(table[h, None], table[high + l:high + l + i + 1 - start],
                        out=a[start:i + 1])
            start = i + 1
    return out


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
    # element n, while du/dvx = dx / r and du/dvy = dy / r; turn is +-jk, as
    # jk (-dx) would give some zeros the other sign
    along, across = np.array([dx, dy]), np.array([dy, dx])
    turn = np.array([jk, -jk]).reshape((2,) + (1,) * r.ndim)
    v_tan, r2 = (target.vx * dy - target.vy * dx) / r, r ** 2
    # alpha's and beta's rows in one array, each written by the operations of
    # -jk along / r - along / r2, 0, turn across v_tan / r2 and jk along / r
    alpha, beta = np.empty((2, 4) + r.shape, dtype=complex)
    np.divide(np.multiply(-jk, along, out=alpha[:2]), r, out=alpha[:2])
    np.subtract(alpha[:2], along / r2, out=alpha[:2])
    alpha[2:] = 0.0
    np.multiply(np.multiply(turn, across, out=beta[:2]), v_tan, out=beta[:2])
    np.divide(beta[:2], r2, out=beta[:2])
    np.divide(np.multiply(jk, along, out=beta[2:]), r, out=beta[2:])
    return g, r, u, alpha, beta


def side_factors(scene, side, q):
    """element_factors of target q on one side, with a target axis if q is a list or tuple."""
    if isinstance(q, (list, tuple)):
        return block_factors(scene, [scene.side(side)], scene.states[list(q)])[0]
    return element_factors(scene, scene.side(side), scene.targets[q])


def block_factors(scene, arrays, states):
    """element_factors of every row of a (T, 6) state array against the elements of every array.

    One evaluation: the states on the target axis, the arrays' elements one
    after another on the element axis, largest array first; an array whose
    positions are the middle of a larger one's, as a smaller ULA of the same
    spacing, centroid and count parity is, reads that array's elements.
    Returns the factors and the index of each array's first element: entry
    [..., t, :, start + i] is state t against element i of the array, bit
    for bit as in side_factors of one target and that array, as each is a
    function of its own state and element alone. scene gives the carrier
    and propagation speed.
    """
    starts, held, count = [None] * len(arrays), [], 0
    for i in sorted(range(len(arrays)), key=lambda i: -arrays[i].count):
        geom = arrays[i]
        for base, start in held:
            k = (base.count - geom.count) // 2
            if base.positions[k:k + geom.count].tobytes() == geom.positions.tobytes():
                starts[i] = start + k
                break
        else:
            starts[i], count = count, count + geom.count
            held.append((geom, starts[i]))
    elements = held[0][0] if len(held) == 1 else _Elements(
        np.concatenate([geom.positions for geom, _ in held]))
    columns = _Columns(*states[:, :4].T[:, :, None, None])
    return element_factors(scene, elements, columns), starts


def steering_stack(scene, side, q, m_values=None):
    """Steering vector and all four derivatives of target q on one side.

    side is 'tx' or 'rx'; m_values are slow-time indices, 1..M by default.
    Returns one complex (5, len(m_values), N) array of the fields in KEYS
    order. q may also be a list or tuple of target indices, never a slice:
    the array then has a target axis, (5, len(q), len(m_values), N), and
    [:, j] equals steering_stack(scene, side, q[j], m_values) bit for bit.
    """
    return _stack(scene, *side_factors(scene, side, q), m_values)


def _stack(scene, g, r, u, alpha, beta, m_values, out=None, table=None):
    """One complex (5, [Q,] M, N) array of the entries a and their derivatives (alpha + beta t) a.

    t and alpha enter as complex, so every product runs numpy's plain complex
    loop, not a buffered cast per product; the values and bits are the same.
    Three whole-array operations, beta t, + alpha and x a, form the four
    derivative fields through a four-field scratch, so each product writes
    apart from its inputs, as into a new array, and keeps that array's loop
    and bits. out, if given, is a flat complex buffer that takes the fields
    and then the scratch; table, if given, is the side's _phasors table.
    """
    if m_values is None:
        m_values = np.arange(1, scene.snapshots + 1)
    shape = r.shape[:-2] + (len(m_values), r.shape[-1])  # ([Q,] M, N) from r's ([Q, 1,] N)
    size, count = len(m_values) * r.size, 1 + len(alpha)
    if out is None:
        out = np.empty((2 * count - 1) * size, dtype=complex)
    fields = out[:count * size].reshape((count,) + shape)
    scratch = out[count * size:(2 * count - 1) * size].reshape(fields[1:].shape)
    a = _entries(scene, g, r, u, m_values, out=fields[0], table=table)
    t = (np.asarray(m_values, dtype=float)[:, None] * scene.t_sym_s).astype(complex)
    alpha, beta = (x.reshape((count - 1,) + shape[:-2] + (1, -1)) for x in (alpha, beta))
    np.add(alpha, np.multiply(beta, t, out=scratch), out=scratch)
    np.multiply(scratch, a, out=fields[1:])
    return fields


def steering_values(scene, side, m_values=None, states=None):
    """Steering vectors alone of the rows of a (K, 6) state array on one side, in one broadcast.

    states holds target states in BLOCKS order, scene.states unless given.
    Returns a (K, len(m_values), N) complex array whose row k equals
    steering_stack(scene, side, k, m_values)[0] bit for bit, for a scene whose
    target k holds state k; no derivative is formed. The caller validates
    states it passes (scene.check_states); rcs_re and rcs_im are not read.
    """
    states = scene.states if states is None else states
    _, _, r, u, g = _paths(scene, scene.side(side), *states[:, :4].T[:, :, None, None])
    return _entries(scene, g, r, u, m_values)


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
