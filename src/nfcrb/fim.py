"""Fisher information assembly for the 6Q real parameters of a scene.

For a complex Gaussian observation whose covariance is parameter-free, sent
with isotropic symbols (per-snapshot covariance power_w * I), the
information reduces to Gram products of mean derivatives. Every derivative of
the per-snapshot channel is a sum of rank-1 terms c * a_r a_t^T, so each FIM
entry collapses to products of length-N inner products:

    tr((u v^T)^H (w z^T)) = (u^H w) (v^H z)

and no N_r x N_t matrix is ever materialized during assembly. Own-target 6x6
blocks keep the per-snapshot einsum inner products and the term order of a
single-target FIM, bit for bit. Cross-target blocks come from one batched BLAS
Gram per side over every target's steering fields, in real and imaginary halves
and a canonical target order (sorted by fields); each pair block is computed
once in that order and mirrored, so permuting the targets permutes the matrix.
A monostatic scene (Scene.monostatic) builds one side's stacks and Grams and
reads them for both sides.
"""

import dataclasses

import numpy as np

from .scene import BLOCKS
from .steering import SteeringStack, steering_stack

# stacked steering fields: index 0 is a, 1..4 the derivatives
KEYS = tuple(f.name for f in dataclasses.fields(SteeringStack))


@dataclasses.dataclass(frozen=True)
class FisherInfo:
    """Real symmetric 6Q x 6Q information matrix."""

    matrix: np.ndarray

    @property
    def q_count(self):
        return self.matrix.shape[0] // 6


def derivative_terms(kind, alpha):
    """Rank-1 decomposition of one derivative channel matrix.

    Each term (c, rx_key, tx_key) contributes c * rx.rx_key tx.tx_key^T, with
    the keys naming SteeringStack fields and kind one of BLOCKS. The
    reflectivity derivatives are the bare steering outer product (times j
    for the imaginary part); the kinematic derivatives follow the product
    rule over both sides.
    """
    if kind == "rcs_re":
        return ((1.0 + 0.0j, "a", "a"),)
    if kind == "rcs_im":
        return ((1.0j, "a", "a"),)
    key = "d_" + kind
    return ((alpha, key, "a"), (alpha, "a", key))


def _own_block(terms, g_rx, g_tx):
    """6x6 block of one target from its (5, 5, M) Grams, term by term."""
    block = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            acc = 0.0
            for ci, rki, tki in terms[i]:
                for cj, rkj, tkj in terms[j]:
                    acc += (np.conj(ci) * cj * (g_rx[rki, rkj] * g_tx[tki, tkj]).sum()).real
            block[i, j] = block[j, i] = acc
    return block


def _side_grams(scene, side, order):
    """Per-target (5, 5, M) Grams and, for Q > 1, the (M, 5Q, 5Q) Gram as (real, imag)."""
    n, k = (scene.tx if side == "tx" else scene.rx).count, len(KEYS)
    halves = np.empty((scene.snapshots, k * len(order), 2 * n)) if len(order) > 1 else None
    own = []
    for p, q in enumerate(order):
        stack = steering_stack(scene, side, q)
        fields = [getattr(stack, key) for key in KEYS]
        # upper triangle, mirrored: conj(u^H v) is v^H u bit for bit
        g = np.empty((k, k, scene.snapshots), dtype=complex)
        for i, u in enumerate(fields):
            u_h = u.conj()
            for j in range(i, k):
                g[i, j] = np.einsum("mn,mn->m", u_h, fields[j])
                g[j, i] = g[i, j].conj()
        own.append(g)
        if halves is not None:
            for i, u in enumerate(fields):
                halves[:, k * p + i, :n], halves[:, k * p + i, n:] = u.real, u.imag
        del stack, fields, u, u_h  # alive into the next target's stack, they raise peak RSS
    if halves is None:
        return own, None
    # u^H v = (re.re + im.im) + j (re.im - im.re) for every row pair
    mixed = halves[..., :n] @ halves[..., n:].transpose(0, 2, 1)
    return own, (halves @ halves.transpose(0, 2, 1), mixed - mixed.transpose(0, 2, 1))


def fim(scene):
    """Fisher information of all 6Q real parameters.

    The per-snapshot symbol covariance is taken as power_w * I (isotropic
    transmission), which resolves the expectation over the symbols
    analytically through the trace identity.

    Returns
    -------
    FisherInfo
        Rows ordered [x_1..x_Q, y.., vx.., vy.., rcs_re.., rcs_im..].
    """
    q_count, m, k, b = scene.q_count, scene.snapshots, len(KEYS), len(BLOCKS)
    order = np.array(sorted(range(q_count), key=lambda q: dataclasses.astuple(scene.targets[q])))
    # per target in canonical order, per kind: (c, rx key index, tx key index)
    terms = [[[(c, KEYS.index(rk), KEYS.index(tk))
               for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs)]
              for kind in BLOCKS] for q in order]
    own_rx, gram_rx = _side_grams(scene, "rx", order)
    own_tx, gram_tx = (own_rx, gram_rx) if scene.monostatic else _side_grams(scene, "tx", order)

    f = np.zeros((b, q_count, b, q_count))
    for p, q in enumerate(order):
        f[:, q, :, q] = _own_block(terms[p], own_rx[p], own_tx[p])
    if q_count > 1:
        # pair blocks p1 < p2: w[pair, (r1, r2), (t1, t2)] = sum_m rx[r1, r2] tx[t1, t2]
        p1, p2 = np.triu_indices(q_count, 1)
        # gathered per side even from one shared Gram: numpy multiplies a
        # buffer by its own transpose through BLAS syrk, which rounds unlike gemm
        (rx_re, rx_im), (tx_re, tx_im) = (
            [g.reshape(m, q_count, k, q_count, k)[:, p1, :, p2, :].reshape(len(p1), m, k * k)
             for g in parts] for parts in (gram_rx, gram_tx))
        rx_re, rx_im = rx_re.transpose(0, 2, 1), rx_im.transpose(0, 2, 1)
        w = (rx_re @ tx_re - rx_im @ tx_im) + 1j * (rx_re @ tx_im + rx_im @ tx_re)
        # the term table as arrays, one-term kinds padded with a zero term
        coef = np.zeros((q_count, b, 2), dtype=complex)
        keys = np.zeros((2, b, 2), dtype=int)
        for p, kind, t in np.ndindex(q_count, b, 2):
            if t < len(terms[p][kind]):
                coef[p, kind, t], keys[0, kind, t], keys[1, kind, t] = terms[p][kind][t]
        rx_idx, tx_idx = (k * key[:, :, None, None] + key for key in keys)
        blocks = np.einsum("pit,pitju,pju->pij", coef[p1].conj(), w[:, rx_idx, tx_idx],
                           coef[p2]).real
        f[:, order[p1], :, order[p2]] = blocks
        f[:, order[p2], :, order[p1]] = blocks.transpose(0, 2, 1)

    f = f.reshape(b * q_count, b * q_count)
    f *= 2.0 * scene.power_w / scene.noise_var_w
    return FisherInfo(matrix=f)
