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
Per-snapshot Grams are independent, so each side's are formed CHUNK_BYTES of
halves at a time and only their pair blocks are kept: memory grows with
Q^2 M, not with M Q N, and the bits do not depend on the chunk size. The
contraction over snapshots stays one product over all of them. A monostatic
scene (Scene.monostatic) builds one side's stacks and Grams and reads them
for both sides.
"""

import dataclasses

import numpy as np

from .scene import BLOCKS
from .steering import SteeringStack, steering_chunks

# stacked steering fields: index 0 is a, 1..4 the derivatives
KEYS = tuple(f.name for f in dataclasses.fields(SteeringStack))
# bytes of real/imaginary halves of one side's steering fields formed at a
# time; a snapshot row larger than this is one chunk of its own
CHUNK_BYTES = 1 << 20


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


def _chunk_rows(scene, side, q_count):
    """Snapshot rows per chunk of one side and the float64 length of their halves."""
    row = 2 * len(KEYS) * q_count * (scene.tx if side == "tx" else scene.rx).count
    rows = min(scene.snapshots, max(1, CHUNK_BYTES // (8 * row)))
    return rows, rows * row


def _side_grams(scene, side, order, p1, p2, pairs, scratch):
    """Own-target Grams of one side, and its pair blocks p1 < p2 of the cross-target Gram.

    Returns the (Q, 5, 5, M) complex Grams of each target in canonical order.
    For Q > 1 the real and imaginary parts of the pair blocks go into pairs,
    (2, pairs, M, 25), and the real/imaginary halves of each chunk into the
    float64 scratch. Snapshot Grams are independent, so they are formed one
    chunk of snapshots at a time and the (M, 5Q, 5Q) Gram is never held whole.
    """
    q_count, k = len(order), len(KEYS)
    n = (scene.tx if side == "tx" else scene.rx).count
    own = np.empty((q_count, k, k, scene.snapshots), dtype=complex)
    rows, _ = _chunk_rows(scene, side, q_count)
    for s, stack in steering_chunks(scene, side, order.tolist(), rows):
        fields = [getattr(stack, key) for key in KEYS]  # (Q, rows, N) each
        # upper triangle, mirrored: conj(u^H v) is v^H u bit for bit
        for i, u in enumerate(fields):
            u_h = u.conj()
            for j in range(i, k):
                own[:, i, j, s] = np.einsum("qmn,qmn->qm", u_h, fields[j])
                own[:, j, i, s] = own[:, i, j, s].conj()
        if pairs is not None:
            c = s.stop - s.start
            halves = scratch[:c * k * q_count * 2 * n].reshape(c, k * q_count, 2 * n)
            by_field = halves.reshape(c, q_count, k, 2 * n)
            for i, u in enumerate(fields):
                by_field[:, :, i, :n], by_field[:, :, i, n:] = (
                    u.real.transpose(1, 0, 2), u.imag.transpose(1, 0, 2))
            # u^H v = (re.re + im.im) + j (re.im - im.re) for every row pair
            gram, mixed = (g.reshape(c, q_count, k, q_count, k) for g in (
                halves @ halves.transpose(0, 2, 1),
                halves[..., :n] @ halves[..., n:].transpose(0, 2, 1)))
            pairs[0, :, s] = gram[:, p1, :, p2, :].reshape(len(p1), c, k * k)
            pairs[1, :, s] = (mixed[:, p1, :, p2, :]
                              - mixed[:, p2, :, p1, :].transpose(0, 1, 3, 2)
                              ).reshape(len(p1), c, k * k)
        del stack, fields, u, u_h  # alive into the next chunk's stack, they raise peak memory
    return own


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
    q_count, k, b = scene.q_count, len(KEYS), len(BLOCKS)
    order = np.array(sorted(range(q_count), key=lambda q: dataclasses.astuple(scene.targets[q])))
    # per target in canonical order, per kind: (c, rx key index, tx key index)
    terms = [[[(c, KEYS.index(rk), KEYS.index(tk))
               for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs)]
              for kind in BLOCKS] for q in order]
    p1, p2 = np.triu_indices(q_count, 1)
    pairs_rx = pairs_tx = scratch = None
    if q_count > 1:
        # both sides' pair blocks and one chunk's halves in one allocation: as
        # the largest block of the call it lifts glibc's heap trim threshold
        # above the call's other memory, so the heap is not handed back and
        # faulted in again on every call
        size = 4 * len(p1) * scene.snapshots * k * k
        work = np.empty(size + max(_chunk_rows(scene, side, q_count)[1] for side in ("tx", "rx")))
        pairs_rx, pairs_tx = work[:size].reshape(2, 2, len(p1), scene.snapshots, k * k)
        scratch = work[size:]
    own_rx = _side_grams(scene, "rx", order, p1, p2, pairs_rx, scratch)
    if scene.monostatic:
        own_tx = own_rx
        if pairs_tx is not None:
            # Tx gets its own copy: numpy multiplies a buffer by its own
            # transpose through BLAS syrk, which rounds unlike gemm
            pairs_tx[...] = pairs_rx
    else:
        own_tx = _side_grams(scene, "tx", order, p1, p2, pairs_tx, scratch)

    f = np.zeros((b, q_count, b, q_count))
    for p, q in enumerate(order):
        f[:, q, :, q] = _own_block(terms[p], own_rx[p], own_tx[p])
    if q_count > 1:
        # pair blocks p1 < p2: w[pair, (r1, r2), (t1, t2)] = sum_m rx[r1, r2] tx[t1, t2]
        (rx_re, rx_im), (tx_re, tx_im) = pairs_rx.transpose(0, 1, 3, 2), pairs_tx
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
