"""Fisher information assembly for the 6Q real parameters of a scene.

For a complex Gaussian observation whose covariance is parameter-free, sent
with isotropic symbols (per-snapshot covariance power_w * I), the
information reduces to Gram products of mean derivatives. Every derivative of
the per-snapshot channel is a sum of rank-1 terms c * a_r a_t^T, so each FIM
entry collapses to products of length-N inner products:

    tr((u v^T)^H (w z^T)) = (u^H w) (v^H z)

and no N_r x N_t matrix is ever materialized during assembly. Own-target 6x6
blocks keep the per-snapshot einsum inner products and the term order of a
single-target FIM, bit for bit, summed for all targets at once. Cross-target
blocks come from one complex Gram per snapshot and side over every target's
field array in steering.KEYS order, rows field-major in a canonical target
order (sorted by fields); each pair block is computed once in that order and
mirrored, so permuting the targets permutes the matrix. Per-snapshot Grams are
independent, so each side's are formed CHUNK_BYTES of fields at a time and
only their pair blocks are kept: memory grows with Q^2 M, not with M Q N, and
the bits do not depend on the chunk size. The contraction over snapshots stays
one complex product over all of them. A monostatic scene (Scene.monostatic)
builds one side's fields and Grams and reads them for both sides.
"""

import dataclasses

import numpy as np

from .scene import BLOCKS
from .steering import KEYS, steering_chunks

# bytes of one side's complex steering fields formed at a time; a snapshot
# row larger than this is one chunk of its own
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
    the keys naming steering.KEYS fields and kind one of BLOCKS. The
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


def _term_tables():
    """Static tables of the derivative_terms products.

    Returns the rx and tx key indices of every term, (side, kind, term), with
    one-term kinds padded by term 0; the distinct own-Gram products (rx key
    pair, tx key pair) that an own block reads; and, for each upper entry
    (i, j) of a 6x6 block, its term pairs (i, ti, j, tj, product) in the order
    of a single-target FIM, padded to four slots by product 0. Its Gram sum is
    0, and adding a zero term leaves a sum that starts at +0.0 bit for bit.
    """
    terms = [derivative_terms(kind, 1.0) for kind in BLOCKS]
    keys = np.zeros((2, len(BLOCKS), 2), dtype=int)
    for kind, kind_terms in enumerate(terms):
        for t, (_, rk, tk) in enumerate(kind_terms):
            keys[:, kind, t] = KEYS.index(rk), KEYS.index(tk)
    products, slots = [None], []
    for i, j in zip(*np.triu_indices(len(BLOCKS))):
        entry = []
        for ti in range(len(terms[i])):
            for tj in range(len(terms[j])):
                product = (keys[0, i, ti], keys[0, j, tj], keys[1, i, ti], keys[1, j, tj])
                if product not in products:
                    products.append(product)
                entry.append((i, ti, j, tj, products.index(product)))
        slots.append(entry + [(0, 0, 0, 0, 0)] * (4 - len(entry)))
    return keys, products[1:], np.array(slots).transpose(2, 1, 0)


_TERM_KEYS, _OWN_PRODUCTS, _OWN_SLOTS = _term_tables()


def _own_blocks(coef, g_rx, g_tx):
    """(Q, 6, 6) own-target blocks from the (Q, 5, 5, M) Grams, for all targets at once.

    Each entry adds its terms in the order of a single-target FIM. conj(ci) cj
    and its product with the Gram sum are written out in real arithmetic, the
    way numpy's scalar complex product rounds them; its array loop fuses
    multiply-adds and would not.
    """
    sums = np.zeros((len(coef), 1 + len(_OWN_PRODUCTS)), dtype=complex)
    for u, (r1, r2, t1, t2) in enumerate(_OWN_PRODUCTS, 1):
        sums[:, u] = (g_rx[:, r1, r2] * g_tx[:, t1, t2]).sum(axis=-1)
    i, ti, j, tj, u = _OWN_SLOTS  # (4 slots, 21 entries) each
    ci, cj, gram = coef[:, i, ti].conj(), coef[:, j, tj], sums[:, u]
    c_re = ci.real * cj.real - ci.imag * cj.imag
    c_im = ci.real * cj.imag + ci.imag * cj.real
    terms = c_re * gram.real - c_im * gram.imag
    acc = np.zeros((len(coef), i.shape[1]))
    for slot in range(len(i)):  # one term pair at a time, as the scalar sum adds them
        acc += terms[:, slot]
    block = np.empty((len(coef), len(BLOCKS), len(BLOCKS)))
    block[:, i[0], j[0]] = block[:, j[0], i[0]] = acc
    return block


def _chunk_rows(scene, side, q_count):
    """Snapshot rows per chunk of one side and the complex length of their fields."""
    row = len(KEYS) * q_count * (scene.tx if side == "tx" else scene.rx).count
    rows = min(scene.snapshots, max(1, CHUNK_BYTES // (16 * row)))
    return rows, rows * row


def _side_grams(scene, side, order, p1, p2, pairs, conj):
    """Own-target Grams of one side, and its pair blocks p1 < p2 of the cross-target Gram.

    Returns the (Q, 5, 5, M) complex Grams of each target in canonical order.
    Each chunk's fields are conjugated once into the complex workspace conj,
    and the pair blocks go into pairs, (pairs, M, 25). Snapshot Grams
    are independent, so they are formed one chunk of snapshots at a time and
    the (M, 5Q, 5Q) Gram is never held whole.
    """
    q_count, k = len(order), len(KEYS)
    own = np.empty((q_count, k, k, scene.snapshots), dtype=complex)
    rows, _ = _chunk_rows(scene, side, q_count)
    for s, fields in steering_chunks(scene, side, order.tolist(), rows):
        c, n = fields.shape[2:]
        fields_h = np.conjugate(fields, out=conj[:fields.size].reshape(fields.shape))
        # upper triangle, mirrored: conj(u^H v) is v^H u bit for bit
        for i in range(k):
            for j in range(i, k):
                own[:, i, j, s] = np.einsum("qmn,qmn->qm", fields_h[i], fields[j])
                own[:, j, i, s] = own[:, i, j, s].conj()
        if len(p1):
            # one complex product per snapshot over field-major (k, Q) rows, on views
            gram = (fields_h.transpose(2, 0, 1, 3).reshape(c, k * q_count, n)
                    @ fields.transpose(2, 3, 0, 1).reshape(c, n, k * q_count))
            pairs[:, s] = gram.reshape(c, k, q_count, k, q_count)[:, :, p1, :, p2].reshape(
                len(p1), c, k * k)
            del gram
        del fields  # alive into the next chunk's fields, it raises peak memory
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
    # the coefficients of derivative_terms per target in canonical order,
    # (Q, kind, term), in the slots of _TERM_KEYS
    rcs = np.array([scene.targets[q].rcs for q in order])
    coef = np.zeros((q_count, b, 2), dtype=complex)
    for kind_index, kind in enumerate(BLOCKS):
        for t, (c, _, _) in enumerate(derivative_terms(kind, rcs)):
            coef[:, kind_index, t] = c
    p1, p2 = np.triu_indices(q_count, 1)
    # both sides' pair blocks and one chunk's conjugate fields in one
    # allocation: as the largest block of the call it lifts glibc's heap trim
    # threshold above the call's other memory, so the heap is not handed back
    # and faulted in again on every call
    size = 2 * len(p1) * scene.snapshots * k * k
    work = np.empty(size + max(_chunk_rows(scene, side, q_count)[1] for side in ("tx", "rx")),
                    dtype=complex)
    pairs_rx, pairs_tx = work[:size].reshape(2, len(p1), scene.snapshots, k * k)
    conj = work[size:]
    own_rx = _side_grams(scene, "rx", order, p1, p2, pairs_rx, conj)
    if scene.monostatic:
        own_tx = own_rx
        # Tx gets its own copy: numpy multiplies a buffer by its own
        # transpose through BLAS syrk, which rounds unlike gemm
        pairs_tx[...] = pairs_rx
    else:
        own_tx = _side_grams(scene, "tx", order, p1, p2, pairs_tx, conj)

    f = np.zeros((b, q_count, b, q_count))
    f[:, order, :, order] = _own_blocks(coef, own_rx, own_tx)
    if q_count > 1:
        # pair blocks p1 < p2: w[pair, (r1, r2), (t1, t2)] = sum_m rx[r1, r2] tx[t1, t2]
        w = pairs_rx.transpose(0, 2, 1) @ pairs_tx
        rx_idx, tx_idx = (k * key[:, :, None, None] + key for key in _TERM_KEYS)
        blocks = np.einsum("pit,pitju,pju->pij", coef[p1].conj(), w[:, rx_idx, tx_idx],
                           coef[p2]).real
        f[:, order[p1], :, order[p2]] = blocks
        f[:, order[p2], :, order[p1]] = blocks.transpose(0, 2, 1)

    f = f.reshape(b * q_count, b * q_count)
    f *= 2.0 * scene.power_w / scene.noise_var_w
    return FisherInfo(matrix=f)
