"""Fisher information assembly for the 6Q real parameters of a scene.

For a complex Gaussian observation whose covariance is parameter-free, sent
with isotropic symbols (per-snapshot covariance power_w * I), the
information reduces to Gram products of mean derivatives. Every derivative of
the per-snapshot channel is a sum of rank-1 terms c * a_r a_t^T, so each FIM
entry collapses to products of length-N inner products:

    tr((u v^T)^H (w z^T)) = (u^H w) (v^H z)

and no N_r x N_t matrix is ever materialized during assembly.

fim assembles F', the information of a centred parametrisation in which
each target's reflectivity absorbs its weighted-mean derivative factor
(crb.own_information), and the raw matrix T^T F' T. Own 6x6 blocks come from
O(N) element moments. Cross-target blocks come from one complex Gram per
snapshot and side over every target's derivative fields, formed by
steering._stack from side_factors shifted to centre each target, rows
field-major in a canonical target order (sorted by fields); each pair block
is computed once in that order and mirrored, so permuting the targets
permutes the matrix. Each side's Grams are formed CHUNK_BYTES of fields at a
time and only their pair blocks are kept: memory grows with Q^2 M, not with
M Q N, and the bits do not depend on the chunk size. A monostatic scene
(Scene.monostatic) forms one side's Grams and reads them for both sides; a
one-target scene forms none.

A side of more than one chunk, in a process that may run on more than one
CPU, forms its chunks in two lanes, the calling thread and one worker thread
(_side_grams); the bits do not depend on it.
"""

import dataclasses
import os
import threading

import numpy as np

from . import steering
from .crb import congruence, own_information
from .scene import BLOCKS
from .steering import KEYS, side_factors

# bytes of one side's complex steering fields formed at a time; a snapshot
# row larger than this is one chunk of its own
CHUNK_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class FisherInfo:
    """Real symmetric 6Q x 6Q information matrix, with fim's centred F' and (Q, 2, 4) C_q.

    matrix = T^T centred T; a FisherInfo built from a matrix alone has T = I.
    """

    matrix: np.ndarray
    centred: np.ndarray | None = None
    shift: np.ndarray | None = None

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


# the rx and tx key indices of every derivative_terms product, (side, kind,
# term); a one-term kind repeats its term, whose second coefficient is 0
_TERM_KEYS = np.array([[[KEYS.index(term[1 + side]) for term in (terms * 2)[:2]]
                        for terms in (derivative_terms(kind, 1.0) for kind in BLOCKS)]
                       for side in (0, 1)])


def _chunk_rows(scene, side, q_count):
    """Snapshot rows per chunk of one side and the complex length of one field of them."""
    field_row = q_count * (scene.tx if side == "tx" else scene.rx).count
    rows = min(scene.snapshots, max(1, CHUNK_BYTES // (16 * len(KEYS) * field_row)))
    return rows, rows * field_row


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _side_grams(scene, factors, rows, p1, p2, pairs, lanes):
    """Pair blocks p1 < p2 of one side's cross-target Gram, into pairs, (pairs, M, 25).

    factors are the side's (g, r, u, alpha, beta) for every target in
    canonical order. Snapshot Grams are independent, so they are formed rows
    snapshots at a time, by _stack from factors, and the (M, 5Q, 5Q) Gram is
    never held whole. lanes holds one (slot, conj, gram) triple of flat
    complex buffers per lane: a chunk's fields are formed in slot,
    conjugated once into conj and multiplied into gram. With more than one
    chunk and lane, the calling thread forms chunks 0, 2, 4, ... and a
    worker thread chunks 1, 3, 5, ..., each whole and into its own snapshot
    columns; each chunk runs the same operations either way, so the bits do
    not depend on it. An error on either lane stops the other before its
    next chunk and re-raises here, once the worker is joined.
    """
    q_count, k = len(factors[1]), len(KEYS)
    starts = range(0, scene.snapshots, rows)
    count = min(len(lanes), len(starts))
    failed = []  # an error of either lane; the other stops before its next chunk

    def run(lane, slot, conj, gram):
        for start in starts[lane::count]:
            if failed:
                return
            s = slice(start, min(start + rows, scene.snapshots))
            fields = steering._stack(scene, *factors, np.arange(start + 1, s.stop + 1), slot)
            c, n = fields.shape[2:]
            fields_h = np.conjugate(fields, out=conj[:fields.size].reshape(fields.shape))
            # one complex product per snapshot over field-major (k, Q) rows, on views
            g = np.matmul(fields_h.transpose(2, 0, 1, 3).reshape(c, k * q_count, n),
                          fields.transpose(2, 3, 0, 1).reshape(c, n, k * q_count),
                          out=gram[:c * (k * q_count) ** 2].reshape(c, k * q_count, -1))
            pairs[:, s] = g.reshape(c, k, q_count, k, q_count)[:, :, p1, :, p2].reshape(
                len(p1), c, k * k)

    if count == 1:
        run(0, *lanes[0])
        return
    err = np.geterr()

    def work():  # under the caller's errstate, which numpy 1 keeps per thread
        try:
            with np.errstate(**err):
                run(1, *lanes[1])
        except BaseException as error:  # re-raised on the calling thread
            failed.append(error)

    thread = threading.Thread(target=work)
    thread.start()
    try:
        run(0, *lanes[0])
    except BaseException as error:
        failed.append(error)
        raise
    finally:
        thread.join()
    if failed:
        raise failed[0]


def fim(scene):
    """Fisher information of all 6Q real parameters.

    The per-snapshot symbol covariance is taken as power_w * I (isotropic
    transmission), which resolves the expectation over the symbols
    analytically through the trace identity.

    Returns
    -------
    FisherInfo
        Rows ordered [x_1..x_Q, y.., vx.., vy.., rcs_re.., rcs_im..]: the raw
        matrix, the centred F' and the C_q of each target.
    """
    q_count, k, b = scene.q_count, len(KEYS), len(BLOCKS)
    order = np.array(sorted(range(q_count), key=lambda q: dataclasses.astuple(scene.targets[q])))
    rcs = np.array([scene.targets[q].rcs for q in order])
    p1, p2 = np.triu_indices(q_count, 1)
    if q_count > 1:
        (rows_tx, field_tx), (rows_rx, field_rx) = (_chunk_rows(scene, side, q_count)
                                                    for side in ("tx", "rx"))
        field = max(field_tx, field_rx)
        gram = max(rows_tx, rows_rx) * (k * q_count) ** 2
        # a second lane, for a worker thread to form every other chunk on
        lane_count = 2 if min(rows_tx, rows_rx) < scene.snapshots and _cpu_count() > 1 else 1
        # the pair blocks of both sides and each lane's chunk buffers (fields,
        # conjugate fields, Gram) in one allocation, the call's first: as its
        # largest block it lifts glibc's heap trim threshold, so the heap is
        # not faulted in again on every call, the worker makes no chunk array
        # in an arena of its own, and later small blocks do not split the
        # region the next call reuses. Tx's copy of a monostatic scene's pair
        # blocks is made after the loop, over the chunk buffers
        size, chunk = len(p1) * scene.snapshots * k * k, lane_count * (2 * k * field + gram)
        work = np.empty(size + max(size, chunk) if scene.monostatic else 2 * size + chunk,
                        dtype=complex)
        pairs_rx, pairs_tx = (work[i * size:(i + 1) * size].reshape(len(p1), scene.snapshots, -1)
                              for i in (0, 1))
        # _stack's scratch field lies over the conjugate fields, which are
        # written only once the fields are formed
        lanes = [(buf[:(k + 1) * field], buf[k * field:2 * k * field], buf[2 * k * field:])
                 for buf in work[len(work) - chunk:].reshape(lane_count, -1)]
    rx = side_factors(scene, "rx", order.tolist())
    tx = rx if scene.monostatic else side_factors(scene, "tx", order.tolist())
    # each target's own block, C_q and per-side shifts, in canonical order
    own, c = np.empty((q_count, b, b)), np.empty((q_count, 2, 4))
    shifts = np.empty((2, 2, 4, q_count), dtype=complex)
    for q in range(q_count):
        tx_q = [factor[..., q, 0, :] for factor in tx]
        rx_q = tx_q if rx is tx else [factor[..., q, 0, :] for factor in rx]
        own[q], c[q], shifts[..., q] = own_information(scene, tx_q, rx_q, rcs[q])
    f = np.zeros((b, q_count, b, q_count))
    f[:, order, :, order] = own
    if q_count > 1:
        # each side's factors, shifted to centre every target
        tx, rx = ((g, r, u, alpha - da[..., None, None], beta - db[..., None, None])
                  for (g, r, u, alpha, beta), (da, db) in zip((tx, rx), shifts))
        _side_grams(scene, rx, rows_rx, p1, p2, pairs_rx, lanes)
        if scene.monostatic:
            # Tx gets its own copy: numpy multiplies a buffer by its own
            # transpose through BLAS syrk, which rounds unlike gemm
            pairs_tx[...] = pairs_rx
        else:
            _side_grams(scene, tx, rows_tx, p1, p2, pairs_tx, lanes)
        # the coefficients of derivative_terms per target in canonical order,
        # (Q, kind, term), in the slots of _TERM_KEYS
        coef = np.zeros((q_count, b, 2), dtype=complex)
        for kind_index, kind in enumerate(BLOCKS):
            for t, (coefficient, _, _) in enumerate(derivative_terms(kind, rcs)):
                coef[:, kind_index, t] = coefficient
        # pair blocks p1 < p2: w[pair, (r1, r2), (t1, t2)] = sum_m rx[r1, r2] tx[t1, t2]
        w = pairs_rx.transpose(0, 2, 1) @ pairs_tx
        rx_idx, tx_idx = (k * key[:, :, None, None] + key for key in _TERM_KEYS)
        blocks = np.einsum("pit,pitju,pju->pij", coef[p1].conj(), w[:, rx_idx, tx_idx],
                           coef[p2]).real
        f[:, order[p1], :, order[p2]] = blocks
        f[:, order[p2], :, order[p1]] = blocks.transpose(0, 2, 1)
    f = f.reshape(b * q_count, -1) * (2.0 * scene.power_w / scene.noise_var_w)
    shift = c[np.argsort(order)]  # C_q in the scene's target order
    return FisherInfo(matrix=congruence(f, shift), centred=f, shift=shift)
