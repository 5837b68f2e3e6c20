"""Fisher information assembly for the 6Q real parameters of a scene.

For a complex Gaussian observation whose covariance is parameter-free, sent
with isotropic symbols (per-snapshot covariance power_w * I), the
information reduces to Gram products of mean derivatives. Every derivative of
the per-snapshot channel is a sum of rank-1 terms c * a_r a_t^T, so each FIM
entry collapses to products of length-N inner products:

    tr((u v^T)^H (w z^T)) = (u^H w) (v^H z)

and no N_r x N_t matrix is ever materialized during assembly.

fim assembles F', the information of a centred parametrisation in which each
target's reflectivity absorbs its weighted-mean derivative factor
(crb.own_information); FisherInfo.matrix is T^T F' T. Own 6x6 blocks come from
O(N) element moments, as crb.own_information returns them, 2 P / sigma^2
included; fim applies that scale only to its cross-target blocks, so target
q's own block F'[q::Q, q::Q] is the one every bound of target q reads.
Cross-target blocks come from one complex Gram per snapshot and side over every
target's derivative fields, formed by steering._stack from side_factors shifted
to centre each target and from the side's one phasor table (steering._phasors),
rows field-major in a canonical target order, the rows of Scene.states sorted
with x first; each pair block is computed once in that order and mirrored, so
permuting the targets permutes the matrix. The Grams are formed in blocks of
steering.LOW_ROWS snapshots, in chunks of one row count per scene
(_chunk_rows), and a block's pair blocks are kept only until the block is
whole: then its snapshots are contracted into the 81 products that the Fisher
blocks read (_PRODUCTS), so memory does not grow with M, and the bits do not
depend on the chunk size. _block_products holds the sums, tables and chunk
buffers in one workspace of its own, allocated after the own blocks. A
monostatic scene forms one side's factors (Scene.per_side) and Grams and reads
them for both sides; a one-target scene forms no Gram.

A scene of more than one block, in a process that may run on more than one
CPU, forms its blocks in two lanes, the calling thread and one worker thread;
one block, or one CPU, takes one lane, the calling thread (_block_products).
The bits do not depend on it.
"""

import dataclasses
import os
import threading

import numpy as np

from . import steering
from .crb import congruence, own_information
from .scene import BLOCKS
from .steering import KEYS, LOW_ROWS, side_factors

# bytes of one side's complex steering fields formed at a time; a snapshot
# row larger than this is one chunk of its own
CHUNK_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class FisherInfo:
    """Real symmetric 6Q x 6Q centred information F', with fim's C_q.

    shift holds the (Q, 2, 4) C_q in scene order, None for T = I. The bounds
    read these alone: target q's own block is centred[q::Q, q::Q].
    """

    centred: np.ndarray
    shift: np.ndarray | None = None

    @property
    def matrix(self):
        """The raw matrix T^T centred T, formed on every read."""
        return self.centred if self.shift is None else congruence(self.centred, self.shift)

    @property
    def q_count(self):
        return self.centred.shape[0] // 6


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


# the (rx key, tx key) indices of every derivative_terms product, (kind, term,
# side); a one-term kind repeats its term, whose second coefficient is 0
_TERM_KEYS = np.array([[[KEYS.index(key) for key in term[1:]] for term in (terms * 2)[:2]]
                       for terms in (derivative_terms(kind, 1.0) for kind in BLOCKS)])
# its nine distinct key pairs, and the index of each (kind, term) among them
_PAIRS, _PAIR_OF = np.unique(_TERM_KEYS.reshape(-1, 2), axis=0, return_inverse=True)
_PAIR_OF = _PAIR_OF.reshape(_TERM_KEYS.shape[:2])
# the flat (rx key pair, tx key pair) index of the products the Fisher blocks
# read: product len(_PAIRS) i + j is sum_m G_rx[r_i, r_j] G_tx[t_i, t_j] of
# key pairs i = (r_i, t_i) and j = (r_j, t_j)
_PRODUCTS = np.ravel_multi_index(tuple((len(KEYS) * key[:, None] + key).ravel()
                                       for key in _PAIRS.T), (len(KEYS) ** 2,) * 2)


def _chunk_rows(scene, q_count):
    """Snapshot rows per chunk of both sides: the largest power of two up to
    LOW_ROWS whose fields of the larger side fit CHUNK_BYTES (one row at
    least), and M if fewer."""
    row = 16 * len(KEYS) * q_count * max(scene.tx.count, scene.rx.count)
    fit = max(1, CHUNK_BYTES // row)
    return min(scene.snapshots, LOW_ROWS, 1 << (fit.bit_length() - 1))


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_products(scene, sides, p1, p2):
    """The summed (pairs, 81) _PRODUCTS of the cross-target Grams' pair blocks p1 < p2.

    sides holds the factors of Rx, then of Tx unless the scene is monostatic,
    whose one side's Grams stand for both: the side's (g, r, u, alpha, beta)
    for every target in canonical order. The function forms its own one
    workspace: the two sums, each side's phasor table, which the calling
    thread forms before any chunk, and the lanes' buffers. Snapshot Grams are
    independent, so a block of LOW_ROWS snapshots is formed rows (_chunk_rows)
    snapshots at a time, by _stack from factors and the table; the (M, 5Q, 5Q)
    Gram is never held whole, and a chunk's entries take no exp. In a lane's
    (slot, conj, gram, pairs) buffers a chunk's fields are formed in slot,
    conjugated once into conj and multiplied into gram, and their pair blocks
    are gathered into the block's (2, pairs, LOW_ROWS, 25) Rx and Tx rows in
    pairs. Once the block is whole, one batched product over its snapshots,
    into slot, contracts them into the _PRODUCTS, added to sum b % 2 of block
    b. Lane i of L forms blocks i, i + L, i + 2 L, ..., each whole: lane 0 on
    the calling thread, every other lane on a worker thread of its own. Every
    block runs the same operations either way and each sum takes its blocks in
    order, so the bits do not depend on the lanes, nor on the chunk rows. An
    error on any lane stops the others before their next chunk and re-raises
    here, once the workers are joined.
    """
    q_count, k = len(sides[0][1]), len(KEYS)  # r of the Rx factors is (Q, 1, N)
    rows = _chunk_rows(scene, q_count)
    field = rows * q_count * max(scene.tx.count, scene.rx.count)
    # a second lane, for a worker thread to form every other block on
    lane_count = 2 if scene.snapshots > LOW_ROWS and _cpu_count() > 1 else 1
    # each lane's chunk buffers (fields, conjugate fields, Gram), which hold a
    # block's product too, then its block of Rx and Tx pair rows
    chunk = max(2 * k * field + rows * (k * q_count) ** 2, len(p1) * k ** 4)
    lane = chunk + 2 * len(p1) * min(LOW_ROWS, scene.snapshots) * k * k
    # each side's phasor table (steering._phasors), Q N of its factors
    tables = [sum(steering._table_rows(scene)) * factors[1].size for factors in sides]
    # the two sums of block products, the tables and the lanes' buffers in
    # one allocation: as the largest block it lifts glibc's heap trim
    # threshold, so the heap is not faulted in again on every call, and the
    # worker makes no chunk array in an arena of its own
    size = 2 * len(p1) * len(_PRODUCTS)
    work = np.empty(size + sum(tables) + lane_count * lane, dtype=complex)
    sums = work[:size].reshape(2, len(p1), -1)
    sums[...] = 0.0
    tables = np.split(work[size:size + sum(tables)], np.cumsum(tables)[:-1])
    # _stack's four scratch fields lie over the conjugate fields, which are
    # written only once the fields are formed
    lanes = [(buf[:chunk], buf[k * field:2 * k * field], buf[2 * k * field:chunk],
              buf[chunk:].reshape(2, len(p1), -1, k * k))
             for buf in work[len(work) - lane_count * lane:].reshape(lane_count, -1)]
    blocks = range(0, scene.snapshots, LOW_ROWS)
    failed = []  # an error of any lane; the others stop before their next chunk
    sides = [(factors, steering._phasors(scene, *factors[:3], out=table))
             for factors, table in zip(sides, tables)]

    def run(lane, slot, conj, gram, pairs):
        # a monostatic scene's one Gram fills both sides' rows: numpy
        # multiplies a buffer by its own transpose through BLAS syrk, which
        # rounds unlike gemm
        rows_of = [pairs] if len(sides) == 1 else list(pairs)
        for start in blocks[lane::len(lanes)]:
            stop = min(start + LOW_ROWS, scene.snapshots)
            for (factors, table), side_rows in zip(sides, rows_of):
                for first in range(start, stop, rows):
                    if failed:
                        return
                    m = range(first + 1, min(first + rows, stop) + 1)
                    fields = steering._stack(scene, *factors, m, slot, table)
                    c, n = fields.shape[2:]
                    fields_h = np.conjugate(fields, out=conj[:fields.size].reshape(fields.shape))
                    # one complex product per snapshot over field-major (k, Q) rows, on views
                    g = np.matmul(fields_h.transpose(2, 0, 1, 3).reshape(c, k * q_count, n),
                                  fields.transpose(2, 3, 0, 1).reshape(c, n, k * q_count),
                                  out=gram[:c * (k * q_count) ** 2].reshape(c, k * q_count, -1))
                    side_rows[..., first - start:first - start + c, :] = g.reshape(
                        c, k, q_count, k, q_count)[:, :, p1, :, p2].reshape(len(p1), c, k * k)
            rx, tx = pairs[:, :, :stop - start]
            w = np.matmul(rx.transpose(0, 2, 1), tx,
                          out=slot[:len(p1) * k ** 4].reshape(len(p1), k * k, k * k))
            sums[start // LOW_ROWS % 2] += w.reshape(len(p1), -1)[:, _PRODUCTS]

    err = np.geterr()

    def work(lane):  # under the caller's errstate, which numpy 1 keeps per thread
        try:
            with np.errstate(**err):
                run(lane, *lanes[lane])
        except BaseException as error:  # re-raised on the calling thread
            failed.append(error)

    threads = [threading.Thread(target=work, args=(lane,)) for lane in range(1, len(lanes))]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return sums[0] + sums[1]


def fim(scene):
    """Fisher information of all 6Q real parameters.

    The per-snapshot symbol covariance is taken as power_w * I (isotropic
    transmission), which resolves the expectation over the symbols
    analytically through the trace identity.

    Returns
    -------
    FisherInfo
        Rows ordered [x_1..x_Q, y.., vx.., vy.., rcs_re.., rcs_im..]: the
        centred F' and the C_q of each target.
    """
    q_count, b = scene.q_count, len(BLOCKS)
    # canonical order: the rows as sorted() orders their lists, x first (lexsort is stable)
    order = np.lexsort(scene.states.T[::-1])
    rcs = scene.states[order, 4:].view(complex)[:, 0]
    tx, rx = scene.per_side(lambda side: side_factors(scene, side, order.tolist()))
    # every target's own block, C_q and per-side shifts, in canonical order
    own, c, shifts = own_information(scene, tx, rx, rcs)
    f = np.zeros((b, q_count, b, q_count))
    f[:, order, :, order] = own
    if q_count > 1:
        # each side's factors, shifted to centre every target
        tx, rx = ((g, r, u, alpha - da.T[..., None, None], beta - db.T[..., None, None])
                  for (g, r, u, alpha, beta), (da, db) in zip((tx, rx), shifts))
        p1, p2 = np.triu_indices(q_count, 1)
        w = _block_products(scene, [rx] if scene.monostatic else [rx, tx], p1, p2)
        # the coefficients of derivative_terms per target in canonical order,
        # (Q, kind, term), in the slots of _PAIR_OF
        coef = np.zeros((q_count, b, 2), dtype=complex)
        for kind_index, kind in enumerate(BLOCKS):
            for t, (coefficient, _, _) in enumerate(derivative_terms(kind, rcs)):
                coef[:, kind_index, t] = coefficient
        # pair blocks p1 < p2: w[pair, i, j] = sum_m rx[r_i, r_j] tx[t_i, t_j]
        w = w.reshape(len(p1), len(_PAIRS), -1)
        blocks = np.einsum("pit,pitju,pju->pij", coef[p1].conj(),
                           w[:, _PAIR_OF[:, :, None, None], _PAIR_OF], coef[p2]).real
        blocks *= 2.0 * scene.power_w / scene.noise_var_w
        f[:, order[p1], :, order[p2]] = blocks
        f[:, order[p2], :, order[p1]] = blocks.transpose(0, 2, 1)
    # the C_q in the scene's target order
    return FisherInfo(centred=f.reshape(b * q_count, -1), shift=c[np.argsort(order)])
