"""Fisher information assembly for the 6Q real parameters of a scene.

For a complex Gaussian observation whose covariance is parameter-free, sent
with isotropic symbols (per-snapshot covariance power_w * I), the
information reduces to Gram products of mean derivatives. Every derivative of
the per-snapshot channel is a sum of rank-1 terms c * a_r a_t^T, so each FIM
entry collapses to products of length-N inner products:

    tr((u v^T)^H (w z^T)) = (u^H w) (v^H z)

and no N_r x N_t matrix is ever materialized during assembly. That keeps the
cost at O(M N) per inner product and makes 256-element arrays cheap.
"""

from dataclasses import dataclass

import numpy as np

from .scene import BLOCKS
from .steering import steering_stack


@dataclass(frozen=True)
class FisherInfo:
    """Real symmetric 6Q x 6Q information matrix."""

    matrix: np.ndarray

    @property
    def q_count(self):
        return self.matrix.shape[0] // 6


def _terms(kind, alpha):
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
    stacks = {(side, q): steering_stack(scene, side, q)
              for q in range(scene.q_count) for side in ("tx", "rx")}
    q_count = scene.q_count
    n_par = 6 * q_count
    # one rank-1 term list per parameter, in block order
    params = []
    for kind in BLOCKS:
        for q in range(q_count):
            params.append([(c, q, rk, tk) for c, rk, tk in _terms(kind, scene.targets[q].rcs)])

    gram_cache = {}

    def gram(side, q1, k1, q2, k2):
        # u^H v summed over elements, one value per snapshot, size (M,)
        key = (side, q1, k1, q2, k2)
        if key not in gram_cache:
            swap = (side, q2, k2, q1, k1)
            if swap in gram_cache:
                gram_cache[key] = gram_cache[swap].conj()
            else:
                gram_cache[key] = np.einsum(
                    "mn,mn->m", getattr(stacks[side, q1], k1).conj(),
                    getattr(stacks[side, q2], k2))
        return gram_cache[key]

    f = np.zeros((n_par, n_par))
    for i in range(n_par):
        for j in range(i, n_par):
            acc = 0.0
            for ci, qi, rki, tki in params[i]:
                for cj, qj, rkj, tkj in params[j]:
                    rx_ip = gram("rx", qi, rki, qj, rkj)
                    tx_ip = gram("tx", qi, tki, qj, tkj)
                    acc += (np.conj(ci) * cj * (rx_ip * tx_ip).sum()).real
            f[i, j] = acc
            f[j, i] = acc

    f *= 2.0 * scene.power_w / scene.noise_var_w
    return FisherInfo(matrix=f)
