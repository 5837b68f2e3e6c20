"""Estimation bounds: inverse-information extraction and single-target closed forms.

Bounds that are analytically infinite (zero information, e.g. the broadside
divergence of the far-field model) are reported as float('inf'), never raised;
divergence is a result, not a failure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .approx import slow_time_sum
from .scene import target_indices
from .steering import element_factors

CONDITION_LIMIT = 1e12


class SingularFimError(np.linalg.LinAlgError):
    """The information matrix (or a nuisance block of it) is not invertible."""


@dataclass(frozen=True)
class TargetBounds:
    """Variance lower bounds for the six parameters of one target."""

    crb_x: float
    crb_y: float
    crb_vx: float
    crb_vy: float
    crb_alpha_r: float
    crb_alpha_i: float

    @property
    def crb_alpha(self):
        """Summed reflectivity bound (real plus imaginary part)."""
        return self.crb_alpha_r + self.crb_alpha_i

    def by_name(self, name):
        return {"x": self.crb_x, "y": self.crb_y, "vx": self.crb_vx,
                "vy": self.crb_vy, "alpha_r": self.crb_alpha_r,
                "alpha_i": self.crb_alpha_i, "rcs": self.crb_alpha}[name]


@dataclass(frozen=True)
class CrbReport:
    targets: tuple
    condition_number: float | None = None
    status: str = "ok"


def _bounds_from_diag(diag, q, q_count):
    # TargetBounds fields follow BLOCKS order, as target_indices does
    return TargetBounds(*(diag[i] for i in target_indices(q, q_count)))


def full_crb(info):
    """Invert the full FIM through a symmetric eigendecomposition.

    Returns (crb_matrix, CrbReport). An eigenvalue at machine-zero raises
    SingularFimError; a condition number above 1e12 is reported as status
    'ill-conditioned' with the entries left in place but unreliable.
    """
    f = info.matrix
    w, v = np.linalg.eigh(f)
    scale = abs(w).max()
    if scale == 0.0 or w.min() <= scale * np.finfo(float).eps:
        raise SingularFimError("information matrix is singular")
    cond = float(w.max() / w.min())
    status = "ok" if cond <= CONDITION_LIMIT else "ill-conditioned"
    crb = (v / w) @ v.T
    diag = np.diag(crb)
    targets = tuple(_bounds_from_diag(diag, q, info.q_count) for q in range(info.q_count))
    return crb, CrbReport(targets=targets, condition_number=cond, status=status)


def schur_target_report(info, q):
    """Bounds of target q with every other parameter treated as nuisance.

    Inverts the Schur complement F_ss - F_sn F_nn^-1 F_ns over the target's
    six rows s, which equals that target's 6x6 block of the full inverse.
    """
    f = info.matrix
    sel = np.asarray(target_indices(q, info.q_count))
    nui = np.setdiff1d(np.arange(f.shape[0]), sel)
    schur = f[np.ix_(sel, sel)]
    if nui.size:
        f_sn = f[np.ix_(sel, nui)]
        try:
            schur = schur - f_sn @ np.linalg.solve(f[np.ix_(nui, nui)], f_sn.T)
        except np.linalg.LinAlgError as e:
            raise SingularFimError("nuisance block is singular") from e
    try:
        sub = np.linalg.inv(schur)
    except np.linalg.LinAlgError as e:
        raise SingularFimError("conditioned information block is singular") from e
    return CrbReport(targets=(_bounds_from_diag(np.diag(sub), 0, 1),))


def _side_moments(scene, geom, target):
    """Element sums of one array side for one target.

    Returns (G, (A, B, C, P, Q)) with G = sum_n g_n^2 and each moment an
    array with one entry per kinematic parameter p, in the row order of
    steering.element_factors: the sums over elements of g^2 |alpha|^2,
    g^2 conj(alpha) beta, g^2 |beta|^2, g^2 alpha and g^2 beta, where
    alpha + beta t is the derivative factor d a_n / a_n at slow time t = m T.
    """
    g, _, _, alpha, beta = element_factors(scene, geom, target)
    g2 = g ** 2
    return g2.sum(), ((g2 * abs(alpha) ** 2).sum(-1), (g2 * alpha.conj() * beta).sum(-1),
                      (g2 * abs(beta) ** 2).sum(-1), (g2 * alpha).sum(-1), (g2 * beta).sum(-1))


def closed_form_single(scene, q):
    """Single-target bounds with all other parameters of the target known.

    Each bound is the reciprocal of one Fisher diagonal entry. Within one
    target |a_n(m)|^2 = g_n^2 does not depend on the snapshot m, and each
    derivative factor is linear in t = m T, so the entries follow from the
    per-side element sums of _side_moments (G, A, B, C, P, Q) and the
    slow-time sums S0 = M, S1 = T M(M+1)/2, S2 = T^2 sum_m m^2:

        crb_alpha_r = crb_alpha_i = sigma^2 / (2 P S0 G_t G_r)
        crb_p       = sigma^2 / (2 |rcs|^2 P sum_m S_p(m))

        sum_m S_p = G_t (A_r S0 + 2 Re B_r S1 + C_r S2)
                  + G_r (A_t S0 + 2 Re B_t S1 + C_t S2)
                  + 2 Re{conj(P_r) P_t S0 + (conj(P_r) Q_t + conj(Q_r) P_t) S1
                         + conj(Q_r) Q_t S2}

    for each kinematic parameter p. That is O(N) work and builds no M x N
    steering stack; a monostatic scene sums one side for both. Zero
    information (rcs = 0) yields inf. Inter-target coupling is ignored by
    construction.
    """
    t = scene.targets[q]
    g_t, mom_t = _side_moments(scene, scene.tx, t)
    g_r, mom_r = (g_t, mom_t) if scene.monostatic else _side_moments(scene, scene.rx, t)
    m = scene.snapshots
    s0 = float(m)
    s1 = scene.t_sym_s * (m * (m + 1) // 2)
    s2 = scene.t_sym_s ** 2 * slow_time_sum(m)
    half = 2.0 * scene.power_w / scene.noise_var_w
    alpha2 = abs(t.rcs) ** 2

    f_alpha = half * s0 * g_t * g_r
    crb_alpha_part = 1.0 / f_alpha if f_alpha > 0.0 else math.inf

    def kinematic(p):
        a_t, b_t, c_t, p_t, q_t = (moment[p] for moment in mom_t)
        a_r, b_r, c_r, p_r, q_r = (moment[p] for moment in mom_r)
        s = (g_t * (a_r * s0 + 2.0 * b_r.real * s1 + c_r * s2)
             + g_r * (a_t * s0 + 2.0 * b_t.real * s1 + c_t * s2)
             + 2.0 * (p_r.conjugate() * p_t * s0
                      + (p_r.conjugate() * q_t + q_r.conjugate() * p_t) * s1
                      + q_r.conjugate() * q_t * s2).real)
        f = half * alpha2 * s
        return 1.0 / f if f > 0.0 else math.inf

    # scalar arithmetic per p: an array product may fuse multiply-adds, moving bits
    bounds = TargetBounds(*map(kinematic, range(4)), crb_alpha_part, crb_alpha_part)
    return CrbReport(targets=(bounds,))
