"""Estimation bounds from one target's element moments and one centred, scaled inverse.

Bounds that are analytically infinite (zero information, e.g. the broadside
divergence of the far-field model) are reported as float('inf'), never raised;
divergence is a result, not a failure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .scene import BLOCKS, target_indices
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


def _element_moments(factors, t_bar):
    """g^2-weighted element moments of one side's (g, r, u, alpha, beta) factors of one target.

    Returns (G, alpha_mean, beta_mean, c_u, c_beta): G = sum_n g_n^2, the
    row means of alpha and beta under the weights w = g^2 / G, and the real
    parts of the 4x4 covariances c[p, p'] = sum_n w_n conj(x_p) x_p' of the
    centred rows of u = alpha + beta t_bar and of beta; raw moments would
    cancel digits.
    """
    g, _, _, alpha, beta = factors
    big_g = (g ** 2).sum()
    root_w = g / np.sqrt(big_g)
    a_mean, b_mean = (x @ (root_w ** 2).astype(complex) for x in (alpha, beta))
    b_c = beta - b_mean[:, None]
    u_c = b_c * t_bar
    u_c += alpha - a_mean[:, None]
    u_c *= root_w
    b_c *= root_w
    # Re(conj(x_p) x_p') from the real and imaginary parts, against a copy:
    # numpy multiplies a buffer by its own transpose in the slower BLAS syrk
    u_c, b_c = u_c.view(float), b_c.view(float)
    return big_g, a_mean, b_mean, u_c @ u_c.copy().T, b_c @ b_c.copy().T


def own_information(scene, tx, rx, rcs):
    """Own 6x6 block of the centred information F' and C_q of one target, in O(N).

    tx and rx are its element factors per side (rx is tx when monostatic).
    The channel derivative rcs h_p a_r a_t^T has h_p = alpha_t + alpha_r +
    (beta_t + beta_r) t, whose g_t^2 g_r^2-weighted mean is hbar_p = ubar_t +
    ubar_r, u = alpha + beta tbar. Re-centring the reflectivity on it, alpha' =
    alpha + rcs sum_p hbar_p theta_p (C_q = [Re, Im](rcs hbar) in T), leaves
    the kinematic block |rcs|^2 G_t G_r (S0 (c_u,t + c_u,r) + V (c_beta,t +
    c_beta,r + Re conj(b) b^T)), b = betabar_t + betabar_r, S0 = M, V = sum_m
    (t_m - tbar)^2, the reflectivity block S0 G_t G_r I_2 and zeros between.
    Returns own (6, 6), c (2, 4), both without 2 P / sigma^2, and per side the
    shifts (alpha_mean + b tbar / 2, beta_mean - b / 2) that centre h_p.
    """
    m = scene.snapshots
    t_bar = scene.t_sym_s * (m + 1) / 2.0
    var = scene.t_sym_s ** 2 * (m * (m * m - 1) / 12.0)
    moments = _element_moments(tx, t_bar)
    (g_t, a_t, b_t, cu_t, cb_t), (g_r, a_r, b_r, cu_r, cb_r) = (
        moments, moments if rx is tx else _element_moments(rx, t_bar))
    b = b_t + b_r
    kin = m * (cu_t + cu_r) + var * (cb_t + cb_r + (b.conj()[:, None] * b).real)
    own = np.zeros((len(BLOCKS),) * 2)
    own[:4, :4] = (kin + kin.T) * (0.5 * abs(rcs) ** 2 * g_t * g_r)
    own[4, 4] = own[5, 5] = m * g_t * g_r
    c = rcs * (a_t + a_r + b * t_bar)
    return own, np.array([c.real, c.imag]), [(a + b * (t_bar / 2.0), b_s - b / 2.0)
                                             for a, b_s in ((a_t, b_t), (a_r, b_r))]


def congruence(f, shift, back=False):
    """T^T f T, or T^-1 f T^-T if back, exactly symmetric, for f in BLOCKS layout.

    T is the identity but for C_q, the (Q, 2, 4) shift, in target q's
    reflectivity rows, so T^-1 = 2 I - T. Each entry adds its six terms in
    one fixed order whatever the target count: an own block does not depend
    on the other targets, and permuting the targets permutes the result bit
    for bit.
    """
    q_count, b = len(shift), len(BLOCKS)
    t = np.tile(np.eye(b), (q_count, 1, 1))
    t[:, 4:, :4] = shift
    if back:
        t = 2.0 * np.eye(b) - t.transpose(0, 2, 1)
    f = f.reshape(b, q_count, b, q_count)
    right = sum(f[:, :, c, None] * t[:, c].T for c in range(b))
    out = sum(t[:, c].T[:, :, None, None] * right[c] for c in range(b)).reshape(b * q_count, -1)
    return (out + out.T) * 0.5


def _inverse(f, shift, what):
    """Inverse of a centred information f, mapped back through T^-1, and its condition number.

    f is Jacobi-scaled to a unit diagonal before its eigendecomposition, so
    neither the condition number nor the singularity test (a zero diagonal
    entry, or an eigenvalue at most eps times the largest) depends on units.
    shift holds the C_q of f's targets, or None for T = I.
    """
    d = np.diag(f)
    if not (d > 0.0).all():
        raise SingularFimError(f"{what} is singular")
    scale = np.sqrt(np.outer(d, d))  # so that 2 f scales it by 2 exactly
    w, v = np.linalg.eigh(f / scale)
    if w.min() <= w.max() * np.finfo(float).eps:
        raise SingularFimError(f"{what} is singular")
    inv = (v / w) @ v.T / scale
    if shift is not None:
        inv = congruence(inv, shift, back=True)
    return inv, float(w.max() / w.min())


def full_crb(info):
    """Invert the full FIM through its centred form (_inverse).

    Returns (crb_matrix, CrbReport) in the raw parameters. A singular matrix
    raises SingularFimError; a scaled condition number above 1e12 is
    reported as status 'ill-conditioned' with the entries left in place but
    unreliable.
    """
    f = info.matrix if info.centred is None else info.centred
    crb, cond = _inverse(f, info.shift, "information matrix")
    status = "ok" if cond <= CONDITION_LIMIT else "ill-conditioned"
    targets = tuple(_bounds_from_diag(np.diag(crb), q, info.q_count) for q in range(info.q_count))
    return crb, CrbReport(targets=targets, condition_number=cond, status=status)


def schur_target_report(info, q):
    """Bounds of target q with every other parameter treated as nuisance.

    Inverts the Schur complement F_ss - F_sn F_nn^-1 F_ns of the centred
    matrix over the target's six rows s, which equals that target's 6x6
    block of the full inverse; both inverses are _inverse's.
    """
    f = info.matrix if info.centred is None else info.centred
    sel = np.asarray(target_indices(q, info.q_count))
    nui = np.setdiff1d(np.arange(f.shape[0]), sel)
    schur = f[np.ix_(sel, sel)]
    if nui.size:
        f_sn = f[np.ix_(sel, nui)]
        schur = schur - f_sn @ _inverse(f[np.ix_(nui, nui)], None, "nuisance block")[0] @ f_sn.T
    shift = None if info.shift is None else info.shift[q:q + 1]
    sub, _ = _inverse(schur, shift, "conditioned information block")
    return CrbReport(targets=(_bounds_from_diag(np.diag(sub), 0, 1),))


def closed_form_single(scene, q):
    """Single-target bounds with all other parameters of the target known.

    Each bound is the reciprocal of one raw Fisher diagonal entry, read from
    the target's own block T^T F' T of own_information, O(N) element
    moments and slow-time sums, with no M x N steering stack built; a
    monostatic scene sums one side for both. Zero information (rcs = 0)
    yields inf. Inter-target coupling is ignored by construction.
    """
    t = scene.targets[q]
    tx = element_factors(scene, scene.tx, t)
    rx = tx if scene.monostatic else element_factors(scene, scene.rx, t)
    own, c, _ = own_information(scene, tx, rx, t.rcs)
    # the diagonal of T^T F' T, whose own block has no kinematic-reflectivity part
    scale, refl = 2.0 * scene.power_w / scene.noise_var_w, own[4, 4]
    diag = [*(scale * (own.diagonal()[:4] + refl * (c * c).sum(0))).tolist(), scale * refl]
    bounds = TargetBounds(*(1.0 / d if d > 0.0 else math.inf for d in diag + diag[-1:]))
    return CrbReport(targets=(bounds,))
