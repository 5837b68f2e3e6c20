"""Estimation bounds from one target's element moments and one centred, scaled inverse.

Bounds that are analytically infinite (zero information, e.g. the broadside
divergence of the far-field model) are reported as float('inf'), never raised;
divergence is a result, not a failure.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .scene import BLOCKS, target_indices
from .steering import element_factors

CONDITION_LIMIT = 1e12


class SingularFimError(np.linalg.LinAlgError):
    """The information matrix is not invertible."""


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
    """g^2-weighted element moments of one side's side_factors (g, r, u, alpha, beta), per target.

    Returns (G, alpha_mean, beta_mean, c_u, c_beta) per target: G = sum_n
    g_n^2, the row means of alpha and beta under the weights w = g^2 / G,
    and the real parts of the 4x4 covariances c[p, p'] = sum_n w_n conj(x_p)
    x_p' of the centred rows of u = alpha + beta t_bar and of beta; raw
    moments would cancel digits.
    """
    g, _, _, alpha, beta = (x[..., 0, :] for x in factors)  # g (Q, N), alpha, beta (4, Q, N)
    big_g = (g ** 2).sum(-1)
    root_w = g / np.sqrt(big_g)[:, None]
    w = (root_w ** 2).astype(complex)[..., None]  # (Q, N, 1): one gemv per target
    a_mean, b_mean = (np.matmul(x.transpose(1, 0, 2), w)[..., 0] for x in (alpha, beta))
    # a broadcast complex difference takes a numpy buffer of its size: both
    # are formed before b_c t_bar, and u_c + b_c t_bar rounds either way alike
    u_c = alpha - a_mean.T[..., None]
    b_c = beta - b_mean.T[..., None]
    u_c += b_c * t_bar
    u_c *= root_w
    b_c *= root_w
    # Re(conj(x_p) x_p') from the real and imaginary parts, against a copy:
    # numpy multiplies a buffer by its own transpose in the slower BLAS syrk
    rows = (x.view(float).transpose(1, 0, 2) for x in (u_c, b_c))
    return (big_g, a_mean, b_mean, *(x @ x.copy().transpose(0, 2, 1) for x in rows))


def own_information(scene, tx, rx, rcs):
    """Own 6x6 blocks of the centred information F' and C_q of every target, in O(N) each.

    tx and rx are the targets' side_factors (rx is tx when monostatic), rcs
    their reflectivities. The channel derivative rcs h_p a_r a_t^T has h_p =
    alpha_t + alpha_r + (beta_t + beta_r) t, whose g_t^2 g_r^2-weighted mean
    is hbar_p = ubar_t + ubar_r, u = alpha + beta tbar. Re-centring the
    reflectivity on it, alpha' = alpha + rcs sum_p hbar_p theta_p (C_q =
    [Re, Im](rcs hbar) in T), leaves the kinematic block |rcs|^2 G_t G_r (S0
    (c_u,t + c_u,r) + V (c_beta,t + c_beta,r + Re conj(b) b^T)), b = betabar_t
    + betabar_r, S0 = M, V = sum_m (t_m - tbar)^2, the reflectivity block S0
    G_t G_r I_2 and zeros between. Returns own (Q, 6, 6) and c (Q, 2, 4),
    both without 2 P / sigma^2, and per side the (Q, 4) shifts (alpha_mean +
    b tbar / 2, beta_mean - b / 2) that centre h_p, each target's bit for bit
    as in its own one-target call.
    """
    m = scene.snapshots
    t_bar = scene.t_sym_s * (m + 1) / 2.0
    var = scene.t_sym_s ** 2 * (m * (m * m - 1) / 12.0)
    moments = _element_moments(tx, t_bar)
    (g_t, a_t, b_t, cu_t, cb_t), (g_r, a_r, b_r, cu_r, cb_r) = (
        moments, moments if rx is tx else _element_moments(rx, t_bar))
    b = b_t + b_r
    kin = m * (cu_t + cu_r) + var * (cb_t + cb_r + (b.conj()[:, :, None] * b[:, None]).real)
    # |rcs|^2 by Python's float power, which may round unlike numpy's square
    weight = np.array([0.5 * abs(z) ** 2 for z in rcs]) * g_t * g_r
    own = np.zeros((len(weight),) + (len(BLOCKS),) * 2)
    own[:, :4, :4] = (kin + kin.transpose(0, 2, 1)) * weight[:, None, None]
    own[:, 4, 4] = own[:, 5, 5] = m * g_t * g_r
    # each rcs a size-one operand against its target's row, as a scalar is
    c = np.array(rcs, dtype=complex)[:, None] * (a_t + a_r + b * t_bar)
    return own, np.array([c.real, c.imag]).swapaxes(0, 1), [
        (a + b * (t_bar / 2.0), b_s - b / 2.0) for a, b_s in ((a_t, b_t), (a_r, b_r))]


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


def full_crb(info):
    """Invert the full FIM through its centred form: T^-1 F'^-1 T^-T.

    F' is Jacobi-scaled to a unit diagonal before its eigendecomposition, so
    neither the condition number nor the singularity test (a zero diagonal
    entry, or an eigenvalue at most eps times the largest) depends on units.
    Returns (crb_matrix, CrbReport) in the raw parameters. A singular matrix
    raises SingularFimError; a scaled condition number above 1e12 is
    reported as status 'ill-conditioned' with the entries left in place but
    unreliable.
    """
    d = np.diag(info.centred)
    if not (d > 0.0).all():
        raise SingularFimError("information matrix is singular")
    scale = np.sqrt(np.outer(d, d))  # so that 2 F' scales it by 2 exactly
    w, v = np.linalg.eigh(info.centred / scale)
    if w.min() <= w.max() * np.finfo(float).eps:
        raise SingularFimError("information matrix is singular")
    crb = (v / w) @ v.T / scale
    if info.shift is not None:
        crb = congruence(crb, info.shift, back=True)
    cond = float(w.max() / w.min())
    status = "ok" if cond <= CONDITION_LIMIT else "ill-conditioned"
    targets = tuple(_bounds_from_diag(np.diag(crb), q, info.q_count) for q in range(info.q_count))
    return crb, CrbReport(targets=targets, condition_number=cond, status=status)


def schur_target_report(info, q):
    """Bounds of target q with every other parameter treated as nuisance.

    Target q's slice of full_crb's report, with its condition number and status.
    """
    report = full_crb(info)[1]
    return dataclasses.replace(report, targets=report.targets[q:q + 1])


def own_bounds(scene, own, c):
    """1 / diag(T^T F' T) of one target's own_information block and C_q; inf where it is 0."""
    # the own block has no kinematic-reflectivity part
    scale, refl = 2.0 * scene.power_w / scene.noise_var_w, own[4, 4]
    diag = [*(scale * (own.diagonal()[:4] + refl * (c * c).sum(0))).tolist(), scale * refl]
    return TargetBounds(*(1.0 / d if d > 0.0 else math.inf for d in diag + diag[-1:]))


def closed_form_single(scene, q):
    """Single-target bounds with all other parameters of the target known.

    own_bounds of target q's own_information, its element factors given a
    one-target axis, with the bits of fim's own blocks: O(N) element moments
    and no steering stack; a monostatic scene sums one side for both.
    """
    t = scene.targets[q]
    tx = [x[..., None, None, :] for x in element_factors(scene, scene.tx, t)]
    rx = tx if scene.monostatic else [x[..., None, None, :]
                                      for x in element_factors(scene, scene.rx, t)]
    own, c, _ = own_information(scene, tx, rx, [t.rcs])
    return CrbReport(targets=(own_bounds(scene, own[0], c[0]),))
