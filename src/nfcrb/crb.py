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
from .steering import block_factors

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
        return getattr(self, _BOUND_FIELDS[name])


# the TargetBounds field or property of each bound name
_BOUND_FIELDS = {"x": "crb_x", "y": "crb_y", "vx": "crb_vx", "vy": "crb_vy",
                 "alpha_r": "crb_alpha_r", "alpha_i": "crb_alpha_i", "rcs": "crb_alpha"}


@dataclass(frozen=True)
class CrbReport:
    targets: tuple
    condition_number: float | None = None
    status: str = "ok"


def _element_moments(factors, t_bar):
    """g^2-weighted element moments of one side's side_factors (g, r, u, alpha, beta), per target.

    It reads g, alpha and beta alone. Returns (G, alpha_mean, beta_mean,
    c_u, c_beta) per target: G = sum_n g_n^2, the row means of alpha and
    beta under the weights w = g^2 / G, and the real parts of the 4x4
    covariances c[p, p'] = sum_n w_n conj(x_p) x_p' of the centred rows of
    u = alpha + beta t_bar and of beta; raw moments would cancel digits.
    """
    g, alpha, beta = (factors[i][..., 0, :] for i in (0, 3, 4))  # g (Q, N), alpha, beta (4, Q, N)
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


def _scalars(scene):
    """M, the mean slow time T (M + 1) / 2, V = sum_m (t_m - tbar)^2 and the SNR 2 P / sigma^2.

    Each is a float, formed from the integer M: numpy holds an integer of 2^64
    or more as an object.
    """
    m = scene.snapshots
    var = scene.t_sym_s ** 2 * (m * (m * m - 1) / 12.0)
    return float(m), scene.t_sym_s * (m + 1) / 2.0, var, 2.0 * scene.power_w / scene.noise_var_w


def own_information(scene, tx, rx, rcs):
    """Own 6x6 blocks of the centred information F' and C_q of every target, in O(N) each.

    tx and rx are the targets' side_factors (rx is tx when monostatic), rcs
    their reflectivities: _own_blocks of their element moments, each
    target's bit for bit as in its own one-target call. Returns own (Q, 6,
    6), c (Q, 2, 4) and per side the (Q, 4) shifts (alpha_mean + b tbar / 2,
    beta_mean - b / 2) that centre h_p (see _own_blocks).
    """
    scalars = _scalars(scene)
    t_bar = scalars[1]
    moments = _element_moments(tx, t_bar)
    moments_r = moments if rx is tx else _element_moments(rx, t_bar)
    own, c = _own_blocks(moments, moments_r, rcs, *np.array([scalars]).T)
    (_, a_t, b_t, _, _), (_, a_r, b_r, _, _) = moments, moments_r
    b = b_t + b_r
    half_b, half_t = b / 2.0, b * (t_bar / 2.0)
    return own, c, [(a + half_t, b_s - half_b) for a, b_s in ((a_t, b_t), (a_r, b_r))]


def _own_blocks(tx, rx, rcs, m, t_bar, var, snr):
    """own (Q, 6, 6) and c (Q, 2, 4) of every target from its element moments on each side.

    tx and rx are _element_moments with a target axis (rx is tx when
    monostatic); m, t_bar, var and the SNR 2 P / sigma^2 are (Q,) arrays,
    so targets of scenes that differ in them assemble together, or (1,)
    arrays that every target shares. The channel derivative rcs h_p a_r
    a_t^T has h_p = alpha_t + alpha_r + (beta_t + beta_r) t, whose g_t^2
    g_r^2-weighted mean is hbar_p = ubar_t + ubar_r, u = alpha + beta tbar.
    Re-centring the reflectivity on it, alpha' = alpha + rcs sum_p hbar_p
    theta_p (C_q = [Re, Im](rcs hbar) in T), leaves the kinematic block
    |rcs|^2 G_t G_r (S0 (c_u,t + c_u,r) + V (c_beta,t + c_beta,r + Re
    conj(b) b^T)), b = betabar_t + betabar_r, S0 = M, V = sum_m (t_m -
    tbar)^2, the reflectivity block S0 G_t G_r I_2 and zeros between, each
    times 2 P / sigma^2 as its last factor: target q's block of fim's F'
    bit for bit.
    """
    (g_t, a_t, b_t, cu_t, cb_t), (g_r, a_r, b_r, cu_r, cb_r) = tx, rx
    b = b_t + b_r
    kin = (m[:, None, None] * (cu_t + cu_r)
           + var[:, None, None] * (cb_t + cb_r + (b.conj()[:, :, None] * b[:, None]).real))
    # |rcs|^2 by numpy's scalar power: it rounds as Python's float power does,
    # unlike numpy's square, and overflows to inf as numpy does
    weight = np.array([0.5 * abs(np.complex128(z)) ** 2 for z in rcs]) * g_t * g_r
    own = np.zeros((len(weight),) + (len(BLOCKS),) * 2)
    own[:, :4, :4] = (kin + kin.transpose(0, 2, 1)) * weight[:, None, None]
    own[:, 4, 4] = own[:, 5, 5] = m * g_t * g_r
    own *= snr[:, None, None]
    # each rcs a size-one operand against its target's row, as a scalar is
    c = np.array(rcs, dtype=complex)[:, None] * (a_t + a_r + b * t_bar[:, None])
    return own, np.array([c.real, c.imag]).swapaxes(0, 1)


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
    entry, an entry that is not finite, or an eigenvalue at most eps times the
    largest) depends on units. The scale sqrt(d_i d_j) is formed from d 2^-e,
    e the middle binary exponent of the diagonal d, and scaled back by 2^e:
    both scalings are exact, and d_i d_j stays in the float range where diag
    F' passes 1e154, as it does at a high SNR.
    Returns (crb_matrix, CrbReport) in the raw parameters. A singular matrix
    raises SingularFimError, as does one whose diagonal spans more than the
    float range (some scaled d_i d_j under- or overflows) or whose raw
    inverse leaves it (diag F' near 1e-300); numpy does not warn of either.
    A scaled condition number above 1e12 is reported as status
    'ill-conditioned' with the entries left in place but unreliable.
    """
    d = np.diag(info.centred)
    if not (d > 0.0).all() or not np.isfinite(info.centred).all():  # eigh takes neither
        raise SingularFimError("information matrix is singular")
    # so that 2 F' scales it by 2 exactly, and 2^n F' by 2^n
    e = (np.frexp(d.min())[1] + np.frexp(d.max())[1]) // 2
    with np.errstate(over="ignore", invalid="ignore"):  # the float range is tested below
        scale = np.ldexp(np.sqrt(np.outer(np.ldexp(d, -e), np.ldexp(d, -e))), e)
        if not 0.0 < scale.min() <= scale.max() < np.inf:  # some d_i d_j under- or overflows
            raise SingularFimError("information matrix is singular")
        w, v = np.linalg.eigh(info.centred / scale)
        if w.min() <= w.max() * np.finfo(float).eps:
            raise SingularFimError("information matrix is singular")
        crb = (v / w) @ v.T / scale  # inf past the float range, and T's zeros turn it NaN
        if info.shift is not None:
            crb = congruence(crb, info.shift, back=True)
    if not np.isfinite(crb).all():
        raise SingularFimError("the inverse of the information matrix leaves the float range")
    cond = float(w.max() / w.min())
    status = "ok" if cond <= CONDITION_LIMIT else "ill-conditioned"
    # TargetBounds fields follow BLOCKS order, as target_indices does
    targets = tuple(TargetBounds(*np.diag(crb)[target_indices(q, info.q_count)])
                    for q in range(info.q_count))
    return crb, CrbReport(targets=targets, condition_number=cond, status=status)


def schur_target_report(info, q):
    """Bounds of target q with every other parameter treated as nuisance.

    Target q of full_crb's report (q = -1 the last), with its condition number and status.
    """
    report = full_crb(info)[1]
    return dataclasses.replace(report, targets=(report.targets[q],))


def own_bounds(own, c):
    """1 / diag(T^T F'_qq T) of one target's own block of F' and its C_q; inf where it is 0."""
    # the own block has no kinematic-reflectivity part; a float's 1 / d overflows quietly
    refl = float(own[4, 4])
    diag = [*(own.diagonal()[:4] + refl * (c * c).sum(0)).tolist(), refl]
    return TargetBounds(*(1.0 / d if d > 0.0 else math.inf for d in diag + diag[-1:]))


def _side_views(scenes, q, side):
    """side_factors(scene, side, [q]) of each scene, as views of one block_factors evaluation.

    The evaluation takes each distinct target q (by object) on the target
    axis and each distinct array of the side on the element axis.
    """
    arrays = {id(s.side(side)): s.side(side) for s in scenes}
    states = {id(s.targets[q]): s.states[q] for s in scenes}
    # r and u, which the moments do not read, are freed at once: None in each view
    (g, _, _, alpha, beta), starts = block_factors(scenes[0], list(arrays.values()),
                                                   np.array(list(states.values())))
    starts, rows = dict(zip(arrays, starts)), dict(zip(states, range(len(states))))
    views = []
    for s in scenes:
        start, t = starts[id(s.side(side))], rows[id(s.targets[q])]
        g_q, alpha_q, beta_q = (x[..., t:t + 1, :, start:start + s.side(side).count]
                                for x in (g, alpha, beta))
        views.append((g_q, None, None, alpha_q, beta_q))
    return views


def closed_forms(scenes, q=0):
    """own_bounds of target q of each scene, each closed_form_single(scene, q) bit for bit.

    The scenes share one carrier and propagation speed, as a sweep's points
    do (the first scene's are read). They pass together: one element_factors
    evaluation per side (_side_views), element moments per scene and
    distinct side from its views, and one _own_blocks call with each scene's
    _scalars.
    """
    scalars = np.array([_scalars(s) for s in scenes])
    bistatic = [s for s in scenes if not s.monostatic]
    tx_views = iter(_side_views(bistatic, q, "tx") if bistatic else ())
    per_side = [], []  # each scene's Tx and Rx moments, Rx's for Tx if monostatic
    for s, view, t_bar in zip(scenes, _side_views(scenes, q, "rx"), scalars[:, 1].tolist()):
        rx = _element_moments(view, t_bar)
        per_side[0].append(rx if s.monostatic else _element_moments(next(tx_views), t_bar))
        per_side[1].append(rx)
    rx = tuple(map(np.concatenate, zip(*per_side[1])))
    tx = tuple(map(np.concatenate, zip(*per_side[0]))) if bistatic else rx
    own, c = _own_blocks(tx, rx, [s.targets[q].rcs for s in scenes], *scalars.T)
    return [own_bounds(*block) for block in zip(own, c)]


def closed_form_single(scene, q):
    """Single-target bounds with all other parameters of the target known.

    closed_forms of one scene: own_bounds of target q's own block of F',
    bit for bit fim's, from O(N) element moments and no steering stack; a
    monostatic scene sums one side for both.
    """
    return CrbReport(targets=tuple(closed_forms([scene], q)))
