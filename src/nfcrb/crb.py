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
from .steering import side_factors

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

    Returns (G, alpha_mean, beta_mean, c_u, c_beta) per target: G = sum_n
    g_n^2, the row means of alpha and beta under the weights w = g^2 / G,
    and the real parts of the 4x4 covariances c[p, p'] = sum_n w_n conj(x_p)
    x_p' of the centred rows of u = alpha + beta t_bar and of beta; raw
    moments would cancel digits.
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


def own_information(scene, tx, rx, rcs, shifts=True):
    """Own 6x6 blocks of the centred information F' and C_q of every target, in O(N) each.

    tx and rx are the targets' side_factors (rx is tx when monostatic), rcs
    their reflectivities. The channel derivative rcs h_p a_r a_t^T has h_p =
    alpha_t + alpha_r + (beta_t + beta_r) t, whose g_t^2 g_r^2-weighted mean
    is hbar_p = ubar_t + ubar_r, u = alpha + beta tbar. Re-centring the
    reflectivity on it, alpha' = alpha + rcs sum_p hbar_p theta_p (C_q =
    [Re, Im](rcs hbar) in T), leaves the kinematic block |rcs|^2 G_t G_r (S0
    (c_u,t + c_u,r) + V (c_beta,t + c_beta,r + Re conj(b) b^T)), b = betabar_t
    + betabar_r, S0 = M, V = sum_m (t_m - tbar)^2, the reflectivity block S0
    G_t G_r I_2 and zeros between, each times 2 P / sigma^2 as its last
    factor: target q's block of fim's F' bit for bit. Returns own (Q, 6, 6),
    c (Q, 2, 4) and per side the (Q, 4) shifts (alpha_mean + b tbar / 2,
    beta_mean - b / 2) that centre h_p, each target's bit for bit as in its
    own one-target call; None in place of the shifts unless shifts.
    """
    m = scene.snapshots
    t_bar = scene.t_sym_s * (m + 1) / 2.0
    var = scene.t_sym_s ** 2 * (m * (m * m - 1) / 12.0)
    moments = _element_moments(tx, t_bar)
    (g_t, a_t, b_t, cu_t, cb_t), (g_r, a_r, b_r, cu_r, cb_r) = (
        moments, moments if rx is tx else _element_moments(rx, t_bar))
    b = b_t + b_r
    kin = m * (cu_t + cu_r) + var * (cb_t + cb_r + (b.conj()[:, :, None] * b[:, None]).real)
    # G_t, G_r and the SNR as mantissas, their exponents applied last: a power of
    # two scales exactly, so the bits are the direct product's where it stays in range
    mantissa = np.frexp(g_t)
    (g_t, e_t), (g_r, e_r) = mantissa, mantissa if rx is tx else np.frexp(g_r)
    snr, e_snr = math.frexp(2.0 * scene.power_w / scene.noise_var_w)
    # |rcs|^2 by numpy's scalar power: it rounds as Python's float power does,
    # unlike numpy's square, and overflows to inf as numpy does
    weight = np.array([0.5 * abs(np.complex128(z)) ** 2 for z in rcs]) * g_t * g_r
    own = np.zeros((len(weight),) + (len(BLOCKS),) * 2)
    own[:, :4, :4] = (kin + kin.transpose(0, 2, 1)) * weight[:, None, None]
    own[:, 4, 4] = own[:, 5, 5] = m * g_t * g_r
    own *= snr
    np.ldexp(own, (e_t + e_r + e_snr)[:, None, None], out=own)
    # each rcs a size-one operand against its target's row, as a scalar is
    c = np.array(rcs, dtype=complex)[:, None] * (a_t + a_r + b * t_bar)
    c = np.array([c.real, c.imag]).swapaxes(0, 1)
    if not shifts:
        return own, c, None
    half_b, half_t = b / 2.0, b * (t_bar / 2.0)
    return own, c, [(a + half_t, b_s - half_b) for a, b_s in ((a_t, b_t), (a_r, b_r))]


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


def closed_form_single(scene, q):
    """Single-target bounds with all other parameters of the target known.

    own_bounds of target q's own_information from its side_factors with a
    one-target axis, bit for bit fim's own block: O(N) element moments and
    no steering stack; a monostatic scene sums one side for both.
    """
    tx, rx = scene.per_side(lambda side: side_factors(scene, side, [q]))
    own, c, _ = own_information(scene, tx, rx, [scene.targets[q].rcs], shifts=False)
    return CrbReport(targets=(own_bounds(own[0], c[0]),))
