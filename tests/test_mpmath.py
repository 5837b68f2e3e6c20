"""Bounds against high-precision references that share none of nfcrb's algebra.

Each reference is written out here in 40-digit mpmath from the model alone:
the per-element derivative factors of ln a_n, the raw (uncentred) element
moments of one target, or a brute sum over (n_r, n_t, m) for several
targets; the matrix is inverted in mpmath. These checks stay out of
`nfcrb verify`, whose battery items would each pay tens of ms for them.
"""

import mpmath
import numpy as np
import pytest

from nfcrb import BLOCKS, fim, full_crb, make_scene, ula
from nfcrb.oracle import _canonical_scene, _two_target_scene

from util import target_at

DIGITS = 40


def _mp_elements(scene, geom, t):
    """Per element of one side: (g, r, u, alpha, beta) in mpmath.

    a = g exp(j k (u t - r)) with r = |p - e|, g = lambda / (4 pi r) and
    u = v . (p - e) / r, so d ln a / dp = alpha_p + beta_p t with
    alpha_p = d(ln g - j k r)/dp and beta_p = j k du/dp.
    """
    k = 2 * mpmath.pi * mpmath.mpf(scene.carrier_hz) / mpmath.mpf(scene.lightspeed)
    lam = mpmath.mpf(scene.lightspeed) / mpmath.mpf(scene.carrier_hz)
    x, y, vx, vy = (mpmath.mpf(v) for v in (t.x, t.y, t.vx, t.vy))
    out = []
    for ex, ey in geom.positions.tolist():
        dx, dy = x - mpmath.mpf(ex), y - mpmath.mpf(ey)
        r = mpmath.sqrt(dx * dx + dy * dy)
        u = (vx * dx + vy * dy) / r
        alpha = [-dx / r ** 2 - 1j * k * dx / r, -dy / r ** 2 - 1j * k * dy / r, 0, 0]
        # du/dx = vx / r - u dx / r^2, du/dvx = dx / r, and alike for y
        beta = [1j * k * (vx / r - u * dx / r ** 2), 1j * k * (vy / r - u * dy / r ** 2),
                1j * k * dx / r, 1j * k * dy / r]
        out.append((lam / (4 * mpmath.pi * r), r, u, alpha, beta))
    return out


def _mp_raw_moments(elements):
    """G = sum g^2; the sums of g^2 alpha_p and g^2 beta_p; and the 4x4 sums
    of g^2 conj(x_p) y_q for (x, y) = (alpha, alpha), (alpha, beta),
    (beta, alpha), (beta, beta), keyed (0, 0) .. (1, 1)."""
    g2 = [e[0] ** 2 for e in elements]
    rows = [[e[3 + i] for e in elements] for i in (0, 1)]  # alpha, beta per element
    big_g = mpmath.fsum(g2)
    first = [[mpmath.fdot(g2, [f[p] for f in fs]) for p in range(4)] for fs in rows]
    second = {(i, j): [[mpmath.fsum(w * mpmath.conj(x[p]) * y[q]
                                    for w, x, y in zip(g2, rows[i], rows[j]))
                        for q in range(4)] for p in range(4)]
              for i in (0, 1) for j in (0, 1)}
    return big_g, first, second


def _mp_single_target_fim(scene):
    """Raw 6x6 information of a one-target scene from its uncentred element moments.

    With h_p = alpha_t,p + alpha_r,p + (beta_t,p + beta_r,p) t the factor of
    the channel derivative rcs h_p a_r a_t^T, every entry is a product of
    per-side element sums and the slow-time sums S0, S1, S2.
    """
    mpmath.mp.dps = DIGITS
    t = scene.targets[0]
    sides = [_mp_raw_moments(_mp_elements(scene, geom, t)) for geom in (scene.tx, scene.rx)]
    (g_t, (p_t, q_t), m_t), (g_r, (p_r, q_r), m_r) = sides
    m = scene.snapshots
    ts = mpmath.mpf(scene.t_sym_s)
    s0, s1, s2 = mpmath.mpf(m), ts * m * (m + 1) / 2, ts ** 2 * m * (m + 1) * (2 * m + 1) / 6
    rcs = mpmath.mpc(t.rcs_re, t.rcs_im)
    scale = 2 * mpmath.mpf(scene.power_w) / mpmath.mpf(scene.noise_var_w)

    def own(mom, p, q):  # sum over elements and snapshots of g^2 conj(f_p) f_q on one side
        return (mom[0, 0][p][q] * s0 + (mom[0, 1][p][q] + mom[1, 0][p][q]) * s1
                + mom[1, 1][p][q] * s2)

    def across(pa, qa, pb, qb, p, q):  # sum_m conj(P_a,p + Q_a,p t) (P_b,q + Q_b,q t)
        return (mpmath.conj(pa[p]) * pb[q] * s0
                + (mpmath.conj(pa[p]) * qb[q] + mpmath.conj(qa[p]) * pb[q]) * s1
                + mpmath.conj(qa[p]) * qb[q] * s2)

    f = mpmath.matrix(6, 6)
    for p in range(4):
        for q in range(4):
            h = (g_t * own(m_r, p, q) + g_r * own(m_t, p, q)
                 + across(p_r, q_r, p_t, q_t, p, q) + across(p_t, q_t, p_r, q_r, p, q))
            f[p, q] = scale * abs(rcs) ** 2 * mpmath.re(h)
        # sum of g_t^2 g_r^2 conj(h_p) over elements and snapshots
        hbar = (g_t * (mpmath.conj(p_r[p]) * s0 + mpmath.conj(q_r[p]) * s1)
                + g_r * (mpmath.conj(p_t[p]) * s0 + mpmath.conj(q_t[p]) * s1))
        for i, c in ((4, 1), (5, 1j)):
            f[p, i] = f[i, p] = scale * mpmath.re(mpmath.conj(rcs) * hbar * c)
    for i in (4, 5):
        f[i, i] = scale * s0 * g_t * g_r
    return f


def _mp_brute_fim(scene):
    """Raw 6Q x 6Q information as a brute sum over (n_r, n_t, m) of conj(D_i) D_j.

    D_i is the channel entry's derivative: rcs h_p a_r a_t for a kinematic
    parameter, a_r a_t and j a_r a_t for the reflectivity.
    """
    mpmath.mp.dps = DIGITS
    k = 2 * mpmath.pi * mpmath.mpf(scene.carrier_hz) / mpmath.mpf(scene.lightspeed)
    times = [mpmath.mpf(scene.t_sym_s) * m for m in range(1, scene.snapshots + 1)]
    # per side, target and element: the entry over time and the factors
    sides = []
    for geom in (scene.tx, scene.rx):
        per_target = []
        for t in scene.targets:
            per_target.append([([g * mpmath.expj(k * (u * tm - r)) for tm in times], alpha, beta)
                               for g, r, u, alpha, beta in _mp_elements(scene, geom, t)])
        sides.append(per_target)
    derivs = []  # D_i over (m, n_r, n_t), in BLOCKS-major parameter order
    for kind in range(len(BLOCKS)):
        for q, t in enumerate(scene.targets):
            rcs = mpmath.mpc(t.rcs_re, t.rcs_im)
            d = []
            for mi, tm in enumerate(times):
                for a_r, al_r, be_r in sides[1][q]:
                    for a_t, al_t, be_t in sides[0][q]:
                        base = a_r[mi] * a_t[mi]
                        if kind < 4:
                            h = al_r[kind] + al_t[kind] + (be_r[kind] + be_t[kind]) * tm
                            d.append(rcs * h * base)
                        else:
                            d.append(base if kind == 4 else 1j * base)
            derivs.append(d)
    scale = 2 * mpmath.mpf(scene.power_w) / mpmath.mpf(scene.noise_var_w)
    f = mpmath.matrix(len(derivs), len(derivs))
    for i, d_i in enumerate(derivs):
        conj_i = [mpmath.conj(v) for v in d_i]
        for j in range(i, len(derivs)):
            f[i, j] = f[j, i] = scale * mpmath.re(mpmath.fdot(conj_i, derivs[j]))
    return f


def _assert_marginals_match(scene, reference, rel):
    inverse = mpmath.inverse(reference)
    crb, _ = full_crb(fim(scene))
    for i in range(len(crb)):
        want = float(inverse[i, i])
        assert crb[i, i] == pytest.approx(want, rel=rel), (i, crb[i, i], want)


def criterion_11_base():
    return make_scene(targets=[target_at(20.0, 30.0, v=(8.0, -5.0))],
                      tx=ula(128, 0.01), rx=ula(128, 0.01))


@pytest.mark.filterwarnings("ignore:target 0 moves")  # criterion 11's 20 m scene
@pytest.mark.parametrize("build", [criterion_11_base, _canonical_scene, make_scene],
                         ids=["criterion-11", "verify-canonical", "reference"])
def test_single_target_marginals_match_a_40_digit_raw_inverse(build):
    _assert_marginals_match(build(), _mp_single_target_fim(build()), 1e-8)


def test_raw_moment_reference_matches_the_brute_sum():
    # the two references agree, so neither hides an algebra slip of the other
    scene = make_scene(targets=[target_at(100.0, 20.0)], tx=ula(4, 0.01),
                       rx=ula(6, 0.01, 0.5), snapshots=5)
    moments, brute = _mp_single_target_fim(scene), _mp_brute_fim(scene)
    for i in range(6):
        for j in range(6):
            assert abs(moments[i, j] - brute[i, j]) <= mpmath.mpf(10) ** -25 * abs(brute[i, i])


def test_two_target_fim_and_marginals_match_a_40_digit_brute_sum():
    scene = _two_target_scene()  # Q = 2, N = 8, M = 8
    assert (scene.q_count, scene.tx.count, scene.snapshots) == (2, 8, 8)
    reference = _mp_brute_fim(scene)
    f = fim(scene).matrix
    d = np.sqrt(np.diag(f))
    for i in range(len(f)):
        for j in range(len(f)):
            assert abs(f[i, j] - float(reference[i, j])) <= 1e-12 * d[i] * d[j], (i, j)
    # the scaled condition number of the centred matrix is 4.2e8 here, and
    # the centred factors of an 8-element aperture at 100-150 m keep about
    # 1e-13 of the element factors' rounding: the marginals read 3.4e-8 off
    # at worst (an exact inverse of the raw double matrix is 2.8 off)
    _assert_marginals_match(scene, reference, 1e-6)
