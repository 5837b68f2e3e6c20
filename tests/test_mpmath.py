"""Bounds against high-precision references that share none of nfcrb's algebra.

Each reference is written out here in 40-digit mpmath from the model alone:
the steering entries, the per-element derivative factors of ln a_n, the
raw (uncentred) element moments of one target, or a brute sum over
(n_r, n_t, m) for several targets; the matrix is inverted in mpmath. These checks stay out of
`nfcrb verify`, whose battery items would each pay tens of ms for them.
The brute sum also takes the exact trajectory, which the model's
slow-time expansion approximates, to show where that expansion holds.
"""

import math

import mpmath
import numpy as np
import pytest

from nfcrb import BLOCKS, Target, fim, full_crb, make_scene, ula
from nfcrb.approx import _side_terms
from nfcrb.oracle import _canonical_scene, _two_target_scene
from nfcrb.steering import steering_values

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


def _mp_linear_entries(scene, geom, t, times):
    """Per snapshot and element of one side: the model's entry a = g exp(j k (u t
    - r)) and its d ln a / d(x, y, vx, vy) = alpha + beta t."""
    k = 2 * mpmath.pi * mpmath.mpf(scene.carrier_hz) / mpmath.mpf(scene.lightspeed)
    elements = _mp_elements(scene, geom, t)
    return [[(g * mpmath.expj(k * (u * tm - r)), [a + b * tm for a, b in zip(alpha, beta)])
             for g, r, u, alpha, beta in elements] for tm in times]


def _mp_exact_entries(scene, geom, t, times):
    """Per snapshot and element of one side: the exact-trajectory entry a =
    g(rho) exp(-j k rho), rho = |p - v t - e|, and its d ln a / d(x, y, vx, vy).

    _mp_elements' conventions followed through the CPI: at t = 0 the entry
    and its derivatives are the model's, which keeps g, u and the direction
    of t = 0. With w = p - v t - e, d ln a / dp = -(1 / rho + j k) w / rho
    and d ln a / dv = -t d ln a / dp.
    """
    k = 2 * mpmath.pi * mpmath.mpf(scene.carrier_hz) / mpmath.mpf(scene.lightspeed)
    lam = mpmath.mpf(scene.lightspeed) / mpmath.mpf(scene.carrier_hz)
    x, y, vx, vy = (mpmath.mpf(v) for v in (t.x, t.y, t.vx, t.vy))
    rows = []
    for tm in times:
        row = []
        for ex, ey in geom.positions.tolist():
            dx, dy = x - vx * tm - mpmath.mpf(ex), y - vy * tm - mpmath.mpf(ey)
            rho = mpmath.sqrt(dx * dx + dy * dy)
            c = -(1 / rho + 1j * k) / rho
            row.append((lam / (4 * mpmath.pi * rho) * mpmath.expj(-k * rho),
                        [c * dx, c * dy, -tm * c * dx, -tm * c * dy]))
        rows.append(row)
    return rows


def _mp_brute_fim(scene, entries=_mp_linear_entries):
    """Raw 6Q x 6Q information as a brute sum over (n_r, n_t, m) of conj(D_i) D_j.

    D_i is the channel entry's derivative: rcs h_p a_r a_t for a kinematic
    parameter, a_r a_t and j a_r a_t for the reflectivity, with each side's
    entries a and h = d ln a from entries (the model's by default).
    """
    mpmath.mp.dps = DIGITS
    times = [mpmath.mpf(scene.t_sym_s) * m for m in range(1, scene.snapshots + 1)]
    # per side and target: the entries over (m, n)
    sides = [[entries(scene, geom, t, times) for t in scene.targets]
             for geom in (scene.tx, scene.rx)]
    derivs = []  # D_i over (m, n_r, n_t), in BLOCKS-major parameter order
    for kind in range(len(BLOCKS)):
        for q, t in enumerate(scene.targets):
            rcs = mpmath.mpc(t.rcs_re, t.rcs_im)
            d = []
            for tx_row, rx_row in zip(sides[0][q], sides[1][q]):
                for a_r, h_r in rx_row:
                    for a_t, h_t in tx_row:
                        base = a_r * a_t
                        if kind < 4:
                            d.append(rcs * (h_r[kind] + h_t[kind]) * base)
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


def test_steering_entries_match_40_digit_references():
    # a k (u m T - r) phase of about 1e5 rad rounds by eps k r in double, a
    # few 1e-11 relative; the phasor table's products must add nothing near that
    mpmath.mp.dps = DIGITS
    scene = make_scene(targets=[target_at(300.0, 20.0, v=(9.0, -4.0)),
                                target_at(450.0, -35.0, v=(-6.0, 12.0))],
                       tx=ula(2048, 0.01), rx=ula(2048, 0.01), snapshots=256)
    assert scene.carrier_hz == 15e9
    values = steering_values(scene, "tx")
    k = 2 * mpmath.pi * mpmath.mpf(scene.carrier_hz) / mpmath.mpf(scene.lightspeed)
    worst = 0.0
    for q, t in enumerate(scene.targets):
        elements = _mp_elements(scene, scene.tx, t)
        for n in (0, 1023, 2047):
            g, r, u = elements[n][:3]
            for m in (1, 2, 15, 16, 17, 31, 32, 100, 129, 255, 256):
                want = g * mpmath.expj(k * (u * mpmath.mpf(scene.t_sym_s) * m - r))
                err = abs(mpmath.mpc(values[q, m - 1, n]) - want) / abs(want)
                worst = max(worst, float(err))
    assert worst <= 1e-10


def _exact_over_linear(range_m, travel_over_aperture):
    """Exact-trajectory over linear-model marginals of x, y, vx and vy.

    One target at 20 deg moving at (4, -3) m/s, seen by a monostatic
    8-element ULA at 1 cm over 32 snapshots, with the symbol time set so
    that the CPI travel |v| M T is the given fraction of the aperture (N -
    1) d.
    """
    n, spacing, m, v = 8, 0.01, 32, (4.0, -3.0)
    t_sym_s = travel_over_aperture * (n - 1) * spacing / (math.hypot(*v) * m)
    scene = make_scene(targets=[target_at(range_m, 20.0, v=v)], tx=ula(n, spacing),
                       rx=ula(n, spacing), snapshots=m, t_sym_s=t_sym_s)
    exact = mpmath.inverse(_mp_brute_fim(scene, _mp_exact_entries))
    crb, _ = full_crb(fim(scene))
    return np.array([float(exact[i, i]) / crb[i, i] for i in range(4)])


def test_exact_trajectory_meets_the_linear_model_as_the_travel_vanishes():
    assert np.abs(_exact_over_linear(50.0, 0.04) - 1.0).max() < 5e-3


def test_exact_trajectory_ratio_depends_on_travel_over_aperture_not_range():
    # over 0.3 of the aperture the parallax the linear model drops tightens
    # the velocity bounds by a tenth, at 50 m and at 200 m alike
    near, far = _exact_over_linear(50.0, 0.3), _exact_over_linear(200.0, 0.3)
    assert near[2:].max() < 0.95
    assert np.abs(near - far).max() < 3e-3


def _within_ulps(value, reference, ulps=4):
    """Whether a float lies within ulps units in the last place of a finite mpmath value."""
    return abs(mpmath.mpf(value) - reference) <= ulps * math.ulp(float(reference))


@pytest.mark.parametrize("wavelength", [1e-6, 1e-3, 0.02, 1.0, 1e3])
def test_region_boundaries_match_40_digit_references(wavelength):
    # D from 1e-3 to 1e150 crosses 5.6e102, where D^3 leaves the float range
    mpmath.mp.dps = DIGITS
    lam = mpmath.mpf(wavelength)
    for d in np.logspace(-3.0, 150.0, 52).tolist():
        reactive, fraunhofer = ula(2, d).region_boundaries(wavelength)
        big_d = mpmath.mpf(d)
        for value, reference in ((reactive, mpmath.mpf(0.62) * mpmath.sqrt(big_d ** 3 / lam)),
                                 (fraunhofer, 2 * big_d ** 2 / lam)):
            if math.isfinite(value):
                assert _within_ulps(value, reference), (d, wavelength)


@pytest.mark.parametrize("count", [2, 3, 256, 2048])
def test_side_terms_eps_matches_40_digit_references(count):
    # at broadside delta = eps (4 sin^2 - 1) = -eps; d = 1e200 at r = 1e201
    # overflows d^2 and r^2 but not their ratio
    mpmath.mp.dps = DIGITS
    for d, r in [(1e-9, 1e-3), (0.01, 100.0), (0.01, 3.0), (1.0, 1e6), (1e100, 1e103),
                 (1e200, 1e201), (1e-120, 1e-5), (0.5, 1e150)]:
        eps = -_side_terms(ula(count, d), Target(0.0, r), "nf").delta
        reference = (count ** 2 - 1) * (mpmath.mpf(d) / mpmath.mpf(r)) ** 2 / 12
        assert _within_ulps(eps, reference), (count, d, r)
