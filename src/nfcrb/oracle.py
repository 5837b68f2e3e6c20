"""Independent numeric ground truth for the analytic machinery, and its battery.

Everything here recomputes quantities the other modules obtain analytically,
by a deliberately different route: central finite differences for
derivatives, brute-force element sums for gains, and the sample covariance
of random symbols for the isotropic-transmission idealization, contracted
against full channel-derivative stacks instead of the Gram products `fim`
uses. The finite differences read steering values alone
(`steering.steering_values`), never the analytic derivative factors: the
shifted copies of every listed target, for every check of a call, go into
one validated Scene, evaluated in one broadcast call per array side.
`fd_steering_rows` differences the one side that its caller names; verify's
steering battery builds each scene on one array object and names "tx". Every
other oracle evaluates both sides, and no oracle reads Scene.monostatic, the
equality test on which the analytic path shares. So the fim-fd-*,
closed-form-diagonal and Monte Carlo scenes, which hold two equal array
objects, compare that shared path with two unshared evaluations. Intended
for desk scale scenes; the finite-difference and Monte Carlo paths
materialize (M, N_r, N_t) stacks.
`run_battery` is the list of checks that `nfcrb verify` prints, one
`make_report` per check.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .approx import correction_terms, gain
from .crb import _element_moments, closed_form_single
from .fim import FisherInfo, derivative_terms, fim
from .geometry import ula
from .scene import BLOCKS, Target, make_scene, target_indices
from .steering import KEYS, side_factors, steering_stack, steering_values

REL_ERR_FLOOR = 1e-30

EPS = float(np.finfo(float).eps)

# central-difference steps sized against the carrier wavelength (phase varies
# at that scale, so position steps must sit far below it)
DEFAULT_STEPS = {"x": 1e-6, "y": 1e-6, "vx": 1e-4, "vy": 1e-4,
                 "rcs_re": 1e-6, "rcs_im": 1e-6}

@dataclass(frozen=True)
class OracleReport:
    """One analytic-versus-oracle comparison with its verdict."""

    name: str
    analytic: float
    oracle: float
    rel_err: float
    steps: tuple
    tol: float
    passed: bool


def relative_difference(analytic, oracle):
    return abs(analytic - oracle) / max(abs(oracle), REL_ERR_FLOOR)


def make_report(name, analytic, oracle, tol, steps=(), rel_err=None):
    # a battery that aggregates many comparisons passes its worst deviation as
    # both analytic and rel_err, with oracle 0; a NaN rel_err fails
    err = relative_difference(analytic, oracle) if rel_err is None else rel_err
    return OracleReport(name=name, analytic=float(analytic), oracle=float(oracle),
                        rel_err=float(err), steps=tuple(steps), tol=float(tol),
                        passed=bool(err <= tol))


def _check_step(step, value):
    if step < 10.0 * EPS * max(1.0, abs(value)):
        raise ValueError(f"finite-difference step {step} underflows at value {value}")


def _shifted_copies(scene, qs, moves):
    """A scene of copies of the targets qs, one per target and (kind, offset) move.

    The copies run target by target, each target's moves in order. Scene
    validates every shifted copy as it would a target of its own.
    """
    return dataclasses.replace(scene, targets=tuple(
        Target(**{**vars(t), kind: getattr(t, kind) + d})
        for t in (scene.targets[q] for q in qs) for kind, d in moves))


def fd_steering_rows(scene, side, qs, checks, m_values):
    """Fourth-order finite differences of one side's steering vectors.

    side is "tx" or "rx", as in steering_values, qs a list of target indices
    and checks a sequence of (kind, step) pairs; a step of None means
    DEFAULT_STEPS[kind]. Returns one (len(qs), len(checks), len(m_values), N)
    array. One scene holds the four shifted copies of every listed target and
    check, evaluated in one steering_values call. The Richardson combination
    (4 D(h) - D(2h)) / 3 of the central differences D(h) and D(2h) cancels
    their h^2 truncation term, so the step can sit far above the
    carrier-phase roundoff.
    """
    checks = [(kind, DEFAULT_STEPS[kind] if step is None else step) for kind, step in checks]
    for j in qs:
        for kind, h in checks:
            _check_step(h, getattr(scene.targets[j], kind))
    shifted = _shifted_copies(scene, qs, [(kind, d) for kind, h in checks
                                          for d in (h, -h, 2.0 * h, -2.0 * h)])
    steps = np.array([h for _, h in checks])[:, None, None]  # (check, 1, 1)
    a = steering_values(shifted, side, m_values)
    # (target, check, shift, row, N): the shifts are +h, -h, +2h, -2h
    a = a.reshape(len(qs), len(checks), 4, *a.shape[1:])
    d_h = (a[:, :, 0] - a[:, :, 1]) / (2.0 * steps)
    d_2h = (a[:, :, 2] - a[:, :, 3]) / (4.0 * steps)
    return (4.0 * d_h - d_2h) / 3.0


def _target_channels(scene):
    """Yield each target's channel rcs_q a_r a_t^T for every snapshot, (M, N_r, N_t).

    The reflectivity is the right operand: numpy reuses a large temporary in
    place as the left one, and a complex product rounds by operand order.
    """
    a_t = steering_values(scene, "tx")
    a_r = steering_values(scene, "rx")
    for q, t in enumerate(scene.targets):
        yield np.einsum("mr,mt->mrt", a_r[q], a_t[q]) * t.rcs


def _channel_derivative(base, q, moved, h):
    """(A(theta + h) - A(theta - h)) / 2h for one parameter of target q.

    moved yields target q's shifted channels at theta + h, then theta - h.
    Each replaces target q's channel in base, the unshifted target channels,
    and is summed before the next one is formed, so one shifted channel is
    held at a time. The target channels are summed in target order.
    """
    plus, minus = (sum(base[:q] + [next(moved)] + base[q + 1:]) for _ in range(2))
    return (plus - minus) / (2.0 * h)


def fd_fim(scene, steps=None):
    """Isotropic Fisher information with mean derivatives from central differences.

    Only the derivative source differs from the analytic path: each channel
    derivative stack is (A(theta + h) - A(theta - h)) / 2h, and the full
    trace 2 P / sigma^2 Re tr(D_i^H D_j) summed over snapshots follows. The
    shifted copies of every target and parameter are one Scene, evaluated in
    one steering_values call per side. A shifted channel replaces the one
    target channel that moves and reuses the others.
    """
    steps = {**DEFAULT_STEPS, **(steps or {})}
    for t in scene.targets:
        for kind in BLOCKS:
            _check_step(steps[kind], getattr(t, kind))
    base = list(_target_channels(scene))
    moved = _target_channels(_shifted_copies(
        scene, range(scene.q_count), [(kind, d) for kind in BLOCKS
                                      for d in (steps[kind], -steps[kind])]))
    # one array, not a list of stacks, so glibc does not trim and re-fault the heap
    derivs = np.empty((6 * scene.q_count, scene.snapshots, scene.rx.count, scene.tx.count),
                      dtype=complex)
    n_par = len(derivs)
    for q in range(scene.q_count):
        for i, kind in zip(target_indices(q, scene.q_count), BLOCKS):
            derivs[i] = _channel_derivative(base, q, moved, steps[kind])

    f = np.zeros((n_par, n_par))
    for i in range(n_par):
        conj_i = derivs[i].conj()
        for j in range(i, n_par):
            val = (2.0 * scene.power_w / scene.noise_var_w
                   * np.einsum("mrt,mrt->", conj_i, derivs[j]).real)
            f[i, j] = val
            f[j, i] = val
    return FisherInfo(centred=f)


def brute_gain(geom, target, kind):
    """Exact element sum g = sum 1/r_n^2 behind the gain expansion; kind must be "g"."""
    if kind != "g":
        raise ValueError(f"kind must be 'g', got {kind!r}")
    r2 = (target.x - geom.positions[:, 0]) ** 2 + (target.y - geom.positions[:, 1]) ** 2
    if r2.min() <= 0.0:
        raise ValueError("target coincides with an array element")
    return float((1.0 / r2).sum())


def _channel_derivatives(scene):
    """Analytic channel derivative stacks, one (6Q, M, N_r, N_t) array in BLOCKS order.

    Each stack is the sum of c * a_r a_t^T over the rank-1 terms of
    fim.derivative_terms, materialized here instead of reduced to Gram
    products. c is the left operand: numpy reuses a large temporary in place
    as the left one, and a complex product rounds by operand order.
    """
    derivs = np.empty((6 * scene.q_count, scene.snapshots, scene.rx.count, scene.tx.count),
                      dtype=complex)
    for q in range(scene.q_count):
        tx, rx = steering_stack(scene, "tx", q), steering_stack(scene, "rx", q)
        for i, kind in zip(target_indices(q, scene.q_count), BLOCKS):
            derivs[i] = sum(np.multiply(c, np.einsum("mr,mt->mrt", rx[KEYS.index(rk)],
                                                     tx[KEYS.index(tk)]))
                            for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs))
    return derivs


def monte_carlo_isotropic(scene, draws=1000, seed=0):
    """Mean explicit-symbol FIM over random draws against the ideal FIM.

    Symbols are i.i.d. complex Gaussian with per-entry variance power_w, so
    the per-snapshot covariance is power_w * I in expectation. The FIM of one
    symbol matrix, 2 / sigma^2 Re sum_m x_m^H D_i^H D_j x_m, is linear in
    x_m x_m^H, so its mean over the draws is the trace of D_i^H D_j against
    the per-snapshot sample covariance R_m = mean_d x_dm x_dm^H. The
    tolerance is the usual 3 / sqrt(draws) Monte Carlo scale.
    """
    if draws < 1000:
        raise ValueError("draws must be at least 1000 for a meaningful average")
    rng = np.random.default_rng(seed)
    reference = fim(scene).matrix
    # per draw, the real then the imaginary parts of an (N_t, M) symbol matrix
    z = rng.standard_normal((draws, 2, scene.tx.count, scene.snapshots))
    x = math.sqrt(scene.power_w / 2.0) * (z[:, 0] + 1j * z[:, 1])
    cov = np.einsum("dtm,dsm->mts", x, x.conj()) / draws
    d = _channel_derivatives(scene)
    mean = (2.0 / scene.noise_var_w
            * np.einsum("imrt,jmrs,mst->ij", d.conj(), d, cov).real)
    err = (np.linalg.norm(mean - reference, "fro")
           / max(np.linalg.norm(reference, "fro"), REL_ERR_FLOOR))
    return make_report("monte-carlo-isotropic", np.linalg.norm(reference, "fro"),
                       np.linalg.norm(mean, "fro"), 3.0 / math.sqrt(draws),
                       steps=(draws, seed), rel_err=err)


def _verify_steering(seed, battery):
    # scene i is drawn from its own generator; scenes of one (N, M) shape share
    # their arrays and rows, so each shape group is one scene of its targets
    groups = {}
    for i in range(battery):
        rng = np.random.default_rng(100003 * (seed + 1) + i)
        n = int(rng.choice([4, 32]))
        m_total = int(rng.choice([4, 16]))
        r = float(rng.uniform(10.0, 500.0))
        th = math.radians(float(rng.uniform(-60.0, 60.0)))
        vx, vy = (float(v) for v in rng.uniform(-20.0, 20.0, 2))
        target = Target(x=r * math.sin(th), y=r * math.cos(th), vx=vx, vy=vy,
                        rcs_re=float(rng.normal()), rcs_im=float(rng.normal()))
        groups.setdefault((n, m_total), []).append((i, target))
    reports = [None] * battery
    for (n, m_total), members in groups.items():
        geom = ula(n, 0.01)  # one array object serves both sides
        scene = make_scene(targets=[t for _, t in members], tx=geom, rx=geom,
                           snapshots=m_total)
        rows = [1, m_total]
        # near broadside the x and vx derivatives are small against |a|, so
        # the steps must sit well above the carrier-phase roundoff. A velocity
        # step advances the phase of row m by up to k*m*T*step = 0.05 rad,
        # where the fourth-order difference truncates at 0.05^4/30 = 2e-7;
        # each row needs its own, while one location step serves both rows.
        k = 2.0 * math.pi * scene.carrier_hz / scene.lightspeed
        v_steps = [0.05 / (k * m * scene.t_sym_s) for m in rows]
        checks = [(kind, 1e-4) for kind in ("x", "y")]
        checks += [(kind, step) for kind in ("vx", "vy") for step in v_steps]
        # every check differentiates both rows; x and y are compared on both,
        # each velocity check on the row its step is sized for
        picked = np.array([[True, True]] * 2 + [[True, False], [False, True]] * 2)
        qs = list(range(len(members)))
        # one array serves both sides, so the Tx rows stand for both
        ref = fd_steering_rows(scene, "tx", qs, checks, rows)  # (target, check, row, N)
        stack = steering_stack(scene, "tx", qs, m_values=rows)
        ana = np.stack([stack[KEYS.index("d_" + kind)] for kind, _ in checks], axis=1)
        errs = (np.linalg.norm(ana - ref, axis=-1) / np.linalg.norm(ref, axis=-1))[:, picked]
        worst = np.max(errs, axis=1)  # per target
        for (i, _), w in zip(members, worst.tolist()):
            reports[i] = make_report(f"steering-fd-{i:02d}", w, 0.0, 1e-5,
                                     steps=(1e-4, *v_steps), rel_err=w)
    return reports


def _canonical_scene():
    return make_scene(tx=ula(32, 0.01), rx=ula(32, 0.01), snapshots=16)


def _two_target_scene():
    t0 = Target(x=100 * math.sin(math.radians(20)), y=100 * math.cos(math.radians(20)),
                vx=1.0, vy=4.0, rcs_re=1.0, rcs_im=0.1)
    t1 = Target(x=150 * math.sin(math.radians(-45)), y=150 * math.cos(math.radians(-45)),
                vx=4.0, vy=3.0, rcs_re=0.8, rcs_im=-0.2)
    return make_scene(targets=[t0, t1], tx=ula(8, 0.01), rx=ula(8, 0.01), snapshots=8)


def _verify_fim(canonical, info):
    # info is fim(canonical), which _verify_consistency reads as well
    reports = []
    two = _two_target_scene()
    for name, scene, analytic in (("fim-fd-q1", canonical, info.matrix),
                                  ("fim-fd-q2", two, fim(two).matrix)):
        reference = fd_fim(scene).matrix
        err = np.linalg.norm(analytic - reference, "fro") / np.linalg.norm(reference, "fro")
        reports.append(make_report(name, err, 0.0, 1e-5, rel_err=err))
    return reports


def _verify_consistency(scene, info):
    reports = []
    f = info.matrix

    sym = np.linalg.norm(f - f.T, "fro") / np.linalg.norm(f, "fro")
    reports.append(make_report("fim-symmetry", sym, 0.0, 1e-10, rel_err=sym))
    w = np.linalg.eigvalsh(f)
    negativity = max(0.0, float(-(w.min()) / np.linalg.norm(f, 2)))
    reports.append(make_report("fim-psd", negativity, 0.0, 1e-8, rel_err=negativity))

    # the closed form against the full-trace diagonal of materialized derivative
    # stacks; np.max, not Python's max, so a NaN bound reaches make_report
    stacks = _channel_derivatives(scene).reshape(len(BLOCKS), -1).view(float)
    trace = 2.0 * scene.power_w / scene.noise_var_w * np.einsum("ij,ij->i", stacks, stacks)
    closed = closed_form_single(scene, 0).targets[0]
    worst = np.max([abs(b * d - 1.0) for b, d in zip(dataclasses.astuple(closed), trace)])
    reports.append(make_report("closed-form-diagonal", worst, 0.0, 1e-10, rel_err=worst))

    # the per-side gain G of the closed form against the brute-force element sum
    t = scene.targets[0]
    g_side = _element_moments(side_factors(scene, "tx", [0]), 0.0)[0][0]
    g_ref = (scene.wavelength_m ** 2 / (16 * math.pi ** 2)) * brute_gain(scene.tx, t, "g")
    reports.append(make_report("gain-identity", g_side, g_ref, 1e-12))

    double = dataclasses.replace(scene, power_w=2 * scene.power_w)
    ratio = closed_form_single(double, 0).targets[0].crb_alpha / closed.crb_alpha
    reports.append(make_report("power-scaling", ratio, 0.5, 1e-12))
    return reports


def _verify_expansions():
    reports = []
    lam = 0.02
    geom = ula(256, lam / 2)
    grid = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]
    th = math.radians(20.0)
    residual = []
    for r in grid:
        t = Target(x=r * math.sin(th), y=r * math.cos(th))
        exact = brute_gain(geom, t, "g")
        nf = gain(geom, t, "nf")
        residual.append(abs(nf - exact) / exact)
    slope = np.polyfit(np.log(grid), np.log(residual), 1)[0]
    reports.append(make_report("gain-expansion-order", float(slope), -4.0, 0.075))

    scene = make_scene()
    _, fraunhofer = scene.tx.region_boundaries(scene.wavelength_m)
    deviations = []
    for deg in (-60, -40, -20, 20, 40, 60):
        th = math.radians(deg)
        r = 10.0 * fraunhofer
        t = Target(x=r * math.sin(th), y=r * math.cos(th), vx=1.0, vy=4.0,
                   rcs_re=1.0, rcs_im=0.1)
        c = correction_terms(dataclasses.replace(scene, targets=[t]), 0)
        deviations += [abs(c.psi_x - 1.0), abs(c.psi_y - 1.0)]
    worst = np.max(deviations)
    reports.append(make_report("psi-limit", worst, 0.0, 1e-3, rel_err=worst))
    return reports


def run_battery(seed, battery):
    """Every check of `nfcrb verify`, in report order; battery randomized steering scenes."""
    reports = _verify_steering(seed, battery)
    canonical = _canonical_scene()
    info = fim(canonical)
    reports += _verify_fim(canonical, info)
    reports += _verify_consistency(canonical, info)
    reports += _verify_expansions()
    small = make_scene(targets=None, tx=ula(4, 0.01), rx=ula(4, 0.01), snapshots=8)
    reports.append(monte_carlo_isotropic(small, draws=1000, seed=seed))
    return reports
