"""Independent numeric ground truth for the analytic machinery, and its battery.

Everything here recomputes quantities the other modules obtain analytically,
by a deliberately different route: central finite differences for
derivatives, brute-force element sums for gains, and the sample covariance
of random symbols for the isotropic-transmission idealization, contracted
against full channel-derivative stacks instead of the Gram products `fim`
uses. The finite differences read steering values alone
(`steering.steering_values`), never the analytic derivative factors: the
shifted states of every listed target, for every check of a call, are the
rows of one (K, 6) array in BLOCKS order, moved copies of `Scene.states`
rows, evaluated in one broadcast call per array side. No shifted Target or
Scene is built; each state passes Scene's own per-target rules
(`scene.check_states`) on each distinct array object. Each snapshot's outer
product a_r a_t^T is one batched matrix product (`_outer`).
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
import random
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .approx import correction_terms, gain
from .crb import _element_moments, closed_form_single
from .fim import FisherInfo, derivative_terms, fim
from .geometry import ula
from .scene import BLOCKS, Target, check_states, make_scene, target_indices
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


def _moved_states(scene, qs, moves):
    """The (K, 6) states, in BLOCKS order, of the targets qs under each (kind, offset) move.

    The rows run target by target, each target's moves in order; a row is
    the target's fields with offset added to field kind. Every row must pass
    Scene's per-target rules on both arrays, as a target of its own would.
    """
    rows = scene.states[list(qs)]
    states = np.repeat(rows, len(moves), axis=0)
    by_move = states.reshape(len(rows), len(moves), len(BLOCKS))  # a view of states
    fields = [BLOCKS.index(kind) for kind, _ in moves]
    with np.errstate(over="ignore"):  # a field moved past the float range fails check_states
        by_move[:, np.arange(len(moves)), fields] += [d for _, d in moves]
    check_states(states, (scene.tx, scene.rx))
    return states


def _divide(x, h):
    """x / h for complex x and real h, through x's real view.

    numpy divides a complex by a real as a product with its reciprocal, so
    every entry is equal, the sign of an exact zero aside; h is a scalar or
    an array that broadcasts against x's real view.
    """
    return (x.view(float) * (1.0 / h)).view(complex)


def fd_steering_rows(scene, side, qs, checks, m_values):
    """Fourth-order finite differences of one side's steering vectors.

    side is "tx" or "rx", as in steering_values, qs a list of target indices
    and checks a sequence of (kind, step) pairs; a step of None means
    DEFAULT_STEPS[kind]. Returns one (len(qs), len(checks), len(m_values), N)
    array. One (K, 6) state array holds the four shifted states of every
    listed target and check, evaluated in one steering_values call. The
    Richardson combination (4 D(h) - D(2h)) / 3 of the central differences
    D(h) and D(2h) cancels their h^2 truncation term, so the step can sit
    far above the carrier-phase roundoff.
    """
    checks = [(kind, DEFAULT_STEPS[kind] if step is None else step) for kind, step in checks]
    for j in qs:
        for kind, h in checks:
            _check_step(h, getattr(scene.targets[j], kind))
    states = _moved_states(scene, qs, [(kind, d) for kind, h in checks
                                       for d in (h, -h, 2.0 * h, -2.0 * h)])
    steps = np.array([h for _, h in checks])[:, None, None]  # (check, 1, 1)
    a = steering_values(scene, side, m_values, states=states)
    # (target, check, shift, row, N): the shifts are +h, -h, +2h, -2h
    a = a.reshape(len(qs), len(checks), 4, *a.shape[1:])
    d_h = _divide(a[:, :, 0] - a[:, :, 1], 2.0 * steps)
    d_2h = _divide(a[:, :, 2] - a[:, :, 3], 4.0 * steps)
    return (4.0 * d_h - d_2h) / 3.0


def _outer(a_r, a_t):
    """Each snapshot's outer product a_r a_t^T of (M, N_r) and (M, N_t) rows, (M, N_r, N_t).

    One batched BLAS product of (M, N_r, 1) by (M, 1, N_t), faster than
    einsum("mr,mt->mrt"): a sum of one term, so each entry is the einsum's
    product a_r[m, r] a_t[m, t].
    """
    return np.matmul(a_r[:, :, None], a_t[:, None, :])


def _target_channels(scene, states=None):
    """Yield each target's channel rcs_q a_r a_t^T for every snapshot, (M, N_r, N_t).

    states is a (K, 6) state array in BLOCKS order, scene.states unless
    given; each channel reads its rcs from its own row.
    The reflectivity is the right operand: numpy reuses a large temporary in
    place as the left one, and a complex product rounds by operand order.
    """
    states = scene.states if states is None else states
    a_t = steering_values(scene, "tx", states=states)
    a_r = steering_values(scene, "rx", states=states)
    for a_r_k, a_t_k, (re, im) in zip(a_r, a_t, states[:, 4:].tolist()):
        yield _outer(a_r_k, a_t_k) * complex(re, im)


# a function, not inlined in _fd_channel_derivatives: its return frees plus and
# minus before the next shifted channel is formed, where the loop's would
# outlive the iteration
def _channel_derivative(base, q, moved, h):
    """(A(theta + h) - A(theta - h)) / 2h for one parameter of target q.

    moved yields target q's shifted channels at theta + h, then theta - h.
    Each replaces target q's channel in base, the unshifted target channels
    (None for a one-target scene, which sums none), and is summed before the
    next one is formed, so one shifted channel is held at a time. The target
    channels are summed in target order from the first, not from 0, which
    would copy it.
    """
    plus, minus = (reduce(add, base[:q] + [next(moved)] + base[q + 1:]) for _ in range(2))
    return _divide(plus - minus, 2.0 * h)


def _fd_channel_derivatives(scene, steps=None):
    """Central-difference channel derivative stacks, one (6Q, M, N_r, N_t) array in BLOCKS order.

    Each stack is (A(theta + h) - A(theta - h)) / 2h. The shifted states of
    every target and parameter are one (12 Q, 6) array, evaluated in one
    steering_values call per side. A shifted channel replaces the one target
    channel that moves and reuses the others: the unshifted channels are
    formed only when there are others, so a one-target scene makes two
    steering_values calls, one per side.
    """
    steps = {**DEFAULT_STEPS, **(steps or {})}
    for t in scene.targets:
        for kind in BLOCKS:
            _check_step(steps[kind], getattr(t, kind))
    states = _moved_states(scene, range(scene.q_count),
                           [(kind, d) for kind in BLOCKS for d in (steps[kind], -steps[kind])])
    base = list(_target_channels(scene)) if scene.q_count > 1 else [None]
    moved = _target_channels(scene, states)
    # one array, not a list of stacks, so glibc does not trim and re-fault the heap
    derivs = np.empty((6 * scene.q_count, scene.snapshots, scene.rx.count, scene.tx.count),
                      dtype=complex)
    for q in range(scene.q_count):
        for i, kind in zip(target_indices(q, scene.q_count), BLOCKS):
            derivs[i] = _channel_derivative(base, q, moved, steps[kind])
    return derivs


def fd_fim(scene, steps=None):
    """Isotropic Fisher information with mean derivatives from central differences.

    Only the derivative source differs from the analytic path: the channel
    derivative stacks D are _fd_channel_derivatives, and the full trace
    2 P / sigma^2 Re tr(D_i^H D_j) summed over snapshots follows. Re
    tr(D_i^H D_j) is the dot product of the float views of D_i and D_j, so
    the matrix is the real Gram V V^T of the stacks' float view V, which
    numpy forms as one BLAS syrk: no conjugate copy, and exactly symmetric.
    """
    derivs = _fd_channel_derivatives(scene, steps)
    v = derivs.reshape(len(derivs), -1).view(float)
    return FisherInfo(centred=2.0 * scene.power_w / scene.noise_var_w * (v @ v.T))


def brute_gain(geom, target):
    """Exact element sum g = sum 1/r_n^2 behind the gain expansion."""
    r2 = (target.x - geom.positions[:, 0]) ** 2 + (target.y - geom.positions[:, 1]) ** 2
    if r2.min() <= 0.0:
        raise ValueError("target coincides with an array element")
    return float((1.0 / r2).sum())


def _channel_derivatives(scene):
    """Analytic channel derivative stacks, one (6Q, M, N_r, N_t) array in BLOCKS order.

    Each stack is the sum of c * a_r a_t^T over the rank-1 terms of
    fim.derivative_terms, materialized here instead of reduced to Gram
    products, and added from the first term, not from 0, which would copy
    it. c is the left operand: numpy reuses a large temporary in place as
    the left one, and a complex product rounds by operand order.
    """
    derivs = np.empty((6 * scene.q_count, scene.snapshots, scene.rx.count, scene.tx.count),
                      dtype=complex)
    for q in range(scene.q_count):
        tx, rx = steering_stack(scene, "tx", q), steering_stack(scene, "rx", q)
        for i, kind in zip(target_indices(q, scene.q_count), BLOCKS):
            derivs[i] = reduce(add, (np.multiply(c, _outer(rx[KEYS.index(rk)],
                                                           tx[KEYS.index(tk)]))
                                     for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs)))
    return derivs


def _generator(seed):
    """Python's Mersenne Twister, seeded by a non-negative integer.

    verify draws from Python's random, which numpy imports anyway, so it never
    loads numpy.random. A negative seed is an error: Random would seed -s as s.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


def _isotropic_symbols(power, shape, seed):
    """i.i.d. CN(0, power) symbols of shape (draws, N_t, M), by Box-Muller.

    Each draw takes 32-bit words k from one seeded generator, those of its
    magnitudes and then those of its phases, as u = (k + 1/2) 2^-32 in
    (0, 1): |x|^2 = -power ln u_1 is exponential with mean power, and the
    phase 2 pi u_2 is uniform. e^(2 pi j u_2) is the product of four 256-entry
    tables T_i[b_i] = e^(2 pi j b_i 2^(8i - 32)) over k's little-endian bytes
    b_i, 1/2 in T_0: the same words, within about 1e-15 of the direct exp.
    """
    words = (shape[0], 2, *shape[1:])
    raw = _generator(seed).randbytes(4 * math.prod(words))
    u = np.frombuffer(raw, dtype="<u4").reshape(words)[:, 0] + 0.5
    np.log(np.multiply(u, 2.0 ** -32, out=u), out=u)
    x = np.sqrt(np.multiply(u, -power, out=u), out=u).astype(complex)
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(*words, 4)[:, 1]
    for i in range(4):
        table = np.exp(2j * math.pi * 2.0 ** (8 * i - 32) * (np.arange(256) + (i == 0) / 2))
        x *= table.take(octets[..., i])
    return x


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
    reference = fim(scene).matrix
    x = _isotropic_symbols(scene.power_w, (draws, scene.tx.count, scene.snapshots), seed)
    per_snapshot = x.transpose(2, 1, 0)  # (M, N_t, draws)
    cov = np.matmul(per_snapshot, per_snapshot.conj().swapaxes(1, 2)) / draws
    d = _channel_derivatives(scene)
    # Re tr(D_i^H D_j R_m) summed over m is the dot product of the float
    # views of D_i and of D_j R_m, one matmul per snapshot
    d_view, e_view = (x.reshape(len(d), -1).view(float) for x in (d, np.matmul(d, cov)))
    mean = 2.0 / scene.noise_var_w * (d_view @ e_view.T)
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
        rng = _generator(100003 * (seed + 1) + i)
        n = rng.choice((4, 32))
        m_total = rng.choice((4, 16))
        r = rng.uniform(10.0, 500.0)
        th = math.radians(rng.uniform(-60.0, 60.0))
        vx, vy = rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)
        target = Target.at(r, th, vx=vx, vy=vy, rcs_re=rng.gauss(0.0, 1.0),
                           rcs_im=rng.gauss(0.0, 1.0))
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
    t0 = Target.at(100, math.radians(20), vx=1.0, vy=4.0, rcs_re=1.0, rcs_im=0.1)
    t1 = Target.at(150, math.radians(-45), vx=4.0, vy=3.0, rcs_re=0.8, rcs_im=-0.2)
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
    # congruence makes f exactly symmetric, so its largest |eigenvalue| is
    # its spectral norm
    negativity = max(0.0, float(-(w.min()) / np.abs(w).max()))
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
    g_ref = (scene.wavelength_m ** 2 / (16 * math.pi ** 2)) * brute_gain(scene.tx, t)
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
    residual = []
    for r in grid:
        t = Target.at(r, math.radians(20.0))
        exact = brute_gain(geom, t)
        nf = gain(geom, t, "nf")
        residual.append(abs(nf - exact) / exact)
    slope = np.polyfit(np.log(grid), np.log(residual), 1)[0]
    reports.append(make_report("gain-expansion-order", float(slope), -4.0, 0.075))

    # six far targets on one scene; make_scene's default arrays are geom
    _, fraunhofer = geom.region_boundaries(lam)
    far = make_scene(targets=[Target.at(10.0 * fraunhofer, math.radians(deg), vx=1.0, vy=4.0,
                                        rcs_re=1.0, rcs_im=0.1)
                              for deg in (-60, -40, -20, 20, 40, 60)])
    deviations = []
    for q in range(far.q_count):
        c = correction_terms(far, q)
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
