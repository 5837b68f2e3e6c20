"""Independent numeric ground truth for the analytic machinery.

Everything here recomputes quantities the other modules obtain analytically,
by a deliberately different route: central finite differences for
derivatives, brute-force element sums for gains, and the sample covariance
of random symbols for the isotropic-transmission idealization, contracted
against full channel-derivative stacks instead of the Gram products `fim`
uses. The finite differences read steering values alone
(`steering.steering_values`), never the analytic derivative factors: the
shifted copies of every listed target, for every check of a call, go into
one validated Scene, evaluated in one broadcast call per array side. Intended
for desk scale scenes; the finite-difference and Monte Carlo paths
materialize (M, N_r, N_t) stacks.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fim import FisherInfo, derivative_terms, fim
from .scene import BLOCKS
from .steering import steering_stack, steering_values

REL_ERR_FLOOR = 1e-30

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


def relative_difference(analytic, oracle, floor=REL_ERR_FLOOR):
    return abs(analytic - oracle) / max(abs(oracle), floor)


def make_report(name, analytic, oracle, tol, steps=()):
    err = relative_difference(analytic, oracle)
    return OracleReport(name=name, analytic=float(analytic), oracle=float(oracle),
                        rel_err=float(err), steps=tuple(steps), tol=float(tol),
                        passed=bool(err <= tol))


def _check_step(step, value):
    if step < 10.0 * np.finfo(float).eps * max(1.0, abs(value)):
        raise ValueError(f"finite-difference step {step} underflows at value {value}")


def _shifted_copies(scene, qs, moves):
    """A scene of copies of the targets qs, one per target and (kind, offset) move.

    The copies run target by target, each target's moves in order. Scene
    validates every shifted copy as it would a target of its own.
    """
    return dataclasses.replace(scene, targets=tuple(
        dataclasses.replace(t, **{kind: getattr(t, kind) + d})
        for t in (scene.targets[q] for q in qs) for kind, d in moves))


def fd_steering_rows(scene, q, checks, m_values):
    """Fourth-order finite differences of both sides' steering vectors.

    checks is a sequence of (kind, step) pairs; a step of None means
    DEFAULT_STEPS[kind]. For one target index q, returns one
    {'tx': (len(m_values), N_t), 'rx': (len(m_values), N_r)} dict per check.
    q may also be a list or tuple of target indices: the return is then one
    {'tx', 'rx'} dict of (len(q), len(checks), len(m_values), N) arrays whose
    slice [j, c] equals the int-q call's check c of target q[j] bit for bit.
    Either way one scene holds the four shifted copies of every listed target
    and check, evaluated in one steering_values call per side. The Richardson
    combination (4 D(h) - D(2h)) / 3 of the central differences D(h) and
    D(2h) cancels their h^2 truncation term, so the step can sit far above
    the carrier-phase roundoff.
    """
    many = isinstance(q, (list, tuple))
    qs = list(q) if many else [q]
    checks = [(kind, DEFAULT_STEPS[kind] if step is None else step) for kind, step in checks]
    for j in qs:
        for kind, h in checks:
            _check_step(h, getattr(scene.targets[j], kind))
    shifted = _shifted_copies(scene, qs, [(kind, d) for kind, h in checks
                                          for d in (h, -h, 2.0 * h, -2.0 * h)])
    steps = np.array([h for _, h in checks])[:, None, None]  # (check, 1, 1)
    rows = {}
    for side in ("tx", "rx"):
        a = steering_values(shifted, side, m_values)
        # (target, check, shift, row, N): the shifts are +h, -h, +2h, -2h
        a = a.reshape(len(qs), len(checks), 4, *a.shape[1:])
        d_h = (a[:, :, 0] - a[:, :, 1]) / (2.0 * steps)
        d_2h = (a[:, :, 2] - a[:, :, 3]) / (4.0 * steps)
        rows[side] = (4.0 * d_h - d_2h) / 3.0
    if many:
        return rows
    return [{side: v[0, c] for side, v in rows.items()} for c in range(len(checks))]


def _target_channels(scene):
    """Yield each target's channel rcs_q a_r a_t^T for every snapshot, (M, N_r, N_t)."""
    a_t = steering_values(scene, "tx")
    a_r = steering_values(scene, "rx")
    for q, t in enumerate(scene.targets):
        yield t.rcs * np.einsum("mr,mt->mrt", a_r[q], a_t[q])


def _channel_stack(channels):
    """Full multi-target channel, the target channels summed in target order."""
    out = np.zeros_like(channels[0])
    for channel in channels:
        out += channel
    return out


def _channel_derivative(scene, base, q, kind, h):
    """(A(theta + h) - A(theta - h)) / 2h for one parameter of target q.

    Each shifted channel replaces target q's channel in base, the unshifted
    target channels, and is summed before the next one is formed, so one
    shifted channel is held at a time.
    """
    shifted = _shifted_copies(scene, [q], ((kind, h), (kind, -h)))
    plus, minus = (_channel_stack(base[:q] + [moved] + base[q + 1:])
                   for moved in _target_channels(shifted))
    return (plus - minus) / (2.0 * h)


def fd_fim(scene, steps=None):
    """Isotropic Fisher information with mean derivatives from central differences.

    Only the derivative source differs from the analytic path: each channel
    derivative stack is (A(theta + h) - A(theta - h)) / 2h, and the full
    trace 2 P / sigma^2 Re tr(D_i^H D_j) summed over snapshots follows. A
    shifted channel replaces the one target channel that moves and reuses
    the others.
    """
    steps = {**DEFAULT_STEPS, **(steps or {})}
    n_par = 6 * scene.q_count
    base = list(_target_channels(scene))
    derivs = []
    for kind in BLOCKS:
        for q in range(scene.q_count):
            h = steps[kind]
            _check_step(h, getattr(scene.targets[q], kind))
            derivs.append(_channel_derivative(scene, base, q, kind, h))

    f = np.zeros((n_par, n_par))
    for i in range(n_par):
        conj_i = derivs[i].conj()
        for j in range(i, n_par):
            val = (2.0 * scene.power_w / scene.noise_var_w
                   * np.einsum("mrt,mrt->", conj_i, derivs[j]).real)
            f[i, j] = val
            f[j, i] = val
    return FisherInfo(matrix=f)


def brute_gain(geom, target, kind):
    """Exact element sum g = sum 1/r_n^2 behind the gain expansion; kind must be "g"."""
    if kind != "g":
        raise ValueError(f"kind must be 'g', got {kind!r}")
    r2 = (target.x - geom.positions[:, 0]) ** 2 + (target.y - geom.positions[:, 1]) ** 2
    if r2.min() <= 0.0:
        raise ValueError("target coincides with an array element")
    return float((1.0 / r2).sum())


def _channel_derivatives(scene):
    """Analytic channel derivative stacks, (6Q, M, N_r, N_t), in BLOCKS order.

    Each stack is the sum of c * a_r a_t^T over the rank-1 terms of
    fim.derivative_terms, materialized here instead of reduced to Gram
    products.
    """
    stacks = {(side, q): steering_stack(scene, side, q)
              for q in range(scene.q_count) for side in ("tx", "rx")}
    derivs = []
    for kind in BLOCKS:
        for q in range(scene.q_count):
            tx, rx = stacks["tx", q], stacks["rx", q]
            derivs.append(sum(c * np.einsum("mr,mt->mrt", getattr(rx, rk), getattr(tx, tk))
                              for c, rk, tk in derivative_terms(kind, scene.targets[q].rcs)))
    return np.stack(derivs)


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
    tol = 3.0 / math.sqrt(draws)
    return OracleReport(name="monte-carlo-isotropic", analytic=float(np.linalg.norm(reference, "fro")),
                        oracle=float(np.linalg.norm(mean, "fro")), rel_err=float(err),
                        steps=(draws, seed), tol=tol, passed=bool(err <= tol))
