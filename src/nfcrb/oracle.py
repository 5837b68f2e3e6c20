"""Independent numeric ground truth for the analytic machinery.

Everything here recomputes quantities the other modules obtain analytically,
by a deliberately different route: central finite differences for
derivatives, brute-force element sums for gains, and the sample covariance
of random symbols for the isotropic-transmission idealization, contracted
against full channel-derivative stacks instead of the Gram products `fim`
uses. Intended for desk scale scenes; the finite-difference and Monte Carlo
paths materialize (M, N_r, N_t) stacks.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fim import FisherInfo, fim
from .scene import BLOCKS
from .steering import steering_stack

REL_ERR_FLOOR = 1e-30

# central-difference steps sized against the carrier wavelength (phase varies
# at that scale, so position steps must sit far below it)
DEFAULT_STEPS = {"x": 1e-6, "y": 1e-6, "vx": 1e-4, "vy": 1e-4,
                 "rcs_re": 1e-6, "rcs_im": 1e-6}

BRUTE_KINDS = ("g", "gdot_x", "gdot_y", "cross_x", "cross_y")


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


def _perturbed(scene, q, kind, delta):
    target = scene.targets[q]
    shifted = dataclasses.replace(target, **{kind: getattr(target, kind) + delta})
    targets = list(scene.targets)
    targets[q] = shifted
    return dataclasses.replace(scene, targets=tuple(targets))


def fd_steering_rows(scene, q, kind, m_values, steps=None):
    """Fourth-order finite differences of both sides' steering vectors.

    Returns {'tx': (len(m_values), N_t), 'rx': (len(m_values), N_r)}, all
    from one set of perturbed scenes. The Richardson combination
    (4 D(h) - D(2h)) / 3 of the central differences D(h) and D(2h) cancels
    their h^2 truncation term, so the step can sit far above the
    carrier-phase roundoff.
    """
    steps = {**DEFAULT_STEPS, **(steps or {})}
    h = steps[kind]
    _check_step(h, getattr(scene.targets[q], kind))
    shifted = {d: _perturbed(scene, q, kind, d) for d in (h, -h, 2.0 * h, -2.0 * h)}
    out = {}
    for side in ("tx", "rx"):
        a = {d: steering_stack(s, side, q, m_values=m_values).a for d, s in shifted.items()}
        d_h = (a[h] - a[-h]) / (2.0 * h)
        d_2h = (a[2.0 * h] - a[-2.0 * h]) / (4.0 * h)
        out[side] = (4.0 * d_h - d_2h) / 3.0
    return out


def _channel_stack(scene):
    """Full multi-target channel for every snapshot, (M, N_r, N_t)."""
    out = np.zeros((scene.snapshots, scene.rx.count, scene.tx.count), dtype=complex)
    for q in range(scene.q_count):
        a_t = steering_stack(scene, "tx", q).a
        a_r = steering_stack(scene, "rx", q).a
        out += scene.targets[q].rcs * np.einsum("mr,mt->mrt", a_r, a_t)
    return out


def fd_fim(scene, steps=None):
    """Isotropic Fisher information with mean derivatives from central differences.

    Only the derivative source differs from the analytic path: each channel
    derivative stack is (A(theta + h) - A(theta - h)) / 2h, and the full
    trace 2 P / sigma^2 Re tr(D_i^H D_j) summed over snapshots follows.
    """
    steps = {**DEFAULT_STEPS, **(steps or {})}
    n_par = 6 * scene.q_count
    derivs = []
    for kind in BLOCKS:
        for q in range(scene.q_count):
            h = steps[kind]
            _check_step(h, getattr(scene.targets[q], kind))
            plus = _channel_stack(_perturbed(scene, q, kind, +h))
            minus = _channel_stack(_perturbed(scene, q, kind, -h))
            derivs.append((plus - minus) / (2.0 * h))

    f = np.zeros((n_par, n_par))
    for i in range(n_par):
        for j in range(i, n_par):
            val = (2.0 * scene.power_w / scene.noise_var_w
                   * np.einsum("mrt,mrt->", derivs[i].conj(), derivs[j]).real)
            f[i, j] = val
            f[j, i] = val
    return FisherInfo(matrix=f)


def brute_gain(geom, target, kind):
    """Exact element sums behind the gain expansions.

    g:       sum 1/r^2          gdot_x:  sum (x_q - x_n)^2 / r^4
    cross_x: sum (x_q - x_n) / r^3       (y kinds likewise)
    """
    if kind not in BRUTE_KINDS:
        raise ValueError(f"kind must be one of {BRUTE_KINDS}, got {kind!r}")
    dx = target.x - geom.positions[:, 0]
    dy = target.y - geom.positions[:, 1]
    r2 = dx ** 2 + dy ** 2
    if r2.min() <= 0.0:
        raise ValueError("target coincides with an array element")
    if kind == "g":
        return float((1.0 / r2).sum())
    if kind == "gdot_x":
        return float((dx ** 2 / r2 ** 2).sum())
    if kind == "gdot_y":
        return float((dy ** 2 / r2 ** 2).sum())
    r3 = r2 ** 1.5
    off = dx if kind == "cross_x" else dy
    return float((off / r3).sum())


def _channel_derivatives(scene):
    """Analytic channel derivative stacks, (6Q, M, N_r, N_t), in BLOCKS order.

    The channel of target q is rcs_q a_r a_t^T, so the product rule gives
    rcs_q (d a_r a_t^T + a_r d a_t^T) for a kinematic parameter and a_r a_t^T
    (times j for rcs_im) for the reflectivity.
    """
    def outer(r, t):
        return np.einsum("mr,mt->mrt", r, t)

    stacks = {(side, q): steering_stack(scene, side, q)
              for q in range(scene.q_count) for side in ("tx", "rx")}
    derivs = []
    for kind in BLOCKS:
        for q in range(scene.q_count):
            tx, rx = stacks["tx", q], stacks["rx", q]
            if kind == "rcs_re":
                derivs.append(outer(rx.a, tx.a))
            elif kind == "rcs_im":
                derivs.append(1j * outer(rx.a, tx.a))
            else:
                derivs.append(scene.targets[q].rcs
                              * (outer(rx.derivative(kind), tx.a)
                                 + outer(rx.a, tx.derivative(kind))))
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
