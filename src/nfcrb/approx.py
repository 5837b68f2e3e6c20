"""Far-field and near-field closed-form bound approximations for one target.

Both variants are one expansion of the per-element ranges about each array
centroid in eps = (N^2 - 1) d^2 / (12 r^2), the second aperture moment over
range squared, written once in _side_terms: the near-field forms keep the
eps terms, the far-field forms are the zeroth order eps = 0. All angle and
range inputs are taken per side, so bistatic layouts with offset centroids
flow through the same expressions.

Divergent denominators (broadside angle factors, zero reflectivity) and
bounds past the float range return float('inf'); a correction factor driven
negative means the target is far too close to the array for the expansion,
which raises instead of returning a negative variance.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

from .scene import polar_of

VARIANTS = ("exact", "ff", "nf")

# below this magnitude an angle-factor denominator counts as fully degenerate
DENOM_FLOOR = 1e-12


class ApproximationDomainError(ValueError):
    """The aperture-over-range expansion is invalid this close to the array."""


class NotUlaError(ValueError):
    """A closed-form approximation was asked of an array that is not a ULA."""


@dataclass(frozen=True)
class CorrectionTerms:
    """Every second-order correction factor entering the closed forms."""

    delta_tx: float
    delta_rx: float
    a_tx: float
    a_rx: float
    b_tx_x: float
    b_rx_x: float
    b_tx_y: float
    b_rx_y: float
    delta_nf_x_tx: float
    delta_nf_x_rx: float
    delta_nf_y_tx: float
    delta_nf_y_rx: float
    phi_x: float
    phi_y: float
    psi_x: float
    psi_y: float
    c_m: float


def _require_ula(geom):
    if geom.spacing is None or geom.centroid_x is None:
        raise NotUlaError("closed-form approximations need a uniform linear array")


def _check_variant(variant, exact_hint):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "exact":
        raise ValueError(exact_hint)


def _positive(a):
    """The gain factor a = 1 + delta, which the expansion needs positive."""
    if a <= 0.0:
        raise ApproximationDomainError(
            "second-order gain correction is non-positive; the target is "
            "inside the expansion's validity range")
    return a


def slow_time_sum(snapshots):
    """Sum of m^2 over the CPI: M(M+1)(2M+1)/6."""
    m = int(snapshots)
    return m * (m + 1) * (2 * m + 1) // 6


# one side's expansion factors, in CorrectionTerms' order from delta on
_Side = namedtuple("_Side", "r sin cos delta a b_x b_y d_nf_x d_nf_y")


def _side_terms(geom, target, variant):
    """One side's expansion factors, to first order in eps for nf, zeroth for ff.

    At eps = 0, delta = 0, a = 1, b_x = sin^2, b_y = cos^2 and the delta_nf
    terms vanish.
    """
    _require_ula(geom)
    r, theta = polar_of(target, geom)
    s, c = math.sin(theta), math.cos(theta)
    s2 = s ** 2
    c2 = c ** 2
    try:
        eps = 0.0 if variant == "ff" else ((geom.count ** 2 - 1) * geom.spacing ** 2
                                           / (12.0 * r ** 2))
    except OverflowError:  # d^2 or r^2 beyond the float range: their ratio first
        eps = (geom.count ** 2 - 1) * (geom.spacing / r) ** 2 / 12.0
    delta = eps * (4.0 * s2 - 1.0)
    b_x = s2 + eps * (12.0 * s2 ** 2 - 10.0 * s2 + 1.0)
    b_y = c2 + eps * c2 * (12.0 * s2 - 2.0)
    # the 1/8 r^2 terms share the same aperture moment, hence 12/8 = 3/2
    d_nf_x = 1.5 * eps * (-3.0 + 5.0 * s2)
    d_nf_y = 1.5 * eps * (-1.0 + 5.0 * s2)
    return _Side(r, s, c, delta, 1.0 + delta, b_x, b_y, d_nf_x, d_nf_y)


def _sides(scene, target, variant):
    """The Tx and Rx expansion factors; a monostatic scene expands one side for both."""
    tx = _side_terms(scene.tx, target, variant)
    return tx, (tx if scene.monostatic else _side_terms(scene.rx, target, variant))


def _angle_factor(tx, rx, axis):
    """phi of the x or y bound: (u_tx + u_rx)^2, u = sin resp. cos, plus eps terms.

    Each eps term is exactly 0 at eps = 0, so ff is the plane-wave factor bitwise.
    """
    (u_t, b_t, d_t), (u_r, b_r, d_r) = ((s.sin, s.b_x, s.d_nf_x) if axis == "x"
                                        else (s.cos, s.b_y, s.d_nf_y) for s in (tx, rx))
    return ((u_t + u_r) ** 2 + tx.delta * b_r + rx.delta * b_t + (b_t - u_t ** 2)
            + (b_r - u_r ** 2) + 2.0 * u_t * u_r * (d_t + d_r))


def gain(geom, target, variant):
    """Expansion of the element-sum gain g = sum_n 1/r_n^2 of one array.

    N / r^2 * (1 + delta) about the centroid, with delta = 0 for ff and
    (N^2 - 1) d^2 (4 sin^2 theta - 1) / (12 r^2) for nf. A non-positive
    1 + delta raises ApproximationDomainError.

    The exact sum is oracle.brute_gain(geom, target, "g").
    """
    _check_variant(variant, "use oracle.brute_gain for the exact element sum")
    side = _side_terms(geom, target, variant)
    return geom.count / side.r ** 2 * _positive(side.a)


def correction_terms(scene, q):
    """All second-order correction factors for target q.

    psi_x and psi_y are the ratio of the nf angle factor phi to the ff one.
    They are set to inf when the ff factor vanishes (the x factor does at
    broadside in a monostatic layout).
    """
    t = scene.targets[q]
    tx, rx = _sides(scene, t, "nf")
    tx0, rx0 = _sides(scene, t, "ff")
    phi = [_angle_factor(tx, rx, axis) for axis in "xy"]
    den = [_angle_factor(tx0, rx0, axis) for axis in "xy"]
    psi = [p / d if d >= DENOM_FLOOR else math.inf for p, d in zip(phi, den)]
    per_side = [v for pair in zip(tx[3:], rx[3:]) for v in pair]  # delta_tx, delta_rx, ...
    return CorrectionTerms(*per_side, *phi, *psi, c_m=float(slow_time_sum(scene.snapshots)))


def _expansion(scene, q, variant):
    """_sides of target q at one variant, as a call that expands on its first success."""
    _check_variant(variant, "use the crb module for exact bounds")
    return functools.cache(lambda: _sides(scene, scene.targets[q], variant))


def _closed_form(scene, q, sides, bound):
    """Closed form of bound "rcs", "x", "y", "vx" or "vy" of target q; sides is an _expansion.

    A kinematic bound is base / phi (inf, unexpanded, for a dark target), phi
    the angle factor itself, not the ff factor times psi, so a broadside
    far-field divergence does not poison a finite nf value with inf * 0.
    """
    alpha2 = abs(scene.targets[q].rcs) ** 2
    if alpha2 == 0.0 and bound != "rcs":
        return math.inf
    tx, rx = sides()
    try:
        if bound == "rcs":
            base = (256.0 * scene.noise_var_w * math.pi ** 4 * (tx.r * rx.r) ** 2
                    / (scene.power_w * scene.snapshots * scene.tx.count * scene.rx.count
                       * scene.wavelength_m ** 4))
        else:
            slow_factor = (scene.t_sym_s ** 2 * slow_time_sum(scene.snapshots)
                           if bound[0] == "v" else float(scene.snapshots))
            base = (32.0 * math.pi ** 2 * scene.noise_var_w * (tx.r * rx.r) ** 2
                    / (alpha2 * scene.power_w * scene.tx.count * scene.rx.count
                       * slow_factor * scene.wavelength_m ** 2))
    except (OverflowError, ZeroDivisionError):
        # (r_tx r_rx)^2 overflows, or the denominator underflows to 0: past the float range
        base = math.inf
    if bound == "rcs":
        return base / (_positive(tx.a) * _positive(rx.a))
    phi = _angle_factor(tx, rx, _axis(bound[-1]))
    if abs(phi) < DENOM_FLOOR:
        return math.inf
    if phi < 0.0:
        raise ApproximationDomainError(
            "second-order correction drove the bound negative; the target is "
            "inside the expansion's validity range")
    return base / phi


def _axis(axis):
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return axis


def crb_rcs_approx(scene, q, variant):
    """Closed-form summed reflectivity bound (real plus imaginary part).

    256 sigma^2 pi^4 (r_tx r_rx)^2 / (P M N_t N_r lambda^4), divided by the
    gain factors (1 + delta_tx)(1 + delta_rx), which are 1 for ff.
    """
    return _closed_form(scene, q, _expansion(scene, q, variant), "rcs")


def crb_velocity_approx(scene, q, axis, variant):
    """Closed-form velocity bound along one axis, (m/s)^2.

    The slow-time accumulation contributes T_sym^2 * sum_m m^2.
    """
    return _closed_form(scene, q, _expansion(scene, q, variant), "v" + _axis(axis))


def crb_location_approx(scene, q, axis, variant):
    """Closed-form location bound along one axis, m^2.

    Identical to the velocity form except the slow-time accumulation is
    sum_m 1 = M (location derivatives carry no slow-time factor).
    """
    return _closed_form(scene, q, _expansion(scene, q, variant), _axis(axis))


def approx_bounds(scene, q, variant, bounds):
    """{bound: closed form} of target q at one variant, from one expansion of both sides.

    A bound the expansion cannot give (too near the array, no ULA) is None.
    """
    sides, values = _expansion(scene, q, variant), {}
    for bound in bounds:
        try:
            values[bound] = _closed_form(scene, q, sides, bound)
        except (ApproximationDomainError, NotUlaError):
            values[bound] = None
    return values


def relative_error(approx, truth):
    """|approx - truth| / |truth|; undefined for zero or non-finite truth."""
    if truth is None or truth == 0.0 or not math.isfinite(truth):
        raise ValueError("relative error is undefined for zero or non-finite truth")
    if not math.isfinite(approx):
        return math.inf
    return abs((approx - truth) / truth)
