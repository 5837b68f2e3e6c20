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
which raises instead of returning a negative variance, as does an aperture
over range or a bound (inf over inf) that the float range cannot hold.
"""

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
        eps = 0.0 if variant == "ff" else (geom.count ** 2 - 1) * (geom.spacing / r) ** 2 / 12.0
    except OverflowError:  # (d / r)^2 beyond the float range: no expansion holds
        raise ApproximationDomainError("aperture over range is past the float range") from None
    delta = eps * (4.0 * s2 - 1.0)
    b_x = s2 + eps * (12.0 * s2 ** 2 - 10.0 * s2 + 1.0)
    b_y = c2 + eps * c2 * (12.0 * s2 - 2.0)
    # the 1/8 r^2 terms share the same aperture moment, hence 12/8 = 3/2
    d_nf_x = 1.5 * eps * (-3.0 + 5.0 * s2)
    d_nf_y = 1.5 * eps * (-1.0 + 5.0 * s2)
    return _Side(r, s, c, delta, 1.0 + delta, b_x, b_y, d_nf_x, d_nf_y)


def _angle_factor(tx, rx, axis):
    """phi of the x or y bound: (u_tx + u_rx)^2, u = sin resp. cos, plus eps terms.

    Each eps term is exactly 0 at eps = 0, so ff is the plane-wave factor bitwise.
    """
    if axis == "x":
        u_t, b_t, d_t, u_r, b_r, d_r = tx.sin, tx.b_x, tx.d_nf_x, rx.sin, rx.b_x, rx.d_nf_x
    else:
        u_t, b_t, d_t, u_r, b_r, d_r = tx.cos, tx.b_y, tx.d_nf_y, rx.cos, rx.b_y, rx.d_nf_y
    return ((u_t + u_r) ** 2 + tx.delta * b_r + rx.delta * b_t + (b_t - u_t ** 2)
            + (b_r - u_r ** 2) + 2.0 * u_t * u_r * (d_t + d_r))


def gain(geom, target, variant):
    """Expansion of the element-sum gain g = sum_n 1/r_n^2 of one array.

    N / r^2 * (1 + delta) about the centroid, with delta = 0 for ff and
    (N^2 - 1) d^2 (4 sin^2 theta - 1) / (12 r^2) for nf. A non-positive
    1 + delta raises ApproximationDomainError.

    The exact sum is oracle.brute_gain(geom, target).
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
    (tx, rx), (tx0, rx0) = (_expansion(scene, q, variant) for variant in ("nf", "ff"))
    phi = [_angle_factor(tx, rx, axis) for axis in "xy"]
    den = [_angle_factor(tx0, rx0, axis) for axis in "xy"]
    psi = [p / d if d >= DENOM_FLOOR else math.inf for p, d in zip(phi, den)]
    per_side = [v for pair in zip(tx[3:], rx[3:]) for v in pair]  # delta_tx, delta_rx, ...
    return CorrectionTerms(*per_side, *phi, *psi, c_m=float(slow_time_sum(scene.snapshots)))


def _expansion(scene, q, variant):
    """Target q's per_side _side_terms at one variant."""
    target = scene.targets[q]
    return scene.per_side(lambda side: _side_terms(scene.side(side), target, variant))


# each bound's family, whose base it divides, and the axis of its angle factor
_BOUND_PARTS = {"rcs": ("rcs", None), "x": ("", "x"), "y": ("", "y"), "vx": ("v", "x"),
                "vy": ("v", "y")}


def _closed_form(scene, q, variant, bounds):
    """{bound: closed form} of target q at one variant, for bounds of "rcs", "x", "y", "vx", "vy".

    |rcs|^2, the expansion of both sides, the base of each family (rcs,
    location, velocity) and the angle factor of each axis are formed once. A
    bound the expansion cannot give is the ApproximationDomainError or
    NotUlaError that says why, without a traceback: one would hold this frame,
    and with it the scene's arrays, in a reference cycle. A kinematic bound
    is base / phi (inf, unexpanded, for a dark target), phi the angle factor
    itself, not the ff factor times psi, so a broadside far-field divergence
    does not poison a finite nf value with inf * 0.
    """
    _check_variant(variant, "use the crb module for exact bounds")
    unknown = set(bounds) - _BOUND_PARTS.keys()
    if unknown:
        raise ValueError(f"unknown bounds {sorted(unknown)}")
    try:
        alpha2 = abs(scene.targets[q].rcs) ** 2
    except OverflowError:  # |rcs| past 1.3e154
        alpha2 = math.inf
    try:
        tx, rx = _expansion(scene, q, variant)
    except (ApproximationDomainError, NotUlaError) as e:
        e = e.with_traceback(None)
        return {b: math.inf if alpha2 == 0.0 and b != "rcs" else e for b in bounds}
    m, n_t, n_r, lam = scene.snapshots, scene.tx.count, scene.rx.count, scene.wavelength_m
    base = {}
    for family in ("rcs", "", "v"):
        try:
            if family == "rcs":
                base[family] = (256.0 * scene.noise_var_w * math.pi ** 4 * (tx.r * rx.r) ** 2
                                / (scene.power_w * m * n_t * n_r * lam ** 4))
            else:
                slow_factor = scene.t_sym_s ** 2 * slow_time_sum(m) if family else float(m)
                base[family] = (32.0 * math.pi ** 2 * scene.noise_var_w * (tx.r * rx.r) ** 2
                                / (alpha2 * scene.power_w * n_t * n_r * slow_factor * lam ** 2))
        except (OverflowError, ZeroDivisionError):
            # (r_tx r_rx)^2 overflows, or the denominator underflows to 0: past the float range
            base[family] = math.inf
    phi = {"x": _angle_factor(tx, rx, "x"), "y": _angle_factor(tx, rx, "y")}
    values = {}
    for bound in bounds:
        family, axis = _BOUND_PARTS[bound]
        try:
            if axis is None:
                value = base[family] / (_positive(tx.a) * _positive(rx.a))
            elif alpha2 == 0.0 or abs(phi[axis]) < DENOM_FLOOR:
                value = math.inf
            elif phi[axis] < 0.0:
                raise ApproximationDomainError(
                    "second-order correction drove the bound negative; the target is "
                    "inside the expansion's validity range")
            else:
                value = base[family] / phi[axis]
            if math.isnan(value):  # inf / inf: eps or the base past the float range
                raise ApproximationDomainError("the closed form is past the float range")
        except ApproximationDomainError as e:
            value = e.with_traceback(None)
        values[bound] = value
    return values


def _axis(axis):
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return axis


def _one_bound(scene, q, variant, bound):
    """The closed form of one bound; a bound the expansion cannot give raises why."""
    value = _closed_form(scene, q, variant, (bound,))[bound]
    if isinstance(value, ValueError):
        try:
            raise value
        finally:
            del value  # the traceback holds this frame: no cycle through its locals
    return value


def crb_rcs_approx(scene, q, variant):
    """Closed-form summed reflectivity bound (real plus imaginary part).

    256 sigma^2 pi^4 (r_tx r_rx)^2 / (P M N_t N_r lambda^4), divided by the
    gain factors (1 + delta_tx)(1 + delta_rx), which are 1 for ff.
    """
    return _one_bound(scene, q, variant, "rcs")


def crb_velocity_approx(scene, q, axis, variant):
    """Closed-form velocity bound along one axis, (m/s)^2.

    The slow-time accumulation contributes T_sym^2 * sum_m m^2.
    """
    return _one_bound(scene, q, variant, "v" + _axis(axis))


def crb_location_approx(scene, q, axis, variant):
    """Closed-form location bound along one axis, m^2.

    Identical to the velocity form except the slow-time accumulation is
    sum_m 1 = M (location derivatives carry no slow-time factor).
    """
    return _one_bound(scene, q, variant, _axis(axis))


def approx_bounds(scene, q, variant, bounds):
    """{bound: closed form} of target q at one variant, from one _closed_form call.

    A bound the expansion cannot give (too near the array, no ULA) is None.
    """
    values = _closed_form(scene, q, variant, bounds)
    return {bound: None if isinstance(value, ValueError) else value
            for bound, value in values.items()}


def relative_error(approx, truth):
    """|approx - truth| / |truth|; undefined for zero or non-finite truth."""
    if truth is None or truth == 0.0 or not math.isfinite(truth):
        raise ValueError("relative error is undefined for zero or non-finite truth")
    if not math.isfinite(approx):
        return math.inf
    return abs((approx - truth) / truth)
