"""Far-field and near-field closed-form bound approximations for one target.

The far-field forms keep only the zeroth-order aperture terms; the near-field
forms add the second-order (aperture over range)^2 corrections obtained from
Taylor-expanding the per-element ranges about each array centroid. All angle
and range inputs are taken per side, so bistatic layouts with offset
centroids flow through the same expressions.

Divergent denominators (broadside angle factors, zero reflectivity) return
float('inf'); a correction factor driven negative means the target is far too
close to the array for the expansion, which raises instead of returning a
negative variance.
"""

import math
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


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def slow_time_sum(snapshots):
    """Sum of m^2 over the CPI: M(M+1)(2M+1)/6."""
    m = int(snapshots)
    return m * (m + 1) * (2 * m + 1) // 6


def gain(geom, target, wavelength, variant):
    """Expansion of the element-sum gain g = sum_n 1/r_n^2 of one array.

    ff:    N / r^2 about the centroid.
    nf:    N / r^2 + N (N^2 - 1) d^2 (4 sin^2 theta - 1) / (12 r^4).

    The exact sum is oracle.brute_gain(geom, target, "g"). wavelength is
    not read: the expansions depend only on N, d, r and theta.
    """
    _check_variant(variant)
    if variant == "exact":
        raise ValueError("use oracle.brute_gain for the exact element sum")
    _require_ula(geom)
    r, theta = polar_of(target, geom)
    n = geom.count
    if variant == "ff":
        return n / r ** 2
    s2 = math.sin(theta) ** 2
    return n / r ** 2 + n * (n ** 2 - 1) * geom.spacing ** 2 * (4.0 * s2 - 1.0) / (12.0 * r ** 4)


def _side_terms(geom, target):
    """Second-order factors of one side: delta, a, b_x, b_y, delta_nf_x, delta_nf_y."""
    _require_ula(geom)
    r, theta = polar_of(target, geom)
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    eps = (geom.count ** 2 - 1) * geom.spacing ** 2 / (12.0 * r ** 2)
    delta = eps * (4.0 * s2 - 1.0)
    b_x = s2 + eps * (12.0 * s2 ** 2 - 10.0 * s2 + 1.0)
    b_y = c2 + eps * c2 * (12.0 * s2 - 2.0)
    # the 1/8 r^2 terms share the same aperture moment, hence 12/8 = 3/2
    d_nf_x = 1.5 * eps * (-3.0 + 5.0 * s2)
    d_nf_y = 1.5 * eps * (-1.0 + 5.0 * s2)
    return delta, 1.0 + delta, b_x, b_y, d_nf_x, d_nf_y, theta


def correction_terms(scene, q):
    """All second-order correction factors for target q.

    psi_x and psi_y are set to inf when their angle-factor denominator
    vanishes (the x factor does at broadside in a monostatic layout).
    """
    t = scene.targets[q]
    d_tx, a_tx, bx_tx, by_tx, dnx_tx, dny_tx, th_tx = _side_terms(scene.tx, t)
    d_rx, a_rx, bx_rx, by_rx, dnx_rx, dny_rx, th_rx = _side_terms(scene.rx, t)

    phi_x = (a_tx * bx_rx + a_rx * bx_tx
             + 2.0 * math.sin(th_tx) * math.sin(th_rx) * (1.0 + dnx_tx + dnx_rx))
    phi_y = (a_tx * by_rx + a_rx * by_tx
             + 2.0 * math.cos(th_tx) * math.cos(th_rx) * (1.0 + dny_tx + dny_rx))
    den_x = (math.sin(th_tx) + math.sin(th_rx)) ** 2
    den_y = (math.cos(th_tx) + math.cos(th_rx)) ** 2
    psi_x = phi_x / den_x if den_x >= DENOM_FLOOR else math.inf
    psi_y = phi_y / den_y if den_y >= DENOM_FLOOR else math.inf

    return CorrectionTerms(delta_tx=d_tx, delta_rx=d_rx, a_tx=a_tx, a_rx=a_rx,
                           b_tx_x=bx_tx, b_rx_x=bx_rx, b_tx_y=by_tx, b_rx_y=by_rx,
                           delta_nf_x_tx=dnx_tx, delta_nf_x_rx=dnx_rx,
                           delta_nf_y_tx=dny_tx, delta_nf_y_rx=dny_rx,
                           phi_x=phi_x, phi_y=phi_y, psi_x=psi_x, psi_y=psi_y,
                           c_m=float(slow_time_sum(scene.snapshots)))


def crb_rcs_approx(scene, q, variant):
    """Closed-form summed reflectivity bound (real plus imaginary part).

    ff: 256 sigma^2 pi^4 (r_tx r_rx)^2 / (P M N_t N_r lambda^4)
    nf: the same divided by (1 + delta_tx)(1 + delta_rx)
    """
    _check_variant(variant)
    if variant == "exact":
        raise ValueError("use the crb module for exact bounds")
    t = scene.targets[q]
    r_tx, _ = polar_of(t, scene.tx)
    r_rx, _ = polar_of(t, scene.rx)
    ff = (256.0 * scene.noise_var_w * math.pi ** 4 * (r_tx * r_rx) ** 2
          / (scene.power_w * scene.snapshots * scene.tx.count * scene.rx.count
             * scene.wavelength_m ** 4))
    if variant == "ff":
        _require_ula(scene.tx)
        _require_ula(scene.rx)
        return ff
    c = correction_terms(scene, q)
    for factor in (c.a_tx, c.a_rx):
        if factor <= 0.0:
            raise ApproximationDomainError(
                "second-order gain correction is non-positive; the target is "
                "inside the expansion's validity range")
    return ff / (c.a_tx * c.a_rx)


def _kinematic_approx(scene, q, axis, variant, slow_factor):
    """Shared core of the velocity and location closed forms.

    The near-field value is computed directly from the phi numerator instead
    of ff / psi, so a broadside far-field divergence (zero angle factor) does
    not poison a finite near-field value with inf * 0.
    """
    _check_variant(variant)
    if variant == "exact":
        raise ValueError("use the crb module for exact bounds")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    t = scene.targets[q]
    alpha2 = abs(t.rcs) ** 2
    if alpha2 == 0.0:
        return math.inf
    r_tx, th_tx = polar_of(t, scene.tx)
    r_rx, th_rx = polar_of(t, scene.rx)
    base = (32.0 * math.pi ** 2 * scene.noise_var_w * (r_tx * r_rx) ** 2
            / (alpha2 * scene.power_w * scene.tx.count * scene.rx.count
               * slow_factor * scene.wavelength_m ** 2))
    if variant == "ff":
        _require_ula(scene.tx)
        _require_ula(scene.rx)
        trig = math.sin if axis == "x" else math.cos
        den = (trig(th_tx) + trig(th_rx)) ** 2
        return base / den if den >= DENOM_FLOOR else math.inf
    c = correction_terms(scene, q)
    phi = c.phi_x if axis == "x" else c.phi_y
    if abs(phi) < DENOM_FLOOR:
        return math.inf
    if phi < 0.0:
        raise ApproximationDomainError(
            "second-order correction drove the bound negative; the target is "
            "inside the expansion's validity range")
    return base / phi


def crb_velocity_approx(scene, q, axis, variant):
    """Closed-form velocity bound along one axis, (m/s)^2.

    The slow-time accumulation contributes T_sym^2 * sum_m m^2.
    """
    slow = scene.t_sym_s ** 2 * slow_time_sum(scene.snapshots)
    return _kinematic_approx(scene, q, axis, variant, slow)


def crb_location_approx(scene, q, axis, variant):
    """Closed-form location bound along one axis, m^2.

    Identical to the velocity form except the slow-time accumulation is
    sum_m 1 = M (location derivatives carry no slow-time factor).
    """
    return _kinematic_approx(scene, q, axis, variant, float(scene.snapshots))


def relative_error(approx, truth):
    """|approx - truth| / |truth|; undefined for zero or non-finite truth."""
    if truth is None or truth == 0.0 or not math.isfinite(truth):
        raise ValueError("relative error is undefined for zero or non-finite truth")
    if not math.isfinite(approx):
        return math.inf
    return abs((approx - truth) / truth)
