"""Scenario assembly: waveform constants, arrays, targets, and the parameter order.

The estimation parameter vector stacks the real unknowns of all Q targets
block-wise as [x_1..x_Q, y_1..y_Q, vx_1..vx_Q, vy_1..vy_Q, aR_1..aR_Q,
aI_1..aI_Q], i.e. six blocks of length Q.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, ula

# block order of the real parameter vector; names match Target fields
BLOCKS = ("x", "y", "vx", "vy", "rcs_re", "rcs_im")

# rounded propagation speed keeps the 15 GHz default at exactly lambda = 0.02 m
LIGHTSPEED = 3.0e8

MIN_ELEMENT_CLEARANCE = 1e-6  # m, targets may not sit on array elements

# the least integer that rounds past the largest float: float() of it raises
FLOAT_INT_LIMIT = 2 ** 1024 - 2 ** 970


class DegenerateGeometryError(ValueError):
    """Target coincides with an array element or sits at a zero-range point."""


@dataclass(frozen=True)
class Target:
    """Point scatterer with constant complex reflectivity over one CPI."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    rcs_re: float = 1.0
    rcs_im: float = 0.0

    @classmethod
    def at(cls, range_m, theta, **fields):
        """The target at range_m and angle theta (radians): polar_of's inverse about the origin."""
        return cls(range_m * math.sin(theta), range_m * math.cos(theta), **fields)

    @property
    def rcs(self):
        return complex(self.rcs_re, self.rcs_im)


@dataclass(frozen=True)
class Scene:
    """Validated physical scenario for one coherent processing interval.

    noise_var_w is the per-sample complex noise variance in watts; power_w
    is the transmit power constraint applied across the Tx array.
    """

    carrier_hz: float
    t_sym_s: float
    snapshots: int
    power_w: float
    noise_var_w: float
    tx: ArrayGeometry
    rx: ArrayGeometry
    targets: tuple
    lightspeed: float = LIGHTSPEED

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        scalars = (self.carrier_hz, self.t_sym_s, self.snapshots, self.power_w,
                   self.noise_var_w, self.lightspeed)
        if not all(map(math.isfinite, scalars)):
            raise ValueError("scene scalars must be finite")
        if self.carrier_hz <= 0 or self.t_sym_s <= 0:
            raise ValueError("carrier_hz and t_sym_s must be positive")
        if self.lightspeed <= 0:
            raise ValueError(f"lightspeed must be positive, got {self.lightspeed!r}")
        if not math.isfinite(self.wavelength_m):  # a subnormal carrier overflows it
            raise ValueError("scene scalars must be finite")
        if self.snapshots < 1 or int(self.snapshots) != self.snapshots:
            raise ValueError(f"snapshots must be a positive integer, got {self.snapshots!r}")
        object.__setattr__(self, "snapshots", int(self.snapshots))  # numpy sizes arrays by it
        # crb and approx square the slow time: T^2 M^3 bounds T^2 sum_m m^2, and
        # crb forms V from the integer M (M^2 - 1), which must convert to a float
        m = self.snapshots
        cpi = self.t_sym_s * m
        if not math.isfinite(cpi * cpi * m) or m * (m * m - 1) >= FLOAT_INT_LIMIT:
            raise ValueError(f"the CPI of {self.snapshots:.6g} snapshots of {self.t_sym_s!r} s "
                             "is too long: its slow-time moments overflow")
        if self.power_w <= 0 or self.noise_var_w <= 0:
            raise ValueError("power_w and noise_var_w must be positive")
        # every FIM entry is scaled by this ratio: inf gives NaN entries, 0 a zero FIM
        snr = 2.0 * self.power_w / self.noise_var_w
        if not 0.0 < snr < math.inf:
            raise ValueError(f"2*power_w/noise_var_w must be finite and nonzero, got {snr!r}")
        if len(self.targets) < 1:
            raise ValueError("scene needs at least one target")

        # every target's closest element range; one layout is checked once
        sides = (self.tx,) if self.monostatic else (self.tx, self.rx)
        near = check_states(self.states, sides).tolist()
        # small-displacement assumption: each target's CPI-long travel must stay
        # far below its own closest element range or the static-phase model drifts
        for q, (t, min_range) in enumerate(zip(self.targets, near)):
            travel = math.hypot(t.vx, t.vy) * self.snapshots * self.t_sym_s
            if travel / min_range > 1e-2:
                warnings.warn(
                    f"target {q} moves {travel:.3g} m over the CPI at minimum range "
                    f"{min_range:.3g} m; the small-displacement model is strained",
                    stacklevel=3,
                )

    @property
    def wavelength_m(self):
        """Carrier wavelength, derived so it always follows carrier_hz and lightspeed."""
        return self.lightspeed / self.carrier_hz

    @property
    def q_count(self):
        return len(self.targets)

    @functools.cached_property
    def states(self):
        """The one array form of the targets: read-only (Q, 6) rows of their BLOCKS fields."""
        states = np.array([[getattr(t, name) for name in BLOCKS] for t in self.targets], float)
        states.flags.writeable = False
        return states

    @functools.cached_property
    def monostatic(self):
        """Whether Tx and Rx are one array layout, so each per-side value is computed once.

        True for one ArrayGeometry object on both sides, or for two with equal
        spacing and centroid_x and bit-identical positions (-0.0 and 0.0
        differ). Every per-side quantity is a deterministic function of these,
        so sharing the Rx result with Tx leaves every bit unchanged.
        """
        tx, rx = self.tx, self.rx
        return tx is rx or (tx.spacing == rx.spacing and tx.centroid_x == rx.centroid_x
                            and tx.positions.shape == rx.positions.shape
                            and tx.positions.tobytes() == rx.positions.tobytes())

    def side(self, name):
        """The ArrayGeometry of side name, 'tx' or 'rx'."""
        if name not in ("tx", "rx"):
            raise ValueError(f"side must be 'tx' or 'rx', got {name!r}")
        return self.tx if name == "tx" else self.rx

    def per_side(self, evaluate):
        """(Tx value, Rx value) of evaluate(side name): Rx first, and Rx's for Tx if monostatic."""
        rx = evaluate("rx")
        return (rx if self.monostatic else evaluate("tx")), rx


def make_scene(targets=None, tx=None, rx=None, carrier_hz=15.0e9, t_sym_s=1e-4,
               snapshots=256, power_w=0.1, noise_var_w=None, lightspeed=LIGHTSPEED):
    """Build a validated Scene, filling canonical defaults for omitted pieces.

    Defaults follow the reference configuration: 15 GHz carrier, 256
    snapshots, 256-element half-wavelength monostatic ULAs, 0.1 W transmit
    power, -114 dBm noise, and a single target at 100 m range, 20 deg from
    broadside, velocity (1, 4) m/s, reflectivity 1 + 0.1j.
    """
    if noise_var_w is None:
        noise_var_w = dbm_to_watts(-114.0)
    tx, rx = (ula(256, lightspeed / carrier_hz / 2.0) if side is None else side
              for side in (tx, rx))
    if targets is None:
        targets = [Target.at(100.0, math.radians(20.0), vx=1.0, vy=4.0, rcs_re=1.0, rcs_im=0.1)]
    return Scene(carrier_hz=carrier_hz, t_sym_s=t_sym_s, snapshots=snapshots,
                 power_w=power_w, noise_var_w=noise_var_w, tx=tx, rx=rx,
                 targets=tuple(targets), lightspeed=lightspeed)


def target_indices(q, q_count):
    """The six parameter rows belonging to target q, in BLOCKS order."""
    return [b * q_count + q for b in range(len(BLOCKS))]


def check_states(states, sides):
    """Scene's per-target rules on target states, rows of a (K, 6) array in BLOCKS order.

    Every field must be finite (ValueError), and every state must sit beyond
    MIN_ELEMENT_CLEARANCE of each element and of the centroid of each array
    in sides (DegenerateGeometryError). The first state that breaks a rule
    is named; within a state, the arrays go in order, an element before a
    centroid. An array object listed twice is checked once: the test is
    identity, not equality, so no caller learns whether two sides are one
    layout. Returns every state's closest element range over all sides, (K,).
    """
    sides = tuple({id(geom): geom for geom in sides}.values())
    if not np.isfinite(states).all():
        k = int(np.isfinite(states).all(axis=1).argmin())
        raise ValueError(f"target {k} has a non-finite field")
    # every element of every side, then each side's centroid, in one broadcast;
    # element positions are finite (ArrayGeometry rejects others), so no range is NaN
    points = np.concatenate([geom.positions for geom in sides] + [[g.centre for g in sides]])
    ranges = np.hypot(states[:, :1] - points[:, 0], states[:, 1:2] - points[:, 1])
    near = ranges[:, :-len(sides)].min(axis=1)
    # np.hypot can round one ulp apart from polar_of's math.hypot, so each
    # state within twice the clearance of a point is settled one by one below
    if ranges.min() > 2.0 * MIN_ELEMENT_CLEARANCE:
        return near
    for k, (x, y) in enumerate(states[:, :2].tolist()):
        for geom in sides:
            if np.hypot(x - geom.positions[:, 0], y - geom.positions[:, 1]).min() \
                    <= MIN_ELEMENT_CLEARANCE:
                raise DegenerateGeometryError(
                    f"target {k} is within {MIN_ELEMENT_CLEARANCE} m of an array element")
            _polar(x, y, geom)
    return near


def polar_of(target, geom):
    """Range and broadside angle of a target relative to an array's centroid.

    The angle is measured from the array normal (y-axis for x-axis ULAs), so
    x = centroid_x + r*sin(theta) and y = r*cos(theta).
    """
    return _polar(target.x, target.y, geom)


def _polar(x, y, geom):
    """polar_of of the point (x, y)."""
    cx, cy = geom.centre
    dx, dy = x - cx, y - cy
    r = math.hypot(dx, dy)
    if r <= MIN_ELEMENT_CLEARANCE:
        raise DegenerateGeometryError("target sits at the array centroid")
    return r, math.atan2(dx, dy)


def dbm_to_watts(level_dbm):
    return 10.0 ** ((level_dbm - 30.0) / 10.0)
