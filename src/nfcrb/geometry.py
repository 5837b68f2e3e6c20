"""Antenna array geometry: centered uniform linear arrays and field-region boundaries."""

import functools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ArrayGeometry:
    """Element layout of one antenna array.

    Parameters
    ----------
    positions : ndarray, shape (N, 2)
        Element coordinates in meters.
    spacing : float or None
        Inter-element pitch in meters. None for free-form layouts, where
        pitch is not defined.
    centroid_x : float or None
        Phase-center x coordinate for arrays built on the x-axis. None for
        free-form layouts (the centroid is then the mean element position).

    Attributes
    ----------
    centre : tuple of float
        Phase centre (x, y), formed once: (centroid_x, 0.0), or the mean
        element position when centroid_x is None.
    aperture : float
        Aperture D in meters, formed on first read: (count - 1) * spacing for
        uniform arrays, otherwise the largest pairwise element separation.
    """

    positions: np.ndarray
    spacing: float | None = None
    centroid_x: float | None = None
    centre: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (N, 2), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("array needs at least one element")
        if not np.isfinite(pos).all():
            raise ValueError("element positions must be finite")
        object.__setattr__(self, "positions", pos)
        centre = pos.mean(axis=0) if self.centroid_x is None else (self.centroid_x, 0.0)
        object.__setattr__(self, "centre", tuple(map(float, centre)))

    @property
    def count(self):
        return self.positions.shape[0]

    @functools.cached_property
    def aperture(self):
        if self.spacing is not None:
            return (self.count - 1) * self.spacing
        # one element's row of separations at a time: no (N, N) table
        pos = self.positions
        return float(max(np.sqrt(((pos[i:] - pos[i]) ** 2).sum(-1)).max()
                         for i in range(self.count)))

    def region_boundaries(self, wavelength):
        """Reactive and Fraunhofer boundary ranges (meters) for this aperture.

        Returns (0.62*D*sqrt(D/wavelength), 2*D*(D/wavelength)), D/wavelength
        formed first so that no power of D leaves the float range; both are 0
        for a single-element array.
        """
        if wavelength <= 0:
            raise ValueError("wavelength must be positive")
        d = self.aperture
        return 0.62 * d * math.sqrt(d / wavelength), 2.0 * d * (d / wavelength)


def ula(count, spacing, centroid_x=0.0):
    """Uniform linear array on the x-axis, centered at centroid_x.

    Element n sits at centroid_x + (n - (count+1)/2)*spacing for n = 1..count,
    so element offsets are symmetric about the phase center.
    """
    try:
        whole = int(count) == count
    except (OverflowError, ValueError):  # int() of inf and nan
        whole = False
    if not whole or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    count = int(count)
    n = np.arange(1, count + 1)
    # an overflowing layout is rejected by ArrayGeometry, not announced by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        x = centroid_x + (n - (count + 1) / 2.0) * spacing
    pos = np.zeros((count, 2))
    pos[:, 0] = x
    return ArrayGeometry(pos, spacing=float(spacing), centroid_x=float(centroid_x))

