"""Antenna array geometry: centered uniform linear arrays and field-region boundaries."""

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

    def aperture(self):
        """Array aperture D in meters.

        (count - 1) * spacing for uniform arrays, otherwise the largest
        pairwise element separation.
        """
        if self.spacing is not None:
            return (self.count - 1) * self.spacing
        # free layout: max pairwise distance, N is small enough for O(N^2)
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return float(np.sqrt((diff ** 2).sum(-1)).max())

    def region_boundaries(self, wavelength):
        """Reactive and Fraunhofer boundary ranges (meters) for this aperture.

        Returns (0.62*sqrt(D^3/wavelength), 2*D^2/wavelength); both are 0 for
        a single-element array.
        """
        if wavelength <= 0:
            raise ValueError("wavelength must be positive")
        d = self.aperture()
        if d == 0.0:
            return 0.0, 0.0
        try:
            return 0.62 * np.sqrt(d ** 3 / wavelength), 2.0 * d ** 2 / wavelength
        except OverflowError:  # d^3 beyond the float range: the ratio first
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
    pos = np.column_stack([x, np.zeros(count)])
    return ArrayGeometry(pos, spacing=float(spacing), centroid_x=float(centroid_x))

