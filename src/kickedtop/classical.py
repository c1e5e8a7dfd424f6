"""The classical kicked-top map on the unit sphere (the large-spin limit).

One iteration rotates (Y, Z) about the X axis by kappa0*X after the quarter
rotation that sends Z to -X; written out, with primes denoting the new point:

    X' = Z cos(kappa0 X) + Y sin(kappa0 X)
    Y' = -Z sin(kappa0 X) + Y cos(kappa0 X)
    Z' = -X

The update preserves X^2 + Y^2 + Z^2 algebraically, so no renormalization is
applied while iterating; numeric drift is the caller's diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SPHERE_TOL = 1e-6


@dataclass(frozen=True)
class ClassicalPoint:
    """A point on the unit sphere, validated to _SPHERE_TOL."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("point coordinates must be finite")
        r2 = self.x * self.x + self.y * self.y + self.z * self.z  # inf, not OverflowError, at 1e308
        if abs(r2 - 1.0) > _SPHERE_TOL:
            raise ValueError(f"point is off the unit sphere (|r|^2 = {r2!r})")

    def norm_error(self) -> float:
        return abs(self.x**2 + self.y**2 + self.z**2 - 1.0)


# The two orbits featured on the phase portraits.
FIXED_POINT = ClassicalPoint(0.0, -1.0, 0.0)
PERIOD4_POINT = ClassicalPoint(0.0, 0.0, 1.0)


def portrait(seeds, kappa0: float, n: int) -> np.ndarray:
    """Phase-portrait table: rows (seed_index, iteration, X, Y, Z), exactly
    len(seeds) * (n+1) rows including iteration 0.  seeds are ClassicalPoints
    or an (m, 3) array of points on the unit sphere (to _SPHERE_TOL).  The
    table is allocated before any per-seed work, so a table too large fails
    at once.  All seeds are stepped together and written straight into their
    rows; each sees the same operations whatever the others are, so its
    orbit does not depend on the seeds stepped with it."""
    if not isinstance(seeds, np.ndarray):
        seeds = list(seeds)
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(kappa0):
        raise ValueError("kappa0 must be finite")
    rows = np.empty((len(seeds) * (n + 1), 5))
    if isinstance(seeds, np.ndarray):
        if (seeds.ndim != 2 or seeds.shape[1] != 3
                or not np.all(np.abs(np.vecdot(seeds, seeds) - 1.0) <= _SPHERE_TOL)):
            raise ValueError("seeds must be an (m, 3) array of points on the unit sphere")
    else:
        seeds = np.array([(p.x, p.y, p.z) for p in seeds])
    table = rows.reshape(len(seeds), n + 1, 5)
    table[:, :, 0] = np.arange(len(seeds))[:, None]
    table[:, :, 1] = np.arange(n + 1)
    out = table[:, :, 2:].transpose(1, 2, 0)  # out[i] = (X, Y, Z) of iteration i
    x, y, z = seeds.T
    out[0] = x, y, z
    for i in range(1, n + 1):
        c = np.cos(kappa0 * x)
        s = np.sin(kappa0 * x)
        x, y, z = z * c + y * s, -z * s + y * c, -x
        out[i] = x, y, z
    return rows
