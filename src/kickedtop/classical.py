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

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "ClassicalPoint":
        return cls(
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )

    def norm_error(self) -> float:
        return abs(self.x**2 + self.y**2 + self.z**2 - 1.0)


# The two orbits featured on the phase portraits.
FIXED_POINT = ClassicalPoint(0.0, -1.0, 0.0)
PERIOD4_POINT = ClassicalPoint(0.0, 0.0, 1.0)


def step(point: ClassicalPoint, kappa0: float) -> ClassicalPoint:
    """One iteration of the map."""
    x, y, z = point.x, point.y, point.z
    c = math.cos(kappa0 * x)
    s = math.sin(kappa0 * x)
    return ClassicalPoint(z * c + y * s, -z * s + y * c, -x)


def _iterate(out, x, y, z, kappa0: float) -> None:
    """Write the iterates 0..len(out)-1 of the map into out[i] = (X, Y, Z).

    x, y, z are one seed's floats (math.cos/sin) or (S,) arrays of S seeds
    stepped together (np.cos/sin); each seed sees the same operations either
    way, so its orbit does not depend on the seeds stepped with it.
    """
    if not math.isfinite(kappa0):
        raise ValueError("kappa0 must be finite")
    cos, sin = (np.cos, np.sin) if isinstance(x, np.ndarray) else (math.cos, math.sin)
    out[0] = x, y, z
    for i in range(1, len(out)):
        c = cos(kappa0 * x)
        s = sin(kappa0 * x)
        x, y, z = z * c + y * s, -z * s + y * c, -x
        out[i] = x, y, z


def trajectory_array(point: ClassicalPoint, kappa0: float, n: int) -> np.ndarray:
    """(n+1, 3) array of iterates including the seed; plain floats inside the
    loop, no per-step validation."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty((n + 1, 3))
    _iterate(out, point.x, point.y, point.z, kappa0)
    return out


def portrait(seeds, kappa0: float, n: int) -> np.ndarray:
    """Phase-portrait table: rows (seed_index, iteration, X, Y, Z), exactly
    len(seeds) * (n+1) rows including iteration 0; all seeds are stepped
    together and written straight into their rows."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.empty((len(seeds) * (n + 1), 5))
    table = rows.reshape(len(seeds), n + 1, 5)
    table[:, :, 0] = np.arange(len(seeds))[:, None]
    table[:, :, 1] = np.arange(n + 1)
    coords = np.array([(p.x, p.y, p.z) for p in seeds]).T
    _iterate(table[:, :, 2:].transpose(1, 2, 0), *coords, kappa0)
    return rows


def tangent_matrix(point: ClassicalPoint, kappa0: float) -> np.ndarray:
    """Jacobian of one map step at a point (3x3, analytic)."""
    x, y, z = point.x, point.y, point.z
    c = math.cos(kappa0 * x)
    s = math.sin(kappa0 * x)
    return np.array(
        [
            [kappa0 * (-z * s + y * c), s, c],
            [-kappa0 * (z * c + y * s), c, -s],
            [-1.0, 0.0, 0.0],
        ]
    )


def fixed_point_multiplier(kappa0: float) -> float:
    """Spectral radius of the tangent map at the (pi/2, -pi/2) fixed point,
    restricted to the sphere's tangent plane; exceeds 1 once the fixed point
    turns unstable."""
    jac = tangent_matrix(FIXED_POINT, kappa0)
    # Tangent plane at (0,-1,0) is spanned by x-hat and z-hat.
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T
    reduced = basis.T @ jac @ basis
    return float(np.max(np.abs(np.linalg.eigvals(reduced))))
