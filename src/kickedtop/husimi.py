"""Coherent-state overlap (Husimi-style) grids on the sphere.

Grid values are raw squared overlaps |<psi|theta, phi>|^2 without the
(2j+1)/4pi measure factor, so a coherent state evaluates to 1 at its own
center.  Nodes include both poles and duplicate the phi = +-pi seam, which
lets plotting tools wrap the sphere without gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symspace import SymState, _coherent_moduli, _phase_factors, _two_j


@dataclass(frozen=True)
class SphereGrid:
    """|<psi|theta,phi>|^2 sampled on a regular grid; values is (n_theta, n_phi)."""

    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.thetas.size

    @property
    def n_phi(self) -> int:
        return self.phis.size


def husimi_grid(psi: SymState, n_theta: int = 101, n_phi: int = 201) -> SphereGrid:
    """Squared coherent-state overlaps of psi on an inclusive theta x phi grid."""
    if n_theta < 2 or n_phi < 2:
        raise ValueError("need at least a 2x2 grid")
    two_j = _two_j(psi.j)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(-math.pi, math.pi, n_phi)
    # <psi|theta,phi> = sum_k conj(psi_k) |<k|theta>| e^(-i k phi): separable
    # in theta and phi, so one matrix product covers the grid.
    theta_part = psi.amps.conj()[None, :] * _coherent_moduli(two_j, thetas)
    phi_part = _phase_factors(two_j, phis)
    overlaps = theta_part @ phi_part
    return SphereGrid(thetas=thetas, phis=phis, values=np.abs(overlaps) ** 2)
