import math

import mpmath
import numpy as np
import pytest

from kickedtop import exact3, exact4, husimi, symspace
from kickedtop.symspace import BlochPoint, SymState

from conftest import mp_coherent_state

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def plus_y_dicke4() -> np.ndarray:
    """Dicke amplitudes of tensor(+y) for four qubits:
    (i phi1+)/sqrt(2) + phi2+/sqrt(8) - sqrt(3/8) phi3+."""
    basis = exact4.parity_basis_states4()
    return (
        1j * basis["phi1_plus"] / math.sqrt(2.0)
        + basis["phi2_plus"] / math.sqrt(8.0)
        - math.sqrt(3.0 / 8.0) * basis["phi3_plus"]
    )


class TestGrid:
    def test_coherent_self_overlap(self):
        point = BlochPoint(1.1, -0.4)
        psi = symspace.coherent_state(2.5, point)
        grid = husimi.husimi_grid(psi, n_theta=51, n_phi=81)
        i = np.argmin(np.abs(grid.thetas - point.theta0))
        jx = np.argmin(np.abs(grid.phis - point.phi0))
        assert grid.values.max() <= 1.0 + 1e-12
        assert grid.values[i, jx] > 0.98

    def test_coherent_self_overlap_exact_on_node(self):
        # (pi/2, 0) sits exactly on an odd-sized inclusive grid
        point = BlochPoint(math.pi / 2.0, 0.0)
        psi = symspace.coherent_state(3.0, point)
        grid = husimi.husimi_grid(psi, n_theta=3, n_phi=5)
        assert grid.values[1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_all_zeros_profile(self):
        psi = SymState(1.5, np.array([1.0, 0.0, 0.0, 0.0]))
        grid = husimi.husimi_grid(psi, n_theta=101, n_phi=21)
        expected = np.cos(grid.thetas / 2.0) ** 6
        assert np.allclose(grid.values, expected[:, None], atol=1e-12)
        mid = np.argmin(np.abs(grid.thetas - math.pi / 2.0))
        assert grid.values[mid, 0] == pytest.approx(0.125, abs=1e-12)

    def test_w_pair_peaks_at_equatorial_fixed_points(self):
        # phi2+ peaks at (pi/2, -pi/2) and phi2- at (pi/2, +pi/2); the pair
        # covers both equatorial fixed points.
        basis = exact3.parity_basis_states3()
        for name, phi_peak in (("phi2_plus", -math.pi / 2.0), ("phi2_minus", math.pi / 2.0)):
            grid = husimi.husimi_grid(SymState(1.5, basis[name]), n_theta=121, n_phi=241)
            i, jx = np.unravel_index(np.argmax(grid.values), grid.values.shape)
            assert grid.thetas[i] == pytest.approx(math.pi / 2.0, abs=0.02)
            assert grid.phis[jx] == pytest.approx(phi_peak, abs=0.02)
            assert grid.values[i, jx] == pytest.approx(0.75, abs=1e-3)

    def test_grid_past_the_old_binomial_limit(self):
        # C(1030, 515) overflows a double; the grid's theta factor needs none
        two_j = 1030
        grid = husimi.husimi_grid(SymState(two_j / 2.0, np.eye(1, two_j + 1)[0]), 7, 3)
        expected = np.cos(grid.thetas / 2.0) ** (2 * two_j)
        assert np.max(np.abs(grid.values - expected[:, None])) <= 1e-15

    def test_matches_40_digit_overlaps(self):
        # the coherent state on the grid node (pi/2, 0) plus as much random
        # state, so values run from 1e-5 to 0.5; largest error seen: 2.2e-16
        two_j = 2000
        noise = np.random.default_rng(7).standard_normal((two_j + 1, 2)) @ [1.0, 1j]
        amps = symspace.coherent_state(two_j / 2.0, BlochPoint(math.pi / 2.0, 0.0)).amps
        amps = amps + noise / np.linalg.norm(noise)
        psi = SymState(two_j / 2.0, amps / np.linalg.norm(amps))
        grid = husimi.husimi_grid(psi, n_theta=5, n_phi=3)
        with mpmath.workdps(40):
            bra = [mpmath.mpc(a).conjugate() for a in psi.amps]
            phases = [[mpmath.expj(-k * mpmath.mpf(phi)) for k in range(two_j + 1)]
                      for phi in grid.phis]
            reference = []
            for theta in grid.thetas:  # the moduli |<k|theta>|, shared by every phi
                weights = [b * a for b, a in zip(bra, mp_coherent_state(two_j, theta, 0.0))]
                reference.append([float(abs(mpmath.fsum(w * e for w, e in zip(weights, row))) ** 2)
                                  for row in phases])
        assert np.max(np.abs(grid.values - reference)) <= two_j * 1e-16

    def test_matches_40_digit_overlaps_off_the_axes(self):
        # a random state on the Dicke indices 440..560, which the theta = pi/2
        # coherent states cover, so the phases exp(-i k phi) of neighbouring k
        # interfere in each value; the phi nodes step by pi/3, where k phi is
        # not a double.  Values reach 0.024; largest error seen 1.7e-17 (one
        # rounded product k phi in the phases gave 1.0e-15)
        two_j = 1000
        amps = np.zeros(two_j + 1, dtype=complex)
        amps[440:561] = np.random.default_rng(11).standard_normal((121, 2)) @ [1.0, 1j]
        psi = SymState(two_j / 2.0, amps / np.linalg.norm(amps))
        grid = husimi.husimi_grid(psi, n_theta=5, n_phi=7)
        with mpmath.workdps(40):
            bra = [mpmath.mpc(a).conjugate() for a in psi.amps]
            reference = [[float(abs(mpmath.fsum(b * a for b, a in zip(bra, ket))) ** 2)
                          for ket in (mp_coherent_state(two_j, theta, phi) for phi in grid.phis)]
                         for theta in grid.thetas]
        assert np.max(np.abs(grid.values - reference)) <= 1e-16

    def test_values_in_unit_interval(self):
        psi = SymState(2.0, exact4.parity_basis_states4()["phi3_plus"])
        grid = husimi.husimi_grid(psi)
        assert grid.values.min() >= -1e-15
        assert grid.values.max() <= 1.0 + 1e-12

    def test_poles_and_seam_included(self):
        grid = husimi.husimi_grid(symspace.coherent_state(1.0, BlochPoint(0.4, 0.2)), 11, 21)
        assert grid.thetas[0] == 0.0
        assert grid.thetas[-1] == pytest.approx(math.pi)
        assert grid.phis[0] == pytest.approx(-math.pi)
        assert grid.phis[-1] == pytest.approx(math.pi)
        # duplicated seam carries identical values
        assert np.allclose(grid.values[:, 0], grid.values[:, -1], atol=1e-12)

    def test_normalization_under_su2_measure(self):
        # integral of the grid against (2j+1)/4pi sin(theta) dtheta dphi is 1
        for j, amps in ((1.5, None), (2.0, plus_y_dicke4())):
            psi = (
                symspace.coherent_state(j, BlochPoint(0.9, 1.3))
                if amps is None
                else SymState(j, amps)
            )
            grid = husimi.husimi_grid(psi, n_theta=200, n_phi=400)
            weighted = grid.values * np.sin(grid.thetas)[:, None]
            integral = trapezoid(trapezoid(weighted, grid.phis, axis=1), grid.thetas)
            integral *= (2.0 * j + 1.0) / (4.0 * math.pi)
            assert integral == pytest.approx(1.0, abs=0.01)

    def test_rejects_degenerate_grid(self):
        psi = symspace.coherent_state(1.0, BlochPoint(0.4, 0.2))
        with pytest.raises(ValueError):
            husimi.husimi_grid(psi, n_theta=1, n_phi=10)
