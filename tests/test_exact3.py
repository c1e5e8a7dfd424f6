import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import cheby, exact3, measures, symspace
from kickedtop.exact3 import STATE_PLUS_Y, STATE_ZERO, GeneralState3
from kickedtop.exact4 import SECTOR_MINUS, SECTOR_PLUS
from kickedtop.symspace import BlochPoint, KickedTopParams, SymState

from conftest import (
    avg_entropy_3pi2,
    block_power3,
    collective_ops,
    n_star_000,
    random_symmetric_amps,
)

KAPPAS = [0.1, 0.4, 0.5, 0.8, 1.2, 2.5, 1.5 * math.pi]
SECTORS = {"+": SECTOR_PLUS, "-": SECTOR_MINUS}


def to_dicke(state: GeneralState3) -> np.ndarray:
    """Dicke amplitudes (|000>, W, Wbar, |111>) of parity-basis coefficients,
    the inverse of GeneralState3.from_dicke."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            (state.a1 + state.b1) * inv_sqrt2,
            (state.a2 + state.b2) * inv_sqrt2,
            1j * (state.a2 - state.b2) * inv_sqrt2,
            -1j * (state.a1 - state.b1) * inv_sqrt2,
        ]
    )


def unitarity_defect(stack: np.ndarray) -> float:
    """max |M M^dag - I| over a (..., 2, 2) stack."""
    return float(np.max(np.abs(stack @ np.conj(np.swapaxes(stack, -1, -2)) - np.eye(2))))


def explicit_block(kappa0: float, parity: int) -> np.ndarray:
    # The one-kick parity block written out entry by entry.
    k = kappa0 / 6.0
    s = parity
    pre = s * cmath.exp(-1j * s * math.pi / 4.0) * cmath.exp(-1j * k)
    return pre * np.array(
        [
            [0.5j * cmath.exp(-2j * k), -s * (math.sqrt(3.0) / 2.0) * cmath.exp(-2j * k)],
            [s * (math.sqrt(3.0) / 2.0) * cmath.exp(2j * k), -0.5j * cmath.exp(2j * k)],
        ]
    )


class TestChebyshev:
    @given(
        x=st.floats(min_value=-0.5, max_value=0.5),
        n=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=300, deadline=None)
    def test_pell_identity_recurrence(self, x, n):
        t, u = cheby.t_u_recurrence(n, x)
        assert abs(t * t + (1.0 - x * x) * u * u - 1.0) < 1e-9

    @given(
        x=st.floats(min_value=-0.999, max_value=0.999),
        n=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence_matches_trig(self, x, n):
        tr, ur = cheby.t_u_recurrence(n, x)
        tt, ut = cheby.t_u_trig(n, x)
        assert abs(tr - tt) < 1e-8
        assert abs(ur - ut) < 1e-8 * max(1.0, abs(ut))

    def test_series_matches_scalar(self):
        t, u = cheby.t_u_trig(np.arange(51), 0.3)
        for n in (0, 1, 7, 50):
            ts, us = cheby.t_u_trig(n, 0.3)
            assert t[n] == pytest.approx(ts, abs=1e-14)
            assert u[n] == pytest.approx(us, abs=1e-14)

    @given(x=st.floats(min_value=-0.5, max_value=0.5), n=st.integers(min_value=1, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_second_kind_bound_on_restricted_range(self, x, n):
        _, u = cheby.t_u_trig(n, x)
        assert abs(u) <= 2.0 / math.sqrt(3.0) + 1e-12


class TestBlockPower:
    def test_identity_at_zero_kicks(self):
        for parity in ("+", "-"):
            block = block_power3(1.1, 0, SECTORS[parity])
            assert np.allclose(block, np.eye(2), atol=1e-15)
            assert unitarity_defect(block) < 1e-15

    @pytest.mark.parametrize("parity", ["+", "-"])
    def test_single_kick_entries(self, parity):
        kappa0 = 0.9
        sign = 1 if parity == "+" else -1
        got = block_power3(kappa0, 1, SECTORS[parity])
        assert np.max(np.abs(got - explicit_block(kappa0, sign))) < 1e-14

    @pytest.mark.parametrize("kappa0", KAPPAS)
    @pytest.mark.parametrize("parity", ["+", "-"])
    def test_matches_matrix_power(self, kappa0, parity):
        sign = 1 if parity == "+" else -1
        base = explicit_block(kappa0, sign)
        times = [2, 3, 7, 20, 57]
        stack = block_power3(kappa0, np.array(times), SECTORS[parity])
        for n, got in zip(times, stack):
            expected = np.linalg.matrix_power(base, n)
            assert np.max(np.abs(got - expected)) < 1e-10
            assert np.max(np.abs(block_power3(kappa0, n, SECTORS[parity]) - expected)) < 1e-10

    @given(kappa0=st.floats(min_value=-20.0, max_value=20.0), n=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_unit_magnitude(self, kappa0, n):
        for sector in (SECTOR_PLUS, SECTOR_MINUS):
            assert unitarity_defect(block_power3(kappa0, n, sector)) < 1e-12
            assert unitarity_defect(block_power3(kappa0, np.array([0, n, 2 * n + 1]), sector)) < 1e-12

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            block_power3(1.0, -1, SECTOR_PLUS)
        with pytest.raises(ValueError):
            block_power3(1.0, np.array([2, -1]), SECTOR_MINUS)


class TestParityBlockSpec:
    @given(kappa0=st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_axis_and_angle_relations(self, kappa0):
        # The phase-stripped one-kick block of positive parity is the SU(2)
        # rotation cos(gamma) I - i sin(gamma) (axis . sigma) with
        # cos(gamma) = chi = sin(kappa0/3)/2, sin(axis_theta) sin(gamma) =
        # sqrt(3)/2 and axis_phi = pi/2 + kappa0/3; gamma and the axis are read
        # off the block's matrix.
        phase = np.exp(-1j * (math.pi / 4.0 + kappa0 / 6.0))
        v = block_power3(kappa0, 1, SECTOR_PLUS) / phase
        assert abs(np.linalg.det(v) - 1.0) < 1e-12
        cos_gamma = (v[0, 0] + v[1, 1]).real / 2.0
        gamma = math.acos(cos_gamma)
        # -i sin(gamma) (nx - i ny) and -i sin(gamma) (nx + i ny) off the diagonal
        transverse = 1j * v[1, 0] / math.sin(gamma)  # nx + i ny
        nz = -(v[0, 0] - v[1, 1]).imag / (2.0 * math.sin(gamma))
        axis_theta = math.acos(max(-1.0, min(1.0, nz)))
        axis_phi = cmath.phase(transverse)
        chi = math.sin(kappa0 / 3.0) / 2.0
        assert abs(chi) <= 0.5
        assert abs(cos_gamma - chi) < 1e-12
        assert abs(abs(transverse) ** 2 + nz**2 - 1.0) < 1e-12
        assert abs(math.sin(axis_theta) * math.sin(gamma) - math.sqrt(3.0) / 2.0) < 1e-12
        assert abs(nz + math.cos(kappa0 / 3.0) / (2.0 * math.sin(gamma))) < 1e-12
        turn = (axis_phi - (math.pi / 2.0 + kappa0 / 3.0)) / (2.0 * math.pi)
        assert abs(turn - round(turn)) < 1e-12 / (2.0 * math.pi)


class TestEntropyClosedForm:
    def test_first_kick_maximum(self):
        assert exact3.entropy3_closed(STATE_ZERO, 1, 1.5 * math.pi) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_zero_torsion(self):
        for state in (STATE_ZERO, STATE_PLUS_Y):
            for n in (1, 2, 9):
                assert exact3.entropy3_closed(state, n, 0.0) == 0.0

    def test_second_kick_value(self):
        assert exact3.entropy3_closed(STATE_ZERO, 2, 0.5) == pytest.approx(
            0.027141, abs=1e-5
        )

    def test_first_kick_formula(self):
        # S(1) = sin^2(kappa0/3) (1 - sin^2(kappa0/3)/2) for both featured states
        for kappa0 in KAPPAS:
            s = math.sin(kappa0 / 3.0) ** 2
            expected = s * (1.0 - s / 2.0)
            assert exact3.entropy3_closed(STATE_ZERO, 1, kappa0) == pytest.approx(
                expected, abs=1e-12
            )
            assert exact3.entropy3_closed(STATE_PLUS_Y, 1, kappa0) == pytest.approx(
                expected, abs=1e-12
            )

    def test_plus_y_second_kick_formula(self):
        for kappa0 in KAPPAS:
            s = math.sin(kappa0 / 3.0) ** 2
            assert exact3.entropy3_closed(STATE_PLUS_Y, 2, kappa0) == pytest.approx(
                s * s * (1.0 - s * s / 2.0), abs=1e-12
            )

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_step_rule_exact(self, kappa0):
        for m in range(1, 101):
            assert exact3.entropy3_closed(STATE_ZERO, 2 * m - 1, kappa0) == exact3.entropy3_closed(
                STATE_ZERO, 2 * m, kappa0
            )

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_plus_y_bound(self, kappa0):
        bound = (4.0 / 3.0) * math.sin(kappa0 / 3.0) ** 2 + 1e-12
        series = exact3.entropy3_closed(STATE_PLUS_Y, np.arange(201), kappa0)
        assert np.max(series) <= bound

    @pytest.mark.parametrize("kappa0", KAPPAS)
    @pytest.mark.parametrize("state_id,point", [
        (STATE_ZERO, BlochPoint(0.0, 0.0)),
        (STATE_PLUS_Y, BlochPoint(math.pi / 2.0, -math.pi / 2.0)),
    ])
    def test_cross_oracle_vs_engine(self, kappa0, state_id, point):
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0))
        psi = symspace.coherent_state(1.5, point)
        numeric, _ = measures.entanglement_series(u, psi, 40)
        closed = exact3.entropy3_closed(state_id, np.arange(41), kappa0)
        assert np.max(np.abs(numeric - closed)) < 1e-10

    def test_series_matches_scalar(self):
        series = exact3.entropy3_closed(STATE_ZERO, np.arange(21), 0.8)
        assert series[0] == 0.0
        for n in range(1, 21):
            assert series[n] == exact3.entropy3_closed(STATE_ZERO, n, 0.8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exact3.entropy3_closed("nope", 1, 0.5)
        with pytest.raises(ValueError):
            exact3.entropy3_closed(STATE_ZERO, -1, 0.5)


class TestConcurrenceClosedForm:
    def test_first_kick_peak_value(self):
        assert exact3.concurrence3_000(1, math.pi / 2.0) == pytest.approx(
            (math.sqrt(13.0) - 1.0) / 8.0, abs=1e-12
        )

    def test_vanishes_at_three_pi_halves(self):
        for n in range(1, 61):
            assert exact3.concurrence3_000(n, 1.5 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_zero_torsion(self):
        assert exact3.concurrence3_000(5, 0.0) == 0.0

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_step_rule_exact(self, kappa0):
        for m in range(1, 101):
            assert exact3.concurrence3_000(2 * m - 1, kappa0) == exact3.concurrence3_000(
                2 * m, kappa0
            )

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_cross_oracle_vs_engine(self, kappa0):
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0))
        psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        _, numeric = measures.entanglement_series(u, psi, 40)
        closed = exact3.concurrence3_000(np.arange(41), kappa0)
        assert np.max(np.abs(numeric - closed)) < 1e-10


class TestAverages:
    def test_small_torsion_limit(self):
        assert exact3.avg_entropy3(STATE_ZERO, 1e-9).value == pytest.approx(
            5.0 / 16.0, abs=1e-12
        )

    def test_exact_zero_torsion_is_zero(self):
        res = exact3.avg_entropy3(STATE_ZERO, 0.0)
        assert res.value == 0.0
        assert res.resonant
        res = exact3.avg_entropy3(STATE_PLUS_Y, 0.0)
        assert res.value == 0.0
        assert res.resonant

    def test_thermal_value_at_three_pi_halves(self):
        for state in (STATE_ZERO, STATE_PLUS_Y):
            res = exact3.avg_entropy3(state, 1.5 * math.pi)
            assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert not res.resonant

    def test_plus_y_at_pi_over_two(self):
        assert exact3.avg_entropy3(STATE_PLUS_Y, math.pi / 2.0).value == pytest.approx(
            0.12, abs=1e-12
        )

    def test_resonance_flag_at_three_pi(self):
        # the torsion is a global phase at 3 pi: |000> stays a product state
        res = exact3.avg_entropy3(STATE_ZERO, 3.0 * math.pi)
        assert res.resonant
        assert res.value == 0.0

    def test_matches_long_numeric_average(self):
        # Cesaro means of the closed-form per-step values converge to the
        # closed-form averages away from resonances.
        for kappa0 in (0.8, 1.2, 2.5):
            for state in (STATE_ZERO, STATE_PLUS_Y):
                series = exact3.entropy3_closed(state, np.arange(10**6 + 1), kappa0)
                numeric = float(series[1:].mean())
                assert numeric == pytest.approx(
                    exact3.avg_entropy3(state, kappa0).value, abs=1e-3
                )


class TestAverageOverAllStates:
    def test_poles(self):
        assert avg_entropy_3pi2(BlochPoint(0.0, 0.3)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_minimum_at_quarter_polar(self):
        assert avg_entropy_3pi2(BlochPoint(math.pi / 4.0, -math.pi / 2.0)) == pytest.approx(
            7.0 / 24.0, abs=1e-12
        )

    def test_equatorial_fixed_points(self):
        for phi in (-math.pi / 2.0, math.pi / 2.0):
            assert avg_entropy_3pi2(BlochPoint(math.pi / 2.0, phi)) == pytest.approx(
                1.0 / 3.0, abs=1e-12
            )

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_range(self, theta, phi):
        val = avg_entropy_3pi2(BlochPoint(theta, phi))
        assert 7.0 / 24.0 - 1e-12 <= val <= 1.0 / 3.0 + 1e-12

    def test_matches_numeric_period_average(self):
        # At kappa0 = 3pi/2 the dynamics has period 12, so the infinite-time
        # average is the exact mean over one period.
        kappa0 = 1.5 * math.pi
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0))
        for point in (BlochPoint(0.7, 1.1), BlochPoint(2.0, -2.4), BlochPoint(1.2, 0.4)):
            psi = symspace.coherent_state(1.5, point)
            entropies, _ = measures.entanglement_series(u, psi, 12)
            numeric = entropies[1:].mean()
            assert numeric == pytest.approx(avg_entropy_3pi2(point), abs=1e-10)


class TestNStar:
    @pytest.mark.parametrize("kappa0,expected", [(0.5, 18), (0.8, 11), (0.4, 23)])
    def test_estimates(self, kappa0, expected):
        assert n_star_000(kappa0).estimate == expected

    def test_refined_form_is_odd(self):
        for kappa0 in (0.1, 0.3, 0.5, 0.9):
            report = n_star_000(kappa0)
            assert report.refined_odd % 2 == 1
            assert abs(report.refined_odd - report.estimate) <= 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            n_star_000(0.0)

    @pytest.mark.parametrize("kappa0", [0.4, 0.5, 0.8])
    def test_first_near_maximal_time_matches_estimate(self, kappa0):
        # first time the entropy comes within 1e-3 of its 1/2 ceiling; the
        # global argmax over a long window can land on a later recurrence
        series = exact3.entropy3_closed(STATE_ZERO, np.arange(61), kappa0)
        first = int(np.nonzero(series >= 0.499)[0][0])
        assert abs(first - n_star_000(kappa0).estimate) <= 2

    @pytest.mark.parametrize("kappa0", [0.4, 0.5, 0.8])
    def test_argmax_within_first_cycle_matches_estimate(self, kappa0):
        estimate = n_star_000(kappa0).estimate
        series = exact3.entropy3_closed(STATE_ZERO, np.arange(2 * estimate + 1), kappa0)
        assert abs(int(np.argmax(series)) - estimate) <= 2

    def test_disentangles_near_twice_n_star(self):
        kappa0 = 0.5
        report = n_star_000(kappa0)
        series = exact3.entropy3_closed(STATE_ZERO, np.arange(2 * report.estimate + 5), kappa0)
        window = series[2 * report.estimate - 3 : 2 * report.estimate + 4]
        assert np.min(window) < 0.02


class TestGeneralState:
    def test_zero_state_coefficients_reproduce_closed_form(self):
        state = GeneralState3(1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0)
        for kappa0 in (0.5, 1.2, 2.5):
            for n in range(1, 41):
                assert exact3.general_entropy3(state, n, kappa0) == pytest.approx(
                    exact3.entropy3_closed(STATE_ZERO, n, kappa0), abs=1e-12
                )

    def test_plus_y_coefficients_reproduce_closed_form(self):
        state = GeneralState3(0.5, math.sqrt(3.0) * 1j / 2.0, 0.0, 0.0)
        for kappa0 in (0.5, 1.2, 2.5):
            for n in range(1, 41):
                assert exact3.general_entropy3(state, n, kappa0) == pytest.approx(
                    exact3.entropy3_closed(STATE_PLUS_Y, n, kappa0), abs=1e-12
                )

    def test_from_bloch_matches_coherent_state(self):
        point = BlochPoint(1.1, -0.7)
        gen = GeneralState3.from_bloch(point)
        assert np.allclose(
            to_dicke(gen), symspace.coherent_state(1.5, point).amps, atol=1e-14
        )

    def test_rotation_period_four_at_zero_torsion(self, rng):
        amps = random_symmetric_amps(rng, 4)
        state = GeneralState3.from_dicke(amps)
        s0 = measures.linear_entropy(measures.reduced_state(SymState(1.5, amps), 1))
        for n in (4, 8, 12):
            assert exact3.general_entropy3(state, n, 0.0) == pytest.approx(s0, abs=1e-12)

    def test_matches_engine_for_random_states(self, rng):
        for kappa0 in (0.5, 1.2, 2.5):
            u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0))
            for _ in range(5):
                amps = random_symmetric_amps(rng, 4)
                state = GeneralState3.from_dicke(amps)
                psi = SymState(1.5, amps)
                for n in (1, 2, 3, 7, 12):
                    numeric = measures.linear_entropy(
                        measures.reduced_state(symspace.evolve(u, psi, n), 1)
                    )
                    assert exact3.general_entropy3(state, n, kappa0) == pytest.approx(
                        numeric, abs=1e-10
                    )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            GeneralState3(1.0, 1.0, 0.0, 0.0)


class TestLocalUnitaryStructure:
    @pytest.mark.parametrize("kappa0", [0.5, 1.2, 2.5])
    def test_odd_even_local_equivalence(self, kappa0):
        # psi(2m-1) = R^dag (V x V x V)^(+-1) psi(2m) with V = exp(i kappa
        # sigma_z) and R the pi/2 rotation: on the even state's support the
        # inverse torsion acts as the local z-phase (branch sign alternates
        # with the parity of m), and the leftover rotation is local anyway.
        kappa = kappa0 / 6.0
        m_vals = 1.5 - np.arange(4)
        _, jy, _ = collective_ops(1.5)
        evals, evecs = np.linalg.eigh(jy)
        r_dag = (evecs * np.exp(1j * (math.pi / 2.0) * evals)) @ evecs.conj().T
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0))
        psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        traj = symspace.trajectory(u, psi, 41)
        for m in range(1, 21):
            sign = 1.0 if m % 2 == 0 else -1.0
            local = np.exp(2j * sign * kappa * m_vals)
            odd = traj[2 * m - 1]
            even_rotated = r_dag @ (local * traj[2 * m])
            overlap = abs(np.vdot(odd, even_rotated))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_period_twelve_at_three_pi_halves(self):
        kappa0 = 1.5 * math.pi
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0)).matrix
        u12 = np.linalg.matrix_power(u, 12)
        phase = u12[0, 0] / abs(u12[0, 0])
        assert np.max(np.abs(u12 - phase * np.eye(4))) < 1e-10

    def test_entanglement_period_six_at_three_pi_halves(self, rng):
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=1.5 * math.pi))
        # holds for arbitrary initial states, not only the featured ones
        for _ in range(3):
            amps = random_symmetric_amps(rng, 4)
            entropies, _ = measures.entanglement_series(u, SymState(1.5, amps), 30)
            assert np.max(np.abs(entropies[6:] - entropies[:-6])) < 1e-10
