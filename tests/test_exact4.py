import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import cli, exact3, exact4, measures, symspace
from kickedtop.exact3 import STATE_PLUS_Y, STATE_ZERO
from kickedtop.symspace import BlochPoint, SymState

from conftest import register_floquet, sweep_means

KAPPAS = [0.1, 0.4, 0.5, 0.8, 1.2, 2.5, 1.5 * math.pi]

PLUS_Y = BlochPoint(math.pi / 2.0, -math.pi / 2.0)
MINUS_Y = BlochPoint(math.pi / 2.0, math.pi / 2.0)


def plus_y_evolved_dicke4(kappa0: float, n: int) -> np.ndarray:
    """Dicke amplitudes of the evolved tensor(+y) state after n kicks, O(1) in n.

    tensor(+y) = (i phi1+)/sqrt(2) + phi2+/sqrt(8) - sqrt(3/8) phi3+ stays in
    the positive-parity sector: the singlet phase (-1)^n plus one 2x2 block
    power.  The overall phase follows the block conventions.
    """
    basis = exact4.parity_basis_states4()
    block = exact4.block_power4(kappa0, n, "plus")
    c23 = block @ np.array([1.0 / math.sqrt(8.0), -math.sqrt(3.0 / 8.0)])
    return (
        (-1.0) ** n * 1j / math.sqrt(2.0) * basis["phi1_plus"]
        + c23[0] * basis["phi2_plus"]
        + c23[1] * basis["phi3_plus"]
    )


def explicit_plus_block(kappa0: float) -> np.ndarray:
    k = kappa0 / 2.0
    pre = -1j * cmath.exp(-0.5j * k)
    r3 = math.sqrt(3.0)
    return pre * np.array(
        [
            [0.5j * cmath.exp(-1j * k), 0.5j * r3 * cmath.exp(-1j * k)],
            [0.5j * r3 * cmath.exp(1j * k), -0.5j * cmath.exp(1j * k)],
        ]
    )


def explicit_minus_block(kappa0: float) -> np.ndarray:
    k = kappa0 / 2.0
    pre = cmath.exp(-0.75j * k)
    return pre * np.array(
        [[0.0, cmath.exp(0.75j * k)], [-cmath.exp(-0.75j * k), 0.0]]
    )


class TestBlockPower:
    def test_identity_at_zero_kicks(self):
        assert np.allclose(exact4.block_power4(0.9, 0, "plus"), np.eye(2), atol=1e-15)
        assert np.allclose(exact4.block_power4(0.9, 0, "minus"), np.eye(2), atol=1e-15)
        assert exact4.block_power4(0.9, 0, "singlet") == 1.0

    def test_singlet_alternates(self):
        assert exact4.block_power4(2.2, 5, "singlet") == -1.0
        assert exact4.block_power4(2.2, 8, "singlet") == 1.0

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_single_kick_entries(self, kappa0):
        assert np.max(np.abs(exact4.block_power4(kappa0, 1, "plus") - explicit_plus_block(kappa0))) < 1e-14
        assert np.max(np.abs(exact4.block_power4(kappa0, 1, "minus") - explicit_minus_block(kappa0))) < 1e-14

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_matches_matrix_power(self, kappa0):
        for sector, base in (("plus", explicit_plus_block(kappa0)), ("minus", explicit_minus_block(kappa0))):
            for n in (2, 3, 11, 38, 57):
                expected = np.linalg.matrix_power(base, n)
                got = exact4.block_power4(kappa0, n, sector)
                assert np.max(np.abs(got - expected)) < 1e-10

    def test_minus_sector_period_two(self):
        for kappa0 in KAPPAS:
            got = exact4.block_power4(kappa0, 2, "minus")
            expected = -cmath.exp(-0.75j * kappa0) * np.eye(2)
            assert np.max(np.abs(got - expected)) < 1e-12

    @given(kappa0=st.floats(min_value=-20.0, max_value=20.0), n=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_unit_magnitude(self, kappa0, n):
        alpha, beta = exact3.block_alpha_beta(kappa0 / 2.0, n)
        assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-12
        for sector in ("plus", "minus"):
            stack = exact4.block_power4(kappa0, np.array([0, n, 2 * n + 1]), sector)
            products = stack @ np.conj(np.swapaxes(stack, -1, -2))
            assert np.max(np.abs(products - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("sector", ["plus", "minus", "singlet"])
    def test_kick_array_stacks_per_n_blocks(self, sector):
        times = np.array([0, 1, 2, 3, 7, 40, 10**6])
        stack = exact4.block_power4(1.3, times, sector)
        for got, n in zip(stack, times):
            expected = exact4.block_power4(1.3, int(n), sector)
            assert np.array_equal(got, expected)

    def test_rejects_negative_n_and_bad_sector(self):
        with pytest.raises(ValueError):
            exact4.block_power4(1.0, -1, "plus")
        with pytest.raises(ValueError):
            exact4.block_power4(1.0, np.array([3, -1]), "plus")
        with pytest.raises(ValueError):
            exact4.block_power4(1.0, 1, "both")


class TestSingletEigenvector:
    def test_phi1_plus_is_floquet_eigenvector(self, rng):
        # phi1+ is an eigenvector at every torsion; in the Dicke-operator
        # convention its eigenvalue is -exp(-i kappa0/4) (the -1 of the
        # constant-diagonal-free gauge times the torsion's global phase).
        v = exact4.parity_basis_states4()["phi1_plus"]
        for kappa0 in rng.uniform(0.05, 4.0 * math.pi, size=20):
            u = symspace.floquet(2.0, float(kappa0)).matrix
            residual = np.linalg.norm(u @ v - (-cmath.exp(-0.25j * kappa0)) * v)
            assert residual < 1e-10

    def test_ghz_minus_has_period_two_entanglement(self):
        # phi2- = (|0000> - |1111>)/sqrt(2) lives in the period-2 sector.
        u = symspace.floquet(2.0, 1.7)
        psi = SymState(2.0, exact4.parity_basis_states4()["phi2_minus"])
        entropies, _ = measures.entanglement_series(u, psi, 12)
        assert np.max(np.abs(entropies[2:] - entropies[:-2])) < 1e-12


class TestEntropyClosedForm:
    def test_zero_torsion(self):
        for n in (2, 4, 10):
            assert exact4.entropy4_closed(STATE_ZERO, n, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_second_kick_against_register_oracle(self):
        from conftest import register_reduced

        kappa0 = 0.5
        u = register_floquet(4, kappa0)
        vec = np.zeros(16, complex)
        vec[0] = 1.0
        vec = u @ (u @ vec)
        rho = register_reduced(vec, 4, (0,))
        s_register = float(1.0 - np.trace(rho @ rho).real)
        assert exact4.entropy4_closed(STATE_ZERO, 2, kappa0) == pytest.approx(
            s_register, abs=1e-10
        )

    def test_small_torsion_growth_rate(self):
        kappa0 = 1e-3
        s1 = exact4.entropy4_closed(STATE_ZERO, 1, kappa0)
        assert s1 / kappa0**2 == pytest.approx(3.0 / 32.0, rel=1e-4)

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_step_rule_exact(self, kappa0):
        for m in range(1, 101):
            assert exact4.entropy4_closed(STATE_ZERO, 2 * m - 1, kappa0) == exact4.entropy4_closed(
                STATE_ZERO, 2 * m, kappa0
            )

    @pytest.mark.parametrize("kappa0", KAPPAS)
    @pytest.mark.parametrize("state_id,point", [
        (STATE_ZERO, BlochPoint(0.0, 0.0)),
        (STATE_PLUS_Y, PLUS_Y),
    ])
    def test_cross_oracle_vs_engine(self, kappa0, state_id, point):
        u = symspace.floquet(2.0, kappa0)
        psi = symspace.coherent_state(2.0, point)
        numeric, _ = measures.entanglement_series(u, psi, 40)
        closed = exact4.entropy4_closed(state_id, np.arange(41), kappa0)
        assert np.max(np.abs(numeric - closed)) < 1e-10

    def test_minus_y_shares_plus_y_series(self):
        # complex conjugation maps the +-y coherent pair into each other and
        # flips the torsion sign, under which the closed form is invariant
        for kappa0 in (0.5, 1.2, 2.5):
            u = symspace.floquet(2.0, kappa0)
            psi = symspace.coherent_state(2.0, MINUS_Y)
            numeric, _ = measures.entanglement_series(u, psi, 30)
            closed = exact4.entropy4_closed(STATE_PLUS_Y, np.arange(31), kappa0)
            assert np.max(np.abs(numeric - closed)) < 1e-10

    def test_series_matches_scalar(self):
        for state in (STATE_ZERO, STATE_PLUS_Y):
            series = exact4.entropy4_closed(state, np.arange(26), 1.3)
            assert series[0] == 0.0
            for n in range(1, 26):
                assert series[n] == exact4.entropy4_closed(state, n, 1.3)


class TestAverages:
    def test_zero_state_small_torsion(self):
        assert exact4.avg_entropy4(STATE_ZERO, 1e-9).value == pytest.approx(
            11.0 / 32.0, abs=1e-12
        )

    def test_maximum_at_pi(self):
        for state in (STATE_ZERO, STATE_PLUS_Y):
            res = exact4.avg_entropy4(state, math.pi)
            assert res.value == pytest.approx(3.0 / 8.0, abs=1e-12)
            assert not res.resonant

    def test_plus_y_small_torsion(self):
        assert exact4.avg_entropy4(STATE_PLUS_Y, 1e-9).value == pytest.approx(
            0.25, abs=1e-12
        )

    def test_resonances(self):
        assert exact4.avg_entropy4(STATE_ZERO, 0.0) == (0.0, True)
        # |0000> at 2 pi runs S = 0, 1/2, 1/2, 0, ...: its time average is 1/4
        assert exact4.avg_entropy4(STATE_ZERO, 2.0 * math.pi).value == 0.25
        assert exact4.avg_entropy4(STATE_ZERO, 2.0 * math.pi).resonant
        res = exact4.avg_entropy4(STATE_PLUS_Y, 2.0 * math.pi)
        assert res.resonant
        assert res.value == pytest.approx(0.25, abs=1e-9)

    def test_matches_long_numeric_average(self):
        for kappa0 in (0.8, 1.2, 2.5):
            for state in (STATE_ZERO, STATE_PLUS_Y):
                series = exact4.entropy4_closed(state, np.arange(10**6 + 1), kappa0)
                assert float(series[1:].mean()) == pytest.approx(
                    exact4.avg_entropy4(state, kappa0).value, abs=1e-3
                )

    def test_slow_convergence_near_zero_torsion(self):
        # the +y average needs N >> n_star at small kappa0: short horizons
        # undershoot the closed form
        kappa0 = 0.35
        closed = exact4.avg_entropy4(STATE_PLUS_Y, kappa0).value
        n_star = exact4.tunneling(kappa0).n_star
        assert n_star > 5 * 10**3
        series = exact4.entropy4_closed(STATE_PLUS_Y, np.arange(10**6 + 1), kappa0)
        gaps = [abs(float(series[1 : n + 1].mean()) - closed) for n in (10**3, 10**4, 10**5, 10**6)]
        # horizons short of n_star undershoot badly; the family then closes in
        assert gaps[0] > 0.2
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] < 1e-3


class TestTunneling:
    def test_eigenphase_at_pi(self):
        assert exact4.tunneling(math.pi).gamma_minus == pytest.approx(
            13.0 * math.pi / 12.0, abs=1e-12
        )

    @pytest.mark.parametrize("kappa0", [0.1, math.pi, 4.0 * math.pi, 20.0, 1e3, 1e308])
    def test_gamma_minus_is_an_angle(self, kappa0):
        rep = exact4.tunneling(kappa0)
        assert 0.0 <= rep.gamma_minus < 2.0 * math.pi
        assert 0.0 <= rep.splitting <= math.pi
        assert abs(math.pi - rep.gamma_minus) == pytest.approx(rep.splitting, abs=1e-12)

    def test_small_torsion_splitting_asymptotics(self):
        for kappa0 in (0.05, 0.1, 0.2):
            rep = exact4.tunneling(kappa0)
            assert rep.splitting == pytest.approx(kappa0**3 / 128.0, rel=2e-2)

    def test_report_invariants(self):
        for kappa0 in (0.05, 0.1, 0.5, 1.0, 2.0):
            rep = exact4.tunneling(kappa0)
            assert rep.splitting > 0.0
            assert rep.n_star == pytest.approx(math.pi / rep.splitting, abs=1e-9)
            assert rep.ghz_time == pytest.approx(rep.n_star / 2.0, abs=1e-12)

    def test_reference_asymptotic_time(self):
        rep = exact4.tunneling(0.1)
        assert abs(rep.n_star_asymptotic - 402124) <= 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exact4.tunneling(0.0)

    def test_splitting_matches_mpmath(self):
        # pi - gamma_minus = asin(sin(kappa0/2)/2) - kappa0/4, evaluated at 50
        # digits, so the reference has no cancellation of its own
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for kappa0 in np.geomspace(1e-8, 2.0 * math.pi, 200):
                k = mpmath.mpf(float(kappa0))
                exact = abs(mpmath.asin(mpmath.sin(k / 2) / 2) - k / 4)
                got = exact4.tunneling(float(kappa0)).splitting
                assert abs(got - exact) <= 1e-12 * exact

    def test_tiny_torsion_times_are_finite_or_inf(self):
        rep = exact4.tunneling(1e-9)
        assert rep.splitting == pytest.approx(1e-27 / 128.0, rel=1e-12)
        assert rep.n_star == pytest.approx(rep.n_star_asymptotic, rel=1e-12)
        for kappa0 in (1e-300, 5e-324):
            rep = exact4.tunneling(kappa0)
            assert rep.splitting == 0.0
            assert rep.n_star == math.inf and rep.n_star_asymptotic == math.inf

    def test_huge_torsion_asymptotic_time_is_zero(self):
        for kappa0 in (1e103, 1e308, 1.7976931348623157e308):
            rep = exact4.tunneling(kappa0)
            assert rep.n_star_asymptotic == 0.0
            assert 0.0 < rep.splitting <= math.pi


class TestTunnelingOverlap:
    def test_initial_overlap_vanishes(self):
        assert exact4.tunneling_overlap_series(0.1, [0])[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kappa0", [math.nan, math.inf, 0.0, -0.5])
    def test_rejects_non_finite_and_non_positive_kappa0(self, kappa0):
        with pytest.raises(ValueError):
            exact4.tunneling_overlap_series(kappa0, [1, 2])
        with pytest.raises(ValueError):
            exact4.ghz_fidelity_series(kappa0, [1, 2])

    def test_matches_engine(self):
        kappa0 = 0.8
        u = symspace.floquet(2.0, kappa0)
        plus = symspace.coherent_state(2.0, PLUS_Y)
        minus = symspace.coherent_state(2.0, MINUS_Y)
        traj = symspace.trajectory(u, plus, 50)
        numeric = np.abs(traj @ minus.amps.conj()) ** 2
        closed = exact4.tunneling_overlap_series(kappa0, range(51))
        assert np.max(np.abs(numeric - closed)) < 1e-12

    def test_ghz_fidelity_matches_engine(self):
        kappa0 = 0.8
        u = symspace.floquet(2.0, kappa0)
        plus = symspace.coherent_state(2.0, PLUS_Y)
        minus = symspace.coherent_state(2.0, MINUS_Y)
        ghz = (plus.amps - 1j * minus.amps) / math.sqrt(2.0)
        traj = symspace.trajectory(u, plus, 50)
        numeric = np.abs(traj @ ghz.conj()) ** 2
        closed = exact4.ghz_fidelity_series(kappa0, range(51))
        assert np.max(np.abs(numeric - closed)) < 1e-12

    def test_evolved_state_reconstruction_matches_engine(self):
        kappa0 = 0.9
        u = symspace.floquet(2.0, kappa0)
        psi = symspace.coherent_state(2.0, PLUS_Y)
        traj = symspace.trajectory(u, psi, 40)
        for n in (0, 1, 2, 7, 25, 40):
            closed = plus_y_evolved_dicke4(kappa0, n)
            # engine carries the extra global torsion phase exp(-i kappa0/4)
            overlap = abs(np.vdot(closed, traj[n]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_tunneled_state_sits_on_minus_y(self):
        rep = exact4.tunneling(0.1)
        amps = plus_y_evolved_dicke4(0.1, int(round(rep.n_star)))
        minus = symspace.coherent_state(2.0, MINUS_Y).amps
        assert abs(np.vdot(minus, amps)) ** 2 >= 0.95

    def test_full_tunneling_cycle(self):
        rep = exact4.tunneling(0.1)
        n_star = int(round(rep.n_star))
        overlap = exact4.tunneling_overlap_series(0.1, [n_star])[0]
        assert overlap >= 0.95
        ghz = exact4.ghz_fidelity_series(0.1, [n_star // 2])[0]
        assert ghz >= 0.95
        # the small-torsion asymptotic time works just as well
        asymptotic = int(round(rep.n_star_asymptotic))
        assert exact4.tunneling_overlap_series(0.1, [asymptotic])[0] >= 0.95


class TestResonantAverages:
    """At a resonant torsion the closed average is the true time average of
    the resonant dynamics, which a 4000-kick numeric mean reproduces."""

    @pytest.mark.parametrize(
        "qubits, multiples, average",
        [(3, (3, 6), exact3.avg_entropy3), (4, (2, 4, 6, 8, 10), exact4.avg_entropy4)],
    )
    @pytest.mark.parametrize("name, state_id", [("zero", STATE_ZERO), ("plus_y", STATE_PLUS_Y)])
    def test_value_is_the_numeric_time_average(self, qubits, multiples, average, name, state_id):
        grid = [m * math.pi for m in multiples]
        point = BlochPoint(*cli.NAMED_STATES[name])
        means = sweep_means(qubits, point, grid, 4000)
        for kappa0, mean in zip(grid, means):
            res = average(state_id, kappa0)
            assert res.resonant
            assert res.value == pytest.approx(mean, abs=1e-9)

    def test_off_resonance_keeps_the_continuity_value(self):
        res = exact3.avg_entropy3(STATE_ZERO, 3.0 * math.pi + 1e-9)
        assert not res.resonant
        assert res.value == pytest.approx(5.0 / 16.0, abs=1e-12)


class TestPrincipalKappa0:
    """The 4-qubit closed forms depend on kappa0 only modulo 8 pi and reduce
    it once, so huge torsions give finite values that match the engine."""

    @pytest.mark.parametrize("kappa0", [0.0, 1.3, -4.0 * math.pi, 4.0 * math.pi])
    def test_small_kappa0_passes_unchanged(self, kappa0):
        assert exact4._principal_kappa0(kappa0) == kappa0

    @pytest.mark.parametrize("kappa0", [20.0, -20.0, 1e6, 1e20, 1e308, -1e308])
    def test_reduced_into_one_period(self, kappa0):
        reduced = exact4._principal_kappa0(kappa0)
        assert 0.0 <= reduced < 8.0 * math.pi
        assert math.sin(reduced / 4.0) == pytest.approx(math.sin(kappa0 / 4.0), abs=1e-14)
        assert math.cos(reduced / 4.0) == pytest.approx(math.cos(kappa0 / 4.0), abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("state", ["zero", "plus_y"])
    @pytest.mark.parametrize("kappa0", [20.0, -20.0, 1e6, 1e20, 1e308, -1e308])
    def test_evolve_closed_matches_numeric(self, kappa0, state, tmp_path):
        out = tmp_path / "evolve.csv"
        assert cli.main(["evolve", "--qubits", "4", "--state", state, f"--kappa0={kappa0!r}",
                         "--steps", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        columns = dict(zip(lines[0].split(","), np.loadtxt(lines[1:], delimiter=",").T))
        assert np.max(np.abs(columns["S_closed"] - columns["S_numeric"])) <= 1e-10

    @pytest.mark.parametrize("kappa0", [20.0, 1e6, 1e20, 1e308])
    def test_tunnel_series_matches_register_oracle(self, kappa0):
        def register(point):
            return symspace.symmetric_to_qubits(symspace.coherent_state(2.0, point))

        plus, minus = register(PLUS_Y), register(MINUS_Y)
        ghz = (plus - 1j * minus) / math.sqrt(2.0)
        u = register_floquet(4, kappa0)
        overlaps, fidelities = [], []
        for _ in range(51):
            overlaps.append(abs(np.vdot(minus, plus)) ** 2)
            fidelities.append(abs(np.vdot(ghz, plus)) ** 2)
            plus = u @ plus
        times = range(51)
        assert np.max(np.abs(exact4.tunneling_overlap_series(kappa0, times) - overlaps)) <= 1e-12
        assert np.max(np.abs(exact4.ghz_fidelity_series(kappa0, times) - fidelities)) <= 1e-12


class TestTunnelingCondition:
    @pytest.mark.parametrize("two_j", [3, 4, 5, 6, 7, 8])
    def test_rotation_degeneracy_only_at_multiples_of_four(self, two_j):
        # at kappa0 = 0 the +-y coherent tensor powers are rotation
        # eigenstates with phases exp(-+ i p j); they are degenerate (and
        # tunneling-capable) exactly when 2j is a multiple of 4 (p = pi/2)
        j = two_j / 2.0
        u = symspace.floquet(j, 0.0).matrix
        plus = symspace.coherent_state(j, PLUS_Y).amps
        minus = symspace.coherent_state(j, MINUS_Y).amps
        lam_plus = np.vdot(plus, u @ plus)
        lam_minus = np.vdot(minus, u @ minus)
        # eigenvector sanity
        assert np.linalg.norm(u @ plus - lam_plus * plus) < 1e-12
        assert np.linalg.norm(u @ minus - lam_minus * minus) < 1e-12
        if two_j % 4 == 0:
            assert abs(lam_plus - lam_minus) < 1e-12
        else:
            assert abs(lam_plus - lam_minus) > 0.5
