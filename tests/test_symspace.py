import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import exact3, measures, symspace
from kickedtop.exact4 import SECTOR_MINUS, SECTOR_PLUS
from kickedtop.symspace import BlochPoint, SymState

from conftest import (
    block_power3,
    collective_ops,
    eigh_rotation,
    stepped_alone,
    parity_op,
    qubits_to_symmetric,
    random_symmetric_amps,
    register_floquet,
)
from test_closed_route import mp_rotation

JS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 10.0]


class TestParams:
    def test_rejects_bad_j(self):
        with pytest.raises(ValueError, match="half-integer"):
            symspace.floquet(0.7, 1.0)
        with pytest.raises(ValueError, match=">= 1/2"):
            symspace.floquet(0.0, 1.0)

    def test_rejects_nonfinite(self):
        for kappa0 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="kappa0 must be finite"):
                symspace.floquet(1.5, kappa0)
        with pytest.raises(ValueError):
            BlochPoint(math.nan, 0.0)

    def test_bloch_point_ranges(self):
        with pytest.raises(ValueError):
            BlochPoint(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochPoint(math.pi + 0.1, 0.0)
        with pytest.raises(ValueError):
            BlochPoint(1.0, 3.5)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            SymState(1.5, np.array([1.0, 0.0, 0.0]))  # wrong length
        with pytest.raises(ValueError):
            SymState(1.5, np.array([1.0, 1.0, 0.0, 0.0]))  # unnormalized
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="not normalized"):
                SymState(1.5, np.array([bad, 0.0, 0.0, 0.0]))
        state = SymState(1.5, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            state.amps[0] = 0.5  # frozen buffer


class TestCoherentState:
    def test_north_pole_is_all_zeros(self):
        for two_j in (1, 3, 50, symspace.MAX_TWO_J):
            for phi in (-math.pi, -1.0, 0.0, 2.2):
                amps = symspace.coherent_state(two_j / 2.0, BlochPoint(0.0, phi)).amps
                assert amps[0] == 1.0 and not np.any(amps[1:])  # exactly |0>

    def test_south_pole_is_all_ones(self):
        st_ = symspace.coherent_state(1.5, BlochPoint(math.pi, 0.5))
        assert abs(abs(st_.amps[3]) - 1.0) < 1e-15
        assert np.max(np.abs(st_.amps[:3])) < 1e-15

    def test_plus_y_matches_parity_decomposition(self):
        # tensor(+y) = (phi1+ + sqrt(3) i phi2+)/2
        st_ = symspace.coherent_state(1.5, BlochPoint(math.pi / 2, -math.pi / 2))
        basis = exact3.parity_basis_states3()
        expected = (basis["phi1_plus"] + math.sqrt(3.0) * 1j * basis["phi2_plus"]) / 2.0
        assert np.allclose(st_.amps, expected, atol=1e-14)

    def test_equator_j2_amplitudes(self):
        st_ = symspace.coherent_state(2.0, BlochPoint(math.pi / 2, 0.0))
        expected = [0.25, 0.5, math.sqrt(6.0) / 4.0, 0.5, 0.25]
        assert np.allclose(st_.amps, expected, atol=1e-15)

    @given(
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        j=st.sampled_from(JS),
    )
    @settings(max_examples=60, deadline=None)
    def test_normalized(self, theta, phi, j):
        st_ = symspace.coherent_state(j, BlochPoint(theta, phi))
        assert st_.norm_error() < 1e-12

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            symspace.coherent_state(0.6, BlochPoint(0.1, 0.1))

    def test_size_limit(self):
        # past 2j = 1029, where C(2j, j) overflows a double, the coherent state
        # needs no binomial; 2j is capped only for the rotation's (2j+1)^2
        # doubles, wherever 2j is validated
        limit = symspace.MAX_TWO_J
        for two_j in (1030, limit):
            assert symspace.coherent_state(two_j / 2.0, BlochPoint(1.0, 0.5)).norm_error() < 1e-12
        for make in (lambda j: symspace.coherent_state(j, BlochPoint(1.0, 0.5)),
                     lambda j: symspace.floquet(j, 1.0),
                     lambda j: SymState(j, np.eye(1, limit + 2)[0])):
            with pytest.raises(ValueError, match=f"too large: the limit is 2j <= {limit}"):
                make((limit + 1) / 2.0)


def mp_coherent_state(two_j: int, theta: float, phi: float) -> list:
    """<k|theta, phi> for k = 0..2j at the double angles, to 40 digits:
    sqrt(C(2j, k)) c^(2j-k) (s e^(-i phi))^k with exact integer binomials."""
    with mpmath.workdps(40):
        half = mpmath.mpf(theta) / 2
        c, z = mpmath.cos(half), mpmath.sin(half) * mpmath.expj(-mpmath.mpf(phi))
        c_powers, z_powers = [mpmath.mpf(1)], [mpmath.mpc(1)]
        for _ in range(two_j):
            c_powers.append(c_powers[-1] * c)
            z_powers.append(z_powers[-1] * z)
        amps, binomial = [], 1
        for k in range(two_j + 1):
            amps.append(mpmath.sqrt(binomial) * c_powers[two_j - k] * z_powers[k])
            binomial = binomial * (two_j - k) // (k + 1)
        return amps


class TestCoherentAccuracy:
    """coherent_state against the 40-digit state: within 1e-15 at every size
    up to the limit.  Largest errors seen over these angles: 2.3e-16,
    1.7e-16, 2.0e-16 and 3.0e-16 at 2j = 50, 1000, 2000 and 4096.  The phases
    take k phi in two exact parts; one rounded product k phi gave 2.2e-15,
    4.4e-14, 8.9e-14 and 1.0e-13 here.  The moduli alone are within 3.3e-16."""

    THETAS = [0.0, 1e-300, 0.3, 1.1, math.pi / 2.0, 3.0, math.pi]

    @pytest.mark.parametrize("two_j", [50, 1000, 2000, symspace.MAX_TWO_J])
    def test_matches_40_digit_state(self, two_j):
        for theta in self.THETAS:
            got = symspace.coherent_state(two_j / 2.0, BlochPoint(theta, -1.3)).amps
            reference = np.array([complex(a) for a in mp_coherent_state(two_j, theta, -1.3)])
            assert np.max(np.abs(got - reference)) <= 1e-15, theta


class TestCollectiveOps:
    def test_spin_half_is_half_pauli(self):
        jx, jy, jz = collective_ops(0.5)
        assert np.allclose(jx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(jy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(jz, [[0.5, 0], [0, -0.5]])

    def test_jz_diagonal_descending(self):
        _, _, jz = collective_ops(1.0)
        assert np.allclose(jz, np.diag([1.0, 0.0, -1.0]))

    def test_jy_spectrum(self):
        _, jy, _ = collective_ops(1.5)
        assert np.allclose(np.linalg.eigvalsh(jy), [-1.5, -0.5, 0.5, 1.5], atol=1e-12)

    @pytest.mark.parametrize("j", JS)
    def test_commutator(self, j):
        jx, jy, jz = collective_ops(j)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)


class TestRotation:
    ROUND_OFF = [*range(1, 30), 50, 64, 100, 127, 200, 201, 400]

    @pytest.mark.parametrize("two_j", ROUND_OFF)
    def test_matches_eigh_of_collective_jy(self, two_j):
        # the complex eigh gives the same rotation up to round-off, which in
        # its imaginary part (up to 7e-15 at 2j = 200) is pure error
        rotation = symspace._rotation(two_j)
        assert rotation.dtype == float
        assert np.max(np.abs(rotation - eigh_rotation(two_j / 2.0, math.pi / 2.0))) <= 1e-14

    @pytest.mark.parametrize("two_j", [*ROUND_OFF, 1029])
    def test_real_orthogonal(self, two_j):
        eye = np.eye(two_j + 1)
        rotation = symspace._rotation(two_j)
        assert rotation.dtype == float
        assert np.max(np.abs(rotation.T @ rotation - eye)) <= 1e-13
        assert np.max(np.abs(rotation @ rotation.T - eye)) <= 1e-13

    @pytest.mark.parametrize("two_j", [3, 4, 7, 20, 50])
    def test_matches_40_digit_rotation(self, two_j):
        # largest errors seen: 2.2e-16, 1.1e-16, 1.7e-16, 2.8e-16 and 1.3e-15
        # (a dense eigensolver gave 4.4e-16, 1.0e-15, 1.2e-15, 2.9e-15 and 2.4e-15)
        with mpmath.workdps(40):
            reference = np.array(mp_rotation(two_j).apply(mpmath.re).tolist(), dtype=float)
        rotation = symspace._rotation(two_j)
        assert np.max(np.abs(rotation - reference)) <= 2e-15

    def test_orthogonal_past_the_double_range_of_the_edge_row(self):
        # the edge row's 2^-j sqrt(C(2j, i)) is below the double range here
        two_j = 2200
        rotation = symspace.floquet(two_j / 2.0, 1.3).base
        assert np.max(np.abs(rotation.T @ rotation - np.eye(two_j + 1))) <= 1e-13


class TestRotationReuse:
    """floquet builds and checks exp(-i p Jy) once per 2j and keeps it, up to
    symspace._ROTATION_CACHE_BYTES in all."""

    @staticmethod
    def counted_rotation(monkeypatch):
        """The 2j of every _rotation call from now on, and the unpatched _rotation."""
        built = []
        build = symspace._rotation

        def counted(two_j):
            built.append(two_j)
            return build(two_j)

        monkeypatch.setattr(symspace, "_rotation", counted)
        return built, build

    def test_one_rotation_per_j_and_p(self, fresh_rotations, monkeypatch):
        built, build = self.counted_rotation(monkeypatch)
        first = symspace.floquet(3.5, 0.4)
        second = symspace.floquet(3.5, (1.0, 2.0))
        assert second.base is first.base
        assert built == [7]
        assert np.array_equal(first.base, build(7))

    def test_each_j_and_p_gets_its_own(self, fresh_rotations, monkeypatch):
        built, build = self.counted_rotation(monkeypatch)
        keys = [7, 8, 2, 1]
        bases = [symspace.floquet(two_j / 2.0, 1.0).base for two_j in keys]
        assert built == keys and list(fresh_rotations) == keys
        assert len({id(base) for base in bases}) == len(keys)
        for two_j, base in zip(keys, bases):
            assert np.array_equal(base, build(two_j))
            assert symspace.floquet(two_j / 2.0, 2.0).base is base
        assert built == keys

    def test_a_rotation_that_is_not_orthogonal_is_refused_and_not_kept(self, fresh_rotations,
                                                                       monkeypatch):
        built = []
        monkeypatch.setattr(symspace, "_rotation", lambda two_j: built.append(two_j) or 1.01 * np.eye(4))
        for _ in range(2):  # checked again, since it was not kept
            with pytest.raises(ValueError, match="not unitary"):
                symspace.floquet(1.5, 0.4)
        assert built == [3, 3] and len(fresh_rotations) == 0

    def test_the_kept_rotation_is_read_only(self, fresh_rotations):
        u = symspace.floquet(2.0, 0.4)
        (kept,) = fresh_rotations.values()
        assert kept is u.base and not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u.base[0, 0] = 2.0

    def test_kept_bytes_stay_within_the_bound(self, fresh_rotations, monkeypatch):
        bound = 21 * 21 * 8 + 600  # one 2j = 20 rotation (3528 bytes) and a few small ones
        monkeypatch.setattr(symspace, "_ROTATION_CACHE_BYTES", bound)
        built, build = self.counted_rotation(monkeypatch)
        for two_j in (20, 7, 4, 20, 3, 4, 30, 21):
            u = symspace.floquet(two_j / 2.0, 1.3)
            assert np.array_equal(u.base, build(two_j))
            assert sum(kept.nbytes for kept in fresh_rotations.values()) <= bound
        # 4 pushes out 20 and the second 20 pushes out 7, each the least recently
        # used; 30 (7688 bytes) is built but not kept; 21 (3872) pushes out 20 and 3
        assert built == [20, 7, 4, 20, 3, 30, 21]
        assert list(fresh_rotations) == [4, 21]

    def test_a_rotation_past_the_bound_is_not_kept(self, fresh_rotations):
        # the bound holds one rotation up to 2j = 1023, and none past it
        for two_j, kept in ((1023, True), (1024, False)):
            u = symspace.floquet(two_j / 2.0, 1.3)
            assert (u.base.nbytes <= symspace._ROTATION_CACHE_BYTES) == kept
            assert any(base is u.base for base in fresh_rotations.values()) == kept
        assert list(fresh_rotations) == [1023]


class TestFloquet:
    def test_pure_rotation_spin_half(self):
        u = symspace.floquet(0.5, 0.0)
        c = math.sqrt(2.0) / 2.0
        assert np.allclose(u.matrix, [[c, -c], [c, c]], atol=1e-14)

    def test_three_qubit_block_form(self):
        # Up to the global phase exp(-i kappa0/6), the torsion's constant
        # diagonal (kappa0/4)(1 - 1/2j) in floquet's gauge, the Floquet operator
        # is block diagonal in the parity-adapted basis with the closed-form
        # 2x2 blocks.
        kappa0 = 1.3
        u = symspace.floquet(1.5, kappa0).matrix
        basis = exact3.parity_basis_states3()
        p = np.column_stack(
            [basis["phi1_plus"], basis["phi2_plus"], basis["phi1_minus"], basis["phi2_minus"]]
        )
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = block_power3(kappa0, 1, SECTOR_PLUS)
        expected[2:, 2:] = block_power3(kappa0, 1, SECTOR_MINUS)
        got = p.conj().T @ (np.exp(1j * kappa0 / 6.0) * u) @ p
        assert np.max(np.abs(got - expected)) < 1e-12

    @given(
        j=st.sampled_from(JS),
        kappa0=st.floats(min_value=-15.0, max_value=15.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, j, kappa0):
        u = symspace.floquet(j, kappa0)
        defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(u.dim))
        assert defect < 1e-10

    def test_matches_register_construction(self, rng):
        # Independent oracle: Pauli-string construction on the full register,
        # global gauge exp(+i (kappa0/4)(1 - (2j mod 2)/2j)) applied to the
        # Dicke-space operator, whose torsion phases start at the smallest m^2.
        for two_j, kappa0 in ((3, 0.7), (4, 2.1), (5, 1.1)):
            u = symspace.floquet(two_j / 2.0, kappa0)
            amps = random_symmetric_amps(rng, two_j + 1)
            psi = SymState(two_j / 2.0, amps)
            evolved = symspace.evolve(u, psi, 7)
            vec = symspace.symmetric_to_qubits(psi)
            u_reg = register_floquet(two_j, kappa0)
            for _ in range(7):
                vec = u_reg @ vec
            gauge = (kappa0 / 4.0) * (1.0 - (two_j % 2) / two_j)
            expected = symspace.symmetric_to_qubits(evolved) * np.exp(1j * gauge) ** 7
            assert np.max(np.abs(vec - expected)) < 1e-12


class TestEvolve:
    def test_zero_steps_identity(self):
        u = symspace.floquet(1.5, 0.8)
        psi = symspace.coherent_state(1.5, BlochPoint(0.3, 0.4))
        assert np.array_equal(symspace.evolve(u, psi, 0).amps, psi.amps)

    def test_dimension_mismatch(self):
        u = symspace.floquet(1.5, 0.8)
        psi = symspace.coherent_state(2.0, BlochPoint(0.3, 0.4))
        with pytest.raises(ValueError):
            symspace.evolve(u, psi, 1)

    @pytest.mark.parametrize("two_j", [1, 3, 4, 20, 200])
    def test_bit_identical_to_matmul_loop(self, two_j):
        u = symspace.floquet(two_j / 2.0, 1.7)
        psi = symspace.coherent_state(two_j / 2.0, BlochPoint(0.8, -1.3))
        steps = 300
        assert np.array_equal(symspace.trajectory(u, psi, steps), stepped_alone(u, psi.amps, steps))

    def test_norm_preserved_million_steps(self):
        u = symspace.floquet(1.5, 2.5)
        psi = symspace.coherent_state(1.5, BlochPoint(1.0, -0.5))
        evolved = symspace.evolve(u, psi, 10**6)
        assert evolved.norm_error() < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [10**10, 10**30])
    def test_horizon_past_the_norm_tolerance_raises(self, n):
        # the norm drifts by about 5e-7 at 1e10 kicks (5e-8, under the
        # tolerance, at 1e9); U^n overflows at 1e30
        u = symspace.floquet(2.0, 0.1)
        psi = symspace.coherent_state(2.0, BlochPoint(math.pi / 2, -math.pi / 2))
        with pytest.raises(ValueError, match="kicks are too many"):
            symspace.evolve(u, psi, n)

    def test_zero_state_matches_closed_form_metrics(self):
        u = symspace.floquet(1.5, 0.5)
        psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        entropies, concurrences = measures.entanglement_series(u, psi, 10)
        for n in range(1, 11):
            assert entropies[n] == pytest.approx(
                exact3.entropy3_closed(exact3.STATE_ZERO, n, 0.5), abs=1e-10
            )
            assert concurrences[n] == pytest.approx(
                exact3.concurrence3_000(n, 0.5), abs=1e-10
            )

    @pytest.mark.parametrize("two_j", [3, 4])
    def test_parity_conserved(self, two_j, rng):
        parity = parity_op(two_j / 2.0)
        u = symspace.floquet(two_j / 2.0, 1.9)
        amps = random_symmetric_amps(rng, two_j + 1)
        traj = symspace.trajectory(u, SymState(two_j / 2.0, amps), 50)
        expectations = np.einsum("ni,ij,nj->n", traj.conj(), parity, traj).real
        assert np.max(np.abs(expectations - expectations[0])) < 1e-10

    @pytest.mark.parametrize("two_j,k", [(3, 1), (3, 2), (4, 1)])
    def test_local_at_torsion_multiples_of_two_pi_j(self, two_j, k):
        # kappa0 = 2 pi j k makes the torsion a local operator: coherent
        # states stay unentangled forever.
        j = two_j / 2.0
        kappa0 = 2.0 * math.pi * j * k
        u = symspace.floquet(j, kappa0)
        psi = symspace.coherent_state(j, BlochPoint(0.9, 1.1))
        entropies, _ = measures.entanglement_series(u, psi, 25)
        assert np.max(entropies) < 1e-10


class TestFloquetStack:
    KAPPAS = [0.3, 1.7, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi, -5.2, 40.0]

    @pytest.mark.parametrize("two_j", [1, 3, 4, 7, 20, 100, 200])
    def test_entries_equal_scalar_calls(self, two_j):
        j = two_j / 2.0
        stack = symspace.floquet(j, self.KAPPAS)
        assert stack.matrix.shape == (len(self.KAPPAS), two_j + 1, two_j + 1)
        assert stack.dim == two_j + 1
        for k, kappa0 in enumerate(self.KAPPAS):
            single = symspace.floquet(j, kappa0)
            assert np.array_equal(stack.matrix[k], single.matrix)

    def test_one_element_sequence_is_a_stack(self):
        stack = symspace.floquet(1.5, [0.9])
        assert stack.matrix.shape == (1, 4, 4)
        assert np.array_equal(stack.matrix[0], symspace.floquet(1.5, 0.9).matrix)

    def test_rejects_mixed_or_empty_grids(self):
        # a NaN among finite torsions, no torsion at all, and a grid that is not 1-D
        with pytest.raises(ValueError, match="kappa0 must be finite"):
            symspace.floquet(1.5, [1.0, math.nan])
        for grid in ([], np.ones((2, 2))):
            with pytest.raises(ValueError, match="non-empty 1-D sequence"):
                symspace.floquet(1.5, grid)

    def test_every_matrix_of_a_stack_is_checked(self, monkeypatch):
        checked, check = [], symspace._unit_phases
        monkeypatch.setattr(symspace, "_unit_phases",
                            lambda phases, dim: checked.append(phases.shape) or check(phases, dim))
        good = symspace.floquet(1.0, (0.4, 0.5, 0.6))
        assert checked == [(3, 3)] and good.shape == (3, 3, 3)

    def test_unit_phases_refuses_bad_rows(self):
        rows = symspace.floquet(1.0, (0.4, 0.5, 0.6)).phases.copy()
        refused = {
            "modulus 1": [rows * np.array([[1.0], [1.0], [1.01]]),
                          np.where(np.eye(3, dtype=bool), np.nan, rows)],
            "rows": [rows[:, :2], rows[None]],  # a (K, dim - 1) stack, a 3-D array
        }
        for message, bad in refused.items():
            for phases in bad:
                with pytest.raises(ValueError, match=message):
                    symspace._unit_phases(phases, 3)
        assert symspace._unit_phases(rows, 3) is rows and not rows.flags.writeable

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_an_overflowing_torsion_phase(self):
        with pytest.raises(ValueError, match="kappa0"):
            symspace.floquet(4.0, (1.0, 1e308))

    def test_operators_and_states_compare_by_identity(self):
        # their fields are arrays: a generated __eq__ would raise on them
        u, psi = symspace.floquet(1.5, 0.3), symspace.coherent_state(1.5, BlochPoint(1.1, 0.4))
        assert u == u and u != symspace.floquet(1.5, 0.3) and u != self.KAPPAS
        assert psi == psi and psi != symspace.coherent_state(1.5, BlochPoint(1.1, 0.4))
        assert len({u, symspace.floquet(1.5, 0.3), psi, psi}) == 3
        assert hash(u) == hash(u) and hash(psi) == hash(psi)

    def test_slices_share_the_checked_matrices(self):
        stack = symspace.floquet(1.5, self.KAPPAS)
        sub = stack[2:5]
        assert sub.dim == 4 and np.array_equal(sub.matrix, stack.matrix[2:5])
        assert not sub.matrix.flags.writeable
        with pytest.raises(TypeError):
            stack[1]
        with pytest.raises(TypeError):
            symspace.floquet(1.5, 0.3)[0:1]


def stepped_point_by_point(stack, starts, n):
    """Reference for the stacked trajectory: every point on its own explicit
    loop, the one trajectory gives it alone."""
    return np.stack([stepped_alone(stack[i : i + 1], vec, n) for i, vec in enumerate(starts)], axis=1)


class TestStackedTrajectory:
    @pytest.mark.parametrize("two_j", [1, 3, 4, 20, 200])
    @pytest.mark.parametrize("count", [1, 2, 3, 31, 120])
    def test_bit_identical_to_per_point_loop(self, two_j, count, rng):
        j = two_j / 2.0
        kappas = rng.uniform(0.05, 4.0 * math.pi, count)
        stack = symspace.floquet(j, kappas)
        starts = np.array([random_symmetric_amps(rng, two_j + 1) for _ in range(count)])
        n = 40 if two_j < 200 else 5
        got = symspace.trajectory(stack, starts, n)
        assert got.shape == (n + 1, count, two_j + 1)
        assert np.array_equal(got, stepped_point_by_point(stack, starts, n))

    @pytest.mark.parametrize("two_j", [3, 4, 7, 20])
    def test_chunks_of_points_are_bit_identical(self, two_j, rng):
        # one GEMV per point of each b-kick block: the points stepped with it never move a bit
        count, n = 5, 300
        stack = symspace.floquet(two_j / 2.0, rng.uniform(0.05, 4.0 * math.pi, count))
        starts = np.array([random_symmetric_amps(rng, two_j + 1) for _ in range(count)])
        whole = symspace.trajectory(stack, starts, n)
        for chunk in (1, 2):
            parts = [symspace.trajectory(stack[lo : lo + chunk], starts[lo : lo + chunk], n)
                     for lo in range(0, count, chunk)]
            assert np.array_equal(np.concatenate(parts, axis=1), whole)

    @pytest.mark.parametrize("two_j", [3, 4, 7, 20])
    def test_every_horizon_around_a_block(self, two_j, rng):
        dim = two_j + 1
        block = next(b for lo, b in symspace._KICK_BLOCKS if dim >= lo)
        assert block > 1 and measures.BLOCK_KICKS % block == 0
        stack = symspace.floquet(two_j / 2.0, (0.4, 2.9))
        starts = np.array([random_symmetric_amps(rng, dim) for _ in range(2)])
        for n in (0, 1, block - 1, block, block + 1, 513):
            got = symspace.trajectory(stack, starts, n)
            assert got.shape == (n + 1, 2, dim)
            assert np.array_equal(got, stepped_point_by_point(stack, starts, n))
            single = symspace.trajectory(stack[:1], starts[:1], n)
            assert np.array_equal(single[:, 0], got[:, 0])
            kicked = [starts[..., None]]  # the per-kick loop, which rounds differently
            for _ in range(n):
                kicked.append(np.matmul(stack.matrix, kicked[-1]))
            assert np.max(np.abs(got - np.array(kicked)[..., 0])) <= 1e-13

    def test_single_point_keeps_its_shape(self):
        u = symspace.floquet(2.0, 1.3)
        psi = symspace.coherent_state(2.0, BlochPoint(0.5, 0.2))
        single = symspace.trajectory(u, psi, 9)
        assert single.shape == (10, 5)
        stacked = symspace.trajectory(symspace.floquet(2.0, [1.3]), psi.amps[None], 9)
        assert np.array_equal(stacked[:, 0], single)

    @pytest.mark.parametrize("two_j", [3, 20, 200])
    def test_writes_into_the_given_storage(self, two_j, rng):
        # the same rows, bit for bit, in the caller's array, which a sweep
        # reuses for every block
        dim, n = two_j + 1, 37
        stack = symspace.floquet(two_j / 2.0, (0.4, 2.9))
        starts = np.array([random_symmetric_amps(rng, dim) for _ in range(2)])
        storage = np.full(2 * (n + 1) * dim + 5, np.nan, dtype=complex)
        out = storage[: 2 * (n + 1) * dim].reshape(2, n + 1, dim)
        got = symspace.trajectory(stack, starts, n, out=out)
        assert np.shares_memory(got, storage)
        assert np.array_equal(got, symspace.trajectory(stack, starts, n))
        psi = SymState(two_j / 2.0, starts[0])
        single = symspace.trajectory(stack[:1], psi, n, out=out[:1])
        assert np.shares_memory(single, storage)
        assert np.array_equal(single, symspace.trajectory(stack[:1], psi, n))

    def test_rejects_storage_of_another_shape_or_type(self, rng):
        stack = symspace.floquet(1.5, (0.2, 0.4))
        starts = np.array([random_symmetric_amps(rng, 4) for _ in range(2)])
        for out in (np.empty((2, 5, 4), dtype=complex), np.empty((2, 4, 4)),
                    np.empty((2, 4, 8), dtype=complex)[:, :, ::2], np.empty((1, 4, 4), dtype=complex)):
            with pytest.raises(ValueError, match="out must be"):
                symspace.trajectory(stack, starts, 3, out=out)

    def test_rejects_mismatched_inputs(self, rng):
        stack = symspace.floquet(1.5, (0.2, 0.4))
        starts = np.array([random_symmetric_amps(rng, 4) for _ in range(2)])
        psi = SymState(1.5, starts[0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            symspace.trajectory(stack, psi, 3)  # one start for two operators
        with pytest.raises(ValueError):
            symspace.trajectory(stack, starts[:, :3], 3)
        with pytest.raises(ValueError):
            symspace.trajectory(symspace.floquet(1.5, 0.2), starts, 3)
        with pytest.raises(ValueError, match="not normalized"):
            symspace.trajectory(stack, starts * 1.001, 3)
        with pytest.raises(ValueError):
            symspace.trajectory(stack, starts, -1)
        with pytest.raises(ValueError, match="stack"):
            symspace.evolve(stack, psi, 3)


class TestFactoredRoute:
    def test_factored_form_is_checked(self):
        u = symspace.floquet(1.5, (0.2, 0.4))
        assert u.base.dtype == float and u.phases.shape == (2, 4) and u.shape == (2, 4, 4)
        assert not u.base.flags.writeable and not u.phases.flags.writeable

    @pytest.mark.parametrize("two_j", [100, 200])
    def test_routes_agree_over_a_thousand_kicks(self, two_j, monkeypatch):
        j = two_j / 2.0
        stack = symspace.floquet(j, (1.1, 2.0 * math.pi, 11.0))
        starts = np.tile(symspace.coherent_state(j, BlochPoint(0.8, -1.3)).amps, (3, 1))
        monkeypatch.setattr(symspace, "_FACTORED_MIN_DIM", 10**9)
        dense = symspace.trajectory(stack, starts, 1000)
        monkeypatch.setattr(symspace, "_FACTORED_MIN_DIM", 1)
        factored = symspace.trajectory(stack, starts, 1000)
        assert np.max(np.abs(factored - dense)) <= 1e-12


class TestRegisterExpansion:
    def test_w_state(self):
        psi = SymState(1.5, np.array([0.0, 1.0, 0.0, 0.0]))
        vec = symspace.symmetric_to_qubits(psi)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1.0 / math.sqrt(3.0)  # |001>, |010>, |100>
        assert np.allclose(vec, expected, atol=1e-15)

    def test_two_excitations_of_four(self):
        psi = SymState(2.0, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        vec = symspace.symmetric_to_qubits(psi)
        hot = [s for s in range(16) if s.bit_count() == 2]
        assert np.allclose(vec[hot], 1.0 / math.sqrt(6.0))
        assert np.count_nonzero(vec) == 6

    def test_coherent_is_tensor_power(self):
        point = BlochPoint(0.8, -0.6)
        spinor = np.array(
            [math.cos(point.theta0 / 2.0), np.exp(-1j * point.phi0) * math.sin(point.theta0 / 2.0)]
        )
        vec = symspace.symmetric_to_qubits(symspace.coherent_state(1.5, point))
        expected = np.kron(np.kron(spinor, spinor), spinor)
        assert np.allclose(vec, expected, atol=1e-14)

    def test_round_trip(self, rng):
        for two_j in (2, 3, 5):
            amps = random_symmetric_amps(rng, two_j + 1)
            psi = SymState(two_j / 2.0, amps)
            back = qubits_to_symmetric(symspace.symmetric_to_qubits(psi), psi.j)
            assert np.max(np.abs(back - amps)) < 1e-12

    def test_size_guard(self):
        amps = np.zeros(16)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="2j"):
            symspace.symmetric_to_qubits(SymState(7.5, amps))
        # 2j = 14 is the last allowed size
        amps = np.zeros(15)
        amps[0] = 1.0
        vec = symspace.symmetric_to_qubits(SymState(7.0, amps))
        assert vec.size == 2**14 and vec[0] == 1.0


class TestParityOp:
    @pytest.mark.parametrize("two_j", [2, 3, 4, 5])
    def test_matches_register_sigma_y_product(self, two_j, rng):
        parity = parity_op(two_j / 2.0)
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        prod = np.array([[1.0]])
        for _ in range(two_j):
            prod = np.kron(prod, sy)
        amps = random_symmetric_amps(rng, two_j + 1)
        psi = SymState(two_j / 2.0, amps)
        lhs = symspace.symmetric_to_qubits(SymState(psi.j, parity @ amps))
        rhs = prod @ symspace.symmetric_to_qubits(psi)
        assert np.max(np.abs(lhs - rhs)) < 1e-13
