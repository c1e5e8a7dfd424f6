import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import exact3, measures, symspace
from kickedtop.symspace import BlochPoint, KickedTopParams, SymState

from conftest import parity_op, qubits_to_symmetric, random_symmetric_amps, register_floquet

JS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 10.0]


class TestParams:
    def test_dim(self):
        assert KickedTopParams(j=1.5, kappa0=0.5).dim == 4
        assert KickedTopParams(j=2.0, kappa0=0.5).dim == 5

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            KickedTopParams(j=0.7, kappa0=1.0)
        with pytest.raises(ValueError):
            KickedTopParams(j=0.0, kappa0=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            KickedTopParams(j=1.5, kappa0=math.inf)
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

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            symspace.UnitaryMatrix(np.array([[1.0, 0.0], [0.0, 1.1]]))
        with pytest.raises(ValueError):
            symspace.UnitaryMatrix(np.ones((2, 3)))


class TestCoherentState:
    def test_north_pole_is_all_zeros(self):
        for phi in (-1.0, 0.0, 2.2):
            st_ = symspace.coherent_state(1.5, BlochPoint(0.0, phi))
            assert np.allclose(st_.amps, [1, 0, 0, 0], atol=1e-15)

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

    def test_binomial_limit(self):
        limit = symspace.MAX_BINOMIAL_TWO_J
        float(math.comb(limit, limit // 2))
        with pytest.raises(OverflowError):
            float(math.comb(limit + 1, (limit + 1) // 2))
        assert symspace.coherent_state(limit / 2.0, BlochPoint(1.0, 0.5)).norm_error() < 1e-12
        with pytest.raises(ValueError, match="overflows a double"):
            symspace.coherent_state((limit + 1) / 2.0, BlochPoint(1.0, 0.5))


class TestCollectiveOps:
    def test_spin_half_is_half_pauli(self):
        jx, jy, jz = symspace.collective_ops(0.5)
        assert np.allclose(jx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(jy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(jz, [[0.5, 0], [0, -0.5]])

    def test_jz_diagonal_descending(self):
        _, _, jz = symspace.collective_ops(1.0)
        assert np.allclose(jz, np.diag([1.0, 0.0, -1.0]))

    def test_jy_spectrum(self):
        _, jy, _ = symspace.collective_ops(1.5)
        assert np.allclose(np.linalg.eigvalsh(jy), [-1.5, -0.5, 0.5, 1.5], atol=1e-12)

    @pytest.mark.parametrize("j", JS)
    def test_commutator(self, j):
        jx, jy, jz = symspace.collective_ops(j)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)


class TestRotation:
    @pytest.mark.parametrize("two_j", [*range(1, 30), 50, 64, 100, 127, 200, 201, 400])
    def test_matches_eigh_of_collective_jy(self, two_j):
        _, jy, _ = symspace.collective_ops(two_j / 2.0)
        evals, evecs = np.linalg.eigh(jy)
        for p in (math.pi / 2.0, 0.3):
            expected = (evecs * np.exp(-1j * p * evals)) @ evecs.conj().T
            assert np.array_equal(symspace._rotation(two_j / 2.0, p), expected)


class TestFloquet:
    def test_pure_rotation_spin_half(self):
        u = symspace.floquet(KickedTopParams(j=0.5, kappa0=0.0))
        c = math.sqrt(2.0) / 2.0
        assert np.allclose(u.matrix, [[c, -c], [c, c]], atol=1e-14)

    def test_three_qubit_block_form(self):
        # Up to the torsion's constant diagonal phase exp(-i kappa0/4), the
        # Floquet operator is block diagonal in the parity-adapted basis with
        # the closed-form 2x2 blocks.
        kappa0 = 1.3
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0)).matrix
        basis = exact3.parity_basis_states3()
        p = np.column_stack(
            [basis["phi1_plus"], basis["phi2_plus"], basis["phi1_minus"], basis["phi2_minus"]]
        )
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = exact3.block_power3(kappa0, 1, "+").matrix
        expected[2:, 2:] = exact3.block_power3(kappa0, 1, "-").matrix
        got = p.conj().T @ (np.exp(1j * kappa0 / 4.0) * u) @ p
        assert np.max(np.abs(got - expected)) < 1e-12

    @given(
        j=st.sampled_from(JS),
        kappa0=st.floats(min_value=-15.0, max_value=15.0),
        p=st.floats(min_value=-7.0, max_value=7.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, j, kappa0, p):
        u = symspace.floquet(KickedTopParams(j=j, kappa0=kappa0, p=p))
        defect = np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(u.dim))
        assert defect < 1e-10

    def test_rotation_angles_compose(self):
        # at zero torsion the one-kick operator is a pure rotation, so the
        # configurable angle p obeys the group law
        for j in (1.5, 2.0):
            u1 = symspace.floquet(KickedTopParams(j=j, kappa0=0.0, p=0.8)).matrix
            u2 = symspace.floquet(KickedTopParams(j=j, kappa0=0.0, p=1.7)).matrix
            u12 = symspace.floquet(KickedTopParams(j=j, kappa0=0.0, p=2.5)).matrix
            assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12

    def test_matches_register_construction(self, rng):
        # Independent oracle: Pauli-string construction on the full register,
        # global gauge exp(+i kappa0/4) applied to the Dicke-space operator.
        for two_j, kappa0 in ((3, 0.7), (4, 2.1), (5, 1.1)):
            params = KickedTopParams(j=two_j / 2.0, kappa0=kappa0)
            u = symspace.floquet(params)
            amps = random_symmetric_amps(rng, two_j + 1)
            psi = SymState(params.j, amps)
            evolved = symspace.evolve(u, psi, 7)
            vec = symspace.symmetric_to_qubits(psi)
            u_reg = register_floquet(two_j, kappa0)
            for _ in range(7):
                vec = u_reg @ vec
            expected = symspace.symmetric_to_qubits(evolved) * np.exp(1j * kappa0 / 4.0) ** 7
            assert np.max(np.abs(vec - expected)) < 1e-12


class TestEvolve:
    def test_zero_steps_identity(self):
        params = KickedTopParams(j=1.5, kappa0=0.8)
        u = symspace.floquet(params)
        psi = symspace.coherent_state(1.5, BlochPoint(0.3, 0.4))
        assert np.array_equal(symspace.evolve(u, psi, 0).amps, psi.amps)

    def test_dimension_mismatch(self):
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=0.8))
        psi = symspace.coherent_state(2.0, BlochPoint(0.3, 0.4))
        with pytest.raises(ValueError):
            symspace.evolve(u, psi, 1)

    @pytest.mark.parametrize("two_j", [1, 3, 4, 20, 200])
    def test_bit_identical_to_matmul_loop(self, two_j):
        params = KickedTopParams(j=two_j / 2.0, kappa0=1.7)
        u = symspace.floquet(params)
        psi = symspace.coherent_state(params.j, BlochPoint(0.8, -1.3))
        steps = 300
        reference = [psi.amps.copy()]
        for _ in range(steps):
            reference.append(u.matrix @ reference[-1])
        assert np.array_equal(symspace.trajectory(u, psi, steps), np.array(reference))

    def test_norm_preserved_million_steps(self):
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=2.5))
        psi = symspace.coherent_state(1.5, BlochPoint(1.0, -0.5))
        evolved = symspace.evolve(u, psi, 10**6)
        assert evolved.norm_error() < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [10**9, 10**30])
    def test_horizon_past_the_norm_tolerance_raises(self, n):
        # the norm drifts by about 1e-6 at 1e9 kicks; U^n overflows at 1e30
        u = symspace.floquet(KickedTopParams(j=2.0, kappa0=0.1))
        psi = symspace.coherent_state(2.0, BlochPoint(math.pi / 2, -math.pi / 2))
        with pytest.raises(ValueError, match="kicks are too many"):
            symspace.evolve(u, psi, n)

    def test_zero_state_matches_closed_form_metrics(self):
        params = KickedTopParams(j=1.5, kappa0=0.5)
        u = symspace.floquet(params)
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
        params = KickedTopParams(j=two_j / 2.0, kappa0=1.9)
        u = symspace.floquet(params)
        amps = random_symmetric_amps(rng, two_j + 1)
        traj = symspace.trajectory(u, SymState(params.j, amps), 50)
        expectations = np.einsum("ni,ij,nj->n", traj.conj(), parity, traj).real
        assert np.max(np.abs(expectations - expectations[0])) < 1e-10

    @pytest.mark.parametrize("two_j,k", [(3, 1), (3, 2), (4, 1)])
    def test_local_at_torsion_multiples_of_two_pi_j(self, two_j, k):
        # kappa0 = 2 pi j k makes the torsion a local operator: coherent
        # states stay unentangled forever.
        j = two_j / 2.0
        kappa0 = 2.0 * math.pi * j * k
        u = symspace.floquet(KickedTopParams(j=j, kappa0=kappa0))
        psi = symspace.coherent_state(j, BlochPoint(0.9, 1.1))
        entropies, _ = measures.entanglement_series(u, psi, 25)
        assert np.max(entropies) < 1e-10


class TestFloquetStack:
    KAPPAS = [0.3, 1.7, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi, -5.2, 40.0]

    @pytest.mark.parametrize("two_j", [1, 3, 4, 7, 20, 100, 200])
    def test_entries_equal_scalar_calls(self, two_j):
        j = two_j / 2.0
        stack = symspace.floquet([KickedTopParams(j=j, kappa0=k) for k in self.KAPPAS])
        assert stack.matrix.shape == (len(self.KAPPAS), two_j + 1, two_j + 1)
        assert stack.dim == two_j + 1
        for k, kappa0 in enumerate(self.KAPPAS):
            single = symspace.floquet(KickedTopParams(j=j, kappa0=kappa0))
            assert np.array_equal(stack.matrix[k], single.matrix)

    def test_one_element_sequence_is_a_stack(self):
        params = KickedTopParams(j=1.5, kappa0=0.9, p=1.1)
        stack = symspace.floquet([params])
        assert stack.matrix.shape == (1, 4, 4)
        assert np.array_equal(stack.matrix[0], symspace.floquet(params).matrix)

    def test_rejects_mixed_or_empty_grids(self):
        with pytest.raises(ValueError, match="one j and one p"):
            symspace.floquet([KickedTopParams(j=1.5, kappa0=1.0), KickedTopParams(j=2.0, kappa0=1.0)])
        with pytest.raises(ValueError, match="one j and one p"):
            symspace.floquet([KickedTopParams(j=1.5, kappa0=1.0), KickedTopParams(j=1.5, kappa0=1.0, p=1.0)])
        with pytest.raises(ValueError):
            symspace.floquet([])

    def test_every_matrix_of_a_stack_is_checked(self):
        good = symspace.floquet(KickedTopParams(j=1.0, kappa0=0.4)).matrix
        with pytest.raises(ValueError, match="not unitary"):
            symspace.UnitaryMatrix(np.stack([good, good, 1.01 * good]))
        with pytest.raises(ValueError, match="not unitary"):
            symspace.UnitaryMatrix(np.where(np.eye(3, dtype=bool), np.nan, good))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_an_overflowing_torsion_phase(self):
        with pytest.raises(ValueError, match="kappa0"):
            symspace.floquet([KickedTopParams(j=4.0, kappa0=k) for k in (1.0, 1e308)])
        with pytest.raises(ValueError):
            symspace.UnitaryMatrix(np.ones((2, 3, 4)))
        with pytest.raises(ValueError):
            symspace.UnitaryMatrix(np.ones((1, 1, 2, 2)))

    def test_copies_unless_handed_a_frozen_owner(self):
        mine = symspace.floquet(KickedTopParams(j=1.0, kappa0=0.4)).matrix.copy()
        u = symspace.UnitaryMatrix(mine)
        assert u.matrix is not mine and mine.flags.writeable  # the caller's array stays theirs
        frozen = mine.copy()
        frozen.flags.writeable = False
        assert symspace.UnitaryMatrix(frozen).matrix is frozen
        assert symspace.UnitaryMatrix(frozen[None][0]).matrix is not frozen  # a view is copied

    def test_slices_share_the_checked_matrices(self):
        stack = symspace.floquet([KickedTopParams(j=1.5, kappa0=k) for k in self.KAPPAS])
        sub = stack[2:5]
        assert sub.dim == 4 and np.array_equal(sub.matrix, stack.matrix[2:5])
        assert not sub.matrix.flags.writeable
        with pytest.raises(TypeError):
            stack[1]
        with pytest.raises(TypeError):
            symspace.floquet(KickedTopParams(j=1.5, kappa0=0.3))[0:1]


def stepped_point_by_point(matrices, starts, n):
    """Reference for the stacked trajectory: every point on its own np.dot loop."""
    out = np.empty((n + 1, *starts.shape), dtype=complex)
    for i, (matrix, vec) in enumerate(zip(matrices, starts)):
        out[0, i] = vec
        for k in range(1, n + 1):
            out[k, i] = np.dot(matrix, out[k - 1, i])
    return out


class TestStackedTrajectory:
    @pytest.mark.parametrize("two_j", [1, 3, 4, 20, 200])
    @pytest.mark.parametrize("count", [1, 2, 3, 31, 120])
    def test_bit_identical_to_per_point_loop(self, two_j, count, rng):
        j = two_j / 2.0
        kappas = rng.uniform(0.05, 4.0 * math.pi, count)
        stack = symspace.floquet([KickedTopParams(j=j, kappa0=k) for k in kappas])
        starts = np.array([random_symmetric_amps(rng, two_j + 1) for _ in range(count)])
        n = 40 if two_j < 200 else 5
        got = symspace.trajectory(stack, starts, n)
        assert got.shape == (n + 1, count, two_j + 1)
        assert np.array_equal(got, stepped_point_by_point(stack.matrix, starts, n))

    def test_single_point_keeps_its_shape(self):
        u = symspace.floquet(KickedTopParams(j=2.0, kappa0=1.3))
        psi = symspace.coherent_state(2.0, BlochPoint(0.5, 0.2))
        single = symspace.trajectory(u, psi, 9)
        assert single.shape == (10, 5)
        stacked = symspace.trajectory(symspace.UnitaryMatrix(u.matrix[None]), psi.amps[None], 9)
        assert np.array_equal(stacked[:, 0], single)

    def test_rejects_mismatched_inputs(self, rng):
        stack = symspace.floquet([KickedTopParams(j=1.5, kappa0=k) for k in (0.2, 0.4)])
        starts = np.array([random_symmetric_amps(rng, 4) for _ in range(2)])
        psi = SymState(1.5, starts[0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            symspace.trajectory(stack, psi, 3)  # one start for two operators
        with pytest.raises(ValueError):
            symspace.trajectory(stack, starts[:, :3], 3)
        with pytest.raises(ValueError):
            symspace.trajectory(symspace.floquet(KickedTopParams(j=1.5, kappa0=0.2)), starts, 3)
        with pytest.raises(ValueError, match="not normalized"):
            symspace.trajectory(stack, starts * 1.001, 3)
        with pytest.raises(ValueError):
            symspace.trajectory(stack, starts, -1)
        with pytest.raises(ValueError, match="stack"):
            symspace.evolve(stack, psi, 3)


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
