import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from kickedtop import cli, measures, symspace
from kickedtop.symspace import BlochPoint, KickedTopParams, SymState

from conftest import (
    random_symmetric_amps,
    register_floquet,
    register_reduced,
    streaming_average,
    time_average,
)

GHZ_3Q = SymState(1.5, np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2.0))
W_3Q = SymState(1.5, np.array([0.0, 1.0, 0.0, 0.0]))


def random_x_state(rng):
    diag = rng.random(4)
    diag /= diag.sum()
    rho = np.diag(diag).astype(complex)
    m14 = math.sqrt(diag[0] * diag[3]) * rng.random()
    m23 = math.sqrt(diag[1] * diag[2]) * rng.random()
    rho[0, 3] = m14 * np.exp(2j * math.pi * rng.random())
    rho[3, 0] = rho[0, 3].conjugate()
    rho[1, 2] = m23 * np.exp(2j * math.pi * rng.random())
    rho[2, 1] = rho[1, 2].conjugate()
    return rho


class TestReducedState:
    def test_coherent_state_is_pure(self):
        psi = symspace.coherent_state(3.0, BlochPoint(0.7, 0.2))
        rho = measures.reduced_state(psi, 1)
        assert measures.linear_entropy(rho) == pytest.approx(0.0, abs=1e-13)

    def test_ghz_is_maximally_mixed(self):
        rho = measures.reduced_state(GHZ_3Q, 1)
        assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-14)

    def test_w_state_single_qubit(self):
        rho = measures.reduced_state(W_3Q, 1)
        assert np.allclose(rho, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-14)

    @pytest.mark.parametrize("two_j", range(2, 13))
    @pytest.mark.parametrize("keep", [1, 2])
    def test_matches_register_partial_trace(self, two_j, keep, rng):
        amps = random_symmetric_amps(rng, two_j + 1)
        psi = SymState(two_j / 2.0, amps)
        got = measures.reduced_state(psi, keep)
        vec = symspace.symmetric_to_qubits(psi)
        expected = register_reduced(vec, two_j, tuple(range(keep)))
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_large_spin_no_overflow(self, rng):
        amps = random_symmetric_amps(rng, 101)
        rho = measures.reduced_state(SymState(50.0, amps), 2)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            measures.reduced_state(W_3Q, 3)


class TestLinearEntropy:
    def test_pure(self):
        assert measures.linear_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert measures.linear_entropy(np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_w_marginal(self):
        rho = np.diag([2.0 / 3.0, 1.0 / 3.0])
        assert measures.linear_entropy(rho) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_two_by_two_identity(self):
        # S = 2 lam (1 - lam) for eigenvalues (lam, 1 - lam)
        for lam in (0.0, 0.1, 0.37, 0.5):
            rho = np.diag([lam, 1.0 - lam])
            assert measures.linear_entropy(rho) == pytest.approx(
                2.0 * lam * (1.0 - lam), abs=1e-15
            )

    def test_bounds_on_random_mixed_states(self, rng):
        for dim in (2, 4, 8):
            for _ in range(50):
                a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                rho = a @ a.conj().T
                rho /= np.trace(rho).real
                s = measures.linear_entropy(rho)
                assert -1e-12 <= s <= 1.0 - 1.0 / dim + 1e-12


class TestConcurrence:
    def test_bell_state(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert measures.concurrence(np.outer(v, v)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        v = np.kron([1.0, 0.0], [math.cos(0.4), math.sin(0.4)])
        assert measures.concurrence(np.outer(v, v)) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_where_block_power_hits_unity(self):
        # At kappa0 = 3pi/2 the Chebyshev factor U_{n-1}(chi) cycles through
        # 0, +-1, where the closed form says concurrence vanishes although the
        # entropy is maximal.
        kappa0 = 1.5 * math.pi
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=kappa0))
        psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        _, concurrences = measures.entanglement_series(u, psi, 30)
        assert np.nanmax(concurrences) < 1e-10

    def test_x_fast_path_matches_general(self, rng):
        rhos = np.array([random_x_state(rng) for _ in range(10**4)])
        worst = np.max(np.abs(measures._concurrence_x(rhos) - measures._concurrence_general(rhos)))
        assert worst < 1e-10

    def test_rejects_non_psd(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            measures.concurrence(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            measures.concurrence(np.eye(2))


class TestFidelity:
    def test_identical_pure(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rho = np.outer(v, v.conj())
        assert measures.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert measures.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0])
        assert measures.fidelity(rho, np.eye(2) / 2.0) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    def test_symmetry(self, rng):
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = a @ a.conj().T
            a /= np.trace(a).real
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = b @ b.conj().T
            b /= np.trace(b).real
            assert abs(measures.fidelity(a, b) - measures.fidelity(b, a)) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            measures.fidelity(np.eye(2) / 2.0, np.eye(4) / 4.0)


class TestAverages:
    def test_constant_series(self):
        assert time_average(np.full(100, 0.3)) == pytest.approx(0.3, abs=1e-15)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            time_average(np.array([]))

    def test_sin_squared_powers(self):
        # <sin^2(2 m g)> = 1/2 and <sin^4(2 m g)> = 3/8 for g incommensurate
        # with pi; O(1/N) convergence.
        g = 1.0
        m = np.arange(10**6)
        s2 = np.sin(2.0 * m * g) ** 2
        assert time_average(s2) == pytest.approx(0.5, abs=1e-4)
        assert time_average(s2**2) == pytest.approx(3.0 / 8.0, abs=1e-4)

    def test_streaming_matches_batch(self):
        values = np.sin(np.arange(1000) * 0.7) ** 2
        batch = time_average(values)
        stream = streaming_average(iter(values), 1000)
        assert stream == pytest.approx(batch, abs=1e-15)

    def test_streaming_index_filter(self):
        values = np.arange(10.0)
        even_mean = streaming_average(iter(values), 10, lambda n: n % 2 == 0)
        assert even_mean == pytest.approx(np.mean(values[::2]), abs=1e-15)

    def test_streaming_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            streaming_average(iter([1.0]), 0)
        with pytest.raises(ValueError):
            streaming_average(iter([1.0, 2.0]), 2, lambda n: False)
        with pytest.raises(ValueError):
            measures.haar_symmetric_sample(1.5, 0, seed=1)


class TestRmt:
    def test_three_qubits(self):
        assert measures.rmt_average(3) == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_four_qubits(self):
        assert measures.rmt_average(4) == pytest.approx(3.0 / 8.0, abs=1e-16)

    def test_large_n_limit(self):
        assert measures.rmt_average(10**6) == pytest.approx(0.5, abs=1e-5)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            measures.rmt_average(1)


class TestHaarSampling:
    def test_deterministic(self):
        a = measures.haar_symmetric_sample(1.5, 1, seed=5)
        b = measures.haar_symmetric_sample(1.5, 1, seed=5)
        assert a == b

    def test_three_qubit_ensemble(self):
        mean = measures.haar_symmetric_sample(1.5, 10**4, seed=42)
        assert abs(mean - 1.0 / 3.0) < 0.01

    def test_four_qubit_ensemble(self):
        mean = measures.haar_symmetric_sample(2.0, 10**4, seed=43)
        assert abs(mean - 3.0 / 8.0) < 0.01

    def test_agrees_with_reduced_state_path(self, rng):
        # The vectorized sampler's internal marginal must match reduced_state.
        amps = random_symmetric_amps(rng, 5)
        psi = SymState(2.0, amps)
        direct = measures.linear_entropy(measures.reduced_state(psi, 1))
        # one-sample "ensemble" built from the same state via the private path
        two_j = 4
        k = np.arange(5)
        r = (np.abs(amps) ** 2 @ ((two_j - k) / two_j)).real
        od = np.sum(amps[:-1] * np.sqrt((two_j - k[:-1]) * (k[:-1] + 1)) / two_j * amps[1:].conj())
        purity = r**2 + (1 - r) ** 2 + 2 * abs(od) ** 2
        assert direct == pytest.approx(1.0 - purity, abs=1e-12)


class TestMonogamy:
    def test_max_entropy_forces_zero_concurrence(self):
        # kappa0 = 3pi/2 drives the entropy to its 1/2 ceiling; pairwise
        # entanglement must vanish there.
        u = symspace.floquet(KickedTopParams(j=1.5, kappa0=1.5 * math.pi))
        psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        entropies, concurrences = measures.entanglement_series(u, psi, 60)
        saturated = entropies > 0.5 - 1e-9
        assert saturated.any()
        assert np.max(concurrences[saturated]) < 1e-10


_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def _initial_state(two_j: int, kind: str, rng) -> SymState:
    if kind == "zero":
        return symspace.coherent_state(two_j / 2.0, BlochPoint(0.0, 0.0))
    if kind == "plus_y":
        return symspace.coherent_state(two_j / 2.0, BlochPoint(math.pi / 2.0, -math.pi / 2.0))
    return SymState(two_j / 2.0, random_symmetric_amps(rng, two_j + 1))


class TestExactWeights:
    """The band weights are exact integer ratios, so a reduced state is as
    accurate at 2j = 2000 as at 2j = 20."""

    @pytest.mark.parametrize("keep", [1, 2])
    @pytest.mark.parametrize("two_j", [20, 200, 1000, 2000])
    def test_matches_40_digit_band_sum(self, two_j, keep, rng):
        amps = random_symmetric_amps(rng, two_j + 1)
        rho = measures.reduced_states(amps[None], keep)[0]
        first_pattern = [0, 1, 3]  # a kept pattern of each excitation count: 0, 1, 11
        width = two_j - keep + 1
        with mpmath.workdps(40):
            c = [mpmath.mpc(v.real, v.imag) for v in amps]
            root_binom = [mpmath.sqrt(math.comb(two_j, k)) for k in range(two_j + 1)]
            rest = [mpmath.mpf(math.comb(two_j - keep, r)) for r in range(width)]
            for a in range(keep + 1):
                for b in range(a, keep + 1):
                    band = mpmath.fdot([(rest[r] / (root_binom[r + a] * root_binom[r + b]),
                                         c[r + a] * c[r + b].conjugate()) for r in range(width)])
                    got = rho[first_pattern[a], first_pattern[b]]
                    assert abs(got - complex(band)) <= 1e-15

    def test_pair_patterns_expand_the_bands_as_a_double_index_did(self, rng):
        states = np.array([random_symmetric_amps(rng, 8) for _ in range(50)])
        pairs = measures.reduced_states(states, 2)
        bands = pairs[:, [0, 1, 3]][:, :, [0, 1, 3]]  # a kept pattern of each excitation count
        assert np.array_equal(pairs, bands[:, [0, 1, 1, 2]][:, :, [0, 1, 1, 2]])


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", ["zero", "plus_y", "general"])
    @pytest.mark.parametrize("kappa0", [0.3, 2.0 * math.pi, 3.0 * math.pi])
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7])
    def test_matches_register_oracle(self, two_j, kappa0, kind, rng):
        psi0 = _initial_state(two_j, kind, rng)
        u = symspace.floquet(KickedTopParams(j=two_j / 2.0, kappa0=kappa0))
        states = symspace.trajectory(u, psi0, 12)
        singles = measures.reduced_states(states, 1)
        pairs = measures.reduced_states(states, 2) if two_j >= 2 else None
        register_u = register_floquet(two_j, kappa0)
        vec = symspace.symmetric_to_qubits(psi0)
        expected_pairs = []
        for n in range(states.shape[0]):
            assert np.max(np.abs(singles[n] - register_reduced(vec, two_j, (0,)))) <= 1e-12
            if pairs is not None:
                expected_pairs.append(register_reduced(vec, two_j, (0, 1)))
                assert np.max(np.abs(pairs[n] - expected_pairs[-1])) <= 1e-12
            vec = register_u @ vec
        if pairs is None:
            return
        expected = [measures.concurrence(rho) for rho in expected_pairs]
        assert np.max(np.abs(measures.concurrences(pairs) - expected)) <= 1e-12
        if kind == "zero":
            # |0...0> stays X-shaped at even n, so one batch takes both routes
            off_x = np.max(np.abs(pairs[:, ~_X_MASK]), axis=1)
            assert np.all(off_x[::2] <= 1e-12) and np.any(off_x > 1e-3)

    @pytest.mark.parametrize("kappa0", [0.3, 2.0 * math.pi, 3.0 * math.pi])
    def test_large_spin_matches_one_row_api(self, kappa0):
        psi0 = symspace.coherent_state(25.0, BlochPoint(1.1, 0.4))
        u = symspace.floquet(KickedTopParams(j=25.0, kappa0=kappa0))
        states = symspace.trajectory(u, psi0, 20)
        for keep in (1, 2):
            batch = measures.reduced_states(states, keep)
            rows = [measures.reduced_state(SymState(25.0, amps), keep) for amps in states]
            assert np.max(np.abs(batch - np.array(rows))) <= 1e-12
        pairs = measures.reduced_states(states, 2)
        one_row = [measures.concurrence(rho) for rho in pairs]
        assert np.max(np.abs(measures.concurrences(pairs) - one_row)) <= 1e-12

    def test_entanglement_series_is_one_batch(self):
        psi0 = symspace.coherent_state(3.5, BlochPoint(1.1, 0.4))
        u = symspace.floquet(KickedTopParams(j=3.5, kappa0=2.1))
        entropies, concurrences = measures.entanglement_series(u, psi0, 30)
        for n in (0, 7, 30):
            psi = symspace.evolve(u, psi0, n)
            assert entropies[n] == pytest.approx(
                measures.linear_entropy(measures.reduced_state(psi, 1)), abs=1e-12
            )
            assert concurrences[n] == pytest.approx(
                measures.concurrence(measures.reduced_state(psi, 2)), abs=1e-12
            )

    def test_single_qubit_series_has_nan_concurrence(self):
        psi0 = symspace.coherent_state(0.5, BlochPoint(1.0, 0.2))
        u = symspace.floquet(KickedTopParams(j=0.5, kappa0=1.0))
        entropies, concurrences = measures.entanglement_series(u, psi0, 5)
        assert np.allclose(entropies, 0.0, atol=1e-13)
        assert np.all(np.isnan(concurrences))

    def test_rejects_row_off_normalization(self, rng):
        states = np.array([random_symmetric_amps(rng, 6) for _ in range(5)])
        states[3] *= math.sqrt(1.0 + 1e-6)
        with pytest.raises(ValueError, match="row 3"):
            measures.reduced_states(states, 1)

    def test_rejects_non_finite_row(self, rng):
        states = np.array([random_symmetric_amps(rng, 6) for _ in range(3)])
        states[1, 2] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            measures.reduced_states(states, 2)

    def test_rejects_bad_shapes_and_keep(self, rng):
        amps = random_symmetric_amps(rng, 4)
        with pytest.raises(ValueError):
            measures.reduced_states(amps, 1)  # one state must still be a row
        with pytest.raises(ValueError):
            measures.reduced_states(amps[None], 3)
        with pytest.raises(ValueError):
            measures.reduced_states(np.array([[0.0, 1.0]]), 2)  # 2j = 1 < keep
        with pytest.raises(ValueError):
            measures.concurrences(np.eye(4)[None, :2])

    def test_large_spin_stays_finite(self, rng):
        states = np.array([random_symmetric_amps(rng, 401) for _ in range(3)])
        pairs = measures.reduced_states(states, 2)
        assert np.all(np.isfinite(pairs))
        assert np.allclose(np.trace(pairs, axis1=1, axis2=2), 1.0, atol=1e-12)


def per_point_sweep(two_j, point, kappa0, kicks):
    """The earlier per-point sweep algorithm: its own Floquet matrix and its
    own np.dot loop, with the entropies of each 512-kick block summed."""
    u = symspace.floquet(KickedTopParams(j=two_j / 2.0, kappa0=kappa0)).matrix
    vec = symspace.coherent_state(two_j / 2.0, point).amps
    total = 0.0
    for start in range(0, kicks, 512):
        states = np.empty((min(512, kicks - start) + 1, two_j + 1), dtype=complex)
        states[0] = vec
        for k in range(1, len(states)):
            np.dot(u, states[k - 1], out=states[k])
        total += measures.linear_entropy(measures.reduced_states(states[1:], 1)).sum()
        vec = states[-1]
    return total / kicks


class TestSweepBlocks:
    GRID = [0.3, 2.1, 2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi, 11.0]

    @pytest.mark.parametrize(
        "kicks", [1, cli.SWEEP_BLOCK_KICKS, 2 * cli.SWEEP_BLOCK_KICKS + 37]
    )
    def test_blocked_mean_equals_unblocked(self, kicks):
        assert cli.SWEEP_BLOCK_KICKS == 512  # the block length of per_point_sweep
        point = BlochPoint(1.1, 0.4)
        u = symspace.floquet(KickedTopParams(j=2.0, kappa0=2.1))
        states = symspace.trajectory(u, symspace.coherent_state(2.0, point), kicks)
        unblocked = float(np.mean(measures.linear_entropy(measures.reduced_states(states[1:], 1))))
        averages = cli._sweep_averages(4, point, self.GRID, kicks)
        assert averages[1] == pytest.approx(unblocked, abs=1e-12)
        reference = [per_point_sweep(4, point, k, kicks) for k in self.GRID]
        assert np.array_equal(averages, reference)

    @pytest.mark.parametrize("two_j", [3, 20, 50])
    @pytest.mark.parametrize("chunk,per_floquet", [(None, None), (2, 3), (1, 1)])
    def test_chunks_do_not_move_a_bit(self, two_j, chunk, per_floquet, monkeypatch):
        # the chunk of points stepped together and the points per floquet
        # call change the grouping, never a cell
        dim = two_j + 1
        if chunk is not None:
            monkeypatch.setattr(cli, "SWEEP_BLOCK_AMPS", chunk * cli.SWEEP_BLOCK_KICKS * dim)
            monkeypatch.setattr(cli, "SWEEP_FLOQUET_ENTRIES", per_floquet * dim**2)
        point, kicks = BlochPoint(0.7, -2.0), 600
        averages = cli._sweep_averages(two_j, point, self.GRID, kicks)
        reference = [per_point_sweep(two_j, point, k, kicks) for k in self.GRID]
        assert np.array_equal(averages, reference)

    def test_sweep_point_never_holds_the_trajectory(self):
        # 30 points at 2j = 100 over 20 000 kicks stay below a quarter of one
        # point's full trajectory: bounded in both the grid size and --kicks
        kicks, dim = 20_000, 101
        full_trajectory = (kicks + 1) * dim * 16  # bytes of complex128 amplitudes
        grid = list(np.linspace(0.5, 9.0, 30))
        tracemalloc.start()
        try:
            cli._sweep_averages(dim - 1, BlochPoint(1.1, 0.4), grid, kicks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_trajectory / 4
