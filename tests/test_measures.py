import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from kickedtop import cli, measures, symspace
from kickedtop.symspace import BlochPoint, SymState

from conftest import (
    haar_symmetric_sample,
    random_symmetric_amps,
    reduced_states,
    register_floquet,
    register_reduced,
    stepped_alone,
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


def haar_local_unitary(rng) -> np.ndarray:
    """A Haar-random U x V on two qubits."""
    factors = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        factors.append(q * (r.diagonal() / np.abs(r.diagonal())))
    return np.kron(*factors)


def partial_transpose_det(rho: np.ndarray) -> float:
    """det of rho with the second qubit's indices swapped."""
    return np.linalg.det(rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)).real


SY_SY = [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
PATTERN_WEIGHT = [0, 1, 1, 2]


def mp_concurrence(rho: mpmath.matrix) -> float:
    """Wootters concurrence at 40 digits: the square roots of the eigenvalues
    of rho (sy x sy) rho* (sy x sy), sorted down, as max(0, s1 - s2 - s3 - s4)."""
    with mpmath.workdps(40):
        flip = mpmath.matrix(SY_SY)
        conj = mpmath.matrix([[mpmath.conj(rho[p, q]) for q in range(4)] for p in range(4)])
        evals = mpmath.eig(rho * flip * conj * flip, left=False, right=False)
        roots = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in evals), reverse=True)
        return float(max(0, roots[0] - roots[1] - roots[2] - roots[3]))


def mp_random_state(rng, rank: int) -> mpmath.matrix:
    """A random two-qubit state A A^H / Tr of exact rank `rank` at 40 digits."""
    a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    with mpmath.workdps(40):
        factor = mpmath.matrix([[mpmath.mpc(v.real, v.imag) for v in row] for row in a])
        rho = factor * factor.H
        return rho / sum(rho[p, p] for p in range(4))


def mp_pair_state(amps: np.ndarray) -> mpmath.matrix:
    """The two-qubit reduced state of the symmetric state `amps` at 40 digits."""
    two_j = len(amps) - 1
    with mpmath.workdps(40):
        c = [mpmath.mpc(v.real, v.imag) for v in amps]
        root_binom = [mpmath.sqrt(math.comb(two_j, k)) for k in range(two_j + 1)]
        rest = [mpmath.mpf(math.comb(two_j - 2, r)) for r in range(two_j - 1)]
        band = [[mpmath.fdot([(rest[r] / (root_binom[r + a] * root_binom[r + b]),
                               c[r + a] * mpmath.conj(c[r + b])) for r in range(two_j - 1)])
                 for b in range(3)] for a in range(3)]
        return mpmath.matrix([[band[PATTERN_WEIGHT[p]][PATTERN_WEIGHT[q]] for q in range(4)]
                              for p in range(4)])


def to_double(rho: mpmath.matrix) -> np.ndarray:
    return np.array([[complex(rho[p, q]) for q in range(4)] for p in range(4)])


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
        u = symspace.floquet(1.5, kappa0)
        psi = symspace.coherent_state(1.5, BlochPoint(0.0, 0.0))
        _, concurrences = measures.entanglement_series(u, psi, 30)
        assert np.nanmax(concurrences) < 1e-10

    def test_x_fast_path_matches_general(self, rng):
        rhos = np.array([random_x_state(rng) for _ in range(10**4)])
        general = measures._factor_concurrences(measures._eigen_factor(*np.linalg.eigh(rhos)))
        worst = np.max(np.abs(measures._concurrence_x(rhos) - general))
        assert worst < 1e-10

    def test_rejects_non_psd(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            measures.concurrence(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            measures.concurrence(np.eye(2))

    @pytest.mark.parametrize("entry, value, match", [
        ((2, 1), np.nan, "non-finite entry .row 3"),
        ((0, 0), np.inf, "non-finite entry .row 3"),
        ((0, 1), 0.3, "not Hermitian .row 3"),
    ])
    def test_rejects_bad_rows(self, entry, value, match):
        rhos = np.tile(np.eye(4, dtype=complex) / 4.0, (5, 1, 1))
        rhos[3][entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                measures.concurrences(rhos)

    def test_hermitian_to_the_tolerance_is_accepted(self, rng):
        u = haar_local_unitary(rng)
        rho = u @ np.diag([0.6, 0.2, 0.15, 0.05]) @ u.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        skewed = rho.copy()
        skewed[0, 1] += 0.5 * measures.PSD_CLIP_TOL
        assert measures.concurrence(skewed) == pytest.approx(measures.concurrence(rho), abs=1e-10)

    @pytest.mark.parametrize("offset", [-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3])
    def test_werner_states_across_the_separable_edge(self, offset, rng):
        # p |Psi-><Psi-| + (1 - p) I/4 is entangled iff p > 1/3, with
        # C = max(0, (3p - 1)/2); local unitaries keep C and take the rows off
        # the X shape, onto the screened route.
        p = 1.0 / 3.0 + offset
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        werner = p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0
        local = [haar_local_unitary(rng) for _ in range(20)]
        rhos = np.array([u @ werner @ u.conj().T for u in local])
        assert np.all(np.max(np.abs(rhos[:, ~_X_MASK]), axis=1) > 1e-3)
        got = measures.concurrences(rhos)
        assert np.max(np.abs(got - max(0.0, 1.5 * p - 0.5))) <= 1e-12
        if offset > 0:
            assert np.all(got > 0.0)  # a screened row would read exactly 0

    @pytest.mark.parametrize("rotate", [False, True])
    def test_screen_cannot_bypass_the_psd_check(self, rotate, rng):
        rho = np.diag([-0.2, -0.2, 0.7, 0.7]).astype(complex)
        if rotate:
            u = haar_local_unitary(rng)
            rho = u @ rho @ u.conj().T
        assert partial_transpose_det(rho) == pytest.approx(0.0196, abs=1e-12)
        with pytest.raises(ValueError, match="not positive semidefinite .row 0"):
            measures.concurrence(rho)


ZERO = BlochPoint(0.0, 0.0)
PLUS_Y = BlochPoint(math.pi / 2.0, -math.pi / 2.0)
GENERAL = BlochPoint(1.1, 0.4)


class TestConcurrenceOracle:
    """Both routes against the 40-digit Wootters spectrum of the exact state:
    the worst error measured is 1.7e-15 for concurrences() (random rank 1..4:
    1.0e-15, series rows 1.7e-15) and 3.5e-15 for the factor route of
    entanglement_series() (1.4e-15 outside the rows of small eigenvalues)."""

    BOUND = 4e-15

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_states_of_rank(self, rank, rng):
        exact = [mp_random_state(rng, rank) for _ in range(10)]
        got = measures.concurrences(np.array([to_double(rho) for rho in exact]))
        assert np.max(np.abs(got - [mp_concurrence(rho) for rho in exact])) <= self.BOUND

    @pytest.mark.parametrize("two_j, kappa0, point", [
        (3, 3.0, BlochPoint(math.pi / 2.0, -math.pi / 2.0)),
        (4, 1.3, BlochPoint(1.1, 0.4)),
        (50, 1.3, BlochPoint(1.1, 0.4)),
    ])
    def test_series_rows(self, two_j, kappa0, point):
        u = symspace.floquet(two_j / 2.0, kappa0)
        states = symspace.trajectory(u, symspace.coherent_state(two_j / 2.0, point), 24)
        got = measures.concurrences(reduced_states(states, 2))
        expected = [mp_concurrence(mp_pair_state(amps)) for amps in states]
        assert np.max(np.abs(got - expected)) <= self.BOUND

    # Row 0 of every series is the coherent product state: its pair state has
    # rank 1 and det(rho^G) = 0, so the screen leaves it to the factor.  The
    # zero state is X-shaped at even kicks, and kappa0 in {2pi, 3pi, 4pi} is
    # resonant.
    @pytest.mark.parametrize("two_j, kappa0, point", [
        (2, 1.3, GENERAL),
        (3, 3.0, PLUS_Y),
        (3, 2.0 * math.pi, ZERO),
        (4, 1.3, GENERAL),
        (4, 3.0 * math.pi, ZERO),
        (7, 2.0, GENERAL),
        (7, 4.0 * math.pi, PLUS_Y),
        (7, 1.3, ZERO),
        (50, 1.3, GENERAL),
        (50, 3.0 * math.pi, ZERO),
        (200, 0.78, PLUS_Y),  # regular: the screen takes no row
    ])
    def test_entanglement_series_rows(self, two_j, kappa0, point):
        u = symspace.floquet(two_j / 2.0, kappa0)
        psi0 = symspace.coherent_state(two_j / 2.0, point)
        _, got = measures.entanglement_series(u, psi0, 24)
        states = symspace.trajectory(u, psi0, 24)
        expected = [mp_concurrence(mp_pair_state(amps)) for amps in states]
        assert np.max(np.abs(got - expected)) <= self.BOUND

    # Pair states with eigenvalues down to 2.6e-5 and 6.9e-8, where
    # concurrences() is 1.5e-14 and 4.9e-15 off; the factor route is 0 and
    # 3.5e-15 off.
    @pytest.mark.parametrize("two_j, kappa0, point, row", [
        (4, 0.62429957206355, BlochPoint(0.6379390348614216, 1.3800608505707324), 44),
        (50, 2.086223936003227, BlochPoint(1.272588332940135, 0.09848559643750976), 1),
    ])
    def test_entanglement_series_rows_of_small_eigenvalues(self, two_j, kappa0, point, row):
        u = symspace.floquet(two_j / 2.0, kappa0)
        psi0 = symspace.coherent_state(two_j / 2.0, point)
        _, got = measures.entanglement_series(u, psi0, row)
        amps = symspace.trajectory(u, psi0, row)[row]
        assert abs(got[row] - mp_concurrence(mp_pair_state(amps))) <= self.BOUND

    @pytest.mark.parametrize("two_j, kappa0, point", [
        (2, 1.3, GENERAL),
        (3, 3.0, PLUS_Y),
        (4, 3.0, PLUS_Y),
        (7, 3.0, PLUS_Y),
        (20, 3.0, PLUS_Y),
        (50, 0.9, PLUS_Y),
    ])
    def test_eigh_sees_only_unscreened_rows_above_2j_4(self, two_j, kappa0, point, monkeypatch):
        u = symspace.floquet(two_j / 2.0, kappa0)
        psi0 = symspace.coherent_state(two_j / 2.0, point)
        pairs = reduced_states(symspace.trajectory(u, psi0, 200), 2)
        unscreened = sum(not partial_transpose_det(rho) > 1e-13 for rho in pairs)
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(len(a)) or eigh(a))
        measures.entanglement_series(u, psi0, 200)
        assert sum(seen) == (unscreened if two_j > 4 else 0)
        if two_j == 20:
            assert unscreened < 5  # nearly every row is certified separable


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
            haar_symmetric_sample(1.5, 0, seed=1)


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
        a = haar_symmetric_sample(1.5, 1, seed=5)
        b = haar_symmetric_sample(1.5, 1, seed=5)
        assert a == b

    def test_three_qubit_ensemble(self):
        mean = haar_symmetric_sample(1.5, 10**4, seed=42)
        assert abs(mean - 1.0 / 3.0) < 0.01

    def test_four_qubit_ensemble(self):
        mean = haar_symmetric_sample(2.0, 10**4, seed=43)
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
        u = symspace.floquet(1.5, 1.5 * math.pi)
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
        rho = reduced_states(amps[None], keep)[0]
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

    @pytest.mark.parametrize("two_j", [20, 200, 1000, 2000])
    def test_qubit_entropy_matches_40_digit_bands(self, two_j, rng):
        amps = np.array([random_symmetric_amps(rng, two_j + 1) for _ in range(3)])
        got = measures.qubit_entropies(amps)
        with mpmath.workdps(40):
            root_binom = [mpmath.sqrt(math.comb(two_j, k)) for k in range(two_j + 1)]
            rest = [mpmath.mpf(math.comb(two_j - 1, r)) for r in range(two_j)]
            for row, entropy in zip(amps, got):
                c = [mpmath.mpc(v.real, v.imag) for v in row]

                def band(a, b):
                    return mpmath.fsum(rest[r] / (root_binom[r + a] * root_binom[r + b])
                                       * c[r + a] * c[r + b].conjugate() for r in range(two_j))

                purity = band(0, 0).real ** 2 + band(1, 1).real ** 2 + 2 * abs(band(0, 1)) ** 2
                assert abs(entropy - float(1 - purity)) <= 2e-15

    def test_pair_patterns_expand_the_bands_as_a_double_index_did(self, rng):
        states = np.array([random_symmetric_amps(rng, 8) for _ in range(50)])
        pairs = reduced_states(states, 2)
        bands = pairs[:, [0, 1, 3]][:, :, [0, 1, 3]]  # a kept pattern of each excitation count
        assert np.array_equal(pairs, bands[:, [0, 1, 1, 2]][:, :, [0, 1, 1, 2]])


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", ["zero", "plus_y", "general"])
    @pytest.mark.parametrize("kappa0", [0.3, 2.0 * math.pi, 3.0 * math.pi])
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7])
    def test_matches_register_oracle(self, two_j, kappa0, kind, rng):
        psi0 = _initial_state(two_j, kind, rng)
        u = symspace.floquet(two_j / 2.0, kappa0)
        states = symspace.trajectory(u, psi0, 12)
        singles = reduced_states(states, 1)
        pairs = reduced_states(states, 2) if two_j >= 2 else None
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
        u = symspace.floquet(25.0, kappa0)
        states = symspace.trajectory(u, psi0, 20)
        for keep in (1, 2):
            batch = reduced_states(states, keep)
            rows = [measures.reduced_state(SymState(25.0, amps), keep) for amps in states]
            assert np.max(np.abs(batch - np.array(rows))) <= 1e-12
        pairs = reduced_states(states, 2)
        one_row = [measures.concurrence(rho) for rho in pairs]
        assert np.max(np.abs(measures.concurrences(pairs) - one_row)) <= 1e-12

    def test_entanglement_series_is_one_batch(self):
        psi0 = symspace.coherent_state(3.5, BlochPoint(1.1, 0.4))
        u = symspace.floquet(3.5, 2.1)
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
        u = symspace.floquet(0.5, 1.0)
        entropies, concurrences = measures.entanglement_series(u, psi0, 5)
        assert np.all(entropies == 0.0)
        assert np.all(np.isnan(concurrences))

    def test_rejects_row_off_normalization(self, rng):
        states = np.array([random_symmetric_amps(rng, 6) for _ in range(5)])
        states[3] *= math.sqrt(1.0 + 1e-6)
        with pytest.raises(ValueError, match="row 3"):
            reduced_states(states, 1)

    def test_rejects_non_finite_row(self, rng):
        states = np.array([random_symmetric_amps(rng, 6) for _ in range(3)])
        states[1, 2] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            reduced_states(states, 2)

    def test_rejects_bad_shapes_and_keep(self, rng):
        amps = random_symmetric_amps(rng, 4)
        with pytest.raises(ValueError):
            reduced_states(amps, 1)  # one state must still be a row
        with pytest.raises(ValueError):
            reduced_states(amps[None], 3)
        with pytest.raises(ValueError):
            reduced_states(np.array([[0.0, 1.0]]), 2)  # 2j = 1 < keep
        with pytest.raises(ValueError):
            measures.concurrences(np.eye(4)[None, :2])

    def test_large_spin_stays_finite(self, rng):
        states = np.array([random_symmetric_amps(rng, 401) for _ in range(3)])
        pairs = reduced_states(states, 2)
        assert np.all(np.isfinite(pairs))
        assert np.allclose(np.trace(pairs, axis1=1, axis2=2), 1.0, atol=1e-12)


def register_vector(amps: np.ndarray) -> np.ndarray:
    """The 2^(2j) register amplitudes of a Dicke state: index i spread evenly
    over the bit strings with i ones, built here for any 2j."""
    two_j = len(amps) - 1
    ones = np.zeros(1, dtype=int)
    for _ in range(two_j):
        ones = np.concatenate([ones, ones + 1])  # bit counts of 0..2^(2j) - 1
    return (amps / np.sqrt([float(math.comb(two_j, k)) for k in range(two_j + 1)]))[ones]


class TestQubitEntropies:
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7, 20])
    def test_matches_register_partial_trace(self, two_j, rng):
        states = np.array([random_symmetric_amps(rng, two_j + 1) for _ in range(4)])
        got = measures.qubit_entropies(states)
        for entropy, amps in zip(got, states):
            vec = register_vector(amps)
            if two_j <= 7:
                rho = register_reduced(vec, two_j, (0,))
            else:  # the outer product has 2^40 entries: trace the pure state's factor
                factor = vec.reshape(2, -1)
                rho = factor @ factor.conj().T
            # the register sums run over 2^(2j-1) strings: 4.9e-14 off at 2j = 20
            assert abs(entropy - (1.0 - np.trace(rho @ rho).real)) <= 1e-12

    def test_lone_qubit_is_exactly_pure(self, rng):
        states = np.array([random_symmetric_amps(rng, 2) for _ in range(1000)])
        assert np.all(measures.qubit_entropies(states) == 0.0)

    @pytest.mark.parametrize("two_j", [200, 4096])
    def test_matches_bloch_vector_length(self, two_j, rng):
        # rho = (1 + r.sigma)/2 with r = <J>/j, so S = (1 - |<J>|^2 / j^2)/2
        j, k = two_j / 2.0, np.arange(two_j + 1)
        states = [random_symmetric_amps(rng, two_j + 1) for _ in range(3)]
        states.append(symspace.coherent_state(j, BlochPoint(1.1, 0.4)).amps)
        got = measures.qubit_entropies(np.array(states))
        for entropy, amps in zip(got, states):
            jz = np.sum((j - k) * np.abs(amps) ** 2)
            j_plus = np.sum(np.sqrt((k[:-1] + 1) * (two_j - k[:-1])) * amps[:-1] * amps[1:].conj())
            assert entropy == pytest.approx((1.0 - (jz**2 + abs(j_plus) ** 2) / j**2) / 2.0, abs=1e-14)

    def test_rejects_drifted_and_non_finite_rows(self, rng):
        states = np.array([random_symmetric_amps(rng, 6) for _ in range(5)])
        drifted = states.copy()
        drifted[3] *= math.sqrt(1.0 + 1e-6)
        with pytest.raises(ValueError, match=r"not normalized \(row 3:"):
            measures.qubit_entropies(drifted)
        states[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"not normalized \(row 1:"):
            measures.qubit_entropies(states)

    @pytest.mark.parametrize("two_j", [2, 3, 7, 20, 50, 200])
    def test_block_rows_read_as_in_a_longer_call(self, two_j):
        # a 512-kick sweep block gives its rows the bits they have in one
        # call over the whole trajectory
        u = symspace.floquet(two_j / 2.0, 2.1)
        states = symspace.trajectory(u, symspace.coherent_state(two_j / 2.0, BlochPoint(0.7, -2.0)), 999)
        assert np.array_equal(measures.qubit_entropies(states)[1:513],
                              measures.qubit_entropies(states[1:513]))


def per_point_sweep(two_j, point, kappa0, kicks):
    """The per-point sweep algorithm: its own Floquet operator and its own
    explicit loop, the one trajectory gives it alone, with the entropies of
    each 512-kick block summed."""
    u = symspace.floquet(two_j / 2.0, kappa0)
    vec = symspace.coherent_state(two_j / 2.0, point).amps
    total = 0.0
    for start in range(0, kicks, 512):
        states = stepped_alone(u, vec, min(512, kicks - start))
        total += measures.qubit_entropies(states[1:]).sum()
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
        u = symspace.floquet(2.0, 2.1)
        states = symspace.trajectory(u, symspace.coherent_state(2.0, point), kicks)
        unblocked = float(np.mean(measures.linear_entropy(reduced_states(states[1:], 1))))
        averages = cli._sweep_averages(4, point, self.GRID, kicks)
        assert averages[1] == pytest.approx(unblocked, abs=1e-12)
        reference = [per_point_sweep(4, point, k, kicks) for k in self.GRID]
        assert np.array_equal(averages, reference)

    @pytest.mark.parametrize("two_j", [3, 4, 7, 20])
    def test_cell_is_one_trajectory_call(self, two_j):
        # b divides SWEEP_BLOCK_KICKS, so restarting at kick 512 meets a block
        # edge of the one-call trajectory and moves no row
        point, kicks = BlochPoint(0.7, -2.0), 2 * cli.SWEEP_BLOCK_KICKS + 37
        averages = cli._sweep_averages(two_j, point, self.GRID[:2], kicks)
        for cell, kappa0 in zip(averages, self.GRID):
            u = symspace.floquet(two_j / 2.0, kappa0)
            states = symspace.trajectory(u, symspace.coherent_state(two_j / 2.0, point), kicks)
            total = 0.0
            for first in range(0, kicks, cli.SWEEP_BLOCK_KICKS):
                rows = states[first + 1 : first + 1 + cli.SWEEP_BLOCK_KICKS]
                total += measures.qubit_entropies(rows).sum()
            assert cell == total / kicks

    @pytest.mark.parametrize("two_j", [1, 3, 7, 8, 20, 24, 40, 50, 70, 89, 100, 109])
    def test_power_stacks_fit_the_chunk_budget(self, two_j, monkeypatch):
        # a chunk's power stacks hold no more amplitudes than its block of states
        sizes, build = [], symspace._kick_powers

        def recorded(u, block):
            powers = build(u, block)
            sizes.append(powers.size)
            return powers

        monkeypatch.setattr(symspace, "_kick_powers", recorded)
        cli._sweep_averages(two_j, BlochPoint(0.7, -2.0), list(np.linspace(0.3, 9.0, 40)), 600)
        assert sizes and max(sizes) <= cli.SWEEP_BLOCK_AMPS

    @pytest.mark.parametrize("two_j", [3, 7, 20, 50])
    @pytest.mark.parametrize("kicks", [1, 600, 2 * cli.SWEEP_BLOCK_KICKS + 5])
    def test_one_power_stack_per_chunk(self, two_j, kicks, monkeypatch):
        # every block of a chunk reuses the stack of its first, including a
        # last block shorter than b
        built, build = [], symspace._kick_powers
        monkeypatch.setattr(symspace, "_kick_powers", lambda u, block: built.append(block) or build(u, block))
        chunk = 2
        monkeypatch.setattr(cli, "SWEEP_BLOCK_AMPS", chunk * cli.SWEEP_BLOCK_KICKS * (two_j + 1))
        cli._sweep_averages(two_j, BlochPoint(0.7, -2.0), self.GRID[:5], kicks)
        block = next(b for lo, b in symspace._KICK_BLOCKS if two_j + 1 >= lo)
        assert built == [min(kicks, block)] * 3

    @pytest.mark.parametrize("two_j", [3, 20, 50])
    @pytest.mark.parametrize("chunk,per_floquet", [(None, None), (2, 3), (1, 1)])
    def test_chunks_do_not_move_a_bit(self, two_j, chunk, per_floquet, monkeypatch):
        # the chunk of points stepped together and the points that share one
        # floquet call (one sweep's grid) change the grouping, never a cell
        dim = two_j + 1
        if chunk is not None:
            monkeypatch.setattr(cli, "SWEEP_BLOCK_AMPS", chunk * cli.SWEEP_BLOCK_KICKS * dim)
        point, kicks = BlochPoint(0.7, -2.0), 600
        per_floquet = per_floquet or len(self.GRID)
        averages = np.concatenate([
            cli._sweep_averages(two_j, point, self.GRID[lo : lo + per_floquet], kicks)
            for lo in range(0, len(self.GRID), per_floquet)
        ])
        reference = [per_point_sweep(two_j, point, k, kicks) for k in self.GRID]
        assert np.array_equal(averages, reference)

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_factored_chunks_do_not_move_a_bit(self, chunk, monkeypatch):
        # 2j = 200 kicks in factored form; a chunk of points shares each real
        # GEMM call, and numpy still makes one BLAS call per point
        two_j, grid = 200, [2.0 * math.pi, 3.0 * math.pi, 4.0 * math.pi, 11.0]
        assert two_j + 1 >= symspace._FACTORED_MIN_DIM
        monkeypatch.setattr(cli, "SWEEP_BLOCK_AMPS", chunk * cli.SWEEP_BLOCK_KICKS * (two_j + 1))
        point, kicks = BlochPoint(0.7, -2.0), 600
        averages = cli._sweep_averages(two_j, point, grid, kicks)
        reference = [per_point_sweep(two_j, point, k, kicks) for k in grid]
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

    def test_entropy_step_adds_no_transient_memory(self):
        # One qubit_entropies call per point and block.  The bound is the
        # tracemalloc peak of this call when the entropies came from
        # linear_entropy of the 2 x 2 reduced states, one point per call:
        # 922 KiB (numpy 2.4.6; 881 KiB with this kernel).  One call over
        # both points of the chunk peaked at 1389 KiB, and its temporaries
        # made the heap fault its pages in again every block: about 1300
        # minor faults per pass of the sweep benchmark, against under 10.
        args = (20, BlochPoint(1.1, 0.4), [1.3, 2.7], 1000)
        cli._sweep_averages(*args)  # the rotation and band weights are cached from here on
        tracemalloc.start()
        try:
            cli._sweep_averages(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 922 * 1024
