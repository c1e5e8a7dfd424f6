"""Entanglement and comparison metrics for symmetric (and general) qubit states.

Reduced density matrices of permutation-symmetric pure states are computed
from Dicke coefficients directly, which scales to hundreds of qubits: one
batched kernel, reduced_states(), takes a whole (n, 2j+1) stack of states (a
trajectory, say) and forms every entry of the one- or two-qubit reduced states
as a binomially weighted band sum over neighbouring Dicke amplitudes, whose
weights are exact ratios of integer products.  Each row's norm is checked against
the state tolerance of symspace, so a drifted or malformed state raises
ValueError instead of giving a silently wrong entropy.  Linear entropy and
concurrence take the same stacks; the single-state functions are one-row calls
of the batched ones.  The brute-force register partial trace is kept to the
test suite as an oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .symspace import _STATE_NORM_TOL, SymState, UnitaryMatrix, _two_j, trajectory

# Eigenvalues in [-PSD_CLIP_TOL, 0) are treated as exact zeros: tomography and
# round-off routinely produce tiny negatives.
PSD_CLIP_TOL = 1e-10
_X_STATE_TOL = 1e-12

_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)
_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
# Excitation counts of the kept two-qubit patterns 00, 01, 10, 11.
_PATTERN_WEIGHT = np.array([0, 1, 1, 2])


def reduced_states(amps: np.ndarray, keep: int) -> np.ndarray:
    """Reduced density matrices of `keep` qubits (1 or 2) for a stack of
    symmetric states.

    `amps` is an (n, 2j+1) array of Dicke amplitudes, one state per row (a
    trajectory, say); the result is the (n, 2**keep, 2**keep) stack of reduced
    states.  Entry (p, q) depends only on the excitation counts a, b of the
    kept patterns p, q and is the band sum sum_r w_r c[r+a] c*[r+b] with
    w_r = sqrt(f_a(r) f_b(r)) and f_a(r) = C(2j-keep, r) / C(2j, r+a), a ratio of
    integer products that is exact in a double up to one division, so any 2j
    stays finite and memory stays O(n (2j+1)).  Every row must be normalized to
    _STATE_NORM_TOL.
    """
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise ValueError(f"expected an (n, 2j+1) amplitude array, got shape {amps.shape}")
    two_j = amps.shape[1] - 1
    if two_j < keep:
        raise ValueError(f"cannot keep {keep} qubits of a {two_j}-qubit register")
    prob = amps.real**2 + amps.imag**2
    drift = np.abs(prob.sum(axis=1) - 1.0)
    bad = np.flatnonzero(~(drift <= _STATE_NORM_TOL))
    if bad.size:
        raise ValueError(
            f"state is not normalized (row {bad[0]}: |norm^2 - 1| = {drift[bad[0]]:.2e})"
        )
    width = two_j - keep + 1
    r = np.arange(float(width))
    # f_a = prod_{i<=a} (r+i) prod_{a<i<=keep} (2j-keep-a-r+i) / prod_{i<keep} (2j-i)
    den = math.prod(range(width, two_j + 1))
    f = [math.prod(r + i if i <= a else width - 1 - a - r + i for i in range(1, keep + 1)) / den
         for a in range(keep + 1)]
    bands = np.empty((amps.shape[0], keep + 1, keep + 1), dtype=complex)
    for a in range(keep + 1):
        for b in range(a, keep + 1):
            if a == b:
                bands[:, a, a] = prob[:, a : a + width] @ f[a]
            else:
                w = np.sqrt(f[a] * f[b])
                bands[:, a, b] = (amps[:, a : a + width] * amps[:, b : b + width].conj()) @ w
                bands[:, b, a] = bands[:, a, b].conj()
    if keep == 1:
        return bands
    return bands[:, _PATTERN_WEIGHT[:, None], _PATTERN_WEIGHT]


def reduced_state(psi: SymState, keep: int) -> np.ndarray:
    """Reduced density matrix of `keep` qubits (1 or 2) of a symmetric state.

    By permutation symmetry any choice of kept qubits is equivalent.  One row
    of reduced_states().
    """
    return reduced_states(psi.amps[None, :], keep)[0]


def linear_entropy(rho: np.ndarray):
    """1 - Tr(rho^2), in [0, 1 - 1/dim]; a float for one matrix, an array for
    a (..., dim, dim) stack."""
    rho = np.asarray(rho)
    entropy = 1.0 - np.einsum("...ij,...ji->...", rho, rho).real
    return float(entropy) if rho.ndim == 2 else entropy


def concurrences(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit density matrix of an (n, 4, 4)
    stack.

    Eigenvalues of (sy x sy) rho* (sy x sy) rho are sorted in decreasing order
    and combined as max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)); the
    conjugation is taken in the computational (sigma_z product) basis.
    X-shaped rows (off-X entries <= _X_STATE_TOL) take the closed form, which
    avoids the sqrt noise of the general path near exact zeros.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise ValueError("concurrence expects 4x4 density matrices")
    evals = np.linalg.eigvalsh(0.5 * (rhos + rhos.conj().swapaxes(1, 2)))
    if evals.size and evals.min() < -PSD_CLIP_TOL:
        raise ValueError(f"input is not positive semidefinite (min eig {evals.min():.2e})")
    x_rows = np.max(np.abs(rhos[:, ~_X_MASK]), axis=1) <= _X_STATE_TOL
    out = np.empty(rhos.shape[0])
    if x_rows.any():
        out[x_rows] = _concurrence_x(rhos[x_rows])
    if not x_rows.all():
        out[~x_rows] = _concurrence_general(rhos[~x_rows])
    return out


def _concurrence_x(rhos: np.ndarray) -> np.ndarray:
    """Closed-form concurrence of X-shaped two-qubit density matrices."""
    diag = rhos.diagonal(axis1=1, axis2=2).real
    c1 = np.abs(rhos[:, 0, 3]) - np.sqrt(np.maximum(diag[:, 1] * diag[:, 2], 0.0))
    c2 = np.abs(rhos[:, 1, 2]) - np.sqrt(np.maximum(diag[:, 0] * diag[:, 3], 0.0))
    return 2.0 * np.maximum(0.0, np.maximum(c1, c2))


def _concurrence_general(rhos: np.ndarray) -> np.ndarray:
    # sqrt(lam_i) of rho rho_tilde are the singular values of
    # sqrt(rho_tilde) sqrt(rho): the same spectrum without the catastrophic
    # sqrt of near-zero eigenvalues (exact-rank-deficient inputs stay exact
    # thanks to the numerical-rank clip inside the matrix square roots).
    root = _psd_sqrt(rhos, rank_clip=True)
    root_tilde = _SY_SY @ root.conj() @ _SY_SY
    sigma = np.linalg.svd(root_tilde @ root, compute_uv=False)
    return np.maximum(0.0, 2.0 * sigma[:, 0] - sigma.sum(axis=1))


def concurrence(rho12: np.ndarray) -> float:
    """Wootters concurrence of one two-qubit density matrix; one row of
    concurrences()."""
    rho12 = np.asarray(rho12, dtype=complex)
    if rho12.shape != (4, 4):
        raise ValueError("concurrence expects a 4x4 density matrix")
    return float(concurrences(rho12[None])[0])


def _psd_sqrt(rho: np.ndarray, rank_clip: bool = False) -> np.ndarray:
    """Matrix square root of one PSD matrix or of a (..., d, d) stack."""
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    if rank_clip:
        # Eigenvalues at round-off scale are true zeros of a rank-deficient
        # state; zeroing them keeps sqrt() from turning 1e-16 into 1e-8.
        evals[evals < 16.0 * np.finfo(float).eps * evals.max(axis=-1, keepdims=True)] = 0.0
    return (evecs * np.sqrt(evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def fidelity(rho_t: np.ndarray, rho_e: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho_t) rho_e sqrt(rho_t)) in [0, 1]."""
    rho_t = np.asarray(rho_t, dtype=complex)
    rho_e = np.asarray(rho_e, dtype=complex)
    if rho_t.shape != rho_e.shape:
        raise ValueError("density matrices must have equal dimension")
    root = _psd_sqrt(rho_t)
    inner = root @ rho_e @ root
    evals = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    if evals.max() > 0.0:
        evals[evals < 16.0 * np.finfo(float).eps * evals.max()] = 0.0
    return float(min(1.0, np.sum(np.sqrt(evals))))


def rmt_average(n_qubits: int) -> float:
    """Ensemble-mean single-qubit linear entropy (N-1)/2N of Haar-random
    permutation-symmetric N-qubit states."""
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    return (n_qubits - 1) / (2.0 * n_qubits)


def haar_symmetric_sample(j: float, count: int, seed: int) -> float:
    """Monte-Carlo mean single-qubit linear entropy over Haar-random states of
    the (2j+1)-dimensional symmetric subspace.  Deterministic given seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = _two_j(j) + 1
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return float(np.mean(linear_entropy(reduced_states(psi, 1))))


def entanglement_series(
    u: UnitaryMatrix, psi0: SymState, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Numeric (linear entropy, pairwise concurrence) series for n = 0..n_max;
    the concurrence is NaN throughout for a single qubit."""
    states = trajectory(u, psi0, n_max)
    entropies = linear_entropy(reduced_states(states, 1))
    if _two_j(psi0.j) < 2:
        return entropies, np.full(n_max + 1, np.nan)
    return entropies, concurrences(reduced_states(states, 2))
