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

concurrences() checks each 4x4 row (finite, Hermitian, PSD) and computes the
Wootters concurrence (PRL 80, 2245 (1998)) with one eigh per row: its
eigenvalues give the PSD check and, with its eigenvectors, the factor
X = V sqrt(L) of rho, whose complex symmetric X^T (sy x sy) X has the square
roots of the Wootters spectrum as singular values.  Before that SVD, a row
whose partial transpose has det(rho^G) > 1e-13 is certified separable and
gets C = 0 (a two-qubit state is entangled iff det(rho^G) < 0; Augusiak,
Demianowicz & Horodecki, PRA 77, 030301(R) (2008)); the margin is some 25
times the determinant's rounding error.  At 2j >= 20 nearly every row of a
series is separable this way, and X-shaped rows take a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .symspace import _STATE_NORM_TOL, SymState, UnitaryMatrix, _two_j, trajectory

# Eigenvalues in [-PSD_CLIP_TOL, 0) are treated as exact zeros: tomography and
# round-off routinely produce tiny negatives.
PSD_CLIP_TOL = 1e-10
_X_STATE_TOL = 1e-12
# A row whose computed det(rho^G) exceeds this is certified separable.  The
# eigenvalues of a state's partial transpose lie in [-1/2, 1], so its adjugate
# has norm <= 1 and LU's absolute error in the 4x4 determinant is about
# 16 eps ~ 4e-15: a computed value above 1e-13 means a true det(rho^G) > 0.
_SEPARABLE_DET_MARGIN = 1e-13

# (sy x sy) M reverses the rows of M and negates the new first and last rows.
_SY_SY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
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

    C = max(0, s1 - s2 - s3 - s4) with s1 >= ... >= s4 the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), the conjugation taken in the
    computational (sigma_z product) basis (Wootters, PRL 80, 2245 (1998)).
    Each row must be finite and Hermitian to PSD_CLIP_TOL, else ValueError
    names the first bad row.  X-shaped rows (off-X entries <= _X_STATE_TOL)
    take the closed form, which avoids the sqrt noise of the general route
    near exact zeros.  The general route is three steps:

    1. One eigh of the Hermitised stack, rho = V L V^H, gives both the PSD
       check and the factor X = V sqrt(L), with eigenvalues below
       16 eps l_max zeroed as the round-off of a rank-deficient state.
    2. Rows with det(rho^G) > _SEPARABLE_DET_MARGIN, rho^G the partial
       transpose on the second qubit, are separable and get C = 0: a two-qubit
       state is entangled iff det(rho^G) < 0 (Augusiak, Demianowicz &
       Horodecki, PRA 77, 030301(R) (2008)).  On a row whose eigenvalues
       are clipped by up to PSD_CLIP_TOL, the screen and the SVD can differ
       by that order.
    3. The other rows take s1..s4 as the singular values of the complex
       symmetric tau = X^T (sy x sy) X, since
       tau^H tau = X^H rho~ X has the spectrum of rho rho~.

    Microseconds per row of an entanglement_series pair stack (1001 states:
    1000 kicks from the +y coherent state at kappa0 = 3), best of 11 runs
    interleaved with an eigvalsh + Hermitian-square-root + SVD route, one
    OpenBLAS 0.3.31 thread on a 2-core Xeon VM, and the share of rows the
    screen takes:

        2j            3     4     7    20    50   100   200
        sqrt route  9.7  10.1   9.8  11.0   9.1   9.9   9.6 us
        this route  7.0   7.4   6.1   4.3   3.6   3.8   3.7 us
        screened     0%   10%   43%  100%   99%  100%  100%
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise ValueError("concurrence expects 4x4 density matrices")
    bad = np.flatnonzero(~np.isfinite(rhos).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"density matrix has a non-finite entry (row {bad[0]})")
    adjoint = rhos.conj().swapaxes(1, 2)
    skew = np.abs(rhos - adjoint).max(axis=(1, 2))
    bad = np.flatnonzero(skew > PSD_CLIP_TOL)
    if bad.size:
        raise ValueError(
            f"density matrix is not Hermitian (row {bad[0]}: max|rho - rho^H| = {skew[bad[0]]:.2e})"
        )
    herm = 0.5 * (rhos + adjoint)
    evals, evecs = np.linalg.eigh(herm)
    bad = np.flatnonzero(evals[:, 0] < -PSD_CLIP_TOL)
    if bad.size:
        raise ValueError(
            f"input is not positive semidefinite (row {bad[0]}: min eig {evals[bad[0], 0]:.2e})"
        )
    x_rows = np.max(np.abs(rhos[:, ~_X_MASK]), axis=1) <= _X_STATE_TOL
    out = np.zeros(rhos.shape[0])
    if x_rows.any():
        out[x_rows] = _concurrence_x(rhos[x_rows])
    rest = np.flatnonzero(~x_rows)
    if rest.size:
        partial_transpose = herm[rest].reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
        det = np.linalg.det(partial_transpose.reshape(-1, 4, 4)).real
        entangled = rest[~(det > _SEPARABLE_DET_MARGIN)]
        if entangled.size:
            out[entangled] = _concurrence_general(evals[entangled], evecs[entangled])
    return out


def _concurrence_x(rhos: np.ndarray) -> np.ndarray:
    """Closed-form concurrence of X-shaped two-qubit density matrices."""
    diag = rhos.diagonal(axis1=1, axis2=2).real
    c1 = np.abs(rhos[:, 0, 3]) - np.sqrt(np.maximum(diag[:, 1] * diag[:, 2], 0.0))
    c2 = np.abs(rhos[:, 1, 2]) - np.sqrt(np.maximum(diag[:, 0] * diag[:, 3], 0.0))
    return 2.0 * np.maximum(0.0, np.maximum(c1, c2))


def _concurrence_general(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """Concurrence of each row rho = evecs diag(evals) evecs^H of a stack
    (ascending eigenvalues, as eigh gives them)."""
    evals = np.clip(evals, 0.0, None)
    # Eigenvalues at round-off scale are true zeros of a rank-deficient state;
    # zeroing them keeps sqrt() from turning 1e-16 into 1e-8.
    evals[evals < 16.0 * np.finfo(float).eps * evals[:, -1:]] = 0.0
    factor = evecs * np.sqrt(evals)[:, None, :]
    tau = factor.swapaxes(1, 2) @ (_SY_SY_SIGNS * factor[:, ::-1])
    sigma = np.linalg.svd(tau, compute_uv=False)
    return np.maximum(0.0, 2.0 * sigma[:, 0] - sigma.sum(axis=1))


def concurrence(rho12: np.ndarray) -> float:
    """Wootters concurrence of one two-qubit density matrix; one row of
    concurrences()."""
    rho12 = np.asarray(rho12, dtype=complex)
    if rho12.shape != (4, 4):
        raise ValueError("concurrence expects a 4x4 density matrix")
    return float(concurrences(rho12[None])[0])


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Matrix square root of one PSD matrix."""
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


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
