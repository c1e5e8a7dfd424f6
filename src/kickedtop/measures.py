"""Entanglement and comparison metrics for symmetric (and general) qubit states.

Reduced density matrices of permutation-symmetric pure states are computed
from Dicke coefficients directly, which scales to hundreds of qubits: every
entry of the one- or two-qubit reduced state of each row of an (n, 2j+1)
stack of states (a trajectory, say) is a binomially weighted band sum over
neighbouring Dicke amplitudes, whose weights are exact ratios of integer
products, computed once per (2j, keep).  Each row's norm is checked against
the state tolerance of symspace, so a drifted or malformed state raises
ValueError instead of giving a silently wrong entropy.  qubit_entropies()
takes the single-qubit linear entropy of each row straight from its three
band sums, with no 2 x 2 matrix formed; the pair concurrence takes the
bands of the pair state (entanglement_series()).  reduced_state() gives one
state's matrix, and linear_entropy() and concurrences() take any stack of
matrices, a tomography state say.  The brute-force register partial trace
is kept to the test suite as an oracle.  A trajectory is read in blocks of
kicks (_trajectory_blocks, symspace.trajectory's one caller): the series
and the sweep's mean_entropies() hold one block, whatever the horizon.

The Wootters concurrence (PRL 80, 2245 (1998)) has two routes that share one
step: C = max(0, 2 s1 - sum s) from the singular values s of the complex
symmetric tau = X^T S X, for a factor rho = X X^H and the spin flip S of its
basis.  Before that SVD, a row whose partial transpose has
det(rho^G) > 1e-13 is certified separable and gets C = 0 (a two-qubit state
is entangled iff det(rho^G) < 0; Augusiak, Demianowicz & Horodecki, PRA 77,
030301(R) (2008)); the margin is some 25 times the determinant's rounding
error.  At 2j >= 20 nearly every row of a series is separable this way.

* concurrences() takes any (n, 4, 4) stack, a tomography state say.  It
  checks each row (finite, Hermitian, PSD) and gets X = V sqrt(L) from one
  eigh per row; X-shaped rows take a closed form.
* entanglement_series() takes the rows of a trajectory from their Dicke
  factor.  The pair state lives on the triplets, where rho = X X^H for a
  3 x (2j-1) scaled copy X of the amplitudes, so it is PSD by construction
  and needs no check.  For 2j <= 4, tau comes from X itself, with no
  eigensolver and no square roots; above that, from the 3 x 3 eigen factor
  of the triplet Gram X X^H, which the band sums already give.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .symspace import _STATE_NORM_TOL, SymState, UnitaryMatrix, _kick_block, trajectory

# Eigenvalues in [-PSD_CLIP_TOL, 0) are treated as exact zeros: tomography and
# round-off routinely produce tiny negatives.
PSD_CLIP_TOL = 1e-10
_X_STATE_TOL = 1e-12
# A row whose computed det(rho^G) exceeds this is certified separable.  The
# eigenvalues of a state's partial transpose lie in [-1/2, 1], so its adjugate
# has norm <= 1 and LU's absolute error in the 4x4 determinant is about
# 16 eps ~ 4e-15: a computed value above 1e-13 means a true det(rho^G) > 0.
_SEPARABLE_DET_MARGIN = 1e-13

# S M for the spin flip S of a factor's basis reverses the rows of M and
# negates some: S = sy x sy on the computational basis 00, 01, 10, 11, and
# [[0, 0, -1], [0, 1, 0], [-1, 0, 0]] on the triplets 00, (01 + 10)/sqrt 2, 11.
_FLIP_SIGNS = {4: np.array([-1.0, 1.0, 1.0, -1.0])[:, None], 3: np.array([-1.0, 1.0, -1.0])[:, None]}
_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
# Excitation counts of the kept two-qubit patterns 00, 01, 10, 11.
_PATTERN_WEIGHT = np.array([0, 1, 1, 2])
# sqrt of the triplet multiplicities 1, 2, 1: the triplet Gram is the pair
# bands scaled by these on both sides.
_TRIPLET_ROOT = np.sqrt([1.0, 2.0, 1.0])
# Every trajectory is read in blocks of at most BLOCK_KICKS kicks, and a
# chunk of points holds at most BLOCK_AMPS amplitudes per block at every 2j
# (see _block_shape), the chunk's power stacks in symspace.trajectory no
# more, so the states held are bounded in the horizon and the number of
# points.  512 kicks fit up to 2j+1 = 64; at 2j = 200 a block is 160 kicks
# (0.5 MB).  With 2^16 a 2j = 200 block of 300 kicks and its entropy
# temporaries peaked at 2.1 MB, whose pages glibc returned after each
# operation and faulted in again in the next: 4 840-5 172 minor faults per
# pass of the large_spin benchmark's operations run back to back in one
# process, 880-942 with 2^15.
BLOCK_KICKS = 512
BLOCK_AMPS = 2**15


@functools.lru_cache(maxsize=32)
def _band_weights(two_j: int, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, root) for `keep` qubits of a 2j-qubit register, read-only.

    f_a(r) = C(2j-keep, r) / C(2j, r+a) for r < width = 2j - keep + 1 is
    prod_{i<=a} (r+i) prod_{a<i<=keep} (2j-keep-a-r+i) / prod_{i<keep} (2j-i),
    exact in a double up to the one division.  `diagonal` is the
    (2j+1, keep+2) matrix whose column a <= keep holds f_a at rows
    a..a+width-1 and whose last column is all ones, so that |c|^2 @ diagonal
    gives every diagonal band and the squared norm; `root` holds sqrt(f_a)
    as the rows of a (keep+1, width) array.
    """
    width = two_j - keep + 1
    r = np.arange(float(width))
    den = math.prod(range(width, two_j + 1))
    f = [math.prod(r + i if i <= a else width - 1 - a - r + i for i in range(1, keep + 1)) / den
         for a in range(keep + 1)]
    diagonal = np.zeros((two_j + 1, keep + 2))
    for a in range(keep + 1):
        diagonal[a : a + width, a] = f[a]
    diagonal[:, -1] = 1.0
    root = np.sqrt(f)
    diagonal.flags.writeable = False
    root.flags.writeable = False
    return diagonal, root


def _band_sums(amps: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(amps, sums, root) for `keep` qubits of each row of an (n, 2j+1) stack
    of Dicke amplitudes, after the shape and norm checks.

    amps comes back as a complex array, sums = |amps|^2 @ diagonal holds the
    keep+1 diagonal bands and each row's squared norm, and diagonal and root
    come from _band_weights().  Every row must be normalized to
    _STATE_NORM_TOL; a NaN row fails too, and the message names the first bad
    row.
    """
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] < 2:
        raise ValueError(f"expected an (n, 2j+1) amplitude array, got shape {amps.shape}")
    two_j = amps.shape[1] - 1
    if two_j < keep:
        raise ValueError(f"cannot keep {keep} qubits of a {two_j}-qubit register")
    diagonal, root = _band_weights(two_j, keep)
    # one product gives the diagonal bands and each row's squared norm; the
    # squares take two real copies of the block, the sum is made in place
    power = np.square(amps.real)
    power += np.square(amps.imag)
    sums = power @ diagonal
    drift = np.abs(sums[:, -1] - 1.0)
    bad = np.flatnonzero(~(drift <= _STATE_NORM_TOL))
    if bad.size:
        raise ValueError(
            f"state is not normalized (row {bad[0]}: |norm^2 - 1| = {drift[bad[0]]:.2e})"
        )
    return amps, sums, root


def _bands(amps: np.ndarray, keep: int) -> np.ndarray:
    """The (n, keep+1, keep+1) band sums of the reduced states of `keep`
    qubits (1 or 2) of each row of an (n, 2j+1) stack, Hermitian in their
    last two axes.

    Entry (a, b) is sum_r w_r c[r+a] c*[r+b] with w_r = sqrt(f_a(r) f_b(r)),
    f_a the weights of _band_weights(), so any 2j stays finite and memory
    stays O(n (2j+1)).  Entry (p, q) of the reduced state is the entry of the
    excitation counts of the kept patterns p and q (_PATTERN_WEIGHT); for one
    qubit the bands are the reduced state itself.
    """
    amps, sums, root = _band_sums(amps, keep)
    width = amps.shape[1] - keep
    bands = np.empty((amps.shape[0], keep + 1, keep + 1), dtype=complex)
    for a in range(keep + 1):
        bands[:, a, a] = sums[:, a]
        for b in range(a + 1, keep + 1):
            # vecdot conjugates its first argument as it sums: no conj copy
            band = np.vecdot(amps[:, b : b + width], amps[:, a : a + width] * (root[a] * root[b]))
            bands[:, a, b] = band
            bands[:, b, a] = band.conj()
    return bands


def qubit_entropies(amps: np.ndarray) -> np.ndarray:
    """Single-qubit linear entropy 1 - Tr(rho^2) of each row of an (n, 2j+1)
    stack of Dicke amplitudes (a trajectory, say), checked as _band_sums()
    checks it.

    rho is [[s0, b], [b*, s1]] for the two diagonal band sums s0, s1 and the
    one off-diagonal band b = sum_r sqrt(f_0(r) f_1(r)) c_r c*_(r+1), so
    S = 1 - (s0^2 + s1^2 + 2 |b|^2) needs no 2 x 2 matrix.  A lone qubit
    (2j = 1) is its own pure state and reads exactly 0.  The diagonal sums
    are the one BLAS product of _band_sums(); with OpenBLAS 0.3.31 the last
    n mod 4 rows of an n-row call can round differently from the same rows
    in a longer call (seen from 2j = 20), so a row's last bit can depend on
    where its call ends.
    """
    amps, sums, root = _band_sums(amps, 1)
    if amps.shape[1] == 2:
        return np.zeros(amps.shape[0])
    band = np.vecdot(amps[:, 1:], amps[:, :-1] * (root[0] * root[1]))
    return 1.0 - (sums[:, 0] ** 2 + sums[:, 1] ** 2 + 2.0 * (band.real**2 + band.imag**2))


def reduced_state(psi: SymState, keep: int) -> np.ndarray:
    """Reduced density matrix of `keep` qubits (1 or 2) of a symmetric state.

    By permutation symmetry any choice of kept qubits is equivalent.  One row
    of _bands(), expanded to the kept patterns.
    """
    bands = _bands(psi.amps[None, :], keep)[0]
    return bands if keep == 1 else bands[_PATTERN_WEIGHT[:, None], _PATTERN_WEIGHT]


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
    This is the route for any input, a tomography state say; the rows of a
    trajectory take entanglement_series()' factor route, which needs none of
    the checks.  Each row must be finite and Hermitian to PSD_CLIP_TOL, else
    ValueError names the first bad row.  X-shaped rows (off-X entries <=
    _X_STATE_TOL) take the closed form: the eigen factor below carries sqrt
    noise of order eps / sqrt(l_min), which reached 8e-15 against the
    40-digit spectrum on random X states with l_min of 2e-6 to 3e-5, where
    the closed form is exact.  The general route is three steps:

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
        entangled = rest[_unscreened(herm[rest])]
        if entangled.size:
            out[entangled] = _factor_concurrences(_eigen_factor(evals[entangled], evecs[entangled]))
    return out


def _unscreened(rhos: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (n, 4, 4) stack of states that the screen
    does not certify separable: det(rho^G) <= _SEPARABLE_DET_MARGIN, rho^G
    the partial transpose on the second qubit.  Entries near the smallest
    double (a kappa0 of 1e-310, say) can make LU's determinant NaN; such a
    row is not certified and takes the SVD."""
    partial_transpose = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(partial_transpose).real
    return np.flatnonzero(~(det > _SEPARABLE_DET_MARGIN))


def _concurrence_x(rhos: np.ndarray) -> np.ndarray:
    """Closed-form concurrence of X-shaped two-qubit density matrices."""
    diag = rhos.diagonal(axis1=1, axis2=2).real
    c1 = np.abs(rhos[:, 0, 3]) - np.sqrt(np.maximum(diag[:, 1] * diag[:, 2], 0.0))
    c2 = np.abs(rhos[:, 1, 2]) - np.sqrt(np.maximum(diag[:, 0] * diag[:, 3], 0.0))
    return 2.0 * np.maximum(0.0, np.maximum(c1, c2))


def _eigen_factor(evals: np.ndarray, evecs: np.ndarray) -> np.ndarray:
    """X = V sqrt(L) with X X^H = V diag(L) V^H, for each row of an eigh
    result (ascending eigenvalues)."""
    evals = np.clip(evals, 0.0, None)
    # Eigenvalues at round-off scale are true zeros of a rank-deficient state;
    # zeroing them keeps sqrt() from turning 1e-16 into 1e-8.
    evals[evals < 16.0 * np.finfo(float).eps * evals[:, -1:]] = 0.0
    return evecs * np.sqrt(evals)[:, None, :]


def _factor_concurrences(factor: np.ndarray) -> np.ndarray:
    """Concurrence of each rho = X X^H of an (n, k, w) stack of factors X,
    with k = 4 on the computational basis or k = 3 on the triplets: the
    singular values s of tau = X^T S X, S the spin flip of that basis, are
    those of the Wootters spectrum, and C = max(0, 2 s1 - sum s)."""
    tau = factor.swapaxes(1, 2) @ (_FLIP_SIGNS[factor.shape[1]] * factor[:, ::-1])
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
    the concurrence is NaN throughout for a single qubit.

    The concurrence takes the factor route of _pair_concurrences(), not
    concurrences().  Microseconds per row of the concurrence alone, against
    the route it replaced, concurrences() of the full 4 x 4 pair states that
    a reduced_states() kernel of that time gave (now a test reference in
    tests/conftest.py): medians of 25 interleaved best-of-3
    pairs, one OpenBLAS 0.3.31 thread on a 2-core Xeon VM.  The host changes
    speed by tens of percent, so read the ratio.  The rows are
    1000 kicks from +y at kappa0 = 3 for 2j <= 20; 300 kicks from
    (theta, phi) = (1.1, 0.4) at the kappa0 shown, and from +y in the regular
    regime, where the screen takes no row, for 2j >= 50:

        2j  kappa0  screened  earlier  this route  ratio
         3   3.00       0%      8.8      3.2 us    2.83
         4   3.00      10%      9.8      5.0 us    2.05
         7   3.00      43%     10.1      6.9 us    1.79
        20   3.00     100%      5.3      0.9 us    6.32
        50   2.97      99%      6.1      1.6 us    3.94
       100   2.83      99%      5.9      1.9 us    3.08
       200   4.26      99%      9.1      3.9 us    2.44
        50   0.90 +y    0%      9.6      7.7 us    1.26
       100   1.20 +y    0%     10.8      8.3 us    1.28
       200   0.78 +y    0%     12.7     10.1 us    1.26
    """
    entropies = np.empty(n_max + 1)
    concurrences = np.full(n_max + 1, np.nan)
    for _, first, states in _trajectory_blocks(u, psi0.amps[None], n_max):
        # each block's last row starts the next, so the rows read tile 0..n_max
        rows = states[:, 0] if first + len(states) > n_max else states[:-1, 0]
        entropies[first : first + len(rows)] = qubit_entropies(rows)
        if psi0.dim > 2:
            concurrences[first : first + len(rows)] = _pair_concurrences(rows)
    return entropies, concurrences


def mean_entropies(u: UnitaryMatrix, psi0: SymState, kicks: int) -> np.ndarray:
    """Mean single-qubit linear entropy over kicks 1..kicks of psi0 under each
    operator of a stack (a kappa0 grid), one qubit_entropies call per point
    and block: one call over a chunk's points held temporaries that pushed the
    heap past glibc's trim threshold, so its pages faulted in every block."""
    totals = np.zeros(u.shape[0])
    for lo, _, states in _trajectory_blocks(u, np.tile(psi0.amps, (u.shape[0], 1)), kicks):
        for i in range(states.shape[1]):
            totals[lo + i] += qubit_entropies(states[1:, i]).sum()
    return totals / kicks


def _block_shape(dim: int) -> tuple[int, int]:
    """(kicks per block, points per chunk) at dimension dim: the longest
    multiple of lcm(4, b) kicks, b = trajectory's kicks per BLAS call, within
    BLOCK_KICKS and BLOCK_AMPS amplitudes per point, and as many points as
    fit in BLOCK_AMPS, at least one.  A multiple of b starts each block on a
    block edge of one trajectory call, and of 4 keeps qubit_entropies' bits
    (it can round the last n mod 4 rows of an n-row call differently)."""
    step = math.lcm(4, _kick_block(dim))
    block = max(step, min(BLOCK_KICKS, BLOCK_AMPS // dim) // step * step)
    return block, max(1, BLOCK_AMPS // (block * dim))


def _trajectory_blocks(u: UnitaryMatrix, starts: np.ndarray, kicks: int):
    """Yield (lo, first, states), states the (n+1, points, dim) trajectory of
    kicks first..first+n of start rows lo, lo+1, ... under u (one operator
    and row, or a stack of K and K rows), in chunks and blocks of
    _block_shape.  Each block overwrites the call's one storage array: a new
    array per block let glibc return its pages and fault them in again (30
    points x 4000 kicks at 2j = 100: 80 813 minor faults, against 683)."""
    count, dim = starts.shape
    block, per_chunk = _block_shape(dim)
    storage = np.empty(min(per_chunk, count) * (min(block, kicks) + 1) * dim, dtype=complex)
    for lo in range(0, count, per_chunk):
        chunk = u[lo : lo + per_chunk] if len(u.shape) == 3 else u
        amps = starts[lo : lo + per_chunk]
        for first in range(0, max(kicks, 1), block):  # zero kicks: the start rows alone
            n = min(block, kicks - first)
            out = storage[: len(amps) * (n + 1) * dim].reshape(len(amps), n + 1, dim)
            states = trajectory(chunk, amps, n, out=out)
            yield lo, first, states
            amps = states[-1].copy()  # the next block overwrites the storage


def _pair_concurrences(amps: np.ndarray) -> np.ndarray:
    """Wootters concurrence of the two-qubit reduced state of each row of an
    (n, 2j+1) stack of Dicke amplitudes, 2j >= 2, from its Dicke factor.

    The pair state lives on the triplets, where rho = X X^H for the
    3 x (2j-1) factor X whose column r is
    (sqrt f_0 c_r, sqrt(2 f_1) c_{r+1}, sqrt f_2 c_{r+2}), f_a the band
    weights of _band_weights().  So rho is PSD by construction, and the
    screen of concurrences() needs no eigenvalue check: the rows it
    certifies separable read exactly 0.  The other rows take
    the singular values of tau = Y^T S Y, S the triplet spin flip.  For
    2j <= 4, Y = X itself, so tau is at most 3 x 3 and needs no eigensolver
    and no square roots.  Above that, Y is the 3 x 3 factor V sqrt(L) of the
    triplet Gram X X^H = V L V^H, which is the pair bands scaled by the
    triplet multiplicities.
    """
    bands = _bands(amps, 2)
    rows = _unscreened(bands[:, _PATTERN_WEIGHT[:, None], _PATTERN_WEIGHT])
    out = np.zeros(bands.shape[0])
    if not rows.size:
        return out
    two_j = amps.shape[1] - 1
    if two_j <= 4:
        _, root = _band_weights(two_j, 2)
        picked = amps[rows]
        factor = np.stack(
            [picked[:, a : a + two_j - 1] * (root[a] * _TRIPLET_ROOT[a]) for a in range(3)], axis=1
        )
    else:
        gram = bands[rows] * (_TRIPLET_ROOT[:, None] * _TRIPLET_ROOT)
        factor = _eigen_factor(*np.linalg.eigh(gram))
    out[rows] = _factor_concurrences(factor)
    return out
