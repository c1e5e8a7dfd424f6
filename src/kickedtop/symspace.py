"""Spin-j kicked top engine on the permutation-symmetric (Dicke) subspace.

One kick period is a rotation by angle p about the y axis followed by a
torsion exp(-i kappa0 Jz^2 / 2j); the Floquet operator of that period acts on
the (2j+1)-dimensional symmetric subspace of 2j qubits.

Basis convention used everywhere in this package: amplitude index i holds the
Jz eigenvalue m = j - i, i.e. amplitudes run m = j, j-1, ..., -j.  In the
qubit picture index i is the normalized symmetric superposition of the
computational strings with exactly i ones, so index 0 is |00...0>.  Units are
hbar = 1 and kick period tau = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_HALF_INT_TOL = 1e-9
_STATE_NORM_TOL = 1e-7  # loose: evolved states are allowed monitored drift
_UNITARY_TOL = 1e-10
QUBIT_EXPANSION_LIMIT = 14  # largest 2j for which full-register expansion is allowed
MAX_BINOMIAL_TWO_J = 1029  # largest 2j whose C(2j, k) all fit a double; C(1030, 515) overflows


def _two_j(j: float) -> int:
    """Validate j as a half-integer >= 1/2 and return 2j as an int."""
    two_j = 2.0 * j
    if not math.isfinite(two_j) or abs(two_j - round(two_j)) > _HALF_INT_TOL:
        raise ValueError(f"j must be a half-integer, got {j!r}")
    two_j = round(two_j)
    if two_j < 1:
        raise ValueError(f"j must be >= 1/2, got {j!r}")
    return two_j


def _binomials(two_j: int) -> np.ndarray:
    """C(2j, k) for k = 0..2j as doubles; ValueError above MAX_BINOMIAL_TWO_J."""
    if two_j > MAX_BINOMIAL_TWO_J:
        raise ValueError(
            f"2j = {two_j} is too large: C(2j, j) overflows a double"
            f" for 2j > {MAX_BINOMIAL_TWO_J}"
        )
    return np.array([math.comb(two_j, k) for k in range(two_j + 1)], dtype=float)


@dataclass(frozen=True)
class KickedTopParams:
    """System configuration: spin j, torsion strength kappa0, rotation angle p."""

    j: float
    kappa0: float
    p: float = math.pi / 2

    def __post_init__(self):
        _two_j(self.j)
        if not math.isfinite(self.kappa0):
            raise ValueError("kappa0 must be finite")
        if not math.isfinite(self.p):
            raise ValueError("p must be finite")

    @property
    def dim(self) -> int:
        return _two_j(self.j) + 1

    @property
    def n_qubits(self) -> int:
        return _two_j(self.j)


@dataclass(frozen=True)
class BlochPoint:
    """Direction (theta0, phi0) on the unit sphere, theta0 in [0, pi], phi0 in [-pi, pi]."""

    theta0: float
    phi0: float

    def __post_init__(self):
        if not (math.isfinite(self.theta0) and math.isfinite(self.phi0)):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.theta0 <= math.pi:
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0!r}")
        if not -math.pi <= self.phi0 <= math.pi:
            raise ValueError(f"phi0 must lie in [-pi, pi], got {self.phi0!r}")


@dataclass(frozen=True)
class SymState:
    """Normalized amplitude vector over the Dicke basis (m descending from j)."""

    j: float
    amps: np.ndarray

    def __post_init__(self):
        two_j = _two_j(self.j)
        amps = np.asarray(self.amps, dtype=complex).copy()
        if amps.shape != (two_j + 1,):
            raise ValueError(f"expected {two_j + 1} amplitudes, got shape {amps.shape}")
        if not abs(np.vdot(amps, amps).real - 1.0) <= _STATE_NORM_TOL:  # a NaN norm fails too
            raise ValueError("state is not normalized")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm_error(self) -> float:
        """|<psi|psi> - 1|, the monitored drift of an evolved state."""
        return abs(np.vdot(self.amps, self.amps).real - 1.0)

    def overlap(self, other: "SymState") -> complex:
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A dim x dim unitary, or a (K, dim, dim) stack of them, each checked to
    _UNITARY_TOL in Frobenius norm."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.flags.writeable or not matrix.flags.owndata:
            matrix = matrix.copy()  # a frozen array that owns its data is taken over as is
        if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
            raise ValueError("matrix must be square, or a stack of square matrices")
        dim = matrix.shape[-1]
        eye = np.eye(dim)
        for one in matrix.reshape(-1, dim, dim):  # one at a time: no stack-sized temporaries
            defect = np.linalg.norm(one.conj().T @ one - eye)
            if not defect <= _UNITARY_TOL:  # a NaN entry fails too
                raise ValueError(f"matrix is not unitary (defect {defect:.2e})")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dim", dim)

    def __getitem__(self, index: slice) -> UnitaryMatrix:
        """Sub-stack of a stack; it shares the already checked matrices."""
        if self.matrix.ndim != 3 or not isinstance(index, slice):
            raise TypeError("only a stack can be sliced, and only by a slice")
        sub = object.__new__(UnitaryMatrix)
        object.__setattr__(sub, "matrix", self.matrix[index])
        object.__setattr__(sub, "dim", self.dim)
        return sub


def coherent_state(j: float, point: BlochPoint) -> SymState:
    """SU(2) coherent state at (theta0, phi0): the 2j-fold tensor power of
    cos(theta0/2)|0> + exp(-i phi0) sin(theta0/2)|1>."""
    two_j = _two_j(j)
    c = math.cos(point.theta0 / 2.0)
    s = math.sin(point.theta0 / 2.0)
    k = np.arange(two_j + 1)
    amps = np.sqrt(_binomials(two_j)) * c ** (two_j - k) * (s * np.exp(-1j * point.phi0)) ** k
    amps /= np.linalg.norm(amps)
    return SymState(j, amps)


def _raising_op(two_j: int) -> np.ndarray:
    """J+ in the Dicke basis, J+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; m+1
    sits one index above m."""
    jj = two_j / 2.0
    m = jj - np.arange(1, two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    jp[np.arange(two_j), np.arange(1, two_j + 1)] = np.sqrt(jj * (jj + 1.0) - m * (m + 1.0))
    return jp


def collective_ops(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices (Jx, Jy, Jz) in the Dicke basis."""
    two_j = _two_j(j)
    jz = np.diag(two_j / 2.0 - np.arange(two_j + 1)).astype(complex)
    jp = _raising_op(two_j)
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


def floquet(params: KickedTopParams | Sequence[KickedTopParams]) -> UnitaryMatrix:
    """One-period evolution operator exp(-i (kappa0/2j) Jz^2) exp(-i p Jy).

    One parameter set gives one dim x dim operator; a sequence of K sets that
    share j and p (a kappa0 grid) gives the (K, dim, dim) stack, entry k equal
    to floquet(params[k]).  The rotation is built once per call; each kappa0
    then only adds its diagonal torsion phases.
    """
    single = isinstance(params, KickedTopParams)
    grid = [params] if single else list(params)
    if not grid or any(q.j != grid[0].j or q.p != grid[0].p for q in grid):
        raise ValueError("a Floquet stack needs one or more parameter sets with one j and one p")
    two_j = _two_j(grid[0].j)
    m = two_j / 2.0 - np.arange(two_j + 1)
    kappa0 = np.array([q.kappa0 for q in grid])
    with np.errstate(over="ignore"):
        phases = (kappa0[:, None] / two_j) * m**2
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"kappa0 is too large for 2j = {two_j}: its torsion phase overflows a double")
    stack = np.exp(-1j * phases)[:, :, None] * _rotation(grid[0].j, grid[0].p)
    stack.flags.writeable = False  # UnitaryMatrix takes it over without a copy
    return UnitaryMatrix(stack[0] if single else stack)


def _rotation(j: float, p: float) -> np.ndarray:
    """exp(-i p Jy) from a single Hermitian eigendecomposition of Jy, exact to
    machine precision at any p.  Only Jy = (J+ - J-)/2i is built, with the
    entries collective_ops gives it (J+ is real, so J- is its transpose)."""
    jp = _raising_op(_two_j(j))
    evals, evecs = np.linalg.eigh((jp - jp.T) / 2.0j)
    return (evecs * np.exp(-1j * p * evals)) @ evecs.conj().T


def evolve(u: UnitaryMatrix, psi0: SymState, n: int) -> SymState:
    """U^n psi0, with U^n from O(log n) matrix products (binary powering).

    No renormalization is performed; use SymState.norm_error to monitor drift.
    A horizon so long that the norm drifts past the state tolerance raises
    ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if u.matrix.ndim != 2:
        raise ValueError("evolve takes one operator, not a stack")
    if u.dim != psi0.dim:
        raise ValueError(f"dimension mismatch: U is {u.dim}, state is {psi0.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.linalg.matrix_power(u.matrix, n) @ psi0.amps
        drift = abs(np.vdot(amps, amps).real - 1.0)
    if not drift <= _STATE_NORM_TOL:  # round-off in U grows with n, up to overflow
        raise ValueError(f"n = {n} kicks are too many: round-off in U moved the norm by {drift:.2e}")
    return SymState(psi0.j, amps)


def trajectory(u: UnitaryMatrix, psi0: SymState | np.ndarray, n: int) -> np.ndarray:
    """Amplitudes of U^k psi0 for k = 0..n.

    One operator and a SymState give an (n+1, dim) array.  A (K, dim, dim)
    stack (floquet of K parameter sets) and a (K, dim) array of start rows, one
    per operator and each normalized to _STATE_NORM_TOL, give (n+1, K, dim).
    Every kick is one np.matmul over the stack (np.dot for one point), which
    is bit-identical to stepping each point on its own.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    single = isinstance(psi0, SymState)
    matrices = u.matrix[None] if u.matrix.ndim == 2 else u.matrix
    starts = psi0.amps[None] if single else np.asarray(psi0, dtype=complex)
    if starts.shape != matrices.shape[:2]:
        raise ValueError(f"dimension mismatch: operators {matrices.shape}, starts {starts.shape}")
    if not np.all(np.abs((starts.real**2 + starts.imag**2).sum(axis=1) - 1.0) <= _STATE_NORM_TOL):
        raise ValueError("start state is not normalized")
    out = np.empty((n + 1, *starts.shape), dtype=complex)
    out[0] = starts
    if len(starts) == 1:  # np.dot has less call overhead than np.matmul
        step, matrix, rows = np.dot, matrices[0], out[:, 0]
    else:
        step, matrix, rows = np.matmul, matrices, out[..., None]
    for k in range(1, n + 1):
        step(matrix, rows[k - 1], out=rows[k])
    return out[:, 0] if single else out


def symmetric_to_qubits(psi: SymState) -> np.ndarray:
    """Expand a Dicke-basis state to the full 2^(2j) qubit register.

    Dicke index i spreads uniformly over all strings with i ones.  Guarded to
    2j <= QUBIT_EXPANSION_LIMIT to avoid exponential blowup.
    """
    two_j = _two_j(psi.j)
    if two_j > QUBIT_EXPANSION_LIMIT:
        raise ValueError(
            f"register expansion limited to 2j <= {QUBIT_EXPANSION_LIMIT}, got 2j = {two_j}"
        )
    scale = psi.amps / np.sqrt(_binomials(two_j))
    return scale[[s.bit_count() for s in range(2**two_j)]]
