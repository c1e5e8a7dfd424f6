"""Spin-j kicked top engine on the permutation-symmetric (Dicke) subspace.

One kick period is a quarter turn, p = pi/2, about the y axis followed by a
torsion exp(-i kappa0 Jz^2 / 2j); the Floquet operator of that period acts on
the (2j+1)-dimensional symmetric subspace of 2j qubits.  floquet keeps it as
its two factors: the rotation, which is real orthogonal in this basis, and the
diagonal torsion phases, counted from the smallest m^2 (see floquet).  The
rotation comes from the exact spectrum of Jy, m = j, ..., -j: its eigenvectors
by a three-term recurrence from the edge row to the middle, the other half by
parity, then three half-size real GEMMs over the even and odd rows, with no
eigensolver (see _rotation).  The rotation depends on 2j alone, so it is
built and checked once per 2j per process and kept, up to
_ROTATION_CACHE_BYTES in all; a one-shot CLI run builds its one rotation as
before.  trajectory gives every kick: below a measured
dimension several kicks per BLAS call, from a stack of powers of U, and above
it one real matmul with the rotation per kick.  evolve gives one state
U^n psi0 by binary powering.

Basis convention used everywhere in this package: amplitude index i holds the
Jz eigenvalue m = j - i, i.e. amplitudes run m = j, j-1, ..., -j.  In the
qubit picture index i is the normalized symmetric superposition of the
computational strings with exactly i ones, so index 0 is |00...0>.  Units are
hbar = 1 and kick period tau = 1 throughout.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

_HALF_INT_TOL = 1e-9
_STATE_NORM_TOL = 1e-7  # loose: evolved states are allowed monitored drift
_UNITARY_TOL = 1e-10
_KICK_ANGLE = math.pi / 2  # p of the rotation exp(-i p Jy): the paper's quarter turn
QUBIT_EXPANSION_LIMIT = 14  # largest 2j for which full-register expansion is allowed
# Largest 2j accepted anywhere: floquet's rotation R holds (2j+1)^2 doubles,
# 134 MB at 2j = 4096.  One floquet call in a fresh process peaked at an RSS of
# 147 MB (0.73 s) at 2j = 2048 and 425 MB (4.9 s) at 4096, one OpenBLAS 0.3.31
# thread on a 2-core Xeon VM; the import alone is 29 MB.
MAX_TWO_J = 4096
# Smallest dimension 2j+1 that trajectory steps in factored form, D (R psi) with
# R real, rather than by the dense complex matrix.  Per-kick time of one point,
# best of nine 512-kick runs, one OpenBLAS 0.3.31 thread on a 2-core Xeon VM:
#   2j+1     51    81   101   111   121   151   201
#   dense   2.5   3.4   4.7   5.9   6.7   9.5  18.8 us
#   real    3.6   4.3   4.9   5.4   6.0   7.3  11.0 us
_FACTORED_MIN_DIM = 111
# Below _FACTORED_MIN_DIM trajectory advances b kicks per BLAS call from the
# power stack U, U^2, ..., U^b; b is that of the first (smallest 2j+1, b) pair
# of _KICK_BLOCKS the dimension reaches.  ms per call, 2 points, 500 kicks,
# median of 15 runs interleaved over b (same host and thread as above; b = 1
# is the per-kick loop):
#   2j+1   b = 1     2     4     8    16    32
#      4    1.66  0.93  0.50  0.32  0.22  0.21
#     12    1.92  1.04  0.62  0.44  0.44  0.61
#     21    2.23  1.27  0.92  0.83  0.96
#     32    2.64  1.61  1.64  1.27  1.49
#     51    4.26  3.74  3.59  3.66
#     64    6.02  3.59  3.33  4.90
#     81    7.69  5.08  5.11
#    101    8.80  6.36  6.90
# For 1 and 3 points and for 300 kicks the chosen b is within 20% of the best.
# b (2j+1) <= 512 = cli.SWEEP_BLOCK_KICKS, so a sweep chunk's power stacks
# hold no more amplitudes than its block of states.
_KICK_BLOCKS = ((71, 2), (41, 4), (12, 8), (2, 32))
# Bytes of checked rotations that floquet keeps for the life of the process,
# one per 2j, the least recently used dropped first.  8 MiB holds one
# rotation up to 2j = 1023; those of 2j = 50, 100 and 200 take 0.43 MB in all.
# A larger rotation is built and checked on each call and not kept.
_ROTATION_CACHE_BYTES = 8 * 2**20
_rotations: OrderedDict[int, np.ndarray] = OrderedDict()


def _two_j(j: float) -> int:
    """Validate j as a half-integer >= 1/2 and return 2j as an int."""
    two_j = 2.0 * j
    if not math.isfinite(two_j) or abs(two_j - round(two_j)) > _HALF_INT_TOL:
        raise ValueError(f"j must be a half-integer, got {j!r}")
    two_j = round(two_j)
    if two_j < 1:
        raise ValueError(f"j must be >= 1/2, got {j!r}")
    if two_j > MAX_TWO_J:
        raise ValueError(
            f"2j = {two_j} is too large: the limit is 2j <= {MAX_TWO_J}, where the rotation"
            f" alone holds (2j+1)^2 doubles ({8.0 * (two_j + 1) ** 2 / 2**30:.3g} GiB here)"
        )
    return two_j


def _coherent_moduli(two_j: int, thetas) -> np.ndarray:
    """|<k|theta, phi>| for k = 0..2j, one normalised row per theta, with no
    binomial coefficient: the steps log a_(k+1) - log a_k are
    log(sqrt((2j-k)/(k+1)) tan(theta/2)) (Arecchi et al., PRA 6, 2211 (1972)).
    They fall with k, so log a_k - log a_peak is the sum of the negative steps
    before k minus the sum of the positive steps from k on.  Both sums run
    outward from the peak, so none is rounded against a large partial sum (a
    plain cumulative sum from k = 0 carries 1/2 log C(2j, k), and was 1.1e-13
    off at 2j = 2000).  No modulus exceeds the peak's before normalising, so no
    2j or theta overflows; the moduli are within 3.3e-16 of a 40-digit state up
    to 2j = 4096, and theta = 0 gives exactly |0>."""
    k = np.arange(two_j)
    with np.errstate(divide="ignore"):  # tan(0) = 0: every step is -inf
        log_t = np.log(np.tan(np.asarray(thetas, dtype=float) / 2.0))
    steps = 0.5 * np.log((two_j - k) / (k + 1.0)) + log_t[:, None]
    rising = np.maximum(steps, 0.0)
    logs = np.zeros((len(steps), two_j + 1))
    np.cumsum(np.minimum(steps, 0.0), axis=1, out=logs[:, 1:])
    logs[:, :-1] -= np.cumsum(rising[:, ::-1], axis=1)[:, ::-1]
    moduli = np.exp(logs)
    moduli /= np.sqrt(np.einsum("tk,tk->t", moduli, moduli))[:, None]
    return moduli


def _phase_factors(two_j: int, phis) -> np.ndarray:
    """exp(-i k phi) for k = 0..2j (rows) and each phi (columns), with k phi
    never rounded: phi = hi + lo with hi = phi rounded to a float32, so k hi is
    exact for k < 2^13, and k lo is at most 2^-24 |k phi|.  Forming k phi in one
    product left the factors up to 8.6e-13 off 40 digits at 2j = 4096; the
    product exp(-i k hi) exp(-i k lo) is within 2.5e-16."""
    phis = np.asarray(phis, dtype=float)
    hi = phis.astype(np.float32).astype(float)
    k = np.arange(two_j + 1.0)
    return np.exp(-1j * np.outer(k, hi)) * np.exp(-1j * np.outer(k, phis - hi))


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


@dataclass(frozen=True)
class UnitaryMatrix:
    """U = diag(phases) @ base: one dim x dim unitary, or a stack of K of them
    that share the base.

    `base` is the real orthogonal rotation, checked once (R^T R = I to
    _UNITARY_TOL in Frobenius norm); `phases` holds the unit-modulus torsion
    diagonal, a (dim,) row for one operator or a (K, dim) stack of rows.  The
    dense `matrix` is formed on each use, and a stack can be sliced.  floquet
    and slicing put already checked, read-only factors together through
    _of_checked, with no copy and no R^T R product.
    trajectory keeps the power stack it builds on the operator it stepped, so
    later calls with that operator (a sweep chunk's blocks) build none.
    """

    base: np.ndarray
    phases: np.ndarray
    dim: int = field(init=False)
    _kick_stack: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        if base.flags.writeable or not base.flags.owndata:
            base = base.copy()  # a frozen array that owns its data is taken over as is
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError("the rotation must be a square matrix")
        _check_orthogonal(base)
        phases = _unit_phases(np.array(self.phases, dtype=complex), base.shape[0])
        base.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "dim", base.shape[0])

    @classmethod
    def _of_checked(cls, base: np.ndarray, phases: np.ndarray) -> UnitaryMatrix:
        """diag(phases) @ base from factors that are already checked and
        read-only: a rotation that passed _check_orthogonal and rows from
        _unit_phases.  Neither is copied or checked again."""
        u = object.__new__(cls)
        object.__setattr__(u, "base", base)
        object.__setattr__(u, "phases", phases)
        object.__setattr__(u, "dim", base.shape[0])
        return u

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the dense `matrix`, without forming it."""
        return (*self.phases.shape, self.dim)

    @property
    def matrix(self) -> np.ndarray:
        """The dense operator or stack, a new array per use."""
        dense = self.phases[..., None] * self.base
        dense.flags.writeable = False
        return dense

    def __getitem__(self, index: slice) -> UnitaryMatrix:
        """Sub-stack of a stack; it shares the already checked rotation."""
        if self.phases.ndim != 2 or not isinstance(index, slice):
            raise TypeError("only a stack can be sliced, and only by a slice")
        return UnitaryMatrix._of_checked(self.base, self.phases[index])


def _check_orthogonal(base: np.ndarray) -> None:
    """Raise unless R^T R = I to _UNITARY_TOL in Frobenius norm (a d^3 product)."""
    defect = np.linalg.norm(base.T @ base - np.eye(len(base)))
    if not defect <= _UNITARY_TOL:  # a NaN entry fails too
        raise ValueError(f"matrix is not unitary (defect {defect:.2e})")


def _unit_phases(phases: np.ndarray, dim: int) -> np.ndarray:
    """phases, read-only, after checking that they are (dim,) or (K, dim) rows of modulus 1."""
    if phases.ndim not in (1, 2) or phases.shape[-1] != dim:
        raise ValueError("phases need rows of the rotation's dimension")
    if not np.all(np.abs(np.abs(phases) - 1.0) <= _UNITARY_TOL):  # NaN fails too
        raise ValueError("phases must have modulus 1")
    phases.flags.writeable = False
    return phases


def coherent_state(j: float, point: BlochPoint) -> SymState:
    """SU(2) coherent state at (theta0, phi0): the 2j-fold tensor power of
    cos(theta0/2)|0> + exp(-i phi0) sin(theta0/2)|1>."""
    two_j = _two_j(j)
    phases = _phase_factors(two_j, [point.phi0])[:, 0]
    return SymState(j, _coherent_moduli(two_j, [point.theta0])[0] * phases)


def floquet(j: float, kappa0: float | list[float] | np.ndarray) -> UnitaryMatrix:
    """One-period evolution operator exp(-i (kappa0/2j) Jz^2) exp(-i p Jy) of
    spin j, p = pi/2, in factored form: the real rotation exp(-i p Jy)
    and the torsion phases.

    Each torsion phase is x (m^2 - m^2_min), with x = kappa0/2j rounded once
    and m^2_min = 1/4 for odd 2j, 0 for even: a global phase exp(i kappa0/8j)
    at odd 2j, none at even.  x times the integer m^2 - m^2_min is exact at
    2j = 3 and 4, so every kick sees the torsion of exact3 and exact4 at any
    kappa0; x m^2 would be rounded again, a drift of n |kappa0| eps in n kicks.

    A number kappa0 gives one dim x dim operator; a non-empty 1-D sequence of
    K (a kappa0 grid) gives a stack of K, entry k equal to floquet(j,
    kappa0[k]).  Each kappa0 only adds its row of torsion phases, checked on
    every call.  The rotation is built and checked (R^T R = I) once per 2j per
    process, then shared read-only by every later operator; see
    _checked_rotation for the bound on what is kept.
    """
    two_j = _two_j(j)
    grid = np.asarray(kappa0, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError("kappa0 must be a number or a non-empty 1-D sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("kappa0 must be finite")
    m = two_j / 2.0 - np.arange(two_j + 1)
    with np.errstate(over="ignore"):
        phases = (grid[..., None] / two_j) * (m**2 - (two_j % 2) / 4.0)  # (dim,) or (K, dim)
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"kappa0 is too large for 2j = {two_j}: its torsion phase overflows a double")
    rotation = _checked_rotation(two_j)
    return UnitaryMatrix._of_checked(rotation, _unit_phases(np.exp(-1j * phases), two_j + 1))


def _checked_rotation(two_j: int) -> np.ndarray:
    """The read-only rotation exp(-i p Jy) of floquet, built by _rotation and
    checked by _check_orthogonal before its first use.  It is kept in
    _rotations under 2j when it fits in _ROTATION_CACHE_BYTES, and the least
    recently used are dropped until all that is kept fits again; a larger one
    is built per call and not kept."""
    rotation = _rotations.get(two_j)
    if rotation is not None:
        _rotations.move_to_end(two_j)
        return rotation
    rotation = _rotation(two_j)
    _check_orthogonal(rotation)
    rotation.flags.writeable = False
    if rotation.nbytes <= _ROTATION_CACHE_BYTES:
        _rotations[two_j] = rotation
        while sum(kept.nbytes for kept in _rotations.values()) > _ROTATION_CACHE_BYTES:
            _rotations.popitem(last=False)
    return rotation


def _rotation(two_j: int) -> np.ndarray:
    """exp(-i p Jy) of spin j = two_j / 2, p = pi/2, a real orthogonal matrix,
    from the exact spectrum of Jy.

    S = diag(i^a) takes Jy to the real symmetric tridiagonal T = S^dag Jy S,
    with a zero diagonal and off-diagonal b_a = sqrt((a+1)(2j-a))/2 between
    rows a and a+1, so exp(-i p Jy) = S (cos pT - i sin pT) S^dag.  T has the
    spectrum of Jy, lam = j, j-1, ..., -j, so no eigensolver is needed: column
    i of T's eigenvectors V (lam = j - i) follows from T's three-term
    recurrence b_a v[a+1] = lam v[a] - b_(a-1) v[a-1], stepped for all columns
    at once.  It starts at the edge row's normalised value
    2^-j sqrt(C(2j, i)); past 2j = 2000, where 2^-j leaves the double range,
    that row is scaled up by 2^(j - 1000) and capped at 1.  From the edge the
    solution grows through the classically forbidden rows, so it is stepped
    down to the middle row only, where it is stable; the rest of the column is
    the exact parity v[2j-a] = (-1)^i v[a] (T is persymmetric), and the column
    is normalised.  Every `period` rows each column is scaled by a power of two,
    which is exact, so no row overflows however large 2j is; the edge rows of
    a large spin underflow to 0, their size in double precision.  (-1)^a v is
    the eigenvector of -lam, so only the columns lam >= 0 are built, each
    standing for its pair with weight 2.

    Entry (a, b) of exp(-i p Jy) is i^(a-b) (cos pT - i sin pT)[a, b], and T's
    zero diagonal puts cos pT where a - b is even and sin pT where it is odd.
    So with W = V times (-1)^(a // 2) in row a, R is three half-size real
    GEMMs over the even (e) and odd (o) rows, R_ee = W_e cos W_e^T,
    R_oo = W_o cos W_o^T, R_oe = W_o sin W_e^T, and R_eo = -R_oe^T: 3/16 of
    the flops of cos pT and sin pT as full products, and no LAPACK call.

    ms per call, best of 27 interleaved, against a dense symmetric
    eigensolver on T plus those two full products (one OpenBLAS 0.3.31
    thread, 2-core Xeon VM):
      2j         3      4      7     20     50    100    200    400
      dense  0.028  0.027  0.033  0.073  0.291   1.40   5.07   27.4
      here   0.024  0.028  0.034  0.062  0.126   0.25   0.66    2.3
    """
    half = two_j // 2 + 1  # rows 0 .. half-1, and the columns lam = j, j-1, ... >= 0
    lam = np.arange(two_j / 2.0, -0.25, -1.0)
    # (1 + sqrt(2j))^period <= 2^500 bounds a column's growth between scalings
    period = max(1, int(500.0 / math.log2(1.0 + math.sqrt(two_j))))
    edge = [2.0 ** -min(two_j / 2.0, 1000.0)]  # 2^-j sqrt(C(2j, i)), see above
    for i in range(1, half):
        edge.append(min(edge[-1] * math.sqrt((two_j + 1 - i) / i), 1.0))
    v = np.empty((two_j + 1, half))
    v[0] = edge
    b_prev = math.sqrt(two_j) / 2.0
    if half > 1:
        np.multiply(lam, v[0], out=v[1])
        v[1] /= b_prev
    for a in range(1, half - 1):
        if a % period == 0:
            _, exponent = np.frexp(np.abs(v[: a + 1]).max(axis=0))
            np.ldexp(v[: a + 1], -exponent, out=v[: a + 1])
        b = math.sqrt((a + 1) * (two_j - a)) / 2.0
        np.multiply(lam, v[a], out=v[a + 1])
        v[a + 1] -= b_prev * v[a - 1]
        v[a + 1] /= b
        b_prev = b
    v[half:] = v[two_j - half :: -1]  # row 2j - a = (-1)^i row a
    v[half:, 1::2] *= -1.0
    v /= np.sqrt(np.einsum("ai,ai->i", v, v))
    v[2::4] *= -1.0  # (-1)^(a // 2): the phase i^(a-b) folded into the rows
    v[3::4] *= -1.0
    theta = _KICK_ANGLE * lam
    cos, sin = 2.0 * np.cos(theta), 2.0 * np.sin(theta)
    if two_j % 2 == 0:
        cos[-1] = 1.0  # lam = 0 is its own partner
    even, odd = v[0::2], v[1::2]
    out = np.empty((two_j + 1, two_j + 1))
    out[0::2, 0::2] = (even * cos) @ even.T
    out[1::2, 1::2] = (odd * cos) @ odd.T
    odd_even = (odd * sin) @ even.T
    out[1::2, 0::2] = odd_even
    out[0::2, 1::2] = -odd_even.T
    return out


def evolve(u: UnitaryMatrix, psi0: SymState, n: int) -> SymState:
    """U^n psi0, with U^n from O(log n) matrix products (binary powering).

    No renormalization is performed; use SymState.norm_error to monitor drift.
    A horizon so long that the norm drifts past the state tolerance raises
    ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(u.shape) != 2:
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

    One operator and a SymState give an (n+1, dim) array.  A stack of K
    operators (floquet of K parameter sets) and a (K, dim) array of start
    rows, one per operator and each normalized to _STATE_NORM_TOL, give
    (n+1, K, dim), a view of point-major storage: each point's rows are
    contiguous.

    Below _FACTORED_MIN_DIM each point advances b kicks per BLAS call (b from
    _KICK_BLOCKS): rows k+1..k+b are the (b dim, dim) stack U, U^2, ..., U^b,
    built by doubling once per operator (see _powers_of), times row k, one
    GEMV per point.  From _FACTORED_MIN_DIM up every kick is U psi = D (R psi):
    one real matmul of the rotation R with the amplitudes viewed as (re, im)
    column pairs, then the torsion phases D in place.  Either way numpy makes one BLAS call per
    point, so each point is bit-identical to stepping it on its own.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    single = isinstance(psi0, SymState)
    starts = psi0.amps[None] if single else np.asarray(psi0, dtype=complex)
    rows = u.shape[:2] if len(u.shape) == 3 else (1, u.dim)
    if starts.shape != rows:
        raise ValueError(f"dimension mismatch: operators {u.shape}, starts {starts.shape}")
    if not np.all(np.abs((starts.real**2 + starts.imag**2).sum(axis=1) - 1.0) <= _STATE_NORM_TOL):
        raise ValueError("start state is not normalized")
    count, dim = rows
    out = np.empty((count, n + 1, dim), dtype=complex)
    out[:, 0] = starts
    if u.dim >= _FACTORED_MIN_DIM:
        rotation, phases = u.base, u.phases.reshape(rows)
        kicks = out.swapaxes(0, 1)
        pairs = out.view(float).reshape(count, n + 1, dim, 2).swapaxes(0, 1)
        for k in range(1, n + 1):
            np.matmul(rotation, pairs[k - 1], out=pairs[k])
            kicks[k] *= phases
    elif n:
        block = min(n, next(b for lo, b in _KICK_BLOCKS if dim >= lo))
        powers = _powers_of(u, block).reshape(count, block * dim, dim)
        full = n - n % block
        if count == 1:  # np.dot has less call overhead than np.matmul
            step, powers = np.dot, powers[0]
            sources, targets = out[0, :full:block], out[0, 1 : full + 1].reshape(-1, block * dim)
        else:
            step = np.matmul
            sources = out[:, :full:block, :, None].swapaxes(0, 1)
            targets = out[:, 1 : full + 1].reshape(count, -1, block * dim, 1).swapaxes(0, 1)
        for source, target in zip(sources, targets):
            step(powers, source, out=target)
        if full < n:  # the last n % block rows, from the first powers of the stack
            rest = np.matmul(powers[..., : (n - full) * dim, :], out[:, full, :, None])
            out[:, full + 1 :] = rest.reshape(count, n - full, dim)
    return out[0] if single else out.swapaxes(0, 1)


def _powers_of(u: UnitaryMatrix, block: int) -> np.ndarray:
    """U, U^2, ..., U^block of each operator of u: the first powers of the stack
    kept on u, built by _kick_powers and kept when u has none this long.  The
    doubling forms each power by the same product whatever the stack's length,
    so the first powers of a longer stack are those of a shorter one, bit for bit."""
    if u._kick_stack is None or u._kick_stack.shape[1] < block:
        object.__setattr__(u, "_kick_stack", _kick_powers(u, block))
    return u._kick_stack[:, :block]


def _kick_powers(u: UnitaryMatrix, block: int) -> np.ndarray:
    """The (K, block, dim, dim) stack U, U^2, ..., U^block of each operator of u,
    by doubling: one stacked np.matmul forms U^(h+1..2h) = U^h U^(1..h)."""
    dense = u.matrix.reshape(-1, u.dim, u.dim)
    powers = np.empty((len(dense), block, u.dim, u.dim), dtype=complex)
    powers[:, 0] = dense
    have = 1
    while have < block:
        new = min(have, block - have)
        np.matmul(powers[:, have - 1 : have], powers[:, :new], out=powers[:, have : have + new])
        have += new
    return powers


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
    binomials = np.array([math.comb(two_j, k) for k in range(two_j + 1)], dtype=float)
    scale = psi.amps / np.sqrt(binomials)
    return scale[[s.bit_count() for s in range(2**two_j)]]
