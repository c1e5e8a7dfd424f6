"""Shared oracles: brute-force qubit-register evolution and partial traces.

These deliberately avoid the Dicke-basis code paths in the package: the
register Floquet operator is assembled from explicit Pauli strings, so it
provides an independent check of symspace/measures/exact modules.  The
helpers after it (averages, register projection, parity, Pauli tables, the
3-qubit block powers and paper constants, the single-seed classical map and
its tangent, the Haar ensemble sampler) are used only by the tests, so they
live here rather than in the package.
"""

import math
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import pytest

# The suite leaves no bytecode cache in src/, here or in the interpreters it
# starts: a stale src/kickedtop/__pycache__ changes how long a cold start
# takes, which the benchmark's setup_s measures.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from kickedtop import classical, exact3, measures, symspace  # noqa: E402
from kickedtop.exact4 import SECTOR_MINUS, SECTOR_PLUS  # noqa: E402
from kickedtop.tomo import PAULI_LABELS_3Q, pauli_product  # noqa: E402

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def register_floquet(n_qubits: int, kappa0: float, p: float = math.pi / 2) -> np.ndarray:
    """Full 2^N x 2^N kicked-top Floquet operator from the qubit picture:
    exp(-i kappa0/(4j) sum_{l<l'} sz_l sz_l') exp(-i p/2 sum_l sy_l).

    Differs from the Dicke-space convention by the global phase
    exp(+i kappa0/4) (the torsion's constant diagonal).
    """
    dim = 2**n_qubits
    zvals = np.empty(dim)
    for s in range(dim):
        bits = [(s >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        z = [1 - 2 * b for b in bits]
        zvals[s] = sum(z[a] * z[b] for a in range(n_qubits) for b in range(a + 1, n_qubits))
    torsion = np.exp(-1j * (kappa0 / (2.0 * n_qubits)) * zvals)
    single = np.cos(p / 2.0) * np.eye(2) - 1j * math.sin(p / 2.0) * _SY
    rotation = np.array([[1.0]])
    for _ in range(n_qubits):
        rotation = np.kron(rotation, single)
    return torsion[:, None] * rotation


def register_partial_trace(rho: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Partial trace of a 2^N x 2^N matrix onto the kept qubits (0 = leftmost)."""
    keep = tuple(keep)
    rho = np.asarray(rho).reshape((2,) * (2 * n_qubits))
    for q in sorted((q for q in range(n_qubits) if q not in keep), reverse=True):
        rho = np.trace(rho, axis1=q, axis2=q + rho.ndim // 2)
    dim = 2 ** len(keep)
    return rho.reshape(dim, dim)


def register_reduced(vec: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    return register_partial_trace(np.outer(vec, vec.conj()), n_qubits, keep)


def reduced_states(amps: np.ndarray, keep: int) -> np.ndarray:
    """Reduced density matrices of `keep` qubits (1 or 2) for a stack of
    symmetric states: the (n, 2**keep, 2**keep) expansion of the band sums of
    measures._bands to the kept patterns.

    `amps` is an (n, 2j+1) array of Dicke amplitudes, one state per row.
    Entry (p, q) depends only on the excitation counts a, b of the kept
    patterns p, q.  The package takes the single-qubit entropy from the band
    sums directly (measures.qubit_entropies) and the pair concurrence from
    their factor, so the full matrices serve only as the tests' reference.
    """
    bands = measures._bands(amps, keep)
    if keep == 1:
        return bands
    return bands[:, measures._PATTERN_WEIGHT[:, None], measures._PATTERN_WEIGHT]


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def fresh_rotations(monkeypatch):
    """An empty floquet rotation cache for the test; the process's own comes
    back afterwards, so nothing a patched _rotation built outlives the test."""
    monkeypatch.setattr(symspace, "_rotations", OrderedDict())
    return symspace._rotations


def random_symmetric_amps(rng, dim: int) -> np.ndarray:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def time_average(series: np.ndarray, count: int | None = None) -> float:
    """Arithmetic mean of the first `count` entries (all of them by default)."""
    series = np.asarray(series, dtype=float)
    if count is None:
        count = series.size
    if count < 1 or series.size < count:
        raise ValueError("need at least one entry to average")
    return float(series[:count].mean())


def streaming_average(
    values: Iterable[float] | Iterator[float],
    count: int,
    index_filter: Callable[[int], bool] | None = None,
) -> float:
    """Mean of the first `count` generated values, O(1) memory; `index_filter(n)`
    selects which indices enter the average (n starts at 0)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    total = 0.0
    used = 0
    it = iter(values)
    for n in range(count):
        value = next(it)
        if index_filter is None or index_filter(n):
            total += value
            used += 1
    if used == 0:
        raise ValueError("index filter selected no entries")
    return total / used


def qubits_to_symmetric(vec: np.ndarray, j: float) -> np.ndarray:
    """Project a full-register vector onto the Dicke basis (unnormalized amps)."""
    two_j = round(2 * j)
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (2**two_j,):
        raise ValueError(f"expected a 2^{two_j}-dimensional register vector")
    amps = np.zeros(two_j + 1, dtype=complex)
    for s in range(2**two_j):
        k = s.bit_count()
        amps[k] += vec[s] / math.sqrt(math.comb(two_j, k))
    return amps


def parity_op(j: float) -> np.ndarray:
    """The parity operator (tensor power of sigma_y over all 2j qubits) in the
    Dicke basis; it maps m -> -m with phase (-1)^(j-m) i^(2j) and commutes with
    the Floquet operator."""
    two_j = round(2 * j)
    dim = two_j + 1
    op = np.zeros((dim, dim), dtype=complex)
    global_phase = 1j**two_j
    for i in range(dim):
        op[two_j - i, i] = global_phase * (-1) ** i
    return op


def expectations_of(rho: np.ndarray) -> dict[str, float]:
    """Exact Pauli-product expectation table of a 3-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError("expected an 8x8 density matrix")
    return {
        label: float(np.trace(pauli_product(label) @ rho).real)
        for label in PAULI_LABELS_3Q
    }


def collective_ops(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices (Jx, Jy, Jz) in the Dicke basis, from
    J+ |j,m> = sqrt(j(j+1) - m(m+1)) |j,m+1>; m+1 sits one index above m."""
    two_j = round(2 * j)
    m = j - np.arange(1, two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    jp[np.arange(two_j), np.arange(1, two_j + 1)] = np.sqrt(j * (j + 1.0) - m * (m + 1.0))
    jm = jp.conj().T
    jz = np.diag(j - np.arange(two_j + 1)).astype(complex)
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, jz


def eigh_rotation(j: float, p: float) -> np.ndarray:
    """exp(-i p Jy) from a complex Hermitian eigendecomposition of Jy, the
    reference that symspace._rotation, built real, is checked against."""
    _, jy, _ = collective_ops(j)
    evals, evecs = np.linalg.eigh(jy)
    return (evecs * np.exp(-1j * p * evals)) @ evecs.conj().T


def stepped_alone(u: symspace.UnitaryMatrix, vec: np.ndarray, n: int) -> np.ndarray:
    """The rows 0..n that trajectory gives one point of u (one operator, or a
    stack of one) from the amplitudes vec, as an explicit loop.  For
    dim >= symspace._FACTORED_MIN_DIM every kick is the real rotation times the
    (re, im) column pair, then the torsion phases.  Below it the kicks come in
    blocks of b (symspace._KICK_BLOCKS, at most n): the powers U^i, each
    U^h U^(i-h) with h the largest power of two below i, stacked as a
    (b dim, dim) matrix, times each block's first row by np.dot."""
    dim, rows = u.dim, [vec]
    if dim >= symspace._FACTORED_MIN_DIM:
        rotation, phases = u.base, u.phases.reshape(dim)
        for _ in range(n):
            rows.append((rotation @ rows[-1].view(float).reshape(-1, 2)).view(complex)[:, 0] * phases)
        return np.array(rows)
    block = max(1, min(n, next(b for lo, b in symspace._KICK_BLOCKS if dim >= lo)))
    powers = [u.matrix.reshape(dim, dim)]
    while len(powers) < block:
        h = 1 << (len(powers).bit_length() - 1)
        powers.append(powers[h - 1] @ powers[len(powers) - h])
    for first in range(0, n, block):
        count = min(block, n - first)
        rows.extend(np.dot(np.concatenate(powers[:count]), rows[first]).reshape(count, dim))
    return np.array(rows)


def sweep_means(two_j: int, point: symspace.BlochPoint, grid, kicks: int) -> np.ndarray:
    """The sweep's mean entropies, as `kickedtop sweep` takes them: one floquet
    call for the grid and one coherent start state."""
    j = two_j / 2.0
    return measures.mean_entropies(symspace.floquet(j, grid), symspace.coherent_state(j, point), kicks)


def per_cell_write_table(path, columns):
    """Reference writer: one format(float(v), ".17g") call per cell."""
    names = list(columns)
    length = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(length):
        lines.append(",".join(format(float(columns[name][i]), ".17g") for name in names))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def block_power3(kappa0: float, n, sector: str) -> np.ndarray:
    """n-th power of the 3-qubit parity block of the given sector (exact4's
    SECTOR_PLUS or SECTOR_MINUS), in the form of exact4.block_power4:
    sign^n exp(-i n (sign pi/4 + kappa0/6)) [[a_n, -sign b_n*], [sign b_n, a_n*]]
    with (a_n, b_n) from exact3.block_alpha_beta at theta = kappa0/3.  An int
    array n gives a stack of shape n.shape + (2, 2)."""
    sign = {SECTOR_PLUS: 1, SECTOR_MINUS: -1}[sector]
    kicks = np.asarray(n)
    alpha, beta = exact3.block_alpha_beta(kappa0 / 3.0, kicks)
    phase = sign**kicks * np.exp(-1j * kicks * (sign * math.pi / 4.0 + kappa0 / 6.0))
    block = [[alpha, -sign * np.conj(beta)], [sign * beta, np.conj(alpha)]]
    return np.asarray(phase)[..., None, None] * np.moveaxis(np.array(block), (0, 1), (-2, -1))


def avg_entropy_3pi2(point: symspace.BlochPoint) -> float:
    """Time-averaged 3-qubit linear entropy of any initial coherent state at
    kappa0 = 3pi/2; takes values in [7/24, 1/3]."""
    th, ph = point.theta0, point.phi0
    return (
        15.0
        + math.cos(4.0 * th)
        + (1.0 + 3.0 * math.cos(2.0 * th)) * math.sin(th) ** 4 * math.sin(2.0 * ph) ** 2
    ) / 48.0


@dataclass(frozen=True)
class NStar000:
    """First near-maximal entanglement time of the evolved 3-qubit |000> state.

    `estimate` is floor(3pi/kappa0); `refined_odd` is the odd-integer form
    2*floor(3pi/(2 kappa0) - 1/2) + 1; disentanglement recurs near twice the
    estimate.
    """

    kappa0: float
    estimate: int
    refined_odd: int
    disentangle_estimate: int


def n_star_000(kappa0: float) -> NStar000:
    """Small-kappa0 estimate of when the |000> entanglement first nears 1/2."""
    if kappa0 <= 0:
        raise ValueError("kappa0 must be > 0")
    estimate = math.floor(3.0 * math.pi / kappa0)
    refined = 2 * math.floor(3.0 * math.pi / (2.0 * kappa0) - 0.5) + 1
    return NStar000(kappa0, estimate, refined, 2 * estimate)


def point_from_angles(theta: float, phi: float) -> classical.ClassicalPoint:
    """The point at polar angle theta and azimuth phi, one math call each."""
    return classical.ClassicalPoint(
        math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)
    )


def map_step(point: classical.ClassicalPoint, kappa0: float) -> classical.ClassicalPoint:
    """One iteration of the classical map, as a validated point."""
    x, y, z = point.x, point.y, point.z
    c = math.cos(kappa0 * x)
    s = math.sin(kappa0 * x)
    return classical.ClassicalPoint(z * c + y * s, -z * s + y * c, -x)


def trajectory_array(point: classical.ClassicalPoint, kappa0: float, n: int) -> np.ndarray:
    """(n+1, 3) array of the iterates of one seed, seed included: a plain
    math.cos/math.sin loop, the reference for classical.portrait."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty((n + 1, 3))
    x, y, z = point.x, point.y, point.z
    out[0] = x, y, z
    for i in range(1, n + 1):
        c = math.cos(kappa0 * x)
        s = math.sin(kappa0 * x)
        x, y, z = z * c + y * s, -z * s + y * c, -x
        out[i] = x, y, z
    return out


def tangent_matrix(point: classical.ClassicalPoint, kappa0: float) -> np.ndarray:
    """Jacobian of one map step at a point (3x3, analytic)."""
    x, y, z = point.x, point.y, point.z
    c = math.cos(kappa0 * x)
    s = math.sin(kappa0 * x)
    return np.array(
        [
            [kappa0 * (-z * s + y * c), s, c],
            [-kappa0 * (z * c + y * s), c, -s],
            [-1.0, 0.0, 0.0],
        ]
    )


def fixed_point_multiplier(kappa0: float) -> float:
    """Spectral radius of the tangent map at the (pi/2, -pi/2) fixed point,
    restricted to the sphere's tangent plane; exceeds 1 once the fixed point
    turns unstable."""
    jac = tangent_matrix(classical.FIXED_POINT, kappa0)
    # Tangent plane at (0,-1,0) is spanned by x-hat and z-hat.
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T
    reduced = basis.T @ jac @ basis
    return float(np.max(np.abs(np.linalg.eigvals(reduced))))


def haar_symmetric_sample(j: float, count: int, seed: int) -> float:
    """Monte-Carlo mean single-qubit linear entropy over Haar-random states of
    the (2j+1)-dimensional symmetric subspace.  Deterministic given seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = round(2 * j) + 1
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return float(np.mean(measures.linear_entropy(reduced_states(psi, 1))))
