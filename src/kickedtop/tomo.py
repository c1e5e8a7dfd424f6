"""Readout-error correction and density-matrix reconstruction for 3 qubits.

The measured basis-state populations p_m relate to intrinsic ones through a
per-qubit confusion matrix F_i built from the fidelities f0 (a |0> read as 0)
and f1 (a |1> read as 1); correction solves F p_int = p_m with
F = F1 x F2 x F3.  Reconstruction assembles rho from a complete table of
Pauli-product expectation values and projects onto the nearest density matrix
in the 2-norm.  No permutation symmetry is assumed anywhere in this module:
experimental states may break it, so all three single-qubit and all three
pairwise reductions are computed explicitly.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .measures import concurrences, fidelity, linear_entropy

logger = logging.getLogger(__name__)

_HERMITIAN_TOL = 1e-8
_TRACE_TOL = 1e-6
_POPULATION_SUM_TOL = 1e-6

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

PAULI_LABELS_3Q = tuple("".join(p) for p in itertools.product("IXYZ", repeat=3))


@dataclass(frozen=True)
class ReadoutModel:
    """Per-qubit readout fidelities; each F_i must be invertible (f0 + f1 > 1)."""

    f0: tuple[float, ...]
    f1: tuple[float, ...]

    def __post_init__(self):
        f0 = tuple(float(v) for v in self.f0)
        f1 = tuple(float(v) for v in self.f1)
        if len(f0) != len(f1) or not f0:
            raise ValueError("f0 and f1 must be non-empty and of equal length")
        for i, (a, b) in enumerate(zip(f0, f1)):
            if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
                raise ValueError(f"fidelities of qubit {i + 1} must lie in (0, 1]")
            if a + b <= 1.0:
                raise ValueError(f"qubit {i + 1} confusion matrix is singular (f0 + f1 <= 1)")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)

    @property
    def n_qubits(self) -> int:
        return len(self.f0)

    def qubit_matrix(self, i: int) -> np.ndarray:
        return np.array(
            [[self.f0[i], 1.0 - self.f1[i]], [1.0 - self.f0[i], self.f1[i]]]
        )

    def correction_matrix(self) -> np.ndarray:
        out = self.qubit_matrix(0)
        for i in range(1, self.n_qubits):
            out = np.kron(out, self.qubit_matrix(i))
        return out

    @classmethod
    def from_json(cls, path) -> "ReadoutModel":
        with open(path, encoding="utf-8") as fh:
            return cls._of_payload(json.load(fh))

    @classmethod
    def _of_payload(cls, payload) -> "ReadoutModel":
        """The model of a readout JSON object {"f0": [..], "f1": [..]}, one
        fidelity per qubit in each list; any other shape raises ValueError."""
        if not isinstance(payload, dict):
            raise ValueError("readout JSON must be an object with the keys 'f0' and 'f1'")
        for key in ("f0", "f1"):
            values = payload.get(key)
            if not isinstance(values, list) or not all(isinstance(v, (int, float)) for v in values):
                raise ValueError(f"readout JSON needs a list of numbers under {key!r}")
        return cls(tuple(payload["f0"]), tuple(payload["f1"]))


def bundled_readout_model() -> ReadoutModel:
    """The three-transmon readout fidelities shipped with the package."""
    ref = resources.files("kickedtop").joinpath("data/readout_fidelities_3q.json")
    return ReadoutModel._of_payload(json.loads(ref.read_text(encoding="utf-8")))


def correct_populations(model: ReadoutModel, p_m: np.ndarray) -> np.ndarray:
    """Intrinsic populations F^{-1} p_m; the column sums of F are 1, so the
    total population is preserved.  Small negatives may appear and are passed
    through (downstream projection handles them)."""
    p_m = np.asarray(p_m, dtype=float)
    dim = 2**model.n_qubits
    if p_m.shape != (dim,):
        raise ValueError(f"expected {dim} populations, got shape {p_m.shape}")
    if np.any((p_m < 0.0) | (p_m > 1.0)):  # before a sum of huge entries can overflow
        raise ValueError("populations must lie in [0, 1]")
    if not abs(p_m.sum() - 1.0) <= _POPULATION_SUM_TOL:  # a NaN sum fails too
        raise ValueError(f"populations must sum to 1 (got {p_m.sum()!r})")
    p_int = np.linalg.solve(model.correction_matrix(), p_m)
    if p_int.min() < 0.0:
        logger.debug("corrected populations dip to %.3e; passed through uncorrected",
                     p_int.min())
    return p_int


def project_psd(rho_raw: np.ndarray) -> np.ndarray:
    """Nearest density matrix in the 2-norm.

    Eigenvalues are projected onto the probability simplex: negatives are
    zeroed and the deficit is removed uniformly from the remaining positive
    eigenvalues, iterating until all are non-negative.  Idempotent; valid
    inputs pass through unchanged.
    """
    rho_raw = np.asarray(rho_raw, dtype=complex)
    if rho_raw.ndim != 2 or rho_raw.shape[0] != rho_raw.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(rho_raw - rho_raw.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("input is not Hermitian")
    if abs(np.trace(rho_raw).real - 1.0) > _TRACE_TOL:
        raise ValueError(f"input trace must be ~1, got {np.trace(rho_raw).real!r}")
    evals, evecs = np.linalg.eigh(rho_raw)
    lam = evals.copy()
    active = np.ones(lam.size, dtype=bool)
    while True:
        negative = active & (lam < 0.0)
        if not negative.any():
            break
        lam[negative] = 0.0
        active &= ~negative
        deficit = lam[active].sum() - 1.0
        lam[active] -= deficit / active.sum()
    lam[active] -= (lam[active].sum() - 1.0) / active.sum()  # exact unit trace
    return (evecs * lam) @ evecs.conj().T


def pauli_product(label: str) -> np.ndarray:
    out = _PAULI[label[0]]
    for ch in label[1:]:
        out = np.kron(out, _PAULI[ch])
    return out


@functools.cache
def _pauli_products_3q() -> tuple[np.ndarray, ...]:
    """pauli_product of each label of PAULI_LABELS_3Q, in that order, built on
    first use and read-only."""
    products = tuple(pauli_product(label) for label in PAULI_LABELS_3Q)
    for product in products:
        product.flags.writeable = False
    return products


def reconstruct(expectations) -> np.ndarray:
    """Density matrix from a complete table of 64 Pauli-product expectations:
    rho_raw = (1/8) sum <P> P, then projection to the nearest density matrix."""
    missing = [label for label in PAULI_LABELS_3Q if label not in expectations]
    if missing:
        raise ValueError(f"missing Pauli labels: {missing[:4]}{'...' if len(missing) > 4 else ''}")
    rho = np.zeros((8, 8), dtype=complex)
    for label, product in zip(PAULI_LABELS_3Q, _pauli_products_3q()):
        value = float(expectations[label])
        if not abs(value) <= 1.0 + 1e-9:
            raise ValueError(f"<{label}> = {value!r} is not in [-1, 1]")
        rho += value * product
    return project_psd(rho / 8.0)


def partial_trace_3q(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of an 8x8 matrix, or of each matrix of an (..., 8, 8)
    stack, onto the given qubit subset (0-indexed)."""
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    rho = rho.reshape(*lead, *(2,) * 6)
    drop = [q for q in range(3) if q not in keep]
    for q in sorted(drop, reverse=True):
        axis = len(lead) + q
        rho = np.trace(rho, axis1=axis, axis2=axis + (rho.ndim - len(lead)) // 2)
    dim = 2 ** len(keep)
    return rho.reshape(*lead, dim, dim)


@dataclass(frozen=True)
class PipelineMetrics:
    """Fidelity to theory plus per-cut entanglement of the experimental state."""

    fidelity: float
    linear_entropies: tuple[float, float, float]
    concurrences: tuple[float, float, float]

    @property
    def mean_linear_entropy(self) -> float:
        return sum(self.linear_entropies) / 3.0

    @property
    def mean_concurrence(self) -> float:
        return sum(self.concurrences) / 3.0


def pipeline_metrics(
    rho_e: np.ndarray, rho_t: np.ndarray
) -> PipelineMetrics | list[PipelineMetrics]:
    """Compare an experimental 8x8 state against theory: Uhlmann fidelity plus
    the three single-qubit linear entropies and three pairwise concurrences of
    rho_e by explicit partial traces (no symmetry assumed).

    One pair of matrices gives a PipelineMetrics; a pair of (n, 8, 8) stacks
    gives a list of n, from one linear_entropy call over the 3n single-qubit
    states and one concurrences call over the 3n pair states.  Each entry
    equals the one-pair call on its matrices, bit for bit.
    """
    rho_e = np.asarray(rho_e, dtype=complex)
    rho_t = np.asarray(rho_t, dtype=complex)
    if rho_e.ndim not in (2, 3) or rho_e.shape[-2:] != (8, 8) or rho_t.shape != rho_e.shape:
        raise ValueError("expected 8x8 density matrices")
    stack_e = rho_e.reshape(-1, 8, 8)
    singles = linear_entropy(np.stack([partial_trace_3q(stack_e, (q,)) for q in range(3)], axis=1))
    pair_states = np.stack(
        [partial_trace_3q(stack_e, pair) for pair in ((0, 1), (1, 2), (0, 2))], axis=1
    )
    pairs = concurrences(pair_states.reshape(-1, 4, 4)).reshape(-1, 3)
    metrics = [
        PipelineMetrics(
            fidelity=fidelity(t, e),
            linear_entropies=tuple(entropies.tolist()),
            concurrences=tuple(concurrence.tolist()),
        )
        for e, t, entropies, concurrence in zip(stack_e, rho_t.reshape(-1, 8, 8), singles, pairs)
    ]
    return metrics[0] if rho_e.ndim == 2 else metrics


def _csv_records(path, kind: str, columns: list[str]):
    """The records of a CSV file whose header has the given columns.  A missing
    column raises ValueError, and so does a row with fewer cells than the
    header (csv.DictReader fills them with None), naming its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in columns):
            raise ValueError(f"{kind} CSV must have columns {','.join(columns)}")
        for record in reader:
            if None in record.values():
                raise ValueError(f"{kind} CSV line {reader.line_num} has fewer cells than the header")
            yield record


def read_populations_csv(path) -> list[tuple[int, np.ndarray]]:
    """Rows of (step, populations) from a CSV with columns step, p000..p111."""
    labels = [f"p{i:03b}" for i in range(8)]
    rows = []
    for record in _csv_records(path, "populations", ["step", *labels]):
        probs = np.array([float(record[c]) for c in labels])
        rows.append((int(record["step"]), probs))
    return rows


def read_expectations_csv(path) -> dict[int, dict[str, float]]:
    """Per-step Pauli expectation tables from a CSV with columns step,label,value."""
    tables: dict[int, dict[str, float]] = {}
    for record in _csv_records(path, "expectations", ["step", "label", "value"]):
        step = int(record["step"])
        tables.setdefault(step, {})[record["label"].strip()] = float(record["value"])
    return tables
