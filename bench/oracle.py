"""Independent reference physics and the output checks built on it.

Nothing here imports kickedtop.  For 2j <= 4 the reference works on the full
qubit register, with the Floquet operator assembled from explicit Pauli
strings; for larger spins it uses scipy.linalg.expm of the spin generators and
the single-qubit entropy S = (1 - |<J>|^2 / j^2) / 2.  Neither shares a
propagation, reduction or Chebyshev path with the package, so a check failure
points at the package (or at the benchmark), never at a shared helper.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np
from scipy.linalg import expm

REGISTER_LIMIT = 4  # largest 2j checked on the full 2^(2j) register

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SY, _SY)
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": _SY,
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

# Dicke amplitudes (index = number of ones) of the parity-adapted basis states
# named by the CLI's --basis-state, written out from their definitions.
_R = 1.0 / math.sqrt(2.0)
BASIS_STATES = {
    3: {
        "phi1_plus": [_R, 0, 0, -1j * _R],
        "phi1_minus": [_R, 0, 0, 1j * _R],
        "phi2_plus": [0, _R, 1j * _R, 0],
        "phi2_minus": [0, _R, -1j * _R, 0],
    },
    4: {
        "phi1_plus": [0, _R, 0, -_R, 0],
        "phi1_minus": [0, _R, 0, _R, 0],
        "phi2_plus": [_R, 0, 0, 0, _R],
        "phi2_minus": [_R, 0, 0, 0, -_R],
        "phi3_plus": [0, 0, 1, 0, 0],
    },
}


# ---------------------------------------------------------------- register


def register_floquet(n_qubits: int, kappa0: float, p: float = math.pi / 2) -> np.ndarray:
    """exp(-i kappa0/(2N) sum_{l<l'} sz_l sz_l') exp(-i p/2 sum_l sy_l); equals
    the Dicke-space operator up to the global phase exp(-i kappa0/4)."""
    dim = 2**n_qubits
    zz = np.empty(dim)
    for s in range(dim):
        z = [1 - 2 * ((s >> (n_qubits - 1 - q)) & 1) for q in range(n_qubits)]
        zz[s] = sum(z[a] * z[b] for a in range(n_qubits) for b in range(a + 1, n_qubits))
    single = math.cos(p / 2.0) * np.eye(2) - 1j * math.sin(p / 2.0) * _SY
    rotation = np.array([[1.0 + 0j]])
    for _ in range(n_qubits):
        rotation = np.kron(rotation, single)
    return np.exp(-1j * (kappa0 / (2.0 * n_qubits)) * zz)[:, None] * rotation


def product_state(n_qubits: int, theta: float, phi: float) -> np.ndarray:
    """Tensor power of cos(theta/2)|0> + exp(-i phi) sin(theta/2)|1>."""
    single = np.array([math.cos(theta / 2.0), np.exp(-1j * phi) * math.sin(theta / 2.0)])
    vec = np.array([1.0 + 0j])
    for _ in range(n_qubits):
        vec = np.kron(vec, single)
    return vec


def dicke_to_register(amps) -> np.ndarray:
    amps = np.asarray(amps, dtype=complex)
    n = amps.size - 1
    ones = np.array([bin(s).count("1") for s in range(2**n)])
    scale = np.array([1.0 / math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    return amps[ones] * scale[ones]


def reduced_states(vecs: np.ndarray, n_qubits: int, keep: int) -> np.ndarray:
    """Batch reduced density matrices of the first `keep` qubits; (T, 2^keep, 2^keep)."""
    a = vecs.reshape(vecs.shape[0], 2**keep, 2 ** (n_qubits - keep))
    return a @ a.conj().transpose(0, 2, 1)


def linear_entropies(rhos: np.ndarray) -> np.ndarray:
    return 1.0 - np.einsum("tij,tji->t", rhos, rhos).real


def wootters(rhos: np.ndarray) -> np.ndarray:
    """Batch two-qubit concurrence from the spectrum of rho (sy sy) rho* (sy sy)."""
    tilde = _SY_SY @ rhos.conj() @ _SY_SY
    lam = np.linalg.eigvals(rhos @ tilde).real
    roots = np.sort(np.sqrt(np.clip(lam, 0.0, None)), axis=1)[:, ::-1]
    return np.clip(roots[:, 0] - roots[:, 1:].sum(axis=1), 0.0, None)


# ------------------------------------------------------------ Dicke space


def spin_generators(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) on m = j, j-1, ..., -j from J+|m> = sqrt(j(j+1) - m(m+1)) |m+1>."""
    j = two_j / 2.0
    m = j - np.arange(two_j + 1)
    jp = np.diag(np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), k=1).astype(complex)
    return (jp + jp.conj().T) / 2.0, (jp - jp.conj().T) / 2.0j, np.diag(m).astype(complex)


def dicke_floquet(two_j: int, kappa0: float, p: float = math.pi / 2) -> np.ndarray:
    _, jy, jz = spin_generators(two_j)
    return expm(-1j * (kappa0 / two_j) * (jz @ jz)) @ expm(-1j * p * jy)


def coherent_dicke(two_j: int, theta: float, phi: float) -> np.ndarray:
    """Dicke amplitudes of the 2j-fold tensor power of product_state's qubit."""
    k = np.arange(two_j + 1)
    binom = np.array([float(math.comb(two_j, int(i))) for i in k])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.sqrt(binom) * c ** (two_j - k) * (s * np.exp(-1j * phi)) ** k


def dicke_entropies(vecs: np.ndarray, two_j: int) -> np.ndarray:
    """Single-qubit linear entropy (1 - |<J>|^2 / j^2) / 2 of each row."""
    j = two_j / 2.0
    bloch2 = sum(
        np.einsum("tk,kl,tl->t", vecs.conj(), op, vecs).real ** 2 for op in spin_generators(two_j)
    )
    return 0.5 * (1.0 - bloch2 / (j * j))


def orbit(u: np.ndarray, psi0: np.ndarray, n: int) -> np.ndarray:
    """Rows U^k psi0 for k = 0..n."""
    out = np.empty((n + 1, psi0.size), dtype=complex)
    out[0] = psi0
    for k in range(1, n + 1):
        out[k] = u @ out[k - 1]
    return out


def entropy_series(two_j: int, kappa0: float, angles, n: int) -> np.ndarray:
    """Reference single-qubit linear entropy for k = 0..n kicks."""
    if two_j <= REGISTER_LIMIT:
        states = orbit(register_floquet(two_j, kappa0), product_state(two_j, *angles), n)
        return linear_entropies(reduced_states(states, two_j, 1))
    states = orbit(dicke_floquet(two_j, kappa0), coherent_dicke(two_j, *angles), n)
    return dicke_entropies(states, two_j)


# ----------------------------------------------------------------- checks


def read_columns(path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(v) for v in row] for row in body]).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _close(name: str, got, want, tol: float) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return [] if err <= tol else [f"{name}: max deviation {err:.3e} > {tol:.0e}"]


def _within(name: str, values, lo: float, hi: float) -> list[str]:
    values = np.asarray(values)
    if values.size and lo <= values.min() and values.max() <= hi:
        return []
    return [f"{name} outside [{lo}, {hi}]"]


def check_sweep(c: dict, path) -> list[str]:
    cols = read_columns(path)
    qubits = c["qubits"]
    problems = _close("kappa0 column", cols["kappa0"], c["kappas"], 0.0)
    problems += _within("S_avg_numeric", cols["S_avg_numeric"], 0.0, 0.5)
    rmt = (qubits - 1) / (2.0 * qubits)
    problems += _close("S_rmt_normalized", cols["S_rmt_normalized"], cols["S_avg_numeric"] / rmt, 1e-12)
    i = c["sample"]
    want = entropy_series(qubits, c["kappas"][i], c["angles"], c["kicks"])[1:].mean()
    problems += _close(f"S_avg_numeric at kappa0 #{i} vs reference", cols["S_avg_numeric"][i], want, 1e-9)
    return problems


def check_evolve(c: dict, path) -> list[str]:
    cols = read_columns(path)
    qubits, steps = c["qubits"], c["steps"]
    problems = _close("n column", cols["n"], np.arange(steps + 1), 0.0)
    for name in ("S", "C"):
        if f"{name}_closed" in cols:  # the README's closed-vs-numeric claim
            problems += _close(f"{name}_closed vs {name}_numeric", cols[f"{name}_closed"], cols[f"{name}_numeric"], 1e-10)
    problems += _close("S_numeric vs reference", cols["S_numeric"],
                       entropy_series(qubits, c["kappa0"], c["angles"], steps), 1e-9)
    problems += _within("C_numeric", cols["C_numeric"], 0.0, 1.0)
    if qubits <= REGISTER_LIMIT:
        states = orbit(register_floquet(qubits, c["kappa0"]), product_state(qubits, *c["angles"]), steps)
        problems += _close("C_numeric vs reference", cols["C_numeric"],
                           wootters(reduced_states(states, qubits, 2)), 1e-6)
    return problems


def check_tunnel(c: dict, path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    series = report["overlap_series"]
    problems = _close("times", series["times"], c["times"], 0.0)
    problems += _within("minus_y_overlap", series["minus_y_overlap"], 0.0, 1.0 + 1e-12)
    problems += _within("ghz_fidelity", series["ghz_fidelity"], 0.0, 1.0 + 1e-12)
    problems += _close("n_star * splitting", report["n_star"] * report["splitting"], math.pi, 1e-12)
    u = register_floquet(4, c["kappa0"])
    plus_y = product_state(4, math.pi / 2, -math.pi / 2)
    minus_y = product_state(4, math.pi / 2, math.pi / 2)
    ghz = (plus_y - 1j * minus_y) / math.sqrt(2.0)
    for i in c["samples"]:
        evolved = np.linalg.matrix_power(u, c["times"][i]) @ plus_y
        problems += _close(f"minus_y_overlap at t={c['times'][i]} vs reference",
                           series["minus_y_overlap"][i], abs(np.vdot(minus_y, evolved)) ** 2, 1e-7)
        problems += _close(f"ghz_fidelity at t={c['times'][i]} vs reference",
                           series["ghz_fidelity"][i], abs(np.vdot(ghz, evolved)) ** 2, 1e-7)
    return problems


def check_husimi(c: dict, path) -> list[str]:
    cols = read_columns(path)
    n_theta, n_phi, qubits = c["n_theta"], c["n_phi"], c["qubits"]
    thetas = np.repeat(np.linspace(0.0, math.pi, n_theta), n_phi)
    phis = np.tile(np.linspace(-math.pi, math.pi, n_phi), n_theta)
    problems = _close("theta column", cols["theta"], thetas, 1e-15)
    problems += _close("phi column", cols["phi"], phis, 1e-15)
    problems += _within("value", cols["value"], 0.0, 1.0 + 1e-12)
    if "basis_state" in c:
        psi = dicke_to_register(BASIS_STATES[qubits][c["basis_state"]])
        tol = 1e-12
    else:
        u = register_floquet(qubits, c["kappa0"])
        psi = np.linalg.matrix_power(u, c["steps"]) @ product_state(qubits, *c["angles"])
        tol = 1e-7
    want = [abs(np.vdot(product_state(qubits, thetas[i], phis[i]), psi)) ** 2 for i in c["samples"]]
    problems += _close("value vs reference", cols["value"][c["samples"]], want, tol)
    return problems


def check_classical(c: dict, path) -> list[str]:
    cols = read_columns(path)
    steps, seeds, kappa0 = c["steps"], c["seeds"], c["kappa0"]
    problems = _close("seed_index column", cols["seed_index"], np.repeat(np.arange(seeds), steps + 1), 0.0)
    problems += _close("iteration column", cols["iteration"], np.tile(np.arange(steps + 1), seeds), 0.0)
    xyz = np.stack([cols["X"], cols["Y"], cols["Z"]], axis=1)
    problems += _close("|r|^2 (unit sphere)", (xyz**2).sum(axis=1), 1.0, 1e-9)
    rows = np.asarray(c["samples"])  # rows whose successor is iterate k+1 of the same seed
    x, y, z = xyz[rows].T
    step = np.stack([z * np.cos(kappa0 * x) + y * np.sin(kappa0 * x),
                     -z * np.sin(kappa0 * x) + y * np.cos(kappa0 * x), -x], axis=1)
    problems += _close("one map step vs reference", xyz[rows + 1], step, 1e-12)
    return problems


def confusion_matrix(f0, f1) -> np.ndarray:
    out = np.array([[1.0]])
    for a, b in zip(f0, f1):
        out = np.kron(out, np.array([[a, 1.0 - b], [1.0 - a, b]]))
    return out


PAULI_LABELS_3Q = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]


def pauli_3q(label: str) -> np.ndarray:
    return np.kron(np.kron(PAULI[label[0]], PAULI[label[1]]), PAULI[label[2]])


def simplex_projection(values: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, by sorting."""
    ranked = np.sort(values)[::-1]
    cumulative = np.cumsum(ranked) - 1.0
    last = np.nonzero(ranked - cumulative / np.arange(1, values.size + 1) > 0.0)[0][-1]
    return np.clip(values - cumulative[last] / (last + 1), 0.0, None)


def reconstruct_3q(values) -> np.ndarray:
    """Linear inversion of a 64-entry Pauli table (PAULI_LABELS_3Q order), then
    the nearest density matrix in the 2-norm."""
    raw = sum(v * pauli_3q(label) for label, v in zip(PAULI_LABELS_3Q, values)) / 8.0
    evals, evecs = np.linalg.eigh(raw)
    return (evecs * simplex_projection(evals)) @ evecs.conj().T


def tomo_reference(c: dict) -> dict[str, np.ndarray]:
    """fidelity to the pure theory state U^n psi0 (sqrt <psi_n|rho|psi_n>), mean
    single-qubit linear entropy and mean pairwise concurrence, per table."""
    u = register_floquet(3, c["kappa0"])
    psi = product_state(3, *c["angles"])
    rhos = []
    fidelities = []
    for values in c["tables"]:
        rho = reconstruct_3q(values)
        rhos.append(rho)
        fidelities.append(math.sqrt(max(np.vdot(psi, rho @ psi).real, 0.0)))
        psi = u @ psi
    t = np.array(rhos).reshape(len(rhos), 2, 2, 2, 2, 2, 2)
    singles = [np.einsum("tabcdbc->tad", t), np.einsum("tabcadc->tbd", t), np.einsum("tabcabd->tcd", t)]
    pairs = [np.einsum("tabcdec->tabde", t), np.einsum("tabcadf->tbcdf", t), np.einsum("tabcdbf->tacdf", t)]
    return {
        "fidelity": np.array(fidelities),
        "mean_linear_entropy": np.mean([linear_entropies(r) for r in singles], axis=0),
        "mean_concurrence": np.mean([wootters(r.reshape(-1, 4, 4)) for r in pairs], axis=0),
    }


def check_tomo(c: dict, path) -> list[str]:
    cols = read_columns(path)
    problems = _close("step column", cols["step"], c["steps"], 0.0)
    if c["mode"] == "populations":
        corrected = np.stack([cols[f"p{i:03b}"] for i in range(8)], axis=1)
        problems += _close("sum of corrected populations", corrected.sum(axis=1), 1.0, 1e-9)
        problems += _close("F p_corrected vs measured", corrected @ confusion_matrix(c["f0"], c["f1"]).T,
                           c["measured"], 1e-9)
        return problems
    problems += _within("fidelity", cols["fidelity"], 0.0, 1.0)
    for name, want in tomo_reference(c).items():
        problems += _close(f"{name} vs reference", cols[name], want, 1e-9)
    return problems


CHECKS = {
    "sweep": check_sweep,
    "evolve": check_evolve,
    "tunnel": check_tunnel,
    "husimi": check_husimi,
    "classical": check_classical,
    "tomo": check_tomo,
}


def check(command: str, spec: dict, path) -> list[str]:
    """Problems found in one operation's output file; empty when it is correct."""
    try:
        return CHECKS[command](spec, path)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # JSONDecodeError is a ValueError
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
