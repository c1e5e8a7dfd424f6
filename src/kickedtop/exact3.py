"""Closed-form dynamics of the 3-qubit kicked top (j = 3/2, p = pi/2).

The Floquet operator commutes with the parity operator (tensor power of
sigma_y), so it splits into 2x2 blocks over the parity-adapted basis

    phi1_pm = (|000> -+ i |111>)/sqrt(2),   phi2_pm = (|W> +- i |Wbar>)/sqrt(2),

and the n-th matrix power of each block is a Chebyshev polynomial expression
in chi = sin(kappa0/3)/2.  Each closed quantity is one function of the kick
count n, an int or an int array: an array gives an array of its shape, and an
int gives that entry of the array as a float, bit for bit.  Each costs O(1)
per kick through the trig Chebyshev form; the numeric engine in symspace
serves as the cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cheby
from .symspace import BlochPoint

STATE_ZERO = "zero_state"  # coherent state at theta0 = 0: |000>
STATE_PLUS_Y = "plus_y_state"  # coherent state at (pi/2, -pi/2): tensor |+>_y

_STATE_IDS = (STATE_ZERO, STATE_PLUS_Y)
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])  # (-i)^(n mod 4)


class AvgEntropy(NamedTuple):
    """Infinite-time averaged linear entropy plus a resonance marker.

    `resonant` flags torsion values where the ergodic phase averages behind the
    closed form degenerate (kappa0 in 3pi Z for three qubits, 2pi Z for four);
    the value returned there is the true time average of the resonant
    dynamics, not the continuity limit of the formula.
    """

    value: float
    resonant: bool


def block_alpha_beta(theta: float, n):
    """Entries alpha_n, beta_n of the n-th power of a Chebyshev parity block.

    With chi = sin(theta)/2: alpha_n = T_n(chi) + (i/2) U_{n-1}(chi) cos(theta)
    and beta_n = (sqrt(3)/2) U_{n-1}(chi) e^{i theta}; theta = kappa0/3 for
    three qubits and kappa0/2 for four.  n is an int (complex results) or an
    int array (complex arrays); unitarity is the Pell identity of the pair.
    """
    t_n, u_nm1 = cheby.t_u_trig(n, math.sin(theta) / 2.0)
    alpha = t_n + 0.5j * u_nm1 * math.cos(theta)
    beta = (math.sqrt(3.0) / 2.0) * u_nm1 * cmath.exp(1j * theta)
    return alpha, beta


def _require_state_id(state_id: str):
    if state_id not in _STATE_IDS:
        raise ValueError(f"unknown state_id {state_id!r}; expected one of {_STATE_IDS}")


def _kick_array(n, kappa0: float) -> np.ndarray:
    """n, an int or an int array of kick counts >= 0, as an array; an int
    becomes a one-element array, because NumPy's 0-d cos and sin are not
    bit-identical to its array loop.  kappa0 must be finite.  This is the one
    check of kick counts for every closed form: a float count, even a whole
    one, is refused rather than rounded or truncated."""
    if not math.isfinite(kappa0):
        raise ValueError("kappa0 must be finite")
    kicks = np.asarray(n)
    if kicks.dtype.kind not in "iu":
        if kicks.size:
            raise ValueError(f"n must be an int or an int array of kick counts, got {n!r}")
        kicks = kicks.astype(np.int64)  # an empty list of counts
    if np.any(kicks < 0):
        raise ValueError("n must be >= 0")
    return kicks.reshape(1) if kicks.ndim == 0 else kicks


def _like_kicks(values: np.ndarray, n):
    """values over _kick_array(n): its one entry for an int n."""
    return values[0].item() if np.ndim(n) == 0 else values


def _even_partner(n):
    # Entanglement is constant across each odd->even pair of kicks.
    return n + (n % 2)


def entropy3_closed(state_id: str, n, kappa0: float) -> float | np.ndarray:
    """Single-qubit linear entropy after n kicks, exact closed form.

    For |000>: S = 2 lam (1 - lam) with lam = U_{2m-1}(chi)^2 / 2 at even
    n = 2m, and S(2m-1) = S(2m).  For the +y coherent state:
    S = 4 chi^2 U_{n-1}^2 (1 - 2 chi^2 U_{n-1}^2) at every n.  Both give
    S(0) = 0.
    """
    _require_state_id(state_id)
    kicks = _kick_array(n, kappa0)
    chi = math.sin(kappa0 / 3.0) / 2.0
    if state_id == STATE_ZERO:
        _, u = cheby.t_u_trig(_even_partner(kicks), chi)  # U_{2m-1}(chi)
        lam = 0.5 * u * u
        return _like_kicks(2.0 * lam * (1.0 - lam), n)
    _, u = cheby.t_u_trig(kicks, chi)  # U_{n-1}(chi)
    x = chi * chi * u * u
    return _like_kicks(4.0 * x * (1.0 - 2.0 * x), n)


def concurrence3_000(n, kappa0: float) -> float | np.ndarray:
    """Two-qubit concurrence of the evolved |000> state after n kicks, exact
    closed form; C(0) = 0."""
    kicks = _kick_array(n, kappa0)
    _, u = cheby.t_u_trig(_even_partner(kicks), math.sin(kappa0 / 3.0) / 2.0)  # U_{2m-1}(chi)
    u = np.abs(u)
    return _like_kicks(u * np.abs(0.5 * u - np.sqrt(np.clip(1.0 - 0.75 * u * u, 0.0, None))), n)


def avg_entropy3(state_id: str, kappa0: float) -> AvgEntropy:
    """Infinite-time averaged single-qubit linear entropy, closed form.

    With s = sin^2(kappa0/3):  |000>  ->  (5 - 2s)/(4 - s)^2  and
    +y  ->  s (8 - 5s)/(4 - s)^2.  At the resonant torsions, kappa0 in 3pi Z
    (sin(kappa0/3) = 0 to 1e-12), the torsion is a global phase, every
    coherent state stays a product state, and the time average 0 is returned
    with the flag set; the |000> formula's continuity value 5/16 is not.
    """
    _require_state_id(state_id)
    if math.isclose(math.sin(kappa0 / 3.0), 0.0, abs_tol=1e-12):
        return AvgEntropy(0.0, True)
    s = math.sin(kappa0 / 3.0) ** 2
    if state_id == STATE_ZERO:
        return AvgEntropy((5.0 - 2.0 * s) / (4.0 - s) ** 2, False)
    return AvgEntropy(s * (8.0 - 5.0 * s) / (4.0 - s) ** 2, False)


@dataclass(frozen=True)
class GeneralState3:
    """Three-qubit symmetric state in the parity basis (phi1+, phi2+, phi1-, phi2-)."""

    a1: complex
    a2: complex
    b1: complex
    b2: complex

    def __post_init__(self):
        norm2 = abs(self.a1) ** 2 + abs(self.a2) ** 2 + abs(self.b1) ** 2 + abs(self.b2) ** 2
        if abs(norm2 - 1.0) > 1e-10:
            raise ValueError("parity-basis coefficients are not normalized")

    @classmethod
    def from_bloch(cls, point: BlochPoint) -> "GeneralState3":
        """Parity-basis coefficients of the coherent state at (theta0, phi0)."""
        c = math.cos(point.theta0 / 2.0)
        s = math.sin(point.theta0 / 2.0)
        z = cmath.exp(-1j * point.phi0) * s
        dicke = np.array(
            [c**3, math.sqrt(3.0) * c * c * z, math.sqrt(3.0) * c * z * z, z**3]
        )
        return cls.from_dicke(dicke)

    @classmethod
    def from_dicke(cls, amps: np.ndarray) -> "GeneralState3":
        """Change of basis from Dicke amplitudes (|000>, W, Wbar, |111>)."""
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("expected 4 Dicke amplitudes")
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        a1 = (amps[0] + 1j * amps[3]) * inv_sqrt2
        b1 = (amps[0] - 1j * amps[3]) * inv_sqrt2
        a2 = (amps[1] - 1j * amps[2]) * inv_sqrt2
        b2 = (amps[1] + 1j * amps[2]) * inv_sqrt2
        return cls(a1, a2, b1, b2)


def evolve_general3(state: GeneralState3, n, kappa0: float) -> tuple:
    """Parity-basis coefficients (a1, a2, b1, b2) after n kicks, up to a
    global phase: complex numbers for an int n, complex arrays for an array.

    The negative-parity pair picks up the relative phase (-i)^n against the
    positive-parity pair (the two block phases differ by (-1)^n e^{i n pi/2}).
    """
    kicks = _kick_array(n, kappa0)
    alpha, beta = block_alpha_beta(kappa0 / 3.0, kicks)
    rel = _MINUS_I_POWERS[kicks % 4]
    coefficients = (
        state.a1 * alpha - state.a2 * beta.conjugate(),
        state.a1 * beta + state.a2 * alpha.conjugate(),
        rel * (state.b1 * alpha + state.b2 * beta.conjugate()),
        rel * (state.b2 * alpha.conjugate() - state.b1 * beta),
    )
    return tuple(_like_kicks(c, n) for c in coefficients)


def general_entropy3(state: GeneralState3, n, kappa0: float) -> float | np.ndarray:
    """Single-qubit linear entropy of an arbitrary symmetric 3-qubit state
    after n kicks: S = 2 [r (1 - r) - |s|^2] with the reduced matrix entries
    r, s assembled from the evolved parity-basis coefficients."""
    a1n, a2n, b1n, b2n = evolve_general3(state, _kick_array(n, kappa0), kappa0)
    r = 0.5 + (a1n * b1n.conjugate() + a2n * b2n.conjugate() / 3.0).real
    s = (
        (a1n * b2n.conjugate() + b1n * a2n.conjugate()).real / math.sqrt(3.0)
        + 1j * (a1n * a2n.conjugate() + b1n * b2n.conjugate()).imag / math.sqrt(3.0)
        - 1j / 3.0 * (a2n + b2n) * (a2n.conjugate() - b2n.conjugate())
    )
    return _like_kicks(2.0 * (r * (1.0 - r) - np.abs(s) ** 2), n)


def parity_basis_states3() -> dict[str, np.ndarray]:
    """Dicke amplitudes of the parity-adapted basis (GHZ-like and W-like pairs)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "phi1_plus": np.array([inv_sqrt2, 0.0, 0.0, -1j * inv_sqrt2]),
        "phi1_minus": np.array([inv_sqrt2, 0.0, 0.0, 1j * inv_sqrt2]),
        "phi2_plus": np.array([0.0, inv_sqrt2, 1j * inv_sqrt2, 0.0]),
        "phi2_minus": np.array([0.0, inv_sqrt2, -1j * inv_sqrt2, 0.0]),
    }
