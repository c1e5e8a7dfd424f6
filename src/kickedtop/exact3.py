"""Closed-form dynamics of the 3-qubit kicked top (j = 3/2, p = pi/2).

The Floquet operator commutes with the parity operator (tensor power of
sigma_y), so it splits into 2x2 blocks over the parity-adapted basis

    phi1_pm = (|000> -+ i |111>)/sqrt(2),   phi2_pm = (|W> +- i |Wbar>)/sqrt(2),

and the n-th matrix power of each block is a Chebyshev polynomial expression
in chi = sin(kappa0/3)/2.  Every closed form is written once, over an int or
an int array of kick counts, and costs O(1) per kick through the trig
Chebyshev form; the numeric engine in symspace serves as the cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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
    closed form degenerate (kappa0 congruent to 0 mod 3pi for three qubits);
    the value returned there is the continuity limit of the formula, except at
    kappa0 = 0 exactly where the average is 0 for product initial states.
    """

    value: float
    resonant: bool


@dataclass(frozen=True)
class ParityBlockSpec3:
    """Derived rotation data of the positive-parity block.

    The phase-stripped block is a rotation by gamma about an axis at
    (axis_theta, axis_phi), with cos(gamma) = chi = sin(2 kappa)/2 and
    kappa = kappa0/6.
    """

    kappa0: float
    kappa: float = field(init=False)
    chi: float = field(init=False)
    gamma: float = field(init=False)
    axis_theta: float = field(init=False)
    axis_phi: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.kappa0):
            raise ValueError("kappa0 must be finite")
        kappa = self.kappa0 / 6.0
        chi = math.sin(2.0 * kappa) / 2.0
        gamma = math.acos(chi)
        sin_gamma = math.sin(gamma)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "axis_theta", math.acos(-math.cos(2.0 * kappa) / (2.0 * sin_gamma)))
        object.__setattr__(self, "axis_phi", math.pi / 2.0 + 2.0 * kappa)


@dataclass(frozen=True)
class BlockPower:
    """n-th power of a parity block: global phase times [[a, -+b*], [+-b, a*]]."""

    n: int
    parity: int  # +1 or -1
    phase: complex
    alpha_n: complex
    beta_n: complex
    chi: float
    gamma: float

    @property
    def matrix(self) -> np.ndarray:
        sign = self.parity
        return self.phase * np.array(
            [
                [self.alpha_n, -sign * self.beta_n.conjugate()],
                [sign * self.beta_n, self.alpha_n.conjugate()],
            ]
        )


def _parity_sign(parity) -> int:
    if parity in (1, "+", "plus"):
        return 1
    if parity in (-1, "-", "minus"):
        return -1
    raise ValueError(f"parity must be '+' or '-', got {parity!r}")


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


def block_power3(kappa0: float, n: int, parity) -> BlockPower:
    """Closed-form n-th power of the 3-qubit parity block, from
    block_alpha_beta at theta = 2 kappa = kappa0/3; O(1) in n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    sign = _parity_sign(parity)
    spec = ParityBlockSpec3(kappa0)
    alpha, beta = block_alpha_beta(2.0 * spec.kappa, n)
    phase = sign**n * cmath.exp(-1j * n * (sign * math.pi / 4.0 + spec.kappa))
    return BlockPower(
        n=n, parity=sign, phase=phase, alpha_n=alpha, beta_n=beta, chi=spec.chi, gamma=spec.gamma
    )


def _require_state_id(state_id: str):
    if state_id not in _STATE_IDS:
        raise ValueError(f"unknown state_id {state_id!r}; expected one of {_STATE_IDS}")


def _even_partner(n):
    # Entanglement is constant across each odd->even pair of kicks.
    return n + (n % 2)


def _kicks(n_max: int) -> np.ndarray:
    """The kick counts 0..n_max of a series."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return np.arange(n_max + 1)


def _entropy3(state_id: str, n, kappa0: float):
    """The formula of entropy3_closed over an int array n."""
    chi = ParityBlockSpec3(kappa0).chi
    if state_id == STATE_ZERO:
        _, u = cheby.t_u_trig(_even_partner(n), chi)  # U_{2m-1}(chi)
        lam = 0.5 * u * u
        return 2.0 * lam * (1.0 - lam)
    _, u = cheby.t_u_trig(n, chi)  # U_{n-1}(chi)
    x = chi * chi * u * u
    return 4.0 * x * (1.0 - 2.0 * x)


def entropy3_closed(state_id: str, n: int, kappa0: float) -> float:
    """Single-qubit linear entropy after n kicks, exact closed form.

    For |000>: S = 2 lam (1 - lam) with lam = U_{2m-1}(chi)^2 / 2 at even
    n = 2m, and S(2m-1) = S(2m).  For the +y coherent state:
    S = 4 chi^2 U_{n-1}^2 (1 - 2 chi^2 U_{n-1}^2) at every n.
    """
    _require_state_id(state_id)
    if n < 1:
        raise ValueError("n must be >= 1 (the initial product state has S = 0)")
    return float(_entropy3(state_id, np.array([n]), kappa0)[0])


def entropy3_series(state_id: str, n_max: int, kappa0: float) -> np.ndarray:
    """entropy3_closed for n = 0..n_max; the formula gives S(0) = 0."""
    _require_state_id(state_id)
    return _entropy3(state_id, _kicks(n_max), kappa0)


def _concurrence3(n, kappa0: float):
    """The formula of concurrence3_000 over an int array n."""
    _, u = cheby.t_u_trig(_even_partner(n), ParityBlockSpec3(kappa0).chi)  # U_{2m-1}(chi)
    u = np.abs(u)
    return u * np.abs(0.5 * u - np.sqrt(np.clip(1.0 - 0.75 * u * u, 0.0, None)))


def concurrence3_000(n: int, kappa0: float) -> float:
    """Two-qubit concurrence of the evolved |000> state, exact closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(_concurrence3(np.array([n]), kappa0)[0])


def concurrence3_series(n_max: int, kappa0: float) -> np.ndarray:
    """concurrence3_000 for n = 0..n_max; the formula gives C(0) = 0."""
    return _concurrence3(_kicks(n_max), kappa0)


def avg_entropy3(state_id: str, kappa0: float) -> AvgEntropy:
    """Infinite-time averaged single-qubit linear entropy, closed form.

    With s = sin^2(kappa0/3):  |000>  ->  (5 - 2s)/(4 - s)^2  and
    +y  ->  s (8 - 5s)/(4 - s)^2.  The |000> average is discontinuous at
    kappa0 = 0 (limit 5/16, value 0); resonant torsions return the formula's
    continuity value with the flag set.
    """
    _require_state_id(state_id)
    resonant = math.isclose(math.sin(kappa0 / 3.0), 0.0, abs_tol=1e-12)
    if state_id == STATE_ZERO and kappa0 == 0.0:
        return AvgEntropy(0.0, True)
    s = math.sin(kappa0 / 3.0) ** 2
    if state_id == STATE_ZERO:
        return AvgEntropy((5.0 - 2.0 * s) / (4.0 - s) ** 2, resonant)
    return AvgEntropy(s * (8.0 - 5.0 * s) / (4.0 - s) ** 2, resonant)


def avg_entropy_3pi2(point: BlochPoint) -> float:
    """Time-averaged linear entropy of any initial coherent state at
    kappa0 = 3pi/2; takes values in [7/24, 1/3]."""
    th, ph = point.theta0, point.phi0
    return (
        15.0
        + math.cos(4.0 * th)
        + (1.0 + 3.0 * math.cos(2.0 * th)) * math.sin(th) ** 4 * math.sin(2.0 * ph) ** 2
    ) / 48.0


@dataclass(frozen=True)
class NStar000:
    """First near-maximal entanglement time of the evolved |000> state.

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

    def to_dicke(self) -> np.ndarray:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        return np.array(
            [
                (self.a1 + self.b1) * inv_sqrt2,
                (self.a2 + self.b2) * inv_sqrt2,
                1j * (self.a2 - self.b2) * inv_sqrt2,
                -1j * (self.a1 - self.b1) * inv_sqrt2,
            ]
        )


def _evolved_coefficients(state: GeneralState3, n, kappa0: float):
    """(a1, a2, b1, b2) after n kicks, up to a global phase, over an int array n.

    The negative-parity pair picks up the relative phase (-i)^n against the
    positive-parity pair (the two block phases differ by (-1)^n e^{i n pi/2}).
    """
    alpha, beta = block_alpha_beta(2.0 * ParityBlockSpec3(kappa0).kappa, n)
    rel = _MINUS_I_POWERS[n % 4]
    return (
        state.a1 * alpha - state.a2 * beta.conjugate(),
        state.a1 * beta + state.a2 * alpha.conjugate(),
        rel * (state.b1 * alpha + state.b2 * beta.conjugate()),
        rel * (state.b2 * alpha.conjugate() - state.b1 * beta),
    )


def evolve_general3(state: GeneralState3, n: int, kappa0: float) -> GeneralState3:
    """Parity-basis coefficients after n kicks, up to a global phase."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coefficients = _evolved_coefficients(state, np.array([n]), kappa0)
    return GeneralState3(*(complex(c[0]) for c in coefficients))


def _general_entropy3(state: GeneralState3, n, kappa0: float):
    """The formula of general_entropy3 over an int array n."""
    a1n, a2n, b1n, b2n = _evolved_coefficients(state, n, kappa0)
    r = 0.5 + (a1n * b1n.conjugate() + a2n * b2n.conjugate() / 3.0).real
    s = (
        (a1n * b2n.conjugate() + b1n * a2n.conjugate()).real / math.sqrt(3.0)
        + 1j * (a1n * a2n.conjugate() + b1n * b2n.conjugate()).imag / math.sqrt(3.0)
        - 1j / 3.0 * (a2n + b2n) * (a2n.conjugate() - b2n.conjugate())
    )
    return 2.0 * (r * (1.0 - r) - np.abs(s) ** 2)


def general_entropy3(state: GeneralState3, n: int, kappa0: float) -> float:
    """Single-qubit linear entropy of an arbitrary symmetric 3-qubit state
    after n kicks: S = 2 [r (1 - r) - |s|^2] with the reduced matrix entries
    r, s assembled from the evolved parity-basis coefficients."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(_general_entropy3(state, np.array([n]), kappa0)[0])


def general_entropy3_series(state: GeneralState3, n_max: int, kappa0: float) -> np.ndarray:
    """general_entropy3 for n = 0..n_max."""
    return _general_entropy3(state, _kicks(n_max), kappa0)


def parity_basis_states3() -> dict[str, np.ndarray]:
    """Dicke amplitudes of the parity-adapted basis (GHZ-like and W-like pairs)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "phi1_plus": np.array([inv_sqrt2, 0.0, 0.0, -1j * inv_sqrt2]),
        "phi1_minus": np.array([inv_sqrt2, 0.0, 0.0, 1j * inv_sqrt2]),
        "phi2_plus": np.array([0.0, inv_sqrt2, 1j * inv_sqrt2, 0.0]),
        "phi2_minus": np.array([0.0, inv_sqrt2, -1j * inv_sqrt2, 0.0]),
    }
