"""Closed-form dynamics of the 4-qubit kicked top (j = 2, p = pi/2).

The parity-adapted symmetric basis splits the Floquet operator into
1 + 2 + 2 blocks: the W-like combination phi1+ is an exact eigenvector with
eigenvalue -1 (in the gauge where the torsion's constant diagonal phase
exp(-i kappa0/4) is dropped) at every torsion strength, the remaining
positive-parity pair {phi2+, phi3+} evolves by Chebyshev block powers with
chi = sin(kappa0/2)/2, and the negative-parity block has period 2 up to a
dynamical phase.  The near-degeneracy of phi1+ with one eigenvector of the
positive block at small kappa0 produces dynamical tunneling between the +y
and -y coherent states, with an exactly computable splitting.  As in exact3,
each closed quantity of the kick count n is one function that takes an int or
an int array; an int gives that entry of the array, bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import cheby
from .exact3 import (
    STATE_PLUS_Y,
    STATE_ZERO,
    AvgEntropy,
    _even_partner,
    _kick_array,
    _like_kicks,
    _require_state_id,
    block_alpha_beta,
)

SECTOR_PLUS = "plus"
SECTOR_MINUS = "minus"
SECTOR_SINGLET = "singlet"

_SQRT3 = math.sqrt(3.0)
# {phi2+, phi3+} coordinates of phi23+ = (tensor(+y) + tensor(-y))/sqrt(2).
_W23 = np.array([0.5, -_SQRT3 / 2.0])


def _principal_kappa0(kappa0: float) -> float:
    """kappa0 modulo 8 pi, the period of the 4-qubit Floquet operator, which
    depends on kappa0 only through exp(-i kappa0/4).  Values with
    |kappa0| <= 4 pi pass unchanged; larger finite ones are reduced through
    sin and cos of kappa0/4 into [0, 8 pi), so the closed phases stay angles."""
    if math.isfinite(kappa0) and abs(kappa0) > 4.0 * math.pi:
        return 4.0 * (math.atan2(math.sin(kappa0 / 4.0), math.cos(kappa0 / 4.0)) % math.tau)
    return kappa0


def block_power4(kappa0: float, n, sector: str):
    """n-th power of a 4-qubit parity block; O(1) in n.

    plus: exp(-i n (pi + kappa)/2) [[a_n, i b_n*], [i b_n, a_n*]] over
    {phi2+, phi3+} with kappa = kappa0/2; minus: a period-2 rotation over
    {phi1-, phi2-} up to the dynamical phase exp(-3 i n kappa/4); singlet: the
    scalar (-1)^n on phi1+.  An int array n gives a stack of shape
    n.shape + (2, 2) (singlet: n.shape), an int that entry of it.
    """
    kicks = _kick_array(n, kappa0)
    kappa = _principal_kappa0(kappa0) / 2.0
    if sector == SECTOR_SINGLET:
        return _like_kicks((-1.0) ** kicks, n)
    if sector == SECTOR_PLUS:
        alpha, beta = block_alpha_beta(kappa, kicks)
        phase = np.exp(-0.5j * kicks * (math.pi + kappa))
        block = [[alpha, 1j * np.conj(beta)], [1j * beta, np.conj(alpha)]]
    elif sector == SECTOR_MINUS:
        c, s = cheby.t_u_trig(kicks, 0.0)  # cos(n pi/2), sin(n pi/2)
        edge = cmath.exp(0.75j * kappa)
        phase = np.exp(-0.75j * kicks * kappa)
        block = [[c, edge * s], [-s / edge, c]]
    else:
        raise ValueError(f"unknown sector {sector!r}")
    stack = phase[..., None, None] * np.moveaxis(np.array(block), (0, 1), (-2, -1))
    return stack[0] if np.ndim(n) == 0 else stack


def entropy4_closed(state_id: str, n, kappa0: float) -> float | np.ndarray:
    """Single-qubit linear entropy after n kicks, exact closed form; xi is the
    real overlap parameter of the evolved state, with chi = sin(kappa0/2)/2.

    |0000>: S = (1 - xi_n^2)/2 at even n with the odd->even step rule;
    +y coherent state: S = (1 - |xi'_n|^2)/2 at every n, where
    delta(n) = n (2pi - kappa0)/4 is the accumulated phase between the
    singlet and the positive block.  Both give S(0) = 0.
    """
    _require_state_id(state_id)
    kicks = _kick_array(n, kappa0)
    kappa0 = _principal_kappa0(kappa0)
    chi = math.sin(kappa0 / 2.0) / 2.0
    if state_id == STATE_ZERO:
        kicks = _even_partner(kicks)
        t_n, u_nm1 = cheby.t_u_trig(kicks, chi)
        w = kicks * (kappa0 / 8.0)
        xi = t_n * np.cos(w) - 0.5 * u_nm1 * math.cos(kappa0 / 2.0) * np.sin(w)
    else:
        t_n, u_nm1 = cheby.t_u_trig(kicks, chi)
        delta = kicks * (2.0 * math.pi - kappa0) / 4.0
        xi = t_n * np.cos(delta) + u_nm1 * np.sin(delta) * math.cos(kappa0 / 2.0)
    return _like_kicks(0.5 * (1.0 - xi * xi), n)


def avg_entropy4(state_id: str, kappa0: float) -> AvgEntropy:
    """Infinite-time averaged single-qubit linear entropy, closed form.

    With c2 = cos^2(kappa0/2):  |0000>  ->  (9 + 2 c2)/(8 (3 + c2))  and
    +y  ->  (9 - c2)/(8 (3 + c2)).  At the resonant torsions, kappa0 in 2pi Z
    (sin(kappa0/2) = 0 to 1e-12), the phase averages behind the formula
    degenerate and the true time average is returned with the flag set, for
    both states: 0 for kappa0 in 4pi Z, where the torsion is a rotation about
    z and coherent states stay unentangled, and 1/4 otherwise.
    """
    _require_state_id(state_id)
    if math.isclose(math.sin(kappa0 / 2.0), 0.0, abs_tol=1e-12):
        return AvgEntropy(0.0 if math.cos(kappa0 / 4.0) ** 2 > 0.5 else 0.25, True)
    c2 = math.cos(kappa0 / 2.0) ** 2
    if state_id == STATE_ZERO:
        return AvgEntropy((9.0 + 2.0 * c2) / (8.0 * (3.0 + c2)), False)
    return AvgEntropy((9.0 - c2) / (8.0 * (3.0 + c2)), False)


@dataclass(frozen=True)
class TunnelingReport:
    """Two-level tunneling data for the +y/-y coherent pair at small kappa0.

    gamma_minus is the eigenphase, an angle in [0, 2 pi), of the positive-block
    eigenvector that is degenerate with phi1+ (eigenphase pi) at kappa0 = 0;
    the splitting Delta = |pi - gamma_minus| in [0, pi] sets the tunneling time
    n_star = pi/Delta, with small-kappa0 asymptotic 128 pi / kappa0^3, and a
    GHZ-like superposition appears at n_star/2.  Where Delta or kappa0^3
    underflows to zero the times are inf; where kappa0^3 overflows,
    n_star_asymptotic is 0.0.
    """

    kappa0: float
    gamma_minus: float
    splitting: float
    n_star: float
    n_star_asymptotic: float
    ghz_time: float


def tunneling(kappa0: float) -> TunnelingReport:
    """Exact eigenphase splitting and tunneling time for four qubits."""
    if not kappa0 > 0 or not math.isfinite(kappa0):
        raise ValueError("kappa0 must be finite and > 0")
    a = kappa0 / 4.0
    b = math.asin(0.5 * math.sin(2.0 * a))
    # a enters only as an angle; above pi it is reduced exactly through sin and cos
    a_angle = a if a < math.pi else math.atan2(math.sin(a), math.cos(a))
    gamma_minus = (a_angle + math.pi - b) % math.tau
    # pi - gamma_minus = b - a cancels at small kappa0; with sin b = sin a cos a
    # its sine and cosine have cancellation-free forms.
    sin_a, cos_a, cos_b = math.sin(a), math.cos(a), math.cos(b)
    splitting = abs(
        math.atan2(sin_a**3 / (cos_b + cos_a**2), cos_a * cos_b + sin_a**2 * cos_a)
    )
    try:
        cube = kappa0**3
    except OverflowError:
        cube = math.inf
    n_star = math.pi / splitting if splitting > 0.0 else math.inf
    return TunnelingReport(
        kappa0=kappa0,
        gamma_minus=gamma_minus,
        splitting=splitting,
        n_star=n_star,
        n_star_asymptotic=128.0 * math.pi / cube if cube > 0.0 else math.inf,
        ghz_time=n_star / 2.0,
    )


def _phi23_matrix_element(kappa0: float, n: np.ndarray) -> np.ndarray:
    """<phi23+| U_+^n |phi23+> over an int array n, from the stack of closed
    plus blocks of block_power4."""
    if kappa0 <= 0:
        raise ValueError("kappa0 must be > 0")
    return _W23 @ block_power4(kappa0, n, SECTOR_PLUS) @ _W23


def tunneling_overlap_series(kappa0: float, times) -> np.ndarray:
    """Squared overlap of U^n tensor(+y) with tensor(-y) at the given times.

    The +y coherent state is (i phi1+ + phi23+)/sqrt(2) up to phases, so the
    overlap follows from the singlet eigenvalue (-1)^n and one 2x2 block power
    per requested time.
    """
    n = _kick_array(times, kappa0)
    return _like_kicks(np.abs(0.5 * (_phi23_matrix_element(kappa0, n) - (-1.0) ** n)) ** 2, times)


def ghz_fidelity_series(kappa0: float, times) -> np.ndarray:
    """Squared overlap of U^n tensor(+y) with the GHZ-like superposition
    (tensor(+y) - i tensor(-y))/sqrt(2) at the given times."""
    n = _kick_array(times, kappa0)
    element = _phi23_matrix_element(kappa0, n)
    term_singlet = (-1.0) ** n * (1.0 - 1j) / (2.0 * math.sqrt(2.0))
    term_block = (1.0 + 1j) * element / (2.0 * math.sqrt(2.0))
    return _like_kicks(np.abs(term_singlet + term_block) ** 2, times)


def parity_basis_states4() -> dict[str, np.ndarray]:
    """Dicke amplitudes (m = 2..-2) of the 4-qubit parity-adapted basis."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "phi1_plus": np.array([0.0, inv_sqrt2, 0.0, -inv_sqrt2, 0.0]),
        "phi1_minus": np.array([0.0, inv_sqrt2, 0.0, inv_sqrt2, 0.0]),
        "phi2_plus": np.array([inv_sqrt2, 0.0, 0.0, 0.0, inv_sqrt2]),
        "phi2_minus": np.array([inv_sqrt2, 0.0, 0.0, 0.0, -inv_sqrt2]),
        "phi3_plus": np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    }
