"""The 3- and 4-qubit closed forms run on one O(1) route: the trig Chebyshev
form over arrays of kick counts, one formula body per quantity."""

import inspect
import math

import mpmath
import numpy as np
import pytest

from kickedtop import cheby, cli, exact3, exact4, symspace
from kickedtop.exact3 import STATE_PLUS_Y, STATE_ZERO, GeneralState3
from kickedtop.symspace import BlochPoint, KickedTopParams

KAPPAS = [0.0, 0.3, 1.3, 2.7, 1.5 * math.pi, 2.0 * math.pi, 3.0 * math.pi, 4.4, -2.0]
GENERAL = GeneralState3.from_bloch(BlochPoint(1.1, 0.4))


def read_columns(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return dict(zip(header, data.T))


@pytest.fixture
def no_recurrence(monkeypatch):
    def refuse(n, x):
        raise AssertionError("the O(n) recurrence has no runtime caller")

    monkeypatch.setattr(cheby, "t_u_recurrence", refuse)


# One call per public function of exact3 and exact4; the key set must list
# every public function, so a new one has to be added here.
PUBLIC_CALLS = {
    exact3: {
        "block_alpha_beta": lambda: exact3.block_alpha_beta(0.4, np.arange(50)),
        "block_power3": lambda: exact3.block_power3(1.3, 40, "-"),
        "entropy3_closed": lambda: exact3.entropy3_closed(STATE_ZERO, 41, 1.3),
        "entropy3_series": lambda: exact3.entropy3_series(STATE_PLUS_Y, 40, 1.3),
        "concurrence3_000": lambda: exact3.concurrence3_000(41, 1.3),
        "concurrence3_series": lambda: exact3.concurrence3_series(40, 1.3),
        "avg_entropy3": lambda: exact3.avg_entropy3(STATE_ZERO, 1.3),
        "avg_entropy_3pi2": lambda: exact3.avg_entropy_3pi2(BlochPoint(1.1, 0.4)),
        "n_star_000": lambda: exact3.n_star_000(0.4),
        "evolve_general3": lambda: exact3.evolve_general3(GENERAL, 40, 1.3),
        "general_entropy3": lambda: exact3.general_entropy3(GENERAL, 40, 1.3),
        "general_entropy3_series": lambda: exact3.general_entropy3_series(GENERAL, 40, 1.3),
        "parity_basis_states3": exact3.parity_basis_states3,
    },
    exact4: {
        "block_power4": lambda: [exact4.block_power4(1.3, 40, s) for s in ("plus", "minus", "singlet")],
        "entropy4_closed": lambda: exact4.entropy4_closed(STATE_PLUS_Y, 41, 1.3),
        "entropy4_series": lambda: exact4.entropy4_series(STATE_ZERO, 40, 1.3),
        "avg_entropy4": lambda: exact4.avg_entropy4(STATE_PLUS_Y, 1.3),
        "tunneling": lambda: exact4.tunneling(0.1),
        "tunneling_overlap_series": lambda: exact4.tunneling_overlap_series(0.1, [0, 7, 2**53]),
        "ghz_fidelity_series": lambda: exact4.ghz_fidelity_series(0.1, [0, 7, 2**53]),
        "parity_basis_states4": exact4.parity_basis_states4,
        "plus_y_dicke4": exact4.plus_y_dicke4,
        "plus_y_evolved_dicke4": lambda: exact4.plus_y_evolved_dicke4(0.1, 400_000),
    },
}


class TestNoRecurrence:
    @pytest.mark.parametrize("module", [exact3, exact4], ids=["exact3", "exact4"])
    def test_every_public_function_runs(self, module, no_recurrence):
        public = {
            name for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
        }
        assert public == set(PUBLIC_CALLS[module])
        for call in PUBLIC_CALLS[module].values():
            call()

    @pytest.mark.parametrize("qubits", [3, 4])
    @pytest.mark.parametrize("state", ["zero", "plus_y", "1.1,0.4"])
    def test_evolve(self, qubits, state, no_recurrence, tmp_path):
        out = tmp_path / "evolve.csv"
        assert cli.main(["evolve", "--qubits", str(qubits), "--kappa0", "1.3", "--state", state,
                         "--steps", "60", "--out", str(out)]) == 0
        columns = read_columns(out)
        if "S_closed" in columns:
            assert np.max(np.abs(columns["S_closed"] - columns["S_numeric"])) < 1e-10
        else:
            assert (qubits, state) == (4, "1.1,0.4")  # no 4-qubit general closed form

    def test_tunnel(self, no_recurrence, tmp_path):
        out = tmp_path / "tunnel.json"
        assert cli.main(["tunnel", "--kappa0", "0.1", "--times", "0,1000,400000",
                         "--out", str(out)]) == 0


class TestTrigEvaluator:
    def test_array_matches_scalar_entries(self):
        n = np.array([0, 1, 2, 7, 50, 999, 2**53])
        for x in (0.0, 0.3, -0.45, 1.0, -1.0):
            t, u = cheby.t_u_trig(n, x)
            assert t.shape == u.shape == n.shape
            for i, k in enumerate(n.tolist()):
                assert (t[i], u[i]) == cheby.t_u_trig(k, x)

    @pytest.mark.parametrize("x", [0.0, 1.0, -1.0])
    def test_exact_where_the_recurrence_is(self, x):
        for n in range(60):
            assert cheby.t_u_trig(n, x) == cheby.t_u_recurrence(n, x)

    def test_rejects_negative_n_and_large_x(self):
        with pytest.raises(ValueError):
            cheby.t_u_trig(np.array([3, -1]), 0.2)
        with pytest.raises(ValueError):
            cheby.t_u_trig(3, 1.5)


class TestScalarMatchesSeries:
    """A scalar public function evaluates the series' formula at one n."""

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_each_closed_quantity(self, kappa0):
        n = range(1, 201)
        pairs = [(exact3.concurrence3_series(200, kappa0), [exact3.concurrence3_000(k, kappa0) for k in n]),
                 (exact3.general_entropy3_series(GENERAL, 200, kappa0),
                  [exact3.general_entropy3(GENERAL, k, kappa0) for k in n])]
        for state in (STATE_ZERO, STATE_PLUS_Y):
            pairs.append((exact3.entropy3_series(state, 200, kappa0),
                          [exact3.entropy3_closed(state, k, kappa0) for k in n]))
            pairs.append((exact4.entropy4_series(state, 200, kappa0),
                          [exact4.entropy4_closed(state, k, kappa0) for k in n]))
        for series, scalars in pairs:
            assert np.array_equal(series[1:], np.array(scalars))

    def test_general_state_matches_evolved_coefficients(self):
        series = exact3.general_entropy3_series(GENERAL, 30, 1.3)
        for n in (0, 1, 17, 30):
            evolved = exact3.evolve_general3(GENERAL, n, 1.3)
            assert exact3.general_entropy3(evolved, 0, 0.0) == pytest.approx(series[n], abs=1e-14)


def mp_general_entropy3(theta: float, phi: float, kappa0: float, n: int) -> float:
    """The general-state closed form evaluated with 40 significant digits from
    the same double inputs: Dicke amplitudes of the coherent state, parity
    basis, Chebyshev block power, reduced single-qubit matrix."""
    with mpmath.workdps(40):
        th, ph, k = mpmath.mpf(theta), mpmath.mpf(phi), mpmath.mpf(kappa0)
        c, s = mpmath.cos(th / 2), mpmath.sin(th / 2)
        z = mpmath.expj(-ph) * s
        r3 = mpmath.sqrt(3)
        d0, d1, d2, d3 = c**3, r3 * c * c * z, r3 * c * z * z, z**3
        h = 1 / mpmath.sqrt(2)
        a1, b1 = (d0 + 1j * d3) * h, (d0 - 1j * d3) * h
        a2, b2 = (d1 - 1j * d2) * h, (d1 + 1j * d2) * h
        theta_b = k / 3
        gamma = mpmath.acos(mpmath.sin(theta_b) / 2)
        t, u = mpmath.cos(n * gamma), mpmath.sin(n * gamma) / mpmath.sin(gamma)
        alpha = t + 0.5j * u * mpmath.cos(theta_b)
        beta = r3 / 2 * u * mpmath.expj(theta_b)
        rel = (1, -1j, -1, 1j)[n % 4]
        cj = mpmath.conj
        a1n, a2n = a1 * alpha - a2 * cj(beta), a1 * beta + a2 * cj(alpha)
        b1n, b2n = rel * (b1 * alpha + b2 * cj(beta)), rel * (b2 * cj(alpha) - b1 * beta)
        r = 0.5 + mpmath.re(a1n * cj(b1n) + a2n * cj(b2n) / 3)
        off = (
            mpmath.re(a1n * cj(b2n) + b1n * cj(a2n)) / r3
            + 1j * mpmath.im(a1n * cj(a2n) + b1n * cj(b2n)) / r3
            - 1j / 3 * (a2n + b2n) * (cj(a2n) - cj(b2n))
        )
        return float(2 * (r * (1 - r) - abs(off) ** 2))


class TestLongHorizonAccuracy:
    """The trig route against a 40-digit evaluation at up to 2e4 kicks."""

    @pytest.mark.parametrize("kappa0", [0.3, 1.3, 3.0 * math.pi])
    def test_general_state_closed_column(self, kappa0, tmp_path):
        theta, phi, steps = 1.1, 0.4, 20_000
        out = tmp_path / "evolve.csv"
        assert cli.main(["evolve", "--qubits", "3", "--kappa0", repr(kappa0),
                         "--state", f"{theta!r},{phi!r}", "--steps", str(steps),
                         "--out", str(out)]) == 0
        columns = read_columns(out)
        ns = np.unique(np.linspace(1, steps, 20).astype(int))
        reference = np.array([mp_general_entropy3(theta, phi, kappa0, int(n)) for n in ns])
        closed_error = np.max(np.abs(columns["S_closed"][ns] - reference))
        numeric_error = np.max(np.abs(columns["S_numeric"][ns] - reference))
        assert closed_error <= 2e-12
        assert closed_error <= max(1e-13, numeric_error / 10.0)


def mp_rotation(two_j: int) -> mpmath.matrix:
    """exp(-i p Jy) at the double p = pi/2, to 40 digits: the exponential of
    the real matrix -p (J+ - J-)/2."""
    with mpmath.workdps(40):
        j, p = mpmath.mpf(two_j) / 2, mpmath.mpf(math.pi / 2)
        gen = mpmath.zeros(two_j + 1, two_j + 1)
        for i in range(two_j):
            m = j - (i + 1)
            gen[i + 1, i] = mpmath.sqrt(j * (j + 1) - m * (m + 1)) * p / 2
            gen[i, i + 1] = -gen[i + 1, i]
        return mpmath.expm(gen)


FRACTION_BITS = 136  # fixed point with 41 significant digits for entries of modulus <= 1


def to_fixed(values) -> tuple[np.ndarray, np.ndarray]:
    """(real, imag) integer arrays of round(value * 2**FRACTION_BITS)."""
    def fixed(x):
        return int(mpmath.nint(mpmath.ldexp(x, FRACTION_BITS)))  # exact at any precision

    return tuple(np.array([[fixed(part(v)) for v in row] for row in values], dtype=object)
                 for part in (mpmath.re, mpmath.im))


def fixed_matmul(a, b):
    (ar, ai), (br, bi) = a, b
    return (ar @ br - ai @ bi) >> FRACTION_BITS, (ar @ bi + ai @ br) >> FRACTION_BITS


def exact_evolved(rotation, kappa0: float, amps: np.ndarray, horizons: list[int]) -> list:
    """U^n psi0 for each n of `horizons`, with U = diag(exp(-i kappa0 m^2 / 2j)) R
    built from the double kappa0 to 40 digits and powered by squaring in
    fixed point, whose round-off (2**-136 per product) stays below 1e-33."""
    two_j = rotation.rows - 1
    with mpmath.workdps(40):
        j = mpmath.mpf(two_j) / 2
        phases = [mpmath.expj(-mpmath.mpf(kappa0) * (j - r) ** 2 / two_j) for r in range(two_j + 1)]
        power = to_fixed([[phases[r] * rotation[r, c] for c in range(two_j + 1)]
                          for r in range(two_j + 1)])
    states = [to_fixed([[complex(a)] for a in amps]) for _ in horizons]
    remaining = list(horizons)
    while True:  # power is U^(2^k) on pass k
        for i, n in enumerate(remaining):
            if n % 2:
                states[i] = fixed_matmul(power, states[i])
            remaining[i] = n // 2
        if not any(remaining):
            break
        power = fixed_matmul(power, power)
    return [np.array([complex(math.ldexp(re, -FRACTION_BITS), math.ldexp(im, -FRACTION_BITS))
                      for re, im in zip(*(part[:, 0] for part in state))]) for state in states]


class TestPoweringAccuracy:
    """evolve's binary powering against a 40-digit reference: as accurate as
    the kick-by-kick np.dot loop, up to powering's own round-off.  That
    round-off is coherent (an error in U^(2^k) recurs in every later factor),
    so it grows like n eps and gets a margin of n eps / 4; the largest excess
    seen over four start states is 0.13 n eps."""

    HORIZONS = [10**3, 10**5, 2 * 10**5]

    @pytest.mark.parametrize("two_j", [3, 4, 20])
    def test_no_worse_than_the_kick_loop(self, two_j):
        j, kappas = two_j / 2.0, [0.1, 2.0 * math.pi, 3.0 * math.pi]
        psi0 = symspace.coherent_state(j, BlochPoint(0.8, -1.3))
        stack = symspace.floquet([KickedTopParams(j=j, kappa0=k) for k in kappas]).matrix
        # one np.matmul over the kappa0 stack per kick: bit-identical to an
        # np.dot loop per point (TestStackedTrajectory in test_symspace.py)
        vec, looped = np.tile(psi0.amps, (len(kappas), 1))[..., None], {}
        for kick in range(1, max(self.HORIZONS) + 1):
            vec = np.matmul(stack, vec)
            if kick in self.HORIZONS:
                looped[kick] = vec[..., 0]
        rotation = mp_rotation(two_j)
        for k, kappa0 in enumerate(kappas):
            u = symspace.floquet(KickedTopParams(j=j, kappa0=kappa0))
            exact = exact_evolved(rotation, kappa0, psi0.amps, self.HORIZONS)
            for n, reference in zip(self.HORIZONS, exact):
                powered = np.max(np.abs(symspace.evolve(u, psi0, n).amps - reference))
                loop = np.max(np.abs(looped[n][k] - reference))
                assert powered <= loop + n * np.finfo(float).eps / 4, (kappa0, n, powered, loop)
