"""The 3- and 4-qubit closed forms run on one O(1) route: the trig Chebyshev
form over arrays of kick counts, one formula body per quantity."""

import inspect
import math

import mpmath
import numpy as np
import pytest

from kickedtop import cheby, cli, exact3, exact4
from kickedtop.exact3 import STATE_PLUS_Y, STATE_ZERO, GeneralState3
from kickedtop.symspace import BlochPoint

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
