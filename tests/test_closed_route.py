"""The 3- and 4-qubit closed forms run on one O(1) route: the trig Chebyshev
form over arrays of kick counts, one formula body per quantity."""

import inspect
import math

import mpmath
import numpy as np
import pytest

from kickedtop import cheby, cli, exact3, exact4, symspace
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
        "entropy3_closed": lambda: [exact3.entropy3_closed(STATE_ZERO, 41, 1.3),
                                    exact3.entropy3_closed(STATE_PLUS_Y, np.arange(41), 1.3)],
        "concurrence3_000": lambda: [exact3.concurrence3_000(41, 1.3),
                                     exact3.concurrence3_000(np.arange(41), 1.3)],
        "avg_entropy3": lambda: exact3.avg_entropy3(STATE_ZERO, 1.3),
        "evolve_general3": lambda: exact3.evolve_general3(GENERAL, 40, 1.3),
        "general_entropy3": lambda: [exact3.general_entropy3(GENERAL, 40, 1.3),
                                     exact3.general_entropy3(GENERAL, np.arange(41), 1.3)],
        "parity_basis_states3": exact3.parity_basis_states3,
    },
    exact4: {
        "block_power4": lambda: [exact4.block_power4(1.3, 40, s) for s in ("plus", "minus", "singlet")],
        "entropy4_closed": lambda: [exact4.entropy4_closed(STATE_PLUS_Y, 41, 1.3),
                                    exact4.entropy4_closed(STATE_ZERO, np.arange(41), 1.3)],
        "avg_entropy4": lambda: exact4.avg_entropy4(STATE_PLUS_Y, 1.3),
        "tunneling": lambda: exact4.tunneling(0.1),
        "tunneling_overlap_series": lambda: exact4.tunneling_overlap_series(0.1, [0, 7, 2**53]),
        "ghz_fidelity_series": lambda: exact4.ghz_fidelity_series(0.1, [0, 7, 2**53]),
        "parity_basis_states4": exact4.parity_basis_states4,
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


# Every closed quantity of kick count n, as (name, function of (n, kappa0)).
CLOSED_FORMS = [
    ("entropy3_zero", lambda n, k: exact3.entropy3_closed(STATE_ZERO, n, k)),
    ("entropy3_plus_y", lambda n, k: exact3.entropy3_closed(STATE_PLUS_Y, n, k)),
    ("concurrence3_000", exact3.concurrence3_000),
    ("general_entropy3", lambda n, k: exact3.general_entropy3(GENERAL, n, k)),
    ("entropy4_zero", lambda n, k: exact4.entropy4_closed(STATE_ZERO, n, k)),
    ("entropy4_plus_y", lambda n, k: exact4.entropy4_closed(STATE_PLUS_Y, n, k)),
]


class TestScalarMatchesSeries:
    """An int n gives that entry of the array of kick counts, bit for bit."""

    @pytest.mark.parametrize("kappa0", KAPPAS)
    def test_each_closed_quantity(self, kappa0):
        n = np.arange(201)
        for _, closed in CLOSED_FORMS:
            series = closed(n, kappa0)
            assert series.shape == n.shape
            scalars = [closed(k, kappa0) for k in range(201)]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(series, np.array(scalars))
        # an array of any shape and order gives the entries of those n
        picked = np.array([[200, 3], [0, 77]])
        for _, closed in CLOSED_FORMS:
            assert np.array_equal(closed(picked, kappa0), closed(n, kappa0)[picked])

    def test_general_state_matches_evolved_coefficients(self):
        series = exact3.general_entropy3(GENERAL, np.arange(31), 1.3)
        stacked = exact3.evolve_general3(GENERAL, np.arange(31), 1.3)
        for n in (0, 1, 17, 30):
            coefficients = exact3.evolve_general3(GENERAL, n, 1.3)
            assert coefficients == tuple(c[n] for c in stacked)
            evolved = GeneralState3(*coefficients)
            assert exact3.general_entropy3(evolved, 0, 0.0) == pytest.approx(series[n], abs=1e-14)


class TestRejectedInputs:
    """Negative kick counts and non-finite torsions raise ValueError in every
    closed form, as an int and inside an array."""

    # The |000> forms step n -> n + (n mod 2), which sends -1 to the valid
    # even partner 0: the check has to come first.
    @pytest.mark.parametrize("name", [name for name, _ in CLOSED_FORMS])
    @pytest.mark.parametrize("n", [-1, -3, [2, -1], [-3, 0, 5]], ids=str)
    def test_negative_n(self, name, n):
        closed = dict(CLOSED_FORMS)[name]
        with pytest.raises(ValueError, match="n must be >= 0"):
            closed(n if isinstance(n, int) else np.array(n), 1.3)

    @pytest.mark.parametrize("n", [-1, -3, [2, -1], [-3, 0, 5]], ids=str)
    def test_negative_n_blocks_and_coefficients(self, n):
        kicks = n if isinstance(n, int) else np.array(n)
        with pytest.raises(ValueError, match="n must be >= 0"):
            exact3.evolve_general3(GENERAL, kicks, 1.3)
        for sector in ("plus", "minus", "singlet"):
            with pytest.raises(ValueError, match="n must be >= 0"):
                exact4.block_power4(1.3, kicks, sector)

    # 2.5 used to give an odd-count value (|000>) or an IndexError (general
    # state); 2.0 is refused too, as a float.
    @pytest.mark.parametrize("n", [2.5, 2.0, [1, 2.5], [0.0, 3.0]], ids=str)
    def test_non_integral_n(self, n):
        kicks = n if isinstance(n, float) else np.array(n)
        calls = [lambda closed=closed: closed(kicks, 1.3) for _, closed in CLOSED_FORMS]
        calls.append(lambda: exact3.evolve_general3(GENERAL, kicks, 1.3))
        calls += [lambda sector=sector: exact4.block_power4(1.3, kicks, sector)
                  for sector in ("plus", "minus", "singlet")]
        for call in calls:
            with pytest.raises(ValueError, match="n must be an int or an int array"):
                call()

    @pytest.mark.parametrize("times", [[2.7], [0, 1.5], [2.0]], ids=str)
    def test_non_integral_times(self, times):
        # these truncated 2.7 to 2
        for series in (exact4.tunneling_overlap_series, exact4.ghz_fidelity_series):
            with pytest.raises(ValueError, match="n must be an int or an int array"):
                series(0.3, times)

    @pytest.mark.parametrize("kappa0", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa0(self, kappa0):
        for name, closed in CLOSED_FORMS:
            for n in (3, np.arange(4)):
                with pytest.raises(ValueError, match="kappa0 must be finite"):
                    closed(n, kappa0)
        with pytest.raises(ValueError, match="kappa0 must be finite"):
            exact3.evolve_general3(GENERAL, 3, kappa0)
        for sector in ("plus", "minus", "singlet"):
            with pytest.raises(ValueError, match="kappa0 must be finite"):
                exact4.block_power4(kappa0, np.arange(4), sector)
        for series in (exact4.tunneling_overlap_series, exact4.ghz_fidelity_series):
            with pytest.raises(ValueError):
                series(kappa0, [0, 1, 2])


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
        assert numeric_error <= LOOP_ERROR_BOUND + steps * np.finfo(float).eps / 4


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
    """U^n psi0 for each n of `horizons`, with
    U = diag(exp(-i kappa0 (m^2 - m^2_min) / 2j)) R in floquet's gauge
    (m^2_min = 1/4 for odd 2j, 0 for even) built from the double kappa0 to 40
    digits and powered by squaring in fixed point, whose round-off (2**-136
    per product) stays below 1e-33."""
    two_j = rotation.rows - 1
    with mpmath.workdps(40):
        j, m2_min = mpmath.mpf(two_j) / 2, mpmath.mpf(two_j % 2) / 4
        phases = [mpmath.expj(-mpmath.mpf(kappa0) * ((j - r) ** 2 - m2_min) / two_j)
                  for r in range(two_j + 1)]
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


# The per-kick loop's own error against the 40-digit reference.  The relative
# gates below compare two errors, and both are O(1) when the reference's torsion
# differs from floquet's, so this absolute bound keeps them from passing
# vacuously.  Largest seen over 1e3..2e5 kicks: 4.1e-11 at 2j = 3, 1.2e-11 at
# 2j = 4 and 5.2e-11 at 2j = 20.
LOOP_ERROR_BOUND = 1e-9


def kick_loop(stack, starts, horizons) -> dict:
    """Rows at each horizon of the per-kick dense loop, the reference the
    stepping kernels are gated against: one np.matmul of the dense stack per
    kick (bit-identical to an np.dot loop per point)."""
    vec, rows = starts[..., None], {}
    for kick in range(1, max(horizons) + 1):
        vec = np.matmul(stack, vec)
        if kick in horizons:
            rows[kick] = vec[..., 0]
    return rows


class TestPoweringAccuracy:
    """evolve's binary powering against a 40-digit reference: as accurate as
    the kick-by-kick np.dot loop, whose own error is within LOOP_ERROR_BOUND,
    up to powering's own round-off.  That round-off is coherent (an error in
    U^(2^k) recurs in every later factor), so it grows like n eps and gets a
    margin of n eps / 4; the largest excess seen over four start states is
    0.13 n eps."""

    HORIZONS = [10**3, 10**5, 2 * 10**5]

    @pytest.mark.parametrize("two_j", [3, 4, 20])
    def test_no_worse_than_the_kick_loop(self, two_j):
        j, kappas = two_j / 2.0, [0.1, 2.0 * math.pi, 3.0 * math.pi]
        psi0 = symspace.coherent_state(j, BlochPoint(0.8, -1.3))
        stack = symspace.floquet(j, kappas).matrix
        looped = kick_loop(stack, np.tile(psi0.amps, (len(kappas), 1)), self.HORIZONS)
        rotation = mp_rotation(two_j)
        for k, kappa0 in enumerate(kappas):
            u = symspace.floquet(j, kappa0)
            exact = exact_evolved(rotation, kappa0, psi0.amps, self.HORIZONS)
            for n, reference in zip(self.HORIZONS, exact):
                powered = np.max(np.abs(symspace.evolve(u, psi0, n).amps - reference))
                loop = np.max(np.abs(looped[n][k] - reference))
                assert loop <= LOOP_ERROR_BOUND, (kappa0, n, loop)
                assert powered <= loop + n * np.finfo(float).eps / 4, (kappa0, n, powered, loop)


def stepped(stack, starts, horizons, block=10_000):
    """Rows of trajectory at each horizon, stepped `block` kicks per call."""
    rows, vec = {}, starts
    for first in range(0, max(horizons), block):
        states = symspace.trajectory(stack, vec, min(block, max(horizons) - first))
        rows.update({n: states[n - first] for n in horizons if first < n < first + len(states)})
        vec = states[-1]
    return rows


def assert_no_worse_than_the_kick_loop(two_j):
    """trajectory's rows against the 40-digit reference: as accurate as
    kick_loop, whose own error is within LOOP_ERROR_BOUND, up to n eps / 4,
    the gate of TestPoweringAccuracy, for kappa0 in {0.1, 2 pi, 3 pi} and up
    to 3e4 kicks."""
    horizons = [10**3, 10**4, 3 * 10**4]
    j, kappas = two_j / 2.0, [0.1, 2.0 * math.pi, 3.0 * math.pi]
    psi0 = symspace.coherent_state(j, BlochPoint(0.8, -1.3))
    stack = symspace.floquet(j, kappas)
    starts = np.tile(psi0.amps, (len(kappas), 1))
    got, looped = stepped(stack, starts, horizons), kick_loop(stack.matrix, starts, horizons)
    rotation = mp_rotation(two_j)
    for k, kappa0 in enumerate(kappas):
        exact = exact_evolved(rotation, kappa0, psi0.amps, horizons)
        for n, reference in zip(horizons, exact):
            error = np.max(np.abs(got[n][k] - reference))
            loop_error = np.max(np.abs(looped[n][k] - reference))
            assert loop_error <= LOOP_ERROR_BOUND, (kappa0, n, loop_error)
            assert error <= loop_error + n * np.finfo(float).eps / 4, (kappa0, n, error, loop_error)


class TestFactoredAccuracy:
    """trajectory's factored kick D (R psi) against the 40-digit reference:
    as accurate as the per-kick dense loop, up to n eps / 4.  The largest
    excess seen is 4.0e-13 at 3e4 kicks (2j = 3, kappa0 = 3 pi), or 0.06 n eps."""

    @pytest.mark.parametrize("two_j", [3, 4, 20])
    def test_no_worse_than_the_dense_kick(self, two_j, monkeypatch):
        monkeypatch.setattr(symspace, "_FACTORED_MIN_DIM", 1)
        assert_no_worse_than_the_kick_loop(two_j)


class TestBlockedAccuracy:
    """trajectory's blocked kicks below _FACTORED_MIN_DIM, b kicks per GEMV
    from the power stack U, ..., U^b, against the 40-digit reference: as
    accurate as the per-kick dense loop, up to n eps / 4.  The largest excess
    seen is 0.073 n eps here (2j = 20, kappa0 = 0.1, 1e4 kicks) and 0.20 n eps
    over the zero and plus_y start states too (plus_y, 3e4 kicks)."""

    @pytest.mark.parametrize("two_j", [3, 4, 20])
    def test_no_worse_than_the_kick_loop(self, two_j):
        assert two_j + 1 < symspace._FACTORED_MIN_DIM
        assert_no_worse_than_the_kick_loop(two_j)
