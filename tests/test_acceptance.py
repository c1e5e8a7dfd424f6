"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s or -rA to see them).

Criterion 8 checks that floor(3*pi/kappa0) predicts when the 3-qubit |000>
state *first* becomes near-maximally entangled, which is what `n_star_000`
and `NStar000` (tests/conftest.py) promise.  The argmax of the closed-form
entropy is taken over the first cycle only, n <= disentangle_estimate + 3,
and the test asserts that this window really closes a cycle: S dips below
0.02 within 3 kicks of 2 * estimate, where `NStar000` says disentanglement
comes back.

A global argmax over a fixed 60-kick window is not the estimate's claim.  The
exact period of S in n is pi / asin(sin(kappa0/3)/2), about 23.8 kicks at
kappa0 = 0.8, so 60 kicks span about 2.5 cycles, and the peaks near 1/2 are
so flat that which one is highest is an accident of the integer grid: the
first peak is n = 11 with S = 0.499848, while the recurrences reach
S = 0.499878 at n = 35 and S = 0.499928 at n = 59.  The closed form agrees
with the Dicke-space engine on these series to about 5e-14.
"""

import math
import time

import numpy as np
import pytest

from kickedtop import classical as cl
from kickedtop import exact3, exact4, measures, symspace, tomo
from kickedtop.exact3 import STATE_PLUS_Y, STATE_ZERO
from kickedtop.exact4 import SECTOR_PLUS
from kickedtop.symspace import BlochPoint, SymState

from conftest import (
    avg_entropy_3pi2,
    block_power3,
    expectations_of,
    fixed_point_multiplier,
    haar_symmetric_sample,
    map_step,
    n_star_000,
    trajectory_array,
)

ZERO = BlochPoint(0.0, 0.0)
PLUS_Y = BlochPoint(math.pi / 2.0, -math.pi / 2.0)
MINUS_Y = BlochPoint(math.pi / 2.0, math.pi / 2.0)

CRITERION_1_KAPPAS = [0.1, 0.4, 0.5, 0.8, 1.2, 2.5, 1.5 * math.pi]
CRITERION_3_KAPPAS = [0.1, 0.4, 0.5, 0.8, 1.2, 1.9, 2.5, 3.1, 4.0, 1.5 * math.pi]


def _kicks(n_max):
    return np.arange(n_max + 1)


def _series(two_j, point, kappa0, n_max):
    u = symspace.floquet(two_j / 2.0, kappa0)
    psi = symspace.coherent_state(two_j / 2.0, point)
    return measures.entanglement_series(u, psi, n_max)


def _report(number: int, runtime: float, limit: float, detail: str):
    assert runtime < limit, f"criterion {number} exceeded its {limit} s budget ({runtime:.1f} s)"
    print(f"ACCEPTANCE {number} PASS ({runtime:.2f} s): {detail}")


def test_criterion_01_closed_vs_numeric_oracle():
    start = time.perf_counter()
    worst_s = worst_c = 0.0
    for kappa0 in CRITERION_1_KAPPAS:
        s_num, c_num = _series(3, ZERO, kappa0, 40)
        worst_s = max(worst_s, np.max(np.abs(s_num - exact3.entropy3_closed(STATE_ZERO, _kicks(40), kappa0))))
        worst_c = max(worst_c, np.max(np.abs(c_num - exact3.concurrence3_000(_kicks(40), kappa0))))
        s_num, _ = _series(3, PLUS_Y, kappa0, 40)
        worst_s = max(worst_s, np.max(np.abs(s_num - exact3.entropy3_closed(STATE_PLUS_Y, _kicks(40), kappa0))))
        s_num, _ = _series(4, ZERO, kappa0, 40)
        worst_s = max(worst_s, np.max(np.abs(s_num - exact4.entropy4_closed(STATE_ZERO, _kicks(40), kappa0))))
        s_num, _ = _series(4, PLUS_Y, kappa0, 40)
        worst_s = max(worst_s, np.max(np.abs(s_num - exact4.entropy4_closed(STATE_PLUS_Y, _kicks(40), kappa0))))
    assert worst_s <= 1e-10
    assert worst_c <= 1e-10
    _report(1, time.perf_counter() - start, 5.0,
            f"max |S_closed - S_numeric| = {worst_s:.2e}, max |C_closed - C_numeric| = {worst_c:.2e}")


def test_criterion_02_paper_constants():
    start = time.perf_counter()
    tol = 1e-12
    checks = [
        (exact3.avg_entropy3(STATE_ZERO, 1e-9).value, 5.0 / 16.0),
        (exact3.avg_entropy3(STATE_ZERO, 1.5 * math.pi).value, 1.0 / 3.0),
        (exact3.avg_entropy3(STATE_PLUS_Y, 1.5 * math.pi).value, 1.0 / 3.0),
        (avg_entropy_3pi2(BlochPoint(0.0, 0.0)), 1.0 / 3.0),
        (avg_entropy_3pi2(BlochPoint(math.pi / 4.0, -math.pi / 2.0)), 7.0 / 24.0),
        (exact3.concurrence3_000(1, math.pi / 2.0), (math.sqrt(13.0) - 1.0) / 8.0),
        (exact4.avg_entropy4(STATE_ZERO, 1e-9).value, 11.0 / 32.0),
        (exact4.avg_entropy4(STATE_PLUS_Y, 1e-9).value, 0.25),
        (exact4.avg_entropy4(STATE_ZERO, math.pi).value, 3.0 / 8.0),
        (exact4.avg_entropy4(STATE_PLUS_Y, math.pi).value, 3.0 / 8.0),
        (measures.rmt_average(3), 1.0 / 3.0),
        (measures.rmt_average(4), 3.0 / 8.0),
    ]
    worst = max(abs(got - expected) for got, expected in checks)
    assert worst <= tol
    _report(2, time.perf_counter() - start, 1.0,
            f"{len(checks)} closed-form constants exact, worst error {worst:.2e}")


def test_criterion_03_step_equalities():
    start = time.perf_counter()
    worst_numeric = 0.0
    for kappa0 in CRITERION_3_KAPPAS:
        for m in range(1, 101):
            assert exact3.entropy3_closed(STATE_ZERO, 2 * m - 1, kappa0) == \
                exact3.entropy3_closed(STATE_ZERO, 2 * m, kappa0)
            assert exact3.concurrence3_000(2 * m - 1, kappa0) == \
                exact3.concurrence3_000(2 * m, kappa0)
            assert exact4.entropy4_closed(STATE_ZERO, 2 * m - 1, kappa0) == \
                exact4.entropy4_closed(STATE_ZERO, 2 * m, kappa0)
        # the step rules with closed forms: S and C for three qubits, S for
        # four (the 4-qubit pairwise concurrence genuinely does not step)
        s_num, c_num = _series(3, ZERO, kappa0, 200)
        worst_numeric = max(
            worst_numeric,
            np.max(np.abs(s_num[1:200:2] - s_num[2:201:2])),
            np.max(np.abs(c_num[1:200:2] - c_num[2:201:2])),
        )
        s_num, _ = _series(4, ZERO, kappa0, 200)
        worst_numeric = max(worst_numeric, np.max(np.abs(s_num[1:200:2] - s_num[2:201:2])))
    assert worst_numeric <= 1e-10
    _report(3, time.perf_counter() - start, 5.0,
            f"closed-form steps exact, numeric step defect {worst_numeric:.2e} "
            f"over m <= 100, {len(CRITERION_3_KAPPAS)} torsions")


def test_criterion_04_pell_and_block_unitarity():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    chis = rng.uniform(-0.5, 0.5, size=10**4)
    ns = rng.integers(0, 201, size=10**4)
    t = np.ones_like(chis)
    t_prev = np.ones_like(chis)
    u = np.zeros_like(chis)
    u_prev = np.zeros_like(chis)
    pell = np.empty_like(chis)
    done = ns == 0
    pell[done] = t[done] ** 2 + (1.0 - chis[done] ** 2) * u[done] ** 2
    t, u = chis.copy(), np.ones_like(chis)  # T_1, U_0
    for step in range(1, 201):
        hit = ns == step
        pell[hit] = t[hit] ** 2 + (1.0 - chis[hit] ** 2) * u[hit] ** 2
        t, t_prev = 2.0 * chis * t - t_prev, t
        u, u_prev = 2.0 * chis * u - u_prev, u
    worst_pell = np.max(np.abs(pell - 1.0))
    assert worst_pell <= 1e-9

    worst_block = 0.0
    for kappa0, n in zip(rng.uniform(0.0, 4.0 * math.pi, size=1000), rng.integers(0, 201, size=1000)):
        block = block_power3(float(kappa0), int(n), SECTOR_PLUS)
        worst_block = max(worst_block, np.max(np.abs(block @ block.conj().T - np.eye(2))))
        alpha, beta = exact3.block_alpha_beta(float(kappa0) / 2.0, int(n))
        worst_block = max(worst_block, abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0))
    assert worst_block <= 1e-12
    _report(4, time.perf_counter() - start, 2.0,
            f"10^4 Pell samples worst {worst_pell:.2e}; block norms worst {worst_block:.2e}")


def test_criterion_05_time_average_convergence():
    start = time.perf_counter()
    n_kicks = 10**6
    worst = 0.0
    for kappa0 in (0.8, 1.2, 2.5):
        pairs = [
            (exact3.entropy3_closed(STATE_ZERO, _kicks(n_kicks), kappa0), exact3.avg_entropy3(STATE_ZERO, kappa0).value),
            (exact3.entropy3_closed(STATE_PLUS_Y, _kicks(n_kicks), kappa0), exact3.avg_entropy3(STATE_PLUS_Y, kappa0).value),
            (exact4.entropy4_closed(STATE_ZERO, _kicks(n_kicks), kappa0), exact4.avg_entropy4(STATE_ZERO, kappa0).value),
            (exact4.entropy4_closed(STATE_PLUS_Y, _kicks(n_kicks), kappa0), exact4.avg_entropy4(STATE_PLUS_Y, kappa0).value),
        ]
        for series, closed in pairs:
            worst = max(worst, abs(float(series[1:].mean()) - closed))
    assert worst <= 1e-3
    _report(5, time.perf_counter() - start, 30.0,
            f"10^6-kick means vs closed averages, worst gap {worst:.2e}")


def test_criterion_06_three_pi_halves_structure():
    start = time.perf_counter()
    kappa0 = 1.5 * math.pi
    u = symspace.floquet(1.5, kappa0).matrix
    u12 = np.linalg.matrix_power(u, 12)
    phase = u12[0, 0] / abs(u12[0, 0])
    defect = np.max(np.abs(u12 - phase * np.eye(4)))
    assert defect <= 1e-10

    worst_period = 0.0
    for point, state_id in ((ZERO, STATE_ZERO), (PLUS_Y, STATE_PLUS_Y)):
        closed = exact3.entropy3_closed(state_id, _kicks(60), kappa0)
        assert np.max(np.abs(closed[6:54] - closed[12:60])) <= 1e-12
        numeric, _ = _series(3, point, kappa0, 60)
        worst_period = max(worst_period, np.max(np.abs(numeric[6:54] - numeric[12:60])))
    assert worst_period <= 1e-10

    _, c_num = _series(3, ZERO, kappa0, 60)
    closed_c = exact3.concurrence3_000(_kicks(60), kappa0)
    assert np.max(closed_c) <= 1e-12
    assert np.max(c_num) <= 1e-10
    _report(6, time.perf_counter() - start, 1.0,
            f"U^12 proportional to identity ({defect:.2e}), entropy period 6, concurrence = 0")


def test_criterion_07_tunneling():
    start = time.perf_counter()
    report = exact4.tunneling(0.1)
    n_star = int(round(math.pi / report.splitting))
    overlap = exact4.tunneling_overlap_series(0.1, [n_star])[0]
    ghz = exact4.ghz_fidelity_series(0.1, [n_star // 2])[0]
    assert overlap >= 0.95
    assert ghz >= 0.95
    assert abs(report.n_star_asymptotic - 402124) <= 1.0
    _report(7, time.perf_counter() - start, 1.0,
            f"overlap(n*={n_star}) = {overlap:.4f}, GHZ fidelity(n*/2) = {ghz:.4f}, "
            f"asymptotic n* = {report.n_star_asymptotic:.1f}")


@pytest.mark.parametrize("kappa0", [0.4, 0.5, 0.8])
def test_criterion_08_n_star_estimate(kappa0):
    # First-cycle argmax of the |000> entropy: the window ends just past the
    # disentanglement near 2 * estimate, and that it closes a cycle there is
    # asserted, not assumed.  Later recurrences can top the first peak by
    # ~1e-4 (module docstring), so a global argmax is not what is estimated.
    start = time.perf_counter()
    n_star = n_star_000(kappa0)
    estimate = n_star.estimate
    disentangle = n_star.disentangle_estimate
    series = exact3.entropy3_closed(STATE_ZERO, _kicks(60), kappa0)
    window = disentangle + 3
    assert window < len(series), f"first-cycle window n <= {window} exceeds 60 kicks"
    dip = float(np.min(series[disentangle - 3 : window + 1]))
    assert dip < 0.02, (
        f"S stays >= {dip:.4f} within 3 kicks of n = {disentangle}; "
        f"the window n <= {window} does not close the first cycle"
    )
    argmax = int(np.argmax(series[: window + 1]))
    assert abs(argmax - estimate) <= 2, (
        f"first-cycle argmax over n <= {window} is {argmax} (S = {series[argmax]:.6f}) "
        f"but the estimate is {estimate} (S = {series[estimate]:.6f})"
    )
    _report(8, time.perf_counter() - start, 1.0,
            f"kappa0 = {kappa0}: first-cycle argmax {argmax} (n <= {window}, "
            f"closed by S = {dip:.1e} near n = {disentangle}) "
            f"within 2 of floor(3 pi / kappa0) = {estimate}")


def test_criterion_09_rmt_monte_carlo():
    start = time.perf_counter()
    three = haar_symmetric_sample(1.5, 10**4, seed=20260811)
    four = haar_symmetric_sample(2.0, 10**4, seed=20260812)
    assert abs(three - 1.0 / 3.0) <= 0.01
    assert abs(four - 3.0 / 8.0) <= 0.01
    _report(9, time.perf_counter() - start, 10.0,
            f"Haar means {three:.4f} (target 1/3) and {four:.4f} (target 3/8)")


def test_criterion_10_classical_map():
    start = time.perf_counter()
    for kappa0 in (0.0, 0.5, 2.5):
        p = map_step(cl.FIXED_POINT, kappa0)
        assert (p.x, p.y, p.z) == (0.0, -1.0, 0.0)
        orbit = trajectory_array(cl.PERIOD4_POINT, kappa0, 4)
        assert np.array_equal(orbit[4], orbit[0])
        assert np.array_equal(orbit[1], [1.0, 0.0, 0.0])
    traj = trajectory_array(cl.ClassicalPoint.from_angles(1.0, 0.3), 2.5, 10**6)
    drift = np.max(np.abs(np.einsum("ij,ij->i", traj, traj) - 1.0))
    assert drift <= 1e-9
    lo, hi = 1.9, 2.1
    assert fixed_point_multiplier(lo) <= 1.0 + 1e-12
    assert fixed_point_multiplier(hi) > 1.0 + 1e-12
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if fixed_point_multiplier(mid) > 1.0 + 1e-12:
            hi = mid
        else:
            lo = mid
    onset = 0.5 * (lo + hi)
    assert 1.9 <= onset <= 2.1
    _report(10, time.perf_counter() - start, 10.0,
            f"orbits exact, drift {drift:.2e} over 10^6 steps, instability onset at {onset:.6f}")


def test_criterion_11_tomography():
    start = time.perf_counter()
    model = tomo.bundled_readout_model()
    assert model.f0 == (0.98, 0.98, 0.96)
    assert model.f1 == (0.92, 0.94, 0.87)
    f = model.correction_matrix()
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(50):
        p = rng.random(8)
        p /= p.sum()
        worst_rt = max(worst_rt, np.max(np.abs(f @ tomo.correct_populations(model, p) - p)))
    assert worst_rt <= 1e-10

    u = symspace.floquet(1.5, 2.5)
    psi = symspace.evolve(u, symspace.coherent_state(1.5, ZERO), 5)
    vec = symspace.symmetric_to_qubits(psi)
    rho = np.outer(vec, vec.conj())
    rebuilt = tomo.reconstruct(expectations_of(rho))
    fid = measures.fidelity(rho, rebuilt)
    assert abs(fid - 1.0) <= 1e-10
    _report(11, time.perf_counter() - start, 1.0,
            f"round trip {worst_rt:.2e}, noiseless reconstruction fidelity {fid:.12f}")


def test_criterion_12_large_spin_trends():
    start = time.perf_counter()

    def normalized_average(two_j, point, kappa0, kicks=1000):
        u = symspace.floquet(two_j / 2.0, kappa0).matrix
        vec = symspace.coherent_state(two_j / 2.0, point).amps.copy()
        total = 0.0
        for _ in range(kicks):
            vec = u @ vec
            total += measures.linear_entropy(
                measures.reduced_state(SymState(two_j / 2.0, vec), 1)
            )
        return total / kicks / measures.rmt_average(two_j)

    low = normalized_average(7, PLUS_Y, 1.0)
    high = normalized_average(7, PLUS_Y, 3.0)
    assert high > low

    values = [normalized_average(20, ZERO, k) for k in (2.5, 3.0, 3.5)]
    assert values[0] < values[1] < values[2]
    _report(12, time.perf_counter() - start, 60.0,
            f"2j=7 +y normalized averages {low:.3f} -> {high:.3f}; "
            f"2j=20 zero-state averages rise {[round(v, 3) for v in values]}")
