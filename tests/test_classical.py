import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import classical as cl

from conftest import (
    fixed_point_multiplier,
    map_step,
    point_from_angles,
    tangent_matrix,
    trajectory_array,
)

# Stroboscopic (full-step) point dispersions of 20 regular trajectories at
# kappa0 = 0.5, 2000 iterations; regression reference frozen from a verified
# run.  Regular orbits give reproducible values; the bound of 1 rules out
# blow-ups or drift off the sphere.
_REGULAR_SEEDS = [
    (th, ph) for th in (0.4, 0.9, 1.4, 1.9, 2.4) for ph in (-2.0, -0.5, 1.0, 2.5)
]
_REGULAR_DISPERSION_REF = [
    0.952217, 0.966281, 0.963201, 0.955280, 0.759981,
    0.880868, 0.813401, 0.831120, 0.489324, 0.868032,
    0.603410, 0.791771, 0.462751, 0.926618, 0.558190,
    0.869916, 0.756155, 0.977202, 0.781248, 0.954531,
]


def shadow_lyapunov(seed: cl.ClassicalPoint, kappa0: float, n: int = 1000, d0: float = 1e-8) -> float:
    """Largest finite-time Lyapunov exponent via a renormalized shadow trajectory."""
    main = seed
    v = np.array([seed.x + d0, seed.y, seed.z])
    v /= np.linalg.norm(v)
    shadow = cl.ClassicalPoint(*v)
    total = 0.0
    for _ in range(n):
        main2 = map_step(main, kappa0)
        shadow2 = map_step(shadow, kappa0)
        delta = np.array([shadow2.x - main2.x, shadow2.y - main2.y, shadow2.z - main2.z])
        dist = np.linalg.norm(delta)
        total += math.log(dist / d0)
        v = np.array([main2.x, main2.y, main2.z]) + delta * (d0 / dist)
        v /= np.linalg.norm(v)
        main, shadow = main2, cl.ClassicalPoint(*v)
    return total / n


def numeric_tangent(point: cl.ClassicalPoint, kappa0: float, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of one map step (oracle for the analytic one)."""
    base = np.array([point.x, point.y, point.z])
    jac = np.empty((3, 3))
    for col in range(3):
        plus = base.copy()
        plus[col] += h  # off-sphere by O(h), still within the constructor tolerance
        minus = base.copy()
        minus[col] -= h
        fp = trajectory_array(cl.ClassicalPoint(*plus), kappa0, 1)[1]
        fm = trajectory_array(cl.ClassicalPoint(*minus), kappa0, 1)[1]
        jac[:, col] = (fp - fm) / (2.0 * h)
    return jac


class TestStep:
    def test_fixed_point(self):
        for kappa0 in (0.0, 0.5, 2.5, 7.0):
            nxt = map_step(cl.FIXED_POINT, kappa0)
            assert (nxt.x, nxt.y, nxt.z) == (0.0, -1.0, 0.0)

    def test_period_four_orbit(self):
        for kappa0 in (0.0, 0.5, 2.5):
            pts = [cl.PERIOD4_POINT]
            for _ in range(4):
                pts.append(map_step(pts[-1], kappa0))
            assert (pts[1].x, pts[1].y, pts[1].z) == (1.0, 0.0, 0.0)
            assert (pts[2].x, pts[2].y, pts[2].z) == (0.0, 0.0, -1.0)
            assert (pts[3].x, pts[3].y, pts[3].z) == (-1.0, 0.0, 0.0)
            assert (pts[4].x, pts[4].y, pts[4].z) == (0.0, 0.0, 1.0)

    def test_zero_torsion_is_quarter_turn(self, rng):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p = cl.ClassicalPoint(*v)
        q = p
        for _ in range(4):
            q = map_step(q, 0.0)
        assert np.allclose([q.x, q.y, q.z], [p.x, p.y, p.z], atol=1e-12)
        first = map_step(p, 0.0)
        assert first.x == pytest.approx(p.z, abs=1e-15)  # Z -> X structure
        assert first.z == pytest.approx(-p.x, abs=1e-15)

    @given(
        theta=st.floats(min_value=0.01, max_value=math.pi - 0.01),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        kappa0=st.floats(min_value=0.0, max_value=12.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_sphere_preserved(self, theta, phi, kappa0):
        p = point_from_angles(theta, phi)
        assert map_step(p, kappa0).norm_error() < 1e-14

    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError):
            cl.ClassicalPoint(0.5, 0.5, 0.5)

    def test_norm_drift_million_steps(self):
        traj = trajectory_array(point_from_angles(1.0, 0.3), 2.5, 10**6)
        drift = np.max(np.abs(np.einsum("ij,ij->i", traj, traj) - 1.0))
        assert drift < 1e-9


class TestNonFinite:
    @pytest.mark.parametrize("coords", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.6, 0.8, math.nan)])
    def test_point_rejects_non_finite(self, coords):
        with pytest.raises(ValueError):
            cl.ClassicalPoint(*coords)

    @pytest.mark.parametrize("kappa0", [math.nan, math.inf, -math.inf])
    def test_trajectory_rejects_non_finite_kappa0(self, kappa0):
        with pytest.raises(ValueError):
            cl.portrait([cl.FIXED_POINT], kappa0, 3)


class TestPortrait:
    def test_row_count(self):
        rows = cl.portrait([cl.FIXED_POINT], 0.7, 10)
        assert rows.shape == (11, 5)
        assert list(rows[:, 1]) == list(range(11))

    def test_multiple_seeds_indexed(self):
        rows = cl.portrait([cl.FIXED_POINT, cl.PERIOD4_POINT], 0.7, 3)
        assert rows.shape == (8, 5)
        assert set(rows[:, 0]) == {0.0, 1.0}

    def test_empty_seed_list(self):
        with pytest.raises(ValueError):
            cl.portrait([], 0.7, 3)
        with pytest.raises(ValueError):
            cl.portrait(np.empty((0, 3)), 0.7, 3)

    def test_array_seeds_match_points(self):
        points = [cl.FIXED_POINT, cl.PERIOD4_POINT, point_from_angles(1.0, 0.7)]
        coords = np.array([(p.x, p.y, p.z) for p in points])
        assert cl.portrait(coords, 2.5, 40).tobytes() == cl.portrait(points, 2.5, 40).tobytes()

    @pytest.mark.parametrize("coords", [[[0.5, 0.5, 0.5]], [[math.nan, 0.0, 1.0]], [[1.0, 0.0]],
                                        [0.0, 0.0, 1.0]])
    def test_array_seeds_off_the_sphere_rejected(self, coords):
        with pytest.raises(ValueError):
            cl.portrait(np.array(coords), 0.7, 3)

    def test_regular_regime_regression(self):
        got = []
        for theta, phi in _REGULAR_SEEDS:
            traj = trajectory_array(point_from_angles(theta, phi), 0.5, 2000)
            got.append(float(np.linalg.norm(np.std(traj, axis=0))))
        assert np.allclose(got, _REGULAR_DISPERSION_REF, atol=1e-5)
        assert max(got) < 1.0

    def test_lyapunov_contrast(self):
        seed = point_from_angles(0.35, 0.4)  # near the polar island edge
        chaotic = shadow_lyapunov(seed, 2.5)
        regular = shadow_lyapunov(seed, 0.5)
        assert chaotic > 0.1
        assert regular < 0.02

    @pytest.mark.parametrize("kappa0", [0.5, 2.5])
    def test_seeds_stepped_together_match_per_seed_scalar_loop(self, kappa0):
        # the figures' portrait: two named seeds plus a 12 x 12 angle grid
        seeds = [cl.FIXED_POINT, cl.PERIOD4_POINT] + [
            point_from_angles(theta, phi)
            for theta in np.linspace(0.15, math.pi - 0.15, 12)
            for phi in np.linspace(-math.pi + 0.1, math.pi - 0.1, 12)
        ]
        steps = 500
        rows = cl.portrait(seeds, kappa0, steps)
        # on every host: a seed's rows do not depend on the seeds stepped with it
        for idx, seed in enumerate(seeds):
            alone = cl.portrait([seed], kappa0, steps)
            block = rows[idx * (steps + 1) : (idx + 1) * (steps + 1)]
            assert np.array_equal(block[:, 1:], alone[:, 1:])
        # a math.cos/math.sin loop can only be bit-equal where numpy rounds
        # cos and sin of the visited arguments like the C library does
        args = kappa0 * rows[:, 2]
        if not (
            np.array_equal(np.cos(args), [math.cos(a) for a in args])
            and np.array_equal(np.sin(args), [math.sin(a) for a in args])
        ):
            pytest.skip("numpy and math round cos/sin differently on this host")
        expected = np.concatenate([
            np.column_stack([np.full(steps + 1, idx), np.arange(steps + 1),
                             trajectory_array(seed, kappa0, steps)])
            for idx, seed in enumerate(seeds)
        ])
        assert np.array_equal(rows, expected)

    def test_rejects_non_finite_kappa0_and_short_horizons(self):
        for kappa0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                cl.portrait([cl.FIXED_POINT], kappa0, 3)
        with pytest.raises(ValueError):
            cl.portrait([cl.FIXED_POINT], 0.7, 0)
        with pytest.raises(ValueError):
            trajectory_array(cl.FIXED_POINT, 0.7, -1)


class TestTangentMap:
    def test_analytic_matches_finite_differences(self):
        for kappa0 in (0.5, 1.7, 2.5):
            for point in (cl.FIXED_POINT, point_from_angles(1.0, 0.7)):
                analytic = tangent_matrix(point, kappa0)
                numeric = numeric_tangent(point, kappa0)
                assert np.max(np.abs(analytic - numeric)) < 1e-5

    def test_fixed_point_stability_onset(self):
        # multiplier stays on the unit circle through kappa0 = 2, then leaves it
        assert fixed_point_multiplier(1.9) == pytest.approx(1.0, abs=1e-9)
        assert fixed_point_multiplier(2.1) > 1.0 + 1e-3
        lo, hi = 1.9, 2.1
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fixed_point_multiplier(mid) > 1.0 + 1e-12:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - 2.0) < 1e-6
