"""Chebyshev polynomial evaluation helpers.

T_n is the first kind, U_{n-1} the second kind shifted down by one, which is
the pair that shows up in powers of SU(2) matrices: M^n = T_n(x) I + U_{n-1}(x)
(M - x I) for M with trace 2x and unit determinant.

The closed forms evaluate the pair with t_u_trig only; the O(n) three-term
recurrence is kept as the independent reference the tests check it against.
"""

from __future__ import annotations

import math

import numpy as np

_COS_QUARTER_TURNS = np.array([1.0, 0.0, -1.0, 0.0])  # cos(k pi/2), k = 0..3


def t_u_recurrence(n: int, x: float) -> tuple[float, float]:
    """Return (T_n(x), U_{n-1}(x)) by the three-term recurrence. O(n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0, 0.0
    t_prev, t_cur = 1.0, x  # T_0, T_1
    u_prev, u_cur = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
        u_prev, u_cur = u_cur, 2.0 * x * u_cur - u_prev
    return t_cur, u_cur


def t_u_trig(n, x: float):
    """Return (T_n(x), U_{n-1}(x)) via cos/sin of n*arccos(x); needs |x| <= 1.

    n is a kick count >= 0 or an array of them: an int gives a pair of floats,
    an array a pair of float arrays of its shape.  Exact to machine precision
    for any n, O(1) cost per entry; at x = 0 and x = +-1 the values are exact.
    """
    n_arr = np.asarray(n, dtype=float)  # an int converts as it would in n * gamma
    if np.any(n_arr < 0):
        raise ValueError("n must be >= 0")
    if abs(x) > 1.0:
        raise ValueError("trig evaluation requires |x| <= 1")
    if x == 0.0:  # cos and sin of n pi/2, without the rounding of pi/2
        quarter = (n_arr % 4).astype(int)
        t = _COS_QUARTER_TURNS[quarter]
        u = _COS_QUARTER_TURNS[quarter - 1]
    elif abs(x) == 1.0:
        t = x**n_arr  # (+-1)^n
        u = n_arr * t * x  # n (+-1)^(n-1)
    else:
        gamma = math.acos(x)
        t = np.cos(n_arr * gamma)
        u = np.sin(n_arr * gamma) / math.sin(gamma)
    if n_arr.ndim == 0:
        return float(t), float(u)
    return t, u
