"""Natural cubic spline interpolation.

The interpolant is the classic C2 piecewise cubic with zero second
derivative at both end knots.  Second derivatives at the knots are obtained
from the standard tridiagonal system (Thomas algorithm); evaluation never
extrapolates.  ``knot_y`` may be a (P, K) matrix to interpolate K curves
sharing one knot axis in a single solve, which is what the spectral
reconstruction path uses.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, check_array, check_axis


def _second_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve for knot second derivatives of the natural spline.

    x: (P,) strictly increasing; y: (P, K).  Returns (P, K) with zero first
    and last rows.
    """
    p = x.shape[0]
    m = np.zeros_like(y)
    if p == 2:
        return m
    h = np.diff(x)  # (P-1,)
    # tridiagonal system for interior rows 1..P-2:
    #   h[i-1]*M[i-1] + 2*(h[i-1]+h[i])*M[i] + h[i]*M[i+1] = rhs[i]
    slope = np.diff(y, axis=0) / h[:, None]
    rhs = 6.0 * (slope[1:] - slope[:-1])  # (P-2, K)
    diag = 2.0 * (h[:-1] + h[1:])  # (P-2,)
    lower = h[1:-1]  # sub/super diagonals share values h[1..P-3]
    n = p - 2
    cp = np.empty(n)
    dp = np.empty((n, y.shape[1]))
    cp[0] = lower[0] / diag[0] if n > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * cp[i - 1]
        cp[i] = lower[i] / denom if i < n - 1 else 0.0
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / denom
    m[n] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        m[i + 1] = dp[i] - cp[i] * m[i + 2]
    return m


def natural_cubic_spline(knot_x, knot_y, query_x) -> np.ndarray:
    """Evaluate the natural cubic spline through (knot_x, knot_y) at query_x.

    Evaluation at a knot abscissa returns that knot's ordinate exactly; with
    two knots the interpolant degenerates to the straight line.  Queries
    outside [knot_x[0], knot_x[-1]] raise :class:`ArgumentError` (no
    extrapolation), and so do knots whose spline overflows float64.
    """
    x = check_axis("knot_x", knot_x, np.float64, range(2, 1 << 63))
    y = check_array("knot_y", knot_y, np.float64)
    q = np.atleast_1d(check_array("query_x", query_x, np.float64))
    if y.ndim not in (1, 2) or y.shape[0] != x.shape[0]:
        raise ArgumentError(f"knot_y has shape {y.shape}, not ({len(x)},) or ({len(x)}, K)")
    if q.ndim != 1:
        raise ArgumentError(f"query_x must be a number or 1-D, got shape {q.shape}")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(q)):
        raise ArgumentError("knots and queries must be finite")
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    if q.size and (q.min() < x[0] or q.max() > x[-1]):
        raise ArgumentError(
            f"query outside knot span [{x[0]}, {x[-1]}]; extrapolation is not supported"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        m = _second_derivatives(x, y)
        h = np.diff(x)
        j = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.shape[0] - 2)
        t = (q - x[j])[:, None]
        hj = h[j][:, None]
        yj, yj1 = y[j], y[j + 1]
        mj, mj1 = m[j], m[j + 1]
        b = (yj1 - yj) / hj - hj * (2.0 * mj + mj1) / 6.0
        out = yj + t * (b + t * (mj / 2.0 + t * (mj1 - mj) / (6.0 * hj)))
    if not np.isfinite(out).all():
        raise ArgumentError("spline values must be finite; the knots overflow float64")
    # the right endpoint falls at t == h of the last piece; return it exactly
    at_end = q == x[-1]
    if np.any(at_end):
        out[at_end] = y[-1]
    return out[:, 0] if squeeze else out
