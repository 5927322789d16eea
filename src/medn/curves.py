"""Curve data for plots: the shrinkage map and penalty-ball boundaries.

Emits plain (x, y) rows so plotting stays in external tools.  The 2-D
penalty ball is traced by 1-D root finding along rays from the origin; its
level is chosen so the boundary passes through (0, 1), which makes it
directly comparable to the unit L1 and L2 balls.  scipy's root finder is
imported on the first :func:`norm_ball_boundary` call, not with the module.
"""

import math
from typing import NamedTuple

import numpy as np

from .chain import _check_count, _check_real, _check_reals
from .models import _kl_excess, shrinkage_mean

__all__ = [
    "CurvePoint",
    "shrinkage_eta_grid",
    "shrinkage_points",
    "identity_points",
    "norm_ball_level",
    "norm_ball_boundary",
    "l1_unit_ball",
    "l2_unit_ball",
]


class CurvePoint(NamedTuple):
    x: float
    y: float


# The shrinkage-curve grid spans this fraction of the (-sqrt(lam), sqrt(lam))
# domain, where the shrinkage map has its poles.
_ETA_GRID_FRACTION = 0.9


def shrinkage_eta_grid(lam: float, n_points: int = 50) -> np.ndarray:
    """Symmetric grid of eta values over 0.9 of (-sqrt(lam), sqrt(lam))."""
    lam = _check_real("lam", lam)
    n_points = _check_count("n_points", n_points, 1)
    half_width = _ETA_GRID_FRACTION * math.sqrt(lam)
    return np.linspace(-half_width, half_width, n_points)


def shrinkage_points(lam: float, etas) -> list[CurvePoint]:
    """Shrunken posterior means over an eta grid; the grid must stay strictly
    inside the (-sqrt(lam), sqrt(lam)) domain."""
    lam = _check_real("lam", lam)
    etas = _check_reals("etas", etas, (None,))
    with np.errstate(over="ignore"):  # a square past the float range is past any lam
        if np.any(etas * etas >= lam):
            raise ValueError(f"lam {lam:g} puts the eta grid on or past its +-sqrt(lam) domain boundary")
    return [CurvePoint(float(e), shrinkage_mean(float(e), lam)) for e in etas]


def identity_points(etas) -> list[CurvePoint]:
    """The Gaussian-prior curve: the posterior mean equals eta exactly."""
    return [CurvePoint(float(e), float(e)) for e in _check_reals("etas", etas, (None,))]


def norm_ball_level(lam: float) -> float:
    """Level at which the 2-D penalty boundary passes through (0, 1):
    sqrt(1/lam) + sqrt(1 + 1/lam) - log(sqrt(lam + 1)/2 + 1/2) / sqrt(lam)."""
    lam = _check_real("lam", lam)
    level = (
        math.sqrt(1.0 / lam)
        + math.sqrt(1.0 + 1.0 / lam)
        - math.log(math.sqrt(lam + 1.0) / 2.0 + 0.5) / math.sqrt(lam)
    )
    if not math.isfinite(level):  # 1 / lam overflowed
        raise ValueError(f"lam {lam:g} gives a penalty-ball level that is not finite")
    return level


def norm_ball_boundary(lam: float, n_angles: int = 360) -> np.ndarray:
    """(n_angles, 2) points w with kl_norm(w, lam) equal to the ball level.

    One bracketed root-find per ray; the penalty is strictly increasing
    along every ray, so the root is unique.  Both sides are compared as
    excesses over the penalty at 0, which keeps small lam free of
    cancellation.  Raises RuntimeError naming the angle if a ray cannot be
    bracketed.
    """
    n_angles = _check_count("n_angles", n_angles, 0)
    # Imported here, so that every command but norm-ball starts without scipy.
    from scipy.optimize import brentq

    norm_ball_level(lam)  # rejects lam whose level overflows
    target = _kl_excess(np.array([0.0, 1.0]), lam)
    points = np.empty((n_angles, 2))
    for i, theta in enumerate(np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)):
        cx, cy = math.cos(theta), math.sin(theta)

        def gap(r: float) -> float:
            return _kl_excess(np.array([r * cx, r * cy]), lam) - target

        hi = 1.0
        doublings = 0
        while gap(hi) < 0.0:
            hi *= 2.0
            doublings += 1
            if doublings > 60:
                raise RuntimeError(f"no bracket for boundary ray at angle {theta:.6f}")
        radius = brentq(gap, 0.0, hi, xtol=1e-13, rtol=8.9e-16)
        points[i] = (radius * cx, radius * cy)
    return points


def l1_unit_ball(n_angles: int = 360) -> np.ndarray:
    """Boundary of the unit L1 ball (diamond), one point per ray: the unit
    circle's points, each scaled onto the diamond."""
    x, y = l2_unit_ball(n_angles).T
    radii = 1.0 / (np.abs(x) + np.abs(y))
    return np.column_stack((radii * x, radii * y))


def l2_unit_ball(n_angles: int = 360) -> np.ndarray:
    """Boundary of the unit L2 ball (circle), one point per ray."""
    n_angles = _check_count("n_angles", n_angles, 0)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    return np.column_stack((np.cos(thetas), np.sin(thetas)))
