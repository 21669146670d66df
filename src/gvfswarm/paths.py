"""Straight-line desired paths in the plane.

A path is the zero level set of phi(p) = (p_y - b) cos(alpha)
- (p_x - a) sin(alpha), where (a, b) is a point on the line and alpha
is its heading measured from the +x axis. phi is the signed lateral
offset, positive to the left of the direction of travel, and the path
parameter is the signed arc length along the line from (a, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StraightLinePath"]


@dataclass(frozen=True)
class StraightLinePath:
    """Line through ``origin`` with heading ``alpha_rad`` from +x.

    All point-valued methods broadcast over leading axes: ``p`` may be
    shape (2,) or (..., 2).
    """

    origin: tuple[float, float]
    alpha_rad: float
    # unit tangent and left normal, cached at construction
    _tangent: np.ndarray = field(init=False, repr=False, compare=False)
    _normal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, b = self.origin
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(self.alpha_rad)):
            raise ValueError("path origin and heading must be finite")
        c, s = math.cos(self.alpha_rad), math.sin(self.alpha_rad)
        object.__setattr__(self, "_tangent", np.array([c, s]))
        object.__setattr__(self, "_normal", np.array([-s, c]))

    def phi(self, p) -> np.ndarray | float:
        """Signed lateral offset of ``p`` from the line."""
        rel = np.asarray(p, dtype=float) - np.asarray(self.origin)
        out = rel @ self._normal
        return float(out) if out.ndim == 0 else out

    def gradient(self, p) -> np.ndarray:
        """Gradient of phi, the constant unit left normal (-sin a, cos a)."""
        p = np.asarray(p, dtype=float)
        return np.broadcast_to(self._normal, p.shape).copy()

    def tangent(self) -> np.ndarray:
        """Unit direction of travel (cos a, sin a)."""
        return self._tangent.copy()

    def parametric_point(self, x) -> np.ndarray:
        """Point at signed arc length ``x`` from the origin."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.origin) + x[..., None] * self._tangent

    def path_parameter(self, p) -> np.ndarray | float:
        """Signed arc length of the foot point of ``p``, inverse of parametric_point."""
        rel = np.asarray(p, dtype=float) - np.asarray(self.origin)
        out = rel @ self._tangent
        return float(out) if out.ndim == 0 else out
