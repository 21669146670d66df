"""Guiding vector field for line following with an oscillating offset.

The commanded velocity tracks the moving level set phi(p) = gamma(t).
With zeta = grad(phi)/||grad(phi)||^2 and the virtual input
u_phi = -k_e (phi - gamma) + gamma_dot, the lateral velocity demand is
beta = zeta u_phi. While ||beta|| <= v the field spends the remaining
speed budget on tangential progress (interior branch); otherwise the
whole budget goes lateral (exterior branch):

    f = sqrt(v^2 - ||beta||^2) t_hat + beta      interior
    f = v beta / ||beta||                        exterior

Both branches have ||f|| = v and they agree at the boundary. Along
closed-loop motion pdot = f the tracking error phi - gamma contracts
as exp(-k_e t). Vectors are component-first, (2, ...), so a vector
meets a per-drone scalar in two contiguous inner loops. The kernel takes
its run constants ready-made, as one :class:`FieldOperands` from
:func:`field_operands`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._box import ZERO, box

__all__ = ["FieldOperands", "field_operands", "field_core"]

# relative floor for the tangential magnitude in the interior rate
# formula, and the scale of the boundary layer where alpha_dot is
# deliberately saturated instead of diverging
ALPHA_FLOOR_REL = 1e-6


class FieldOperands(NamedTuple):
    """The run constants of :func:`field_core`, boxed (see ``_box``)."""

    speed: np.ndarray  # v
    speed_sq: np.ndarray  # v^2
    alpha_floor: np.ndarray  # ALPHA_FLOOR_REL v, the floor of the tangential magnitude


def field_operands(speed: float) -> FieldOperands:
    """field_core's operands for ground speed v."""
    v = float(speed)
    return FieldOperands(box(v), box(v * v), box(ALPHA_FLOOR_REL * v))


def field_core(phi, normal, tangent, ops: FieldOperands, k_e, gamma, gamma_dot, gamma_ddot, p_dot):
    """Vectorized field and field rate on stacked line geometry.

    Parameters
    ----------
    phi : array (...)
        Level values at the query points.
    normal, tangent : array (2, ...)
        Unit left normal (the gradient of phi) and unit tangent of
        each line.
    ops : FieldOperands
        Ground speed v and what the kernel derives from it.
    k_e : float or array (...)
        Convergence gain, one for all points or one per point.
    gamma, gamma_dot, gamma_ddot : array (...)
        Offset reference and its first two rates.
    p_dot : array (2, ...)
        Velocity along which the field rate is taken.

    Returns
    -------
    (f, f_dot, interior): the field and its time derivative, both
    (2, ...), and the interior-branch flag (... bool).

    When every point is interior, the exterior arrays and the ``where``
    selects are skipped and the interior arrays are returned as they
    are: the values ``where`` would pick, so the bits are the same.
    """
    speed = ops.speed
    # gamma_dot - k_e (phi - gamma) is -k_e (phi - gamma) + gamma_dot to
    # the bit: negation is exact and x - y is x + (-y)
    u_phi = gamma_dot - k_e * (phi - gamma)
    # unit gradient: zeta = grad/||grad||^2 = normal, so beta = u_phi * normal
    beta = u_phi * normal
    beta_norm = np.abs(u_phi)
    interior = beta_norm <= speed
    # a count, not a logical_and reduction: a third of the cost on 8 points
    all_interior = np.count_nonzero(interior) == interior.size
    alpha = np.sqrt(np.maximum(ops.speed_sq - u_phi * u_phi, ZERO))
    f = alpha * tangent + beta

    # a sum over axis 0, not a[0]*b[0] + a[1]*b[1]: -0.0 + -0.0 sums to +0.0
    phi_dot = np.add.reduce(normal * p_dot, axis=0)
    u_phi_dot = gamma_ddot - k_e * (phi_dot - gamma_dot)
    beta_dot = u_phi_dot * normal
    # interior: f_dot = alpha_dot t_hat + beta_dot, with
    # alpha_dot = -(beta . beta_dot)/alpha floored near the boundary
    alpha_safe = np.maximum(alpha, ops.alpha_floor)
    alpha_dot = -(u_phi * u_phi_dot) / alpha_safe
    f_dot = alpha_dot * tangent + beta_dot
    if not all_interior:
        safe_norm = np.where(interior, 1.0, beta_norm)
        f = np.where(interior, f, speed * beta / safe_norm)
        # exterior: f_dot = v (I/||b|| - b b^T/||b||^3) beta_dot, the
        # derivative of v beta/||beta|| (zero for lines, where beta_dot
        # stays parallel to beta)
        b_dot_b = np.add.reduce(beta * beta_dot, axis=0)
        f_dot_exterior = speed * (beta_dot / safe_norm - beta * (b_dot_b / safe_norm**3))
        f_dot = np.where(interior, f_dot, f_dot_exterior)
    return f, f_dot, interior
