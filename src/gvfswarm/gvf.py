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
as exp(-k_e t). Vectors are component-first, (2, ...). The kernel takes
its run constants ready-made, as one :class:`FieldOperands` from
:func:`field_operands`, each array in the shape of the one it meets, so
no operation of an all-interior call broadcasts or strides.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._box import ZERO, box, fixed

__all__ = ["FieldOperands", "field_operands", "field_core"]

# relative floor for the tangential magnitude in the interior rate
# formula, and the scale of the boundary layer where alpha_dot is
# deliberately saturated instead of diverging
ALPHA_FLOOR_REL = 1e-6
# (u, u_dot) -> (u, u, u_dot, u_dot)
_TWICE = np.array([0, 0, 1, 1])


class FieldOperands(NamedTuple):
    """The run constants of :func:`field_core`, boxed or in full shape (see ``_box``)."""

    speed: np.ndarray  # v
    speed_sq: np.ndarray  # v^2
    alpha_floor: np.ndarray  # ALPHA_FLOOR_REL v, the floor of the tangential magnitude
    gain: np.ndarray  # (k_e, k_e), (2, ...)
    normal: np.ndarray  # (2, ...) unit left normals, the gradient of phi
    normal_rows: np.ndarray  # (n_y, n_x, n_x, n_y), (4, ...)
    tangent_rows: np.ndarray  # (t_y, t_x, t_x, t_y), (4, ...)


def field_operands(speed: float, normal, tangent, k_e=1.0) -> FieldOperands:
    """field_core's operands for ground speed v, (2, ...) unit normals and tangents and gain k_e."""
    v, rows = float(speed), [1, 0, 0, 1]
    normal, tangent = np.asarray(normal, dtype=float), np.asarray(tangent, dtype=float)
    return FieldOperands(box(v), box(v * v), box(ALPHA_FLOOR_REL * v), fixed(k_e, normal.shape),
                         fixed(normal, normal.shape), fixed(normal[rows], (4,) + normal.shape[1:]),
                         fixed(tangent[rows], (4,) + normal.shape[1:]))


def field_core(phi, gammas, p_dot, ops: FieldOperands):
    """Vectorized field and field rate on stacked line geometry.

    Takes the level values phi (...) at the query points, the block
    (gamma, gamma_dot, gamma_ddot) (3, ...) that
    :func:`gvfswarm.oscillation.wave` returns and the (2, ...) velocity
    p_dot along which the field rate is taken. Returns (f, f_dot,
    interior): the field and its time derivative, both (2, ...), and the
    interior-branch flag (... bool).

    u_phi and its rate come out of one pair (phi, phi_dot) - (gamma,
    gamma_dot), and the interior field and its rate out of one block
    (f_y, f_x, f_dot_x, f_dot_y): f is its first two rows reversed, so
    the heading law's f[::-1] reads them in memory order. When every
    point is interior, the exterior arrays and the ``where`` selects are
    skipped and the interior arrays are returned as they are: the values
    ``where`` would pick, so the bits are the same.
    """
    speed = ops.speed
    levels = np.empty(ops.gain.shape)
    levels[0] = phi
    # a sum over axis 0, not a[0]*b[0] + a[1]*b[1]: -0.0 + -0.0 sums to +0.0
    np.add.reduce(ops.normal * p_dot, axis=0, out=levels[1, ...])
    # gamma_dot - k_e (phi - gamma) is -k_e (phi - gamma) + gamma_dot to
    # the bit: negation is exact and x - y is x + (-y); likewise the rate
    levels -= gammas[:2]
    levels *= ops.gain
    u = gammas[1:] - levels
    # unit gradient: zeta = grad/||grad||^2 = normal, so beta = u_phi * normal
    beta_norm = np.abs(u[0])
    interior = beta_norm <= speed
    # a count, not a logical_and reduction: a third of the cost on 8 points
    all_interior = np.count_nonzero(interior) == interior.size
    # interior: f = alpha t_hat + beta, f_dot = alpha_dot t_hat + beta_dot,
    # with alpha_dot = -(beta . beta_dot)/alpha floored near the boundary;
    # each scalar twice, against the rows (y, x, x, y) of t_hat and normal
    twice = u.take(_TWICE, axis=0)
    u_u, rates = twice[:2], np.empty(twice.shape)
    alpha = np.sqrt(np.maximum(ops.speed_sq - u_u * u_u, ZERO), out=rates[:2])
    lead = u_u * twice[2:]
    np.negative(lead, out=lead)
    np.divide(lead, np.maximum(alpha, ops.alpha_floor), out=rates[2:])
    block = rates * ops.tangent_rows
    block += twice * ops.normal_rows
    f, f_dot = block[1::-1], block[2:]
    if not all_interior:
        beta, beta_dot = u[0] * ops.normal, u[1] * ops.normal
        safe_norm = np.where(interior, 1.0, beta_norm)
        f = np.where(interior, f, speed * beta / safe_norm)
        # exterior: f_dot = v (I/||b|| - b b^T/||b||^3) beta_dot, the
        # derivative of v beta/||beta|| (zero for lines, where beta_dot
        # stays parallel to beta)
        b_dot_b = np.add.reduce(beta * beta_dot, axis=0)
        f_dot_exterior = speed * (beta_dot / safe_norm - beta * (b_dot_b / safe_norm**3))
        f_dot = np.where(interior, f_dot, f_dot_exterior)
    return f, f_dot, interior
