"""Lock-step closed-loop swarm engine with deterministic telemetry.

Every tick runs the same four stages, each one vectorized over all
drones:

1. publish: each drone's path parameter is pushed into its
   sliding-window averager and the averaged values are snapshotted,
   optionally with a communication delay for what neighbors see.
2. control: from the published snapshot each drone forms its
   saturated lead over its neighbors, converts it to a progress
   budget xdot_d = v - k_u u, schedules the oscillation amplitude,
   evaluates the guiding field and commands a heading rate. A drone
   that is ahead commands a large amplitude and waits; one that is
   behind flies straight. In shortfall coordinates delta = v t - xbar
   this is exactly the saturated consensus protocol of
   :mod:`gvfswarm.consensus`, so its agreement guarantee applies.
3. telemetry: the tick's history rows. When a block of ticks closes,
   and at the last tick, one observer pass computes what no control
   reads: branch codes, edge gaps z, the Lyapunov value V, the
   summary's running extremes and the CSV lines, one per tick after a
   header line, every cell ``%.9g`` of a float, comma-separated with
   no quoting and ended by CR LF. A block of lines is formatted once,
   the same bytes feed the SHA-256 and the file, and the file grows
   one block at a time.
4. advance: RK4 on the unicycle under the held heading rate plus
   wind, and the exact exponential amplitude filter.

Planar vectors are component-first, (2, N), inside the tick; the
history keeps positions as (ticks, N, 2). Neighbor sums run through a
padded gather table in a fixed slot order, so a run is bitwise
reproducible; the test suite compares telemetry digests to enforce that.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oscillation as osc
from .consensus import WindowAverager, lyapunov_value, neighbor_disagreement, neighbor_gather, sat
from .gvf import field_core
from .scenario import Scenario
from .vehicle import heading_rate_core, unicycle_step

__all__ = ["SimulationResult", "run", "TELEMETRY_FLOAT_FORMAT"]

TELEMETRY_FLOAT_FORMAT = "%.9g"

# cells per block of the observer pass: a block holds this many
# telemetry cells, or eta values without telemetry, so its 32-64 KiB
# temporaries come from malloc's heap, not from fresh pages
_SUMMARY_BLOCK = 1 << 12

# per-drone telemetry column stems, in row order
_DRONE_COLUMNS = (
    "p{i}_x_m", "p{i}_y_m", "theta{i}_rad", "phi{i}_m", "gamma{i}_m",
    "x{i}_m", "xbar{i}_m", "u{i}", "xdot_d{i}_mps", "A{i}_m", "A_d{i}_m",
    "omega{i}_rad_s", "branch{i}",
)


@dataclass
class SimulationResult:
    """Complete tick history of one run plus the summary document."""

    scenario: Scenario
    times: np.ndarray
    positions: np.ndarray
    headings: np.ndarray
    path_parameters: np.ndarray
    averaged_parameters: np.ndarray
    phis: np.ndarray
    gammas: np.ndarray
    amplitudes: np.ndarray
    commanded_amplitudes: np.ndarray
    inputs: np.ndarray
    desired_velocities: np.ndarray
    omegas: np.ndarray
    branches: np.ndarray
    edge_diffs: np.ndarray
    lyapunov: np.ndarray
    summary: dict = field(default_factory=dict)
    telemetry_digest: str | None = None
    # wall ns per stage (publish, control, telemetry, advance, summary);
    # telemetry includes the per-block observer pass, summary only the
    # final assembly; never part of the summary or the digest
    timings: dict = field(default_factory=dict)


def _telemetry_header(n_drones: int, n_edges: int) -> list[str]:
    cols = ["t_s"]
    for i in range(1, n_drones + 1):
        cols.extend(stem.format(i=i) for stem in _DRONE_COLUMNS)
    cols.extend(f"z{k}_m" for k in range(1, n_edges + 1))
    cols.append("V")
    return cols


def run(
    scenario: Scenario,
    telemetry_path=None,
    overrides=(),
    compute_digest: bool = False,
) -> SimulationResult:
    """Simulate a scenario from t = 0 to t_end, one vectorized tick at a time.

    Parameters
    ----------
    scenario : Scenario
        A built (hence validated) scenario.
    telemetry_path : path-like, optional
        Write the per-tick CSV here, one block of rows at a time.
        Without it (and without ``compute_digest``) no rows are
        formatted, which is faster.
    overrides : sequence of str
        Dotted overrides already applied to the scenario, recorded
        verbatim in the summary for provenance.
    compute_digest : bool
        Also produce a SHA-256 of the telemetry byte stream (implied
        content even when no file is written).
    """
    sc = scenario
    n = sc.n_drones
    m = sc.graph.n_edges
    dt = sc.dt
    n_ticks = sc.n_ticks
    speed = sc.speed
    cfg = sc.oscillation
    w = cfg.w_gamma
    sat_p = sc.saturation
    cap = cfg.amplitude_cap
    wind = sc.wind

    origins = np.stack([np.asarray(p.origin, dtype=float) for p in sc.paths], axis=1)
    tangents = np.stack([p.tangent() for p in sc.paths], axis=1)
    normals = np.stack([p.gradient(p.origin) for p in sc.paths], axis=1)
    idx, mask = neighbor_gather(sc.graph)
    tails = np.array([e[0] for e in sc.graph.edges], dtype=np.int64)
    heads = np.array([e[1] for e in sc.graph.edges], dtype=np.int64)

    # mutable state
    pos = sc.initial_positions().T.copy()
    theta = sc.initial_headings.copy()
    amp = np.zeros(n)
    amp_rate = np.zeros(n)
    amp_accel = np.zeros(n)
    averager = WindowAverager(window=cfg.period, dt=dt, shape=(n,))
    # the queue never holds more than n_ticks + 1 snapshots, so a longer
    # delay behaves as n_ticks and deque's maxlen stays in range
    snapshots: deque[np.ndarray] = deque(maxlen=min(sc.comm_delay_ticks, n_ticks) + 1)
    p_dot = np.empty((2, n))

    times = np.arange(n_ticks + 1) * dt
    hist = SimulationResult(
        scenario=sc,
        times=times,
        positions=np.empty((n_ticks + 1, n, 2)),
        headings=np.empty((n_ticks + 1, n)),
        path_parameters=np.empty((n_ticks + 1, n)),
        averaged_parameters=np.empty((n_ticks + 1, n)),
        phis=np.empty((n_ticks + 1, n)),
        gammas=np.empty((n_ticks + 1, n)),
        amplitudes=np.empty((n_ticks + 1, n)),
        commanded_amplitudes=np.empty((n_ticks + 1, n)),
        inputs=np.empty((n_ticks + 1, n)),
        desired_velocities=np.empty((n_ticks + 1, n)),
        omegas=np.empty((n_ticks + 1, n)),
        branches=np.empty((n_ticks + 1, n), dtype=np.int8),
        edge_diffs=np.empty((n_ticks + 1, m)),
        lyapunov=np.empty(n_ticks + 1),
    )

    digest = hashlib.sha256() if (compute_digest or telemetry_path is not None) else None
    # the observers run once per block of about _SUMMARY_BLOCK cells, from
    # the history and each tick's eta and p_dot
    rows = max(1, _SUMMARY_BLOCK // (2 + 13 * n + m if digest is not None else n))
    eta_rows, p_dot_rows = np.empty((rows, n)), np.empty((2, rows, n))
    last_violation, final_edge = -1, 0.0
    ground_min = omega_min = np.inf
    ground_max = omega_max = -np.inf
    fh = None
    clock = time.perf_counter_ns
    ns_publish = ns_control = ns_telemetry = ns_advance = 0
    try:
        if digest is not None:
            # one float row per tick: t, 13 cells per drone, z, V; the drone
            # cells are an (N, 13) view per row
            block = np.empty((rows, 2 + 13 * n + m))
            drone_cells = block[:, 1:1 + 13 * n].reshape(rows, n, 13)
            columns = (hist.headings, hist.phis, hist.gammas, hist.path_parameters,
                       hist.averaged_parameters, hist.inputs, hist.desired_velocities,
                       hist.amplitudes, hist.commanded_amplitudes, hist.omegas, hist.branches)
            # bytes %: a str % plus encode of each block raised the peak RSS of
            # some 600 s eight-drone runs by about 4 MiB of heap fragments
            row_fmt = (",".join([TELEMETRY_FLOAT_FORMAT] * block.shape[1]) + "\r\n").encode()
            block_fmt = row_fmt * rows
            header = (",".join(_telemetry_header(n, m)) + "\r\n").encode()
            digest.update(header)
            if telemetry_path is not None:
                fh = open(telemetry_path, "wb")
                fh.write(header)
        for k in range(n_ticks + 1):
            t0 = clock()
            j = k % rows
            # publish
            offset = pos - origins
            x = (offset * tangents).sum(axis=0)
            averager.push(x)
            xbar = averager.average()
            snapshots.append(xbar)
            t1 = clock()
            # control: own average against the neighbors' (delayed) ones
            eta = neighbor_disagreement(xbar, idx, mask)
            if snapshots[0] is xbar:
                lead = -eta
            else:
                lead = -neighbor_disagreement(snapshots[0], idx, mask, own=xbar)
            u = sat(lead, sat_p)
            xdot_d = speed - sc.k_u * u
            if sc.fixed_amplitude is None:
                # amplitude_for_velocity inline: it logs every clamp
                raw = cfg.k_a * np.sqrt(np.maximum(speed * speed - xdot_d * xdot_d, 0.0)) / w
                a_cmd = np.minimum(raw, cap)
            else:
                a_cmd = np.full(n, sc.fixed_amplitude)
            wt = w * float(times[k])
            g, g_dot, g_ddot = osc.wave(math.sin(wt), math.cos(wt), amp, amp_rate, amp_accel, w)
            phi = (offset * normals).sum(axis=0)
            np.cos(theta, out=p_dot[0])
            np.sin(theta, out=p_dot[1])
            p_dot *= speed
            core = field_core(
                phi, normals, tangents, speed, sc.k_e,
                g, g_dot, gamma_ddot=g_ddot, p_dot=p_dot,
            )
            omega = heading_rate_core(core["f"], core["f_dot"], p_dot, speed, sc.k_n)
            t2 = clock()
            # telemetry: the history rows, then the observers once per block
            hist.positions[k] = pos.T
            hist.headings[k] = theta
            hist.path_parameters[k] = x
            hist.averaged_parameters[k] = xbar
            hist.phis[k] = phi
            hist.gammas[k] = g
            hist.amplitudes[k] = amp
            hist.commanded_amplitudes[k] = a_cmd
            hist.inputs[k] = u
            hist.desired_velocities[k] = xdot_d
            hist.omegas[k] = omega
            hist.branches[k] = core["interior"]
            eta_rows[j] = eta
            p_dot_rows[:, j] = p_dot
            if j == rows - 1 or k == n_ticks:
                b, ticks = j + 1, slice(k - j, k + 1)
                hist.branches[ticks] ^= 1  # interior flag -> exterior code
                xb = hist.averaged_parameters[ticks]
                z = np.subtract(xb[:, tails], xb[:, heads], out=hist.edge_diffs[ticks])
                v = hist.lyapunov[ticks] = lyapunov_value(eta_rows[:b], sat_p)
                if m:
                    # |z| extremes from the row extremes: no (ticks, edges) temporary
                    max_edge = np.maximum(np.abs(z.max(axis=1)), np.abs(z.min(axis=1)))
                    late = np.flatnonzero(~(max_edge < sc.convergence_threshold))
                    if late.size:
                        last_violation = k - j + int(late[-1])
                    final_edge = max_edge[-1]
                # sqrt(vx^2 + vy^2) is bitwise np.linalg.norm over the pair
                vx, vy = p_dot_rows[:, :b] + wind.reshape(2, 1, 1)
                ground = np.sqrt(vx * vx + vy * vy)
                ground_min = np.minimum(ground_min, ground.min())
                ground_max = np.maximum(ground_max, ground.max())
                omega_min = np.minimum(omega_min, hist.omegas[ticks].min())
                omega_max = np.maximum(omega_max, hist.omegas[ticks].max())
                if digest is not None:
                    block[:b, 0] = times[ticks]
                    drone_cells[:b, :, 0:2] = hist.positions[ticks]
                    for c, column in enumerate(columns, start=2):
                        drone_cells[:b, :, c] = column[ticks]
                    block[:b, 1 + 13 * n:-1] = z
                    block[:b, -1] = v
                    fmt = block_fmt if b == rows else row_fmt * b
                    lines = fmt % tuple(block[:b].ravel().tolist())
                    digest.update(lines)
                    if fh is not None:
                        fh.write(lines)
            t3 = clock()
            # advance
            if k < n_ticks:
                pos, theta = unicycle_step(pos, theta, omega, speed, dt, wind)
                amp, amp_rate, amp_accel = osc.relaxation_step(amp, a_cmd, dt, cfg.tau_a)
            t4 = clock()
            ns_publish += t1 - t0
            ns_control += t2 - t1
            ns_telemetry += t3 - t2
            ns_advance += t4 - t3
    finally:
        if fh is not None:
            fh.close()

    hist.telemetry_digest = digest.hexdigest() if digest is not None else None
    t0 = clock()
    hist.summary = _summarize(
        hist, overrides, last_violation, final_edge,
        max(abs(float(omega_max)), abs(float(omega_min))), ground_min, ground_max,
    )
    hist.timings = {
        "publish": ns_publish,
        "control": ns_control,
        "telemetry": ns_telemetry,
        "advance": ns_advance,
        "summary": clock() - t0,
    }
    return hist


def _summarize(
    hist: SimulationResult, overrides, last_violation, final_edge, max_omega, ground_min, ground_max
) -> dict:
    """The summary document from the observers' accumulators and the last row."""
    sc = hist.scenario
    # a violation at the last tick means no convergence
    conv_idx = last_violation + 1 if last_violation < sc.n_ticks else None
    x_last = hist.path_parameters[-1]
    return {
        "name": sc.name,
        "overrides": [str(o) for o in overrides],
        "seed": sc.seed,
        "n_drones": int(sc.n_drones),
        "n_edges": int(sc.graph.n_edges),
        "dt_s": float(sc.dt),
        "t_end_s": float(sc.t_end),
        "n_ticks": int(sc.n_ticks),
        "convergence_threshold_m": float(sc.convergence_threshold),
        "time_to_convergence_s": None if conv_idx is None else float(hist.times[conv_idx]),
        "final_max_edge_diff_m": float(final_edge),
        "final_max_pairwise_spread_m": float(x_last.max() - x_last.min()),
        "final_amplitudes_m": [float(a) for a in hist.amplitudes[-1]],
        "final_max_amplitude_m": float(hist.amplitudes[-1].max()),
        "final_max_abs_phi_m": float(np.abs(hist.phis[-1]).max()),
        "max_abs_heading_rate_rad_s": max_omega,
        "ground_speed_min_mps": float(ground_min),
        "ground_speed_max_mps": float(ground_max),
        "lyapunov_final": float(hist.lyapunov[-1]),
        "telemetry_sha256": hist.telemetry_digest,
    }
