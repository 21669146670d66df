"""Lock-step closed-loop swarm engine with deterministic telemetry.

Every tick runs the same four stages, each one vectorized over all
drones:

1. publish: each drone's path parameter x, projected on its line
   together with the level value phi that control reads, is pushed
   into its sliding-window averager, whose average xbar the tick
   publishes with np.trapezoid's bits (see WindowAverager).
2. control: each drone weighs its own xbar against its neighbors' from
   tick max(k - d, 0), d the communication delay in ticks, read back
   from the history store (a delay past the run shows tick 0
   throughout). It converts the saturated lead u to a progress budget
   xdot_d = v - k_u u, schedules the oscillation amplitude, evaluates
   the guiding field and commands a heading rate. A drone
   that is ahead commands a large amplitude and waits; one that is
   behind flies straight. In shortfall coordinates delta = v t - xbar
   this is the saturated consensus protocol of :mod:`gvfswarm.consensus`
   with three departures, so its agreement guarantee does not carry
   over as it stands: xbar lags x by about half a wave period, the
   amplitude follows its command through a first-order filter (tau_a),
   and the k_A schedule only models the slowdown curve (README has the
   measured gap). The model velocity v (cos theta, sin theta) that the
   field and the heading law read is the one the previous tick's advance returned;
   control takes no cos or sin.
3. telemetry: the tick's history cells that no kernel wrote. When a
   block of ticks closes, and at the last tick, one observer pass
   computes what no control reads: branch codes, edge gaps z, the
   Lyapunov value V, the summary's running extremes and, with telemetry
   on, one float64 row per tick. The rows go as raw bytes over a pipe
   to a helper process (_Helper), which owns the byte stream: a header
   line, then one CSV line per tick, every cell ``%.9g`` of a float,
   comma-separated with no quoting and ended by CR LF, formatted once
   for the SHA-256 and the file (_RowWriter). The loop does not wait for
   it; where no helper can start, the same writer runs in-process.
4. advance: RK4 on the unicycle under the held heading rate plus
   wind, and the exact exponential amplitude filter. The RK4 step
   starts from the tick's velocity and hands its end-of-step velocity,
   v (cos, sin) of the new heading to the bit, to the next tick's
   control.

Every run constant a kernel combines with an array is built once per
run by the kernel's own helper (``vehicle_operands``, ``field_operands``,
``wave_operands``, ``schedule_operands``, ``relaxation_operands``):
scalars boxed as read-only 0-d float64 arrays (see ``_box``), per-drone
constants in the full shape of the array they meet. So every array
operation of a steady tick takes C-contiguous operands of one shape, or
boxes, numpy's cheapest path, with the same bits. The tick calls each
kernel a tracer may replace through this module's globals
(relaxation_step through ``gvfswarm.oscillation``, the averager's
methods on its class), once per tick or step; ``TestKernelCalls``
counts the calls.

Planar vectors are component-first, (2, N), inside the tick. The
per-drone history is one (ticks, 12, N) float64 store in
``_STORE_CELLS`` order; the kernels write the tick's cells through
``out=``, the per-drone result fields are views of it, and a block of
telemetry rows takes its drone cells in telemetry order in one gather.
Neighbor sums run over one slot-major table of the graph's 2M (owner,
neighbor) pairs, in O(N + M) whatever the degrees, each node adding its
terms in a fixed order, so a run is bitwise reproducible; the test suite
compares telemetry digests to enforce that. numpy picks its SIMD loops
by CPU at run time, and the bits of np.exp follow that choice; the tick
calls no np.exp (the amplitude decay uses math.exp), and CI checks a
pinned digest with AVX2 and AVX-512 dispatch off.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import oscillation as osc
from ._box import box
from .consensus import (
    _SUMMARY_BLOCK,
    WindowAverager,
    _addressable,
    lyapunov_value,
    neighbor_disagreement,
    sat,
)
from .gvf import field_core, field_operands
from .scenario import Scenario
from .vehicle import heading_rate_core, unicycle_step, vehicle_operands

__all__ = [
    "SimulationResult", "TelemetryHelperError", "run", "write_table", "TELEMETRY_FLOAT_FORMAT",
]

TELEMETRY_FLOAT_FORMAT = "%.9g"

# the per-drone telemetry cells in row order: header stem and the
# SimulationResult field that holds it
_DRONE_CELLS = (
    ("p{i}_x_m", "positions"), ("p{i}_y_m", "positions"), ("theta{i}_rad", "headings"),
    ("phi{i}_m", "phis"), ("gamma{i}_m", "gammas"), ("x{i}_m", "path_parameters"),
    ("xbar{i}_m", "averaged_parameters"), ("u{i}", "inputs"),
    ("xdot_d{i}_mps", "desired_velocities"), ("A{i}_m", "amplitudes"),
    ("A_d{i}_m", "commanded_amplitudes"), ("omega{i}_rad_s", "omegas"), ("branch{i}", "branches"),
)
# the float cells of the history store: the telemetry's order with x
# moved next to phi, so one sum writes both
_STORE_CELLS = ("positions", "positions", "headings", "phis", "path_parameters", "gammas",
                "averaged_parameters", "inputs", "desired_velocities", "amplitudes",
                "commanded_amplitudes", "omegas")
_HEADING, _PHI, _X, _GAMMA, _XBAR, _U, _XDOT_D, _AMP, _A_CMD, _OMEGA = range(2, 12)
# the store cell of each float telemetry cell
_TELEMETRY_ORDER = [0, 1] + [_STORE_CELLS.index(name) for _, name in _DRONE_CELLS[2:-1]]


@dataclass
class SimulationResult:
    """Complete tick history of one run plus the summary document.

    ``positions`` through ``omegas`` are slices, strided views, of one
    (ticks, 12, N) float64 array in _STORE_CELLS order.
    """

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
    # telemetry includes the per-block observer pass and this process's
    # share of the rows, which telemetry_send counts alone (helper start,
    # sends, final wait; 0 with telemetry off); summary only the final
    # assembly; never part of the summary or the digest
    timings: dict = field(default_factory=dict)


def _telemetry_header(n_drones: int, n_edges: int) -> list[str]:
    cols = ["t_s"]
    for i in range(1, n_drones + 1):
        cols.extend(stem.format(i=i) for stem, _ in _DRONE_CELLS)
    cols.extend(f"z{k}_m" for k in range(1, n_edges + 1))
    cols.append("V")
    return cols


class TelemetryHelperError(RuntimeError):
    """The telemetry helper process died or failed before the run ended."""


class _RowWriter:
    """Formats, hashes and writes the telemetry byte stream.

    The header line of ``columns`` goes out first; ``write`` takes the raw
    float64 bytes of whole rows, a cell per column, and renders them with
    one ``%``. The helper process runs one, and so does ``run`` itself
    when no helper can start.
    """

    def __init__(self, columns, fh) -> None:
        # bytes %: a str % plus encode of each block raised the peak RSS of
        # some 600 s eight-drone runs by about 4 MiB of heap fragments
        self.cells, self.fh = len(columns), fh
        self.row_fmt = (",".join([TELEMETRY_FLOAT_FORMAT] * self.cells) + "\r\n").encode()
        header = (",".join(columns) + "\r\n").encode()
        self.digest = hashlib.sha256(header)
        if fh is not None:
            fh.write(header)

    def write(self, data) -> None:
        values = memoryview(data).cast("d").tolist()
        lines = (self.row_fmt * (len(values) // self.cells)) % tuple(values)
        self.digest.update(lines)
        if self.fh is not None:
            self.fh.write(lines)

    def finish(self) -> str:
        if self.fh is not None:
            self.fh.flush()
        return self.digest.hexdigest()

    def close(self) -> None:
        """Nothing to release: the caller closes the file."""


def write_table(fh, columns, table) -> None:
    """Write a header line and a float64 table in the telemetry byte format.

    ``fh`` is a binary file; the rows go through a _RowWriter in blocks
    of about _SUMMARY_BLOCK cells, as telemetry does.
    """
    table = np.ascontiguousarray(table, dtype=float)
    rows = max(1, _SUMMARY_BLOCK // table.shape[1])
    writer = _RowWriter(columns, fh)
    for start in range(0, len(table), rows):
        writer.write(memoryview(table[start:start + rows]).cast("B"))
    writer.finish()


class _Helper:
    """A forked process running a _RowWriter on the blocks sent over a pipe.

    ``write`` returns once the bytes are in the pipe; ``finish`` closes
    it, waits for the helper and returns its hexdigest. A dead or failed
    helper raises TelemetryHelperError, and every path reaps it.
    """

    def __init__(self, columns, rows: int, fh) -> None:
        data_r, data_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            if fh is not None:
                fh.flush()  # the child must not inherit buffered bytes
            pid = os.fork()
        except BaseException:
            for fd in (data_r, data_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            _serve(data_r, data_w, reply_r, reply_w, columns, rows, fh)
        os.close(data_r)
        os.close(reply_w)
        self.pid, self.out, self.reply, self.status = pid, data_w, reply_r, None
        _place_apart(pid)

    def write(self, data) -> None:
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(self.out, view):]
        except BrokenPipeError:
            raise self._error(self._stop()) from None

    def finish(self) -> str:
        reply = self._stop()
        if self.status == 0 and len(reply) == 64:
            return reply.decode()
        raise self._error(reply)

    def close(self) -> None:
        self._stop()

    def _stop(self) -> bytes:
        """Close the pipe, read the reply and reap the helper; once."""
        pid, self.pid = self.pid, None
        if pid is None:
            return b""
        os.close(self.out)
        chunks = []
        try:
            while chunk := os.read(self.reply, 4096):
                chunks.append(chunk)
        finally:
            os.close(self.reply)
            self.status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return b"".join(chunks)

    def _error(self, reply: bytes) -> TelemetryHelperError:
        if self.status < 0:
            return TelemetryHelperError(
                f"telemetry helper was killed by signal {-self.status} before the run ended")
        detail = reply.decode(errors="replace") or f"exit status {self.status}"
        return TelemetryHelperError(f"telemetry helper failed: {detail}")


def _tick_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat", "rb") as fh:
        stat = fh.read()
    # field 2, the command name, may hold spaces and parentheses
    return int(stat.rsplit(b")", 1)[1].split()[36])


def _place_apart(pid: int) -> None:
    """Keep the helper off the CPU the tick runs on.

    A pipe write wakes the reader as a sync wakeup, and when the writer
    runs alone on its CPU, Linux puts the woken reader there unless it
    finds another CPU idle; the helper then shares the tick's CPU. So
    the helper may run on every allowed CPU but that one, and this
    process keeps its own affinity. With one allowed CPU, no affinity
    call or no /proc, the helper stays where it is.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            os.sched_setaffinity(pid, allowed - {_tick_cpu()})
    except (OSError, ValueError, IndexError):
        pass


def _serve(data_r, data_w, reply_r, reply_w, columns, rows, fh) -> None:
    """The helper process: rows from the pipe to a _RowWriter, then the reply.

    The reply is the hexdigest, or the error that stopped the helper.
    Leaves only through os._exit: the parent's cleanup, atexit hooks
    and stdio buffers are not the child's to run. The child runs no
    numpy, so the parent's BLAS threads, which fork does not copy, are
    never missed.
    """
    status, reply = 1, b""
    try:
        import gc

        # no cycles here; a full collection would copy the parent's heap pages
        gc.disable()
        os.close(data_w)
        os.close(reply_r)
        writer = _RowWriter(columns, fh)
        with open(data_r, "rb") as src:
            for data in iter(lambda: src.read(rows * writer.cells * 8), b""):
                writer.write(data)
        reply, status = writer.finish().encode(), 0
    except Exception as exc:
        reply = f"{type(exc).__name__}: {exc}".encode()[:512]
    finally:
        try:
            os.write(reply_w, reply)
        finally:
            os._exit(status)


def _row_sink(columns, rows: int, fh):
    """A helper process for the rows, or a _RowWriter here if none can start."""
    if hasattr(os, "fork"):
        try:
            return _Helper(columns, rows, fh)
        except (OSError, RuntimeError):
            pass
    return _RowWriter(columns, fh)


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
    n, m, delay = sc.n_drones, sc.graph.n_edges, sc.comm_delay_ticks
    dt, n_ticks, speed, wind = sc.dt, sc.n_ticks, sc.speed, sc.wind
    cfg, sat_p = sc.oscillation, sc.saturation
    w = cfg.w_gamma

    origins, tangents, normals = sc.origins, sc.tangents, sc.normals
    # each line's normal over its tangent, (2, 2, N), against each drone's
    # offset from its line twice: one product and one sum over the
    # components give the level value phi and the path parameter x
    # together, each the same sum as over its own (2, N) product
    frames = np.stack([normals, tangents])
    offsets = np.empty_like(frames)
    table = sc.graph.neighbor_table
    tails, heads = sc.graph.edge_array.T

    # every run constant a kernel combines with an array, built once by
    # the kernel's own helper in the shape of the array it meets
    kin = vehicle_operands(speed, dt, wind, sc.k_n, (n,))
    field_ops = field_operands(speed, normals, tangents, sc.k_e)
    wave_ops = osc.wave_operands(w, (n,))
    schedule_ops = osc.schedule_operands(speed, w, cfg.k_a, cfg.amplitude_cap)
    relax_ops = osc.relaxation_operands(dt, cfg.tau_a, w)
    speed_b, k_u_b = kin.speed, box(sc.k_u)
    # this tick's sin(w t) and cos(w t), written in place
    sin_wt, cos_wt = np.empty(()), np.empty(())
    # relaxation_step and the history only read a fixed command
    fixed_cmd = None if sc.fixed_amplitude is None else np.full(n, sc.fixed_amplitude)

    # each tick's float drone cells in _STORE_CELLS order; the fields are
    # views. It is the largest history array, so numpy can address the others
    store = np.empty(_addressable((n_ticks + 1, len(_STORE_CELLS), n)))
    times = np.arange(n_ticks + 1) * dt
    hist = SimulationResult(
        scenario=sc, times=times, positions=store[:, 0:2].transpose(0, 2, 1),
        **{name: store[:, c] for c, name in enumerate(_STORE_CELLS[2:], start=2)},
        branches=np.empty((n_ticks + 1, n), dtype=np.int8),
        edge_diffs=np.empty((n_ticks + 1, m)), lyapunov=np.empty(n_ticks + 1),
    )

    # mutable state: position and heading in the tick's store row, which
    # the advance writes for the next tick
    store[0, 0:2] = sc.initial_positions().T
    store[0, _HEADING] = sc.initial_headings
    # the model velocity v (cos theta, sin theta); advance returns the next one
    velocity = speed * np.array([np.cos(sc.initial_headings), np.sin(sc.initial_headings)])
    # (A, A_dot, A_ddot - A w^2, A_ddot), all zero at rest
    waves = np.zeros((4, n))
    wave_rows = tuple(waves)
    averager = WindowAverager(window=cfg.period, dt=dt, shape=(n,))

    # the telemetry columns, None when no rows are formatted
    columns = _telemetry_header(n, m) if compute_digest or telemetry_path is not None else None
    # the observers run once per block of about _SUMMARY_BLOCK cells, from
    # the history and each tick's eta and p_dot
    rows = max(1, _SUMMARY_BLOCK // (n if columns is None else len(columns)))
    eta_rows, p_dot_rows = np.empty((rows, n)), np.empty((rows, 2, n))
    last_violation, final_edge = -1, 0.0
    ground_min = omega_min = np.inf
    ground_max = omega_max = -np.inf
    fh = sink = None
    clock = time.perf_counter_ns
    ns_publish = ns_control = ns_telemetry = ns_advance = ns_send = 0
    try:
        if columns is not None:
            # one float row per tick: t, the drone cells, z, V; the drone
            # cells are an (N, len(_DRONE_CELLS)) view per row
            block = np.empty((rows, len(columns)))
            drone_cells = block[:, 1:-1 - m].reshape(rows, n, len(_DRONE_CELLS))
            if telemetry_path is not None:
                # opened here, so a bad path fails before the first tick
                fh = open(telemetry_path, "wb")
        for k in range(n_ticks + 1):
            t0 = clock()
            j = k % rows
            row = store[k]
            # publish
            np.subtract(row[0:2], origins, out=offsets[0])
            offsets[1] = offsets[0]
            offsets *= frames
            np.add.reduce(offsets, axis=1, out=row[_PHI:_X + 1])
            averager.push(row[_X])
            xbar = row[_XBAR] = averager.average()
            t1 = clock()
            # control: own average against the neighbors' from tick seen's history row
            eta = neighbor_disagreement(xbar, table)
            seen = max(k - delay, 0)
            if seen == k:
                lead = -eta
            else:
                lead = -neighbor_disagreement(hist.averaged_parameters[seen], table, own=xbar)
            u = row[_U] = sat(lead, sat_p)
            xdot_d = np.subtract(speed_b, k_u_b * u, out=row[_XDOT_D])
            if fixed_cmd is None:
                a_cmd = osc.amplitude_schedule(xdot_d, schedule_ops, out=row[_A_CMD])[0]
            else:
                a_cmd = row[_A_CMD] = fixed_cmd
            # k dt is times[k] to the bit: np.arange's k is exact
            wt = w * (k * dt)
            sin_wt[()], cos_wt[()] = math.sin(wt), math.cos(wt)
            gammas = osc.wave(sin_wt, cos_wt, waves, wave_ops)
            f, f_dot, interior = field_core(row[_PHI], gammas, velocity, field_ops)
            omega = heading_rate_core(f, f_dot, velocity, kin, row[_OMEGA])
            t2 = clock()
            # telemetry: the cells no kernel wrote, then the observers once per block
            row[_GAMMA] = gammas[0]
            row[_AMP] = wave_rows[0]
            hist.branches[k] = interior
            eta_rows[j] = eta
            p_dot_rows[j] = velocity
            if j == rows - 1 or k == n_ticks:
                b, ticks = j + 1, slice(k - j, k + 1)
                hist.branches[ticks] ^= 1  # interior flag -> exterior code
                xb = hist.averaged_parameters[ticks]
                z = np.subtract(xb.take(tails, axis=1), xb.take(heads, axis=1),
                                out=hist.edge_diffs[ticks])
                v = hist.lyapunov[ticks] = lyapunov_value(eta_rows[:b], sat_p)
                if m:
                    # |z| extremes from the row extremes: no (ticks, edges) temporary
                    max_edge = np.maximum(np.abs(z.max(axis=1)), np.abs(z.min(axis=1)))
                    late = np.flatnonzero(~(max_edge < sc.convergence_threshold))
                    if late.size:
                        last_violation = k - j + int(late[-1])
                    final_edge = max_edge[-1]
                # sqrt(vx^2 + vy^2) is bitwise np.linalg.norm over the pair
                vx, vy = (p_dot_rows[:b] + kin.wind).transpose(1, 0, 2)
                ground = np.sqrt(vx * vx + vy * vy)
                ground_min = np.minimum(ground_min, ground.min())
                ground_max = np.maximum(ground_max, ground.max())
                omega_min = np.minimum(omega_min, hist.omegas[ticks].min())
                omega_max = np.maximum(omega_max, hist.omegas[ticks].max())
                if columns is not None:
                    block[:b, 0] = times[ticks]
                    drone_cells[:b, :, :-1] = store[ticks, _TELEMETRY_ORDER].transpose(0, 2, 1)
                    drone_cells[:b, :, -1] = hist.branches[ticks]
                    block[:b, -1 - m:-1] = z
                    block[:b, -1] = v
                    t_send = clock()
                    if sink is None:
                        sink = _row_sink(columns, rows, fh)
                    sink.write(memoryview(block[:b]).cast("B"))
                    if k == n_ticks:
                        hist.telemetry_digest = sink.finish()
                    ns_send += clock() - t_send
            t3 = clock()
            # advance
            if k < n_ticks:
                ahead = store[k + 1]
                velocity = unicycle_step(row[0:2], row[_HEADING], velocity, omega, kin,
                                         out=(ahead[0:2], ahead[_HEADING]))[2]
                osc.relaxation_step(wave_rows[0], a_cmd, relax_ops, out=wave_rows)
            t4 = clock()
            ns_publish += t1 - t0
            ns_control += t2 - t1
            ns_telemetry += t3 - t2
            ns_advance += t4 - t3
    finally:
        if sink is not None:
            sink.close()
        if fh is not None:
            fh.close()

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
        "telemetry_send": ns_send,
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
