"""One benchmark job per call: build the inputs, run them, check them.

A job drives only the public API: ``load_mapping``/``validate_mapping``/
``build_scenario`` and ``sim.run`` for the sim workloads,
``integrate_consensus`` for consensus-200. Every job returns the wall
time of its timed section, the work it did and the list of failed
correctness checks. The tolerances are the acceptance suite's.
"""

from __future__ import annotations

import hashlib
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import inputs  # first: puts the checkout's src/ on sys.path
import gvfswarm.consensus
import gvfswarm.oscillation
import gvfswarm.sim
from gvfswarm.consensus import WindowAverager, integrate_consensus
from gvfswarm.scenario import build_scenario, load_mapping, validate_mapping
from gvfswarm.sim import SimulationResult

# Where each wrapped function is looked up by its caller, and the span
# name it records under: <module that defines it>.<function>.
TRACE_TARGETS = (
    (gvfswarm.sim, "field_core", "gvf.field_core"),
    (gvfswarm.sim, "heading_rate_core", "vehicle.heading_rate_core"),
    (gvfswarm.sim, "unicycle_step", "vehicle.unicycle_step"),
    (gvfswarm.sim, "neighbor_disagreement", "consensus.neighbor_disagreement"),
    (gvfswarm.sim, "lyapunov_value", "consensus.lyapunov_value"),
    (WindowAverager, "push", "consensus.WindowAverager.push"),
    (WindowAverager, "average", "consensus.WindowAverager.average"),
    (gvfswarm.oscillation, "gamma", "oscillation.gamma"),
    (gvfswarm.oscillation, "gamma_dot", "oscillation.gamma_dot"),
    (gvfswarm.oscillation, "gamma_ddot", "oscillation.gamma_ddot"),
    (gvfswarm.oscillation, "relaxation_step", "oscillation.relaxation_step"),
    (gvfswarm.consensus, "sat", "consensus.sat"),
    (gvfswarm.consensus, "neighbor_disagreement", "consensus.neighbor_disagreement"),
    (gvfswarm.consensus, "lyapunov_value", "consensus.lyapunov_value"),
)
TRACED_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACE_TARGETS))

# acceptance-suite tolerances (tests/test_acceptance.py)
GROUND_SPEED_TOL = 1e-9
CONSENSUS_SPREAD_TOL = 1e-3
CONSENSUS_INPUT_TOL = 1e-3
CONSENSUS_DRIFT_TOL = 1e-6
LYAPUNOV_INCREASE_TOL = 1e-9


@dataclass
class Job:
    work: int  # drone-ticks (sim) or start-node-steps (consensus)
    build_s: float
    wall_s: float  # sim.run or integrate_consensus alone
    failures: list[str] = field(default_factory=list)
    ticks: int = 0
    history_bytes: int = 0
    exterior_ticks: int = 0
    peak_rss_mib: float = 0.0  # at the end of the timed section, before any check
    result: object = None


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def build_from_file(path: Path, tracer=None):
    """load + validate + build, as a user of the library does."""
    with _span(tracer, "scenario.build"):
        t0 = time.perf_counter()
        mapping = load_mapping(path)
        violations = validate_mapping(mapping)
        if violations:
            raise ValueError(f"{path.name}: {violations}")
        scenario = build_scenario(mapping)
        build_s = time.perf_counter() - t0
    return scenario, build_s


def run_scenario_file(path: Path, telemetry_path: Path | None, tracer=None) -> Job:
    """Build and run one scenario file; telemetry on iff a path is given."""
    scenario, build_s = build_from_file(path, tracer)
    with _span(tracer, "sim.run"):
        t0 = time.perf_counter()
        res = gvfswarm.sim.run(scenario, telemetry_path=telemetry_path)
        wall_s = time.perf_counter() - t0
    ticks = scenario.n_ticks + 1
    return Job(
        work=scenario.n_drones * ticks,
        build_s=build_s,
        wall_s=wall_s,
        ticks=ticks,
        peak_rss_mib=_peak_rss_mib(),
        history_bytes=history_bytes(res),
        exterior_ticks=int(np.count_nonzero(res.branches)),
        result=res,
    )


def history_bytes(res: SimulationResult) -> int:
    return sum(
        getattr(res, f.name).nbytes
        for f in fields(res)
        if isinstance(getattr(res, f.name), np.ndarray)
    )


def sim_job(workload: str, seed: int, job: int, work_dir: Path, tracer=None,
            telemetry: bool = True) -> Job:
    """One sim job; ``telemetry=False`` runs formation-8 without its CSV."""
    doc = inputs.scenario_mapping(workload, seed, job)
    path = inputs.write_scenario(doc, work_dir / f"{workload}-{seed}-{job}.scn")
    csv_path = work_dir / f"{workload}-{seed}-{job}.csv"
    with_csv = telemetry and workload == "formation-8"
    try:
        out = run_scenario_file(path, csv_path if with_csv else None, tracer)
    finally:
        path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
    out.failures = check_sim(workload, out.result, with_csv)
    return out


def check_sim(workload: str, res: SimulationResult, with_csv: bool) -> list[str]:
    sc = res.scenario
    cap = sc.oscillation.amplitude_cap
    bad = []
    if not np.all(res.inputs >= 0.0):
        bad.append(f"u < 0 (min {res.inputs.min():.6g})")
    if not np.all(res.desired_velocities <= sc.speed):
        bad.append(f"xdot_d > v (max {res.desired_velocities.max():.17g})")
    if not (np.all(res.amplitudes <= cap) and np.all(res.commanded_amplitudes <= cap)):
        bad.append(f"amplitude above cap {cap}")
    if with_csv and res.telemetry_digest is None:
        bad.append("telemetry on but no digest")
    if workload == "formation-8":
        s = res.summary
        if s["time_to_convergence_s"] is None:
            bad.append(f"no convergence by t = {sc.t_end} s")
        dev = max(abs(s["ground_speed_min_mps"] - sc.speed),
                  abs(s["ground_speed_max_mps"] - sc.speed))
        if not dev < GROUND_SPEED_TOL:
            bad.append(f"ground speed off v by {dev:.3g}")
    return bad


def consensus_job(seed: int, job: int, tracer=None) -> Job:
    x0 = inputs.consensus_starts(seed, job)
    with _span(tracer, "scenario.build"):
        t0 = time.perf_counter()
        graph = inputs.consensus_graph()
        build_s = time.perf_counter() - t0
    with _span(tracer, "consensus.integrate_consensus"):
        t0 = time.perf_counter()
        res = integrate_consensus(
            graph, x0, inputs.CONSENSUS_PARAMS,
            dt=inputs.CONSENSUS_DT, t_end=inputs.CONSENSUS_T_END,
        )
        wall_s = time.perf_counter() - t0
    steps = len(res.times) - 1
    out = Job(
        work=x0.size * steps,
        build_s=build_s,
        wall_s=wall_s,
        ticks=steps,
        peak_rss_mib=_peak_rss_mib(),
        result=res,
    )
    out.failures = check_consensus(x0, res)
    return out


def check_consensus(x0: np.ndarray, res) -> list[str]:
    bad = []
    final = res.final_state
    spread = float((final.max(axis=-1) - final.min(axis=-1)).max())
    if not spread < CONSENSUS_SPREAD_TOL:
        bad.append(f"final spread {spread:.3g}")
    residual = float(np.abs(res.final_input).max())
    if not residual < CONSENSUS_INPUT_TOL:
        bad.append(f"residual input {residual:.3g}")
    drift = float(np.abs(final.max(axis=-1) - x0.max(axis=-1)).max())
    if not drift < CONSENSUS_DRIFT_TOL:
        bad.append(f"|final - max(x0)| {drift:.3g}")
    rise = float(np.diff(res.lyapunov, axis=0).max())
    if not rise <= LYAPUNOV_INCREASE_TOL:
        bad.append(f"Lyapunov rose by {rise:.3g} in one step")
    return bad


def result_sha256(res) -> str:
    """SHA-256 over every array of a result and its telemetry digest.

    Equal hashes of a traced and an untraced run show that the tracer
    changed no bit of the output.
    """
    h = hashlib.sha256(str(getattr(res, "telemetry_digest", None)).encode())
    for f in fields(res):
        value = getattr(res, f.name)
        if isinstance(value, np.ndarray):
            h.update(f.name.encode() + str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value))
    return h.hexdigest()
