"""Acceptance checks for the coordination stack, one reported line each.

Every test prints a [PASS]/[FAIL] line with the measured quantity and
its budget, then asserts. Heavy runs are shared through module-scoped
fixtures so the suite stays fast.
"""

import hashlib
import math
import time

import numpy as np
import pytest

# the quadrature route imports scipy on first use; load it with the
# module so the wall budgets below time quadrature, not that import
import scipy.integrate  # noqa: F401

import gvfswarm.oscillation as osc
from gvfswarm import cli
from gvfswarm.consensus import SaturationParams, integrate_consensus
from gvfswarm.graph import DEMO_TREE_EDGES, Graph
from gvfswarm.gvf import field_core, field_operands
from gvfswarm.scenario import apply_overrides, build_scenario, load_mapping
from gvfswarm.sim import run

V, W = 16.0, 0.6
TREE8 = Graph.from_one_based(8, DEMO_TREE_EDGES)

# exact period-average progress speed at v = 16, w = 0.6, A = 15
EXPECTED_AVG_VELOCITY = 14.647240241529

# telemetry SHA-256 of each bundled scenario run at full length
BUNDLED_DIGESTS = {
    "eight_drones.scn": "da252a676bb89e61a3f02e2545e02677f5c8d5158197b1465ab479d82cc2add5",
    "two_drones.scn": "760a997e38b31ea60875cc01fae020eb6bd2d6b30b50f6f2435b3bdafe313328",
}


@pytest.fixture
def report(capsys):
    def _report(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _report


@pytest.fixture(scope="module")
def consensus_batch():
    """200 random initial conditions through the reference protocol."""
    rng = np.random.default_rng(2024)
    x0 = rng.uniform(-100.0, 100.0, (200, 8))
    params = SaturationParams(tau_l=0.0, tau_h=20.0, r=5.0)
    t0 = time.perf_counter()
    result = integrate_consensus(TREE8, x0, params, dt=0.01, t_end=150.0)
    wall = time.perf_counter() - t0
    return x0, result, wall


@pytest.fixture(scope="module")
def formation_run(scenario_dir):
    """The bundled eight-drone scenario, full length, with digest."""
    sc = build_scenario(load_mapping(scenario_dir / "eight_drones.scn"))
    t0 = time.perf_counter()
    result = run(sc, compute_digest=True)
    wall = time.perf_counter() - t0
    return result, wall


def test_consensus_reaches_max_from_any_start(report, consensus_batch):
    x0, result, wall = consensus_batch
    spread = result.final_state.max(axis=-1) - result.final_state.min(axis=-1)
    residual_input = np.abs(result.final_input - 0.0).max()
    drift = np.abs(result.final_state.max(axis=-1) - x0.max(axis=-1)).max()
    ok = (
        spread.max() < 1e-3
        and residual_input < 1e-3
        and drift < 1e-6
        and wall < 10.0
    )
    report(
        "consensus-agreement-200-starts",
        ok,
        f"max spread {spread.max():.3g} (tol 1e-3), max residual input "
        f"{residual_input:.3g} (tol 1e-3), max |final - max(x0)| {drift:.3g} "
        f"(tol 1e-6), wall {wall:.2f} s (budget 10 s)",
    )


def test_lyapunov_never_increases(report, consensus_batch):
    _, result, _ = consensus_batch
    increments = np.diff(result.lyapunov, axis=0)
    worst = increments.max()
    ok = bool(np.all(increments <= 1e-9))
    report(
        "lyapunov-monotone-200-starts",
        ok,
        f"largest per-step increase {worst:.3g} (tol 1e-9) over "
        f"{increments.shape[0]} steps x {increments.shape[1]} runs",
    )


# SHA-256 of the consensus_batch run's lyapunov, final_state and
# final_input bytes (C order), in that order
CONSENSUS_BATCH_SHA256 = "18b9fdf0b2645ca3d48a48a43cf70ba72f7e7aa12540fce985d7373e26fb4378"


def test_consensus_batch_bits_are_pinned(report, consensus_batch):
    _, result, _ = consensus_batch
    digest = hashlib.sha256()
    for array in (result.lyapunov, result.final_state, result.final_input):
        digest.update(array.tobytes())
    got = digest.hexdigest()
    report(
        "consensus-200-starts-bits",
        got == CONSENSUS_BATCH_SHA256,
        f"sha256 {got[:12]}... (pinned {CONSENSUS_BATCH_SHA256[:12]}...)",
    )


def test_slowdown_curve_dual_route(report):
    t0 = time.perf_counter()
    amplitudes = np.concatenate([[0.0], np.linspace(0.0, V / W, 100)[1:-1], [V / W]])
    worst = 0.0
    for a in amplitudes:
        q = osc.average_parametric_velocity(V, W, float(a))
        c = osc.average_parametric_velocity_closed_form(V, W, float(a))
        worst = max(worst, abs(q - c))
    end_ok = (
        abs(osc.average_parametric_velocity(V, W, 0.0) - V) == 0.0
        and abs(osc.average_parametric_velocity(V, W, V / W) - 2 * V / math.pi) < 1e-9 * V
    )
    wall = time.perf_counter() - t0
    ok = worst < 1e-9 * V and end_ok and wall < 1.0
    report(
        "slowdown-quadrature-vs-elliptic",
        ok,
        f"worst route disagreement {worst:.3g} over {len(amplitudes)} amplitudes "
        f"(tol {1e-9 * V:.2g}), endpoints exact, wall {wall:.3f} s (budget 1 s)",
    )


def test_amplitude_gain_fit_band(report):
    details = []
    ok = True
    for w in (0.3, 0.6):
        t0 = time.perf_counter()
        k = osc.fit_k_a(V, w)
        wall = time.perf_counter() - t0
        ok = ok and 1.30 <= k <= 1.40 and wall < 1.0
        details.append(f"w={w}: k_a={k:.6f} in [1.30, 1.40], wall {wall:.3f} s")
    report("amplitude-gain-fit", ok, "; ".join(details))


def test_lowest_velocity_maps_to_kinematic_limit(report):
    eps = osc.epsilon(V, 1.35)
    a = osc.amplitude_schedule(eps, osc.schedule_operands(V, W, 1.35, V / W))[0]
    ok = abs(a - 26.7) <= 0.1
    report(
        "amplitude-at-lowest-velocity",
        ok,
        f"A(eps={eps:.4f}) = {a:.6f} m, expected 26.7 +/- 0.1 (= v/w exactly)",
    )


def line_capture_doc() -> dict:
    return {
        "name": "line-capture",
        "speed_mps": V,
        "dt_s": 0.02,
        "t_end_s": 60.0,
        "graph": {"n_drones": 1, "edges": []},
        "paths": {"alpha_rad": 0.0, "origin_m": [0.0, 0.0]},
        "gvf": {"k_e": 1.0, "k_n": 2.0},
        "oscillation": {"w_gamma_rad_s": W, "fixed_amplitude_m": 0.0},
        "consensus": {"k_u": 0.06, "r_m": 50.0},
        "initial": {"parameters_m": [0.0], "offsets_m": 50.0, "headings_rad": 2.0},
    }


def test_line_capture_without_oscillation(report):
    t0 = time.perf_counter()
    res = run(build_scenario(line_capture_doc()))
    wall = time.perf_counter() - t0
    abs_phi = np.abs(res.phis[:, 0])
    below = abs_phi < 0.1
    captured = bool(below[-1]) and bool(np.any(below))
    if captured:
        last_violation = np.nonzero(~below)[0]
        t_capture = float(res.times[last_violation[-1] + 1]) if len(last_violation) else 0.0
        stays = bool(np.all(below[np.searchsorted(res.times, t_capture):]))
    else:
        t_capture, stays = math.inf, False
    speed_dev = max(
        abs(res.summary["ground_speed_min_mps"] - V),
        abs(res.summary["ground_speed_max_mps"] - V),
    )
    ok = captured and stays and t_capture < 60.0 and speed_dev < 1e-9 and wall < 2.0
    report(
        "line-capture-no-wave",
        ok,
        f"|phi| < 0.1 m from t = {t_capture:.2f} s onward (budget 60 s), "
        f"ground speed deviation {speed_dev:.2g} (tol 1e-9), wall {wall:.2f} s "
        f"(budget 2 s)",
    )


def weave_doc() -> dict:
    return {
        "name": "weave",
        "speed_mps": V,
        "dt_s": 0.02,
        "t_end_s": 120.0,
        "graph": {"n_drones": 1, "edges": []},
        "paths": {"alpha_rad": 0.0, "origin_m": [0.0, 0.0]},
        "gvf": {"k_e": 1.0, "k_n": 2.0},
        "oscillation": {
            "w_gamma_rad_s": W,
            "fixed_amplitude_m": 15.0,
            "amplitude_cap_m": 20.0,
        },
        "consensus": {"k_u": 0.06, "r_m": 50.0},
        "initial": {"parameters_m": [0.0]},
    }


def test_weave_slows_progress_as_predicted(report):
    res = run(build_scenario(weave_doc()))
    t = res.times
    x = res.path_parameters[:, 0]
    period = 2.0 * math.pi / W
    # per-period advance over complete periods after the amplitude has
    # settled (t >= 60 s)
    starts = np.arange(60.0, 120.0 - period, period)
    velocities = [
        (np.interp(s + period, t, x) - np.interp(s, t, x)) / period for s in starts
    ]
    vel_err = max(abs(v - EXPECTED_AVG_VELOCITY) for v in velocities)
    tail = t >= 60.0
    track_err = float(np.abs(res.phis[tail, 0] - res.gammas[tail, 0]).max())
    ok = (
        len(velocities) >= 3
        and vel_err <= 0.03 * EXPECTED_AVG_VELOCITY
        and track_err < 0.02 * 15.0
    )
    report(
        "weave-average-progress",
        ok,
        f"{len(velocities)} periods, worst per-period velocity error "
        f"{vel_err:.4g} m/s vs {EXPECTED_AVG_VELOCITY} (tol 3%), "
        f"max |phi - gamma| {track_err:.4g} m (tol 0.3)",
    )


def test_field_derivative_matches_finite_difference(report):
    # the x axis: phi is the y coordinate, normal (0, 1), tangent (1, 0)
    normal, tangent = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    rng = np.random.default_rng(2025)
    h = 1e-5
    tol = 1e-4 * V * W
    margin = 0.01 * V
    worst = 0.0
    counts = {"interior": 0, "exterior": 0}
    for j in range(1000):
        want_interior = j % 2 == 0
        while True:
            p = rng.uniform(-60.0, 60.0, 2)
            theta = rng.uniform(-math.pi, math.pi)
            a0 = rng.uniform(0.0, 15.0)
            a1 = rng.uniform(-2.0, 2.0)
            a2 = rng.uniform(-1.0, 1.0)
            t0 = rng.uniform(0.0, 2.0 * math.pi / W)
            g = float(osc.gamma(t0, a0, W))
            gd = float(osc.gamma_dot(t0, a0, a1, W))
            u_phi = -(float(p[1]) - g) + gd
            interior = abs(u_phi) <= V
            # skip the branch-boundary layer: the sqrt makes the true
            # second derivative unbounded there, invalidating the FD
            # stencil, not the analytic rate
            if interior == want_interior and abs(abs(u_phi) - V) >= margin:
                break
        pd = V * np.array([math.cos(theta), math.sin(theta)])
        gdd = float(osc.gamma_ddot(t0, a0, a1, a2, W))
        _, f_dot, interior = field_core(p[1], np.array([g, gd, gdd]), pd,
                                        field_operands(V, normal, tangent))
        counts["interior" if interior else "exterior"] += 1

        def f_at(tau):
            a_tau = a0 + a1 * tau + 0.5 * a2 * tau * tau
            ad_tau = a1 + a2 * tau
            g_tau = float(osc.gamma(t0 + tau, a_tau, W))
            gd_tau = float(osc.gamma_dot(t0 + tau, a_tau, ad_tau, W))
            q = p + tau * pd
            return field_core(q[1], np.array([g_tau, gd_tau, 0.0]), pd,
                              field_operands(V, normal, tangent))[0]

        fd = (f_at(h) - f_at(-h)) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(f_dot - fd)))
    ok = worst < tol and counts["interior"] == 500 and counts["exterior"] == 500
    report(
        "field-rate-finite-difference",
        ok,
        f"worst |f_dot - FD| {worst:.3g} over 1000 states "
        f"({counts['interior']} interior / {counts['exterior']} exterior, "
        f"boundary margin {margin:.2f} m/s), tol {tol:.2g}",
    )


def test_eight_drone_formation_converges(report, formation_run):
    res, wall = formation_run
    final_x = res.path_parameters[-1]
    spread = float(final_x.max() - final_x.min())
    final_amp = float(res.amplitudes[-1].max())
    final_phi = float(np.abs(res.phis[-1]).max())
    max_omega = float(np.abs(res.omegas).max())
    ok = (
        spread < 1.0
        and final_amp < 0.5
        and final_phi < 0.5
        and max_omega < 1.5
        and wall < 30.0
    )
    report(
        "eight-drone-formation",
        ok,
        f"final pairwise spread {spread:.3g} m (tol 1), final max amplitude "
        f"{final_amp:.3g} m (tol 0.5), final max |phi| {final_phi:.3g} m (tol 0.5), "
        f"max |omega| {max_omega:.3g} rad/s (tol 1.5), wall {wall:.1f} s (budget 30 s)",
    )


def test_runs_are_reproducible(report, formation_run, scenario_dir):
    res, _ = formation_run
    sc = build_scenario(load_mapping(scenario_dir / "eight_drones.scn"))
    repeat = run(sc, compute_digest=True)
    digests = {res.telemetry_digest, repeat.telemetry_digest}
    ok = len(digests) == 1 and res.telemetry_digest is not None
    report(
        "bitwise-reproducibility",
        ok,
        "sequential and repeat digests equal "
        f"({res.telemetry_digest[:16]}...)" if ok else f"digests differ: {digests}",
    )


def test_bundled_digests_are_pinned(report, formation_run, scenario_dir):
    res, _ = formation_run
    pair = run(build_scenario(load_mapping(scenario_dir / "two_drones.scn")), compute_digest=True)
    digests = {"eight_drones.scn": res.telemetry_digest, "two_drones.scn": pair.telemetry_digest}
    ok = digests == BUNDLED_DIGESTS
    report(
        "bundled-telemetry-digests",
        ok,
        ", ".join(f"{name} {digest[:16]}..." for name, digest in digests.items())
        + " equal the pinned SHA-256" if ok else f"got {digests}, pinned {BUNDLED_DIGESTS}",
    )


def test_delayed_formation_converges(report, scenario_dir):
    # the lead weighs own and neighbour averages of one tick, d ticks
    # old, so the bundled formation still meets its threshold in 600 s
    details, ok = [], True
    for d in (2, 10, 50):
        doc = apply_overrides(load_mapping(scenario_dir / "eight_drones.scn"),
                              [f"consensus.comm_delay_ticks={d}"])
        sc = build_scenario(doc)
        summary = run(sc).summary
        conv, edge = summary["time_to_convergence_s"], summary["final_max_edge_diff_m"]
        ok = ok and conv is not None and edge < sc.convergence_threshold
        at = "never" if conv is None else f"at {conv:.2f} s"
        details.append(f"d={d}: converged {at}, final max edge diff {edge:.3g} m")
    report(
        "delayed-formation-convergence",
        ok,
        "; ".join(details) + f" (600 s, tol {sc.convergence_threshold:g} m)",
    )


# telemetry SHA-256 of the westbound_eight run, whose headings wrap across +-pi
WESTBOUND_DIGEST = "375eb7cb1e6ebbb4799d32e600a2eb4611426e522734cc1c472886b2a0551507"


def test_westbound_digest_is_pinned(report, westbound_eight):
    res = run(westbound_eight, compute_digest=True)
    wraps = int(np.count_nonzero(np.abs(np.diff(res.headings, axis=0)) > math.pi))
    ok = res.telemetry_digest == WESTBOUND_DIGEST and wraps == 48
    report(
        "westbound-telemetry-digest",
        ok,
        f"sha256 {res.telemetry_digest[:16]}... (pinned {WESTBOUND_DIGEST[:16]}...), "
        f"{wraps} heading wraps (48 at the pin)",
    )


# telemetry SHA-256 of 60 s of the bundled eight-drone scenario flown as a
# 12-drone star (hub degree 11) in a 1.5 m/s crosswind, delay 0: the hub
# sums its 11 neighbour terms in slot order, where a pairwise sum would
# differ from 8 terms on
STAR_DIGEST = "aa599cb552721eef00c72ca62bb3b5aeb9a8b1c8b581dcae669f69a505798aeb"


def test_star_digest_is_pinned(report, scenario_dir):
    edges = [[1, i] for i in range(2, 13)]
    doc = apply_overrides(
        load_mapping(scenario_dir / "eight_drones.scn"),
        ["graph.n_drones=12", f"graph.edges={edges}", "wind_mps=[0.0, 1.5]", "t_end_s=60"],
    )
    sc = build_scenario(doc)
    res = run(sc, compute_digest=True)
    hub_degree = sum(0 in edge for edge in sc.graph.edges)
    ok = res.telemetry_digest == STAR_DIGEST and hub_degree == 11
    report(
        "star-telemetry-digest",
        ok,
        f"sha256 {res.telemetry_digest[:16]}... (pinned {STAR_DIGEST[:16]}...), "
        f"hub degree {hub_degree} (11 at the pin)",
    )


# telemetry SHA-256 of the 128-drone swarm (conftest.swarm_128_doc): blocks
# of m = 16 windows, which a run without telemetry folds ahead in a helper
# process and this digest-on run folds on the tick's path
SWARM_128_DIGEST = "27909f43c2026e2c4ce5d11b77dbc6bc88a2c6ed3f0b7bc8d69bfcde3da423d0"


def test_swarm_128_digest_is_pinned(report, swarm_128):
    res = run(swarm_128, compute_digest=True)
    exterior = int(np.count_nonzero(res.branches))
    ok = res.telemetry_digest == SWARM_128_DIGEST and exterior == 2224
    report(
        "swarm-128-telemetry-digest",
        ok,
        f"sha256 {res.telemetry_digest[:16]}... (pinned {SWARM_128_DIGEST[:16]}...), "
        f"{exterior} exterior cells (2224 at the pin)",
    )


# SHA-256 of the table that ``gvfswarm consensus-demo --t-end 150 --out``
# writes: 15 002 lines through the telemetry row writer. fit-curve is not
# pinned, since its quadrature bits follow the SciPy version
DEMO_TABLE_DIGEST = "9410dff21d87ef1be8b24d270a7c37ed3d045f6f4a06b46dd715c6118de9ab94"


def test_demo_table_digest_is_pinned(report, tmp_path):
    out = tmp_path / "demo.csv"
    status = cli.main(["consensus-demo", "--t-end", "150", "--out", str(out)])
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    report(
        "demo-table-digest",
        status == 0 and got == DEMO_TABLE_DIGEST,
        f"exit {status}, sha256 {got[:16]}... (pinned {DEMO_TABLE_DIGEST[:16]}...)",
    )


def test_crosswind_keeps_the_pair_together(report, scenario_dir):
    doc = apply_overrides(
        load_mapping(scenario_dir / "two_drones.scn"), ["wind_mps=[0, 3.5]"]
    )
    res = run(build_scenario(doc))
    final_x = res.path_parameters[-1]
    spread = float(final_x.max() - final_x.min())
    ok = spread < 2.0
    report(
        "crosswind-pair-agreement",
        ok,
        f"final pairwise spread {spread:.3g} m under a 3.5 m/s crosswind (tol 2)",
    )
