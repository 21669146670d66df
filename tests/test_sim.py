import csv
import dataclasses
import hashlib
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_consensus import disagreement_loop

from gvfswarm import _fork
from gvfswarm import oscillation as osc
from gvfswarm import sim
from gvfswarm.consensus import WindowAverager, lyapunov_value, neighbor_disagreement, sat
from gvfswarm.scenario import apply_overrides, build_scenario, load_mapping
from gvfswarm.sim import TELEMETRY_FLOAT_FORMAT, run


def single_drone_doc() -> dict:
    return {
        "name": "solo",
        "speed_mps": 16.0,
        "dt_s": 0.02,
        "t_end_s": 5.0,
        "graph": {"n_drones": 1, "edges": []},
        "paths": {"alpha_rad": 0.0, "origin_m": [0.0, 0.0]},
        "oscillation": {"w_gamma_rad_s": 0.6},
        "consensus": {"k_u": 0.06, "r_m": 150.0},
        "initial": {"parameters_m": [0.0]},
    }


def pair_doc() -> dict:
    return {
        "name": "pair",
        "speed_mps": 16.0,
        "dt_s": 0.02,
        "t_end_s": 20.0,
        "graph": {"n_drones": 2, "edges": [[1, 2]]},
        "paths": {"alpha_rad": 0.0, "spacing_m": 175.0},
        "oscillation": {"w_gamma_rad_s": 0.6, "amplitude_cap_m": 20.0},
        "consensus": {"k_u": 0.06, "r_m": 150.0},
        "initial": {"parameters_m": [-10.0, 15.0]},
    }


class TestSingleDrone:
    def test_isolated_drone_cruises_on_its_line(self):
        # no neighbors: zero correction, full speed budget, no wave;
        # starting on the path the closed loop is an exact fixed point
        res = run(build_scenario(single_drone_doc()))
        assert np.all(res.inputs == 0.0)
        assert np.all(res.desired_velocities == 16.0)
        assert np.all(res.amplitudes == 0.0)
        assert np.all(res.commanded_amplitudes == 0.0)
        assert np.all(res.phis == 0.0)
        assert np.all(res.omegas == 0.0)
        assert np.all(res.positions[:, 0, 1] == 0.0)
        assert np.all(res.headings == 0.0)
        expected_x = 16.0 * res.times
        assert np.max(np.abs(res.path_parameters[:, 0] - expected_x)) < 1e-9
        assert res.edge_diffs.shape == (res.scenario.n_ticks + 1, 0)

    def test_row_count_and_time_grid(self):
        res = run(build_scenario(single_drone_doc()))
        n_ticks = res.scenario.n_ticks
        assert n_ticks == 250
        assert res.times.shape == (251,)
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(5.0, abs=1e-12)


class TestEquilibrium:
    def test_agreed_swarm_stays_agreed(self):
        # identical initial parameters on identical lines: every drone
        # sees zero disagreement and the states stay bitwise equal
        doc = {
            "name": "agreed",
            "speed_mps": 8.0,
            "dt_s": 0.02,
            "t_end_s": 5.0,
            "graph": {
                "n_drones": 8,
                "edges": [[1, 2], [2, 3], [3, 4], [3, 5], [4, 6], [5, 7], [6, 8]],
            },
            "paths": {"alpha_rad": 0.0, "spacing_m": 30.0},
            "oscillation": {"w_gamma_rad_s": 0.6, "amplitude_cap_m": 12.0},
            "consensus": {"k_u": 0.16, "r_m": 30.0},
            "initial": {"parameters_m": [3.0] * 8},
        }
        res = run(build_scenario(doc))
        assert np.all(res.edge_diffs == 0.0)
        assert np.all(res.inputs == 0.0)
        assert np.all(res.lyapunov == res.lyapunov[0])
        spread = res.path_parameters.max(axis=1) - res.path_parameters.min(axis=1)
        assert np.all(spread == 0.0)


class TestDeterminism:
    def test_repeat_run_is_bitwise_identical(self, scenario_dir):
        doc = apply_overrides(load_mapping(scenario_dir / "eight_drones.scn"), ["t_end_s=10"])
        sc = build_scenario(doc)
        a = run(sc, compute_digest=True)
        b = run(sc, compute_digest=True)
        assert a.telemetry_digest == b.telemetry_digest
        assert np.array_equal(a.positions, b.positions)


_REFERENCE_STEMS = (
    "p{i}_x_m", "p{i}_y_m", "theta{i}_rad", "phi{i}_m", "gamma{i}_m",
    "x{i}_m", "xbar{i}_m", "u{i}", "xdot_d{i}_mps", "A{i}_m", "A_d{i}_m",
    "omega{i}_rad_s", "branch{i}",
)


def reference_telemetry(res) -> bytes:
    """Telemetry bytes of a finished run, one ``%`` per cell through csv.writer.

    This is the formatter the simulator used before it rendered each
    row with a single format string; it reads the history arrays, which
    hold exactly the values the tick wrote, branch codes as int8.
    """
    n, m = res.scenario.n_drones, res.scenario.graph.n_edges
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    header = ["t_s"]
    for i in range(1, n + 1):
        header.extend(stem.format(i=i) for stem in _REFERENCE_STEMS)
    header.extend(f"z{k}_m" for k in range(1, m + 1))
    header.append("V")
    writer.writerow(header)
    for k, t in enumerate(res.times):
        row = [TELEMETRY_FLOAT_FORMAT % t]
        for i in range(n):
            row.extend(
                TELEMETRY_FLOAT_FORMAT % v
                for v in (
                    res.positions[k, i, 0], res.positions[k, i, 1], res.headings[k, i],
                    res.phis[k, i], res.gammas[k, i], res.path_parameters[k, i],
                    res.averaged_parameters[k, i], res.inputs[k, i],
                    res.desired_velocities[k, i], res.amplitudes[k, i],
                    res.commanded_amplitudes[k, i], res.omegas[k, i], res.branches[k, i],
                )
            )
        row.extend(TELEMETRY_FLOAT_FORMAT % v for v in res.edge_diffs[k])
        row.append(TELEMETRY_FLOAT_FORMAT % res.lyapunov[k])
        writer.writerow(row)
    return buf.getvalue().encode()


def first_sustained_below(series: np.ndarray, threshold: float) -> int | None:
    """Index of the first value below threshold that stays below to the end."""
    late = np.flatnonzero(~(series < threshold))
    if late.size == 0:
        return 0
    return None if late[-1] == len(series) - 1 else int(late[-1]) + 1


def assert_summary_matches_history(res) -> int | None:
    """The summary equals whole-array formulas over the history, bit for bit.

    Returns the tick of convergence, None if the run never converged.
    """
    sc, s = res.scenario, res.summary
    if sc.graph.n_edges:
        max_edge = np.abs(res.edge_diffs).max(axis=1)
    else:
        max_edge = np.zeros(len(res.times))
    conv = first_sustained_below(max_edge, sc.convergence_threshold)
    vel = sc.speed * np.stack([np.cos(res.headings), np.sin(res.headings)], axis=-1) + sc.wind
    ground_speed = np.linalg.norm(vel, axis=-1)
    spread = res.path_parameters.max(axis=1) - res.path_parameters.min(axis=1)
    assert s["time_to_convergence_s"] == (None if conv is None else float(res.times[conv]))
    assert s["final_max_edge_diff_m"] == float(max_edge[-1])
    assert s["final_max_pairwise_spread_m"] == float(spread[-1])
    assert s["max_abs_heading_rate_rad_s"] == float(np.abs(res.omegas).max())
    assert s["ground_speed_min_mps"] == float(ground_speed.min())
    assert s["ground_speed_max_mps"] == float(ground_speed.max())
    assert s["lyapunov_final"] == float(res.lyapunov[-1])
    return conv


def per_cell_case_doc(case: str, scenario_dir) -> dict:
    if case == "single-drone":
        return single_drone_doc()
    # 40 m lateral offsets put drones on the exterior branch early on
    return apply_overrides(
        load_mapping(scenario_dir / "eight_drones.scn"),
        [
            "t_end_s=40", "wind_mps=[1.5,-2.0]",
            "consensus.comm_delay_ticks=7", "initial.offsets_m=40.0",
        ],
    )


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory, scenario_dir):
    out = tmp_path_factory.mktemp("telemetry") / "pair.csv"
    doc = apply_overrides(load_mapping(scenario_dir / "two_drones.scn"), ["t_end_s=10"])
    res = run(build_scenario(doc), telemetry_path=out, compute_digest=True)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    return res, out, rows


class TestTelemetry:
    def test_header_layout(self, telemetry_run):
        res, _, rows = telemetry_run
        header = rows[0]
        n, m = res.scenario.n_drones, res.scenario.graph.n_edges
        assert len(header) == 1 + 13 * n + m + 1
        assert header[0] == "t_s"
        assert header[-1] == "V"
        assert "p1_x_m" in header and "branch2" in header and "z1_m" in header
        assert len(rows) == res.scenario.n_ticks + 2

    def test_file_bytes_match_digest(self, telemetry_run):
        res, out, _ = telemetry_run
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == res.telemetry_digest
        assert res.summary["telemetry_sha256"] == res.telemetry_digest

    def test_float_format_round_trips(self, telemetry_run):
        # %.9g is the canonical cell encoding: re-encoding the parsed
        # value must reproduce the cell exactly
        _, _, rows = telemetry_run
        for row in rows[1::97]:
            for cell in row:
                assert TELEMETRY_FLOAT_FORMAT % float(cell) == cell

    def test_cells_match_history(self, telemetry_run):
        res, _, rows = telemetry_run
        header = rows[0]
        cols = {name: j for j, name in enumerate(header)}
        for k in (0, 1, 57, 250, res.scenario.n_ticks):
            row = rows[k + 1]
            assert float(row[cols["t_s"]]) == pytest.approx(res.times[k], rel=1e-8)
            for i in range(res.scenario.n_drones):
                d = i + 1
                assert float(row[cols[f"p{d}_x_m"]]) == pytest.approx(
                    res.positions[k, i, 0], rel=1e-8, abs=1e-8
                )
                assert float(row[cols[f"phi{d}_m"]]) == pytest.approx(
                    res.phis[k, i], rel=1e-8, abs=1e-8
                )
                assert float(row[cols[f"A{d}_m"]]) == pytest.approx(
                    res.amplitudes[k, i], rel=1e-8, abs=1e-8
                )
                assert row[cols[f"branch{d}"]] in ("0", "1")
            assert float(row[cols["V"]]) == pytest.approx(res.lyapunov[k], rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("case", ["windy-delayed-eight", "single-drone"])
    def test_file_bytes_match_per_cell_formatter(self, case, scenario_dir, tmp_path):
        out = tmp_path / "telemetry.csv"
        res = run(build_scenario(per_cell_case_doc(case, scenario_dir)), telemetry_path=out)
        if case == "single-drone":
            assert res.edge_diffs.shape[1] == 0  # empty z block
        else:
            assert res.scenario.comm_delay_ticks == 7
            assert res.branches.any() and not res.branches.all()
        data = out.read_bytes()
        assert data == reference_telemetry(res)
        assert hashlib.sha256(data).hexdigest() == res.telemetry_digest

    def test_no_digest_without_request(self):
        res = run(build_scenario(single_drone_doc()))
        assert res.telemetry_digest is None
        assert res.summary["telemetry_sha256"] is None


@pytest.fixture
def helper_pids(monkeypatch):
    """The pid of every telemetry helper that run starts, in order."""
    pids = []
    start = sim._Helper

    def recording_start(*args):
        helper = start(*args)
        pids.append(helper.pid)
        return helper

    monkeypatch.setattr(sim, "_Helper", recording_start)
    return pids


def assert_reaped(pid: int) -> None:
    # ChildProcessError: no such child, neither running nor a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def helper_affinity(monkeypatch):
    """(pid, allowed CPUs) of every telemetry helper that run starts, read as it starts."""
    seen = []
    start = sim._Helper

    def recording_start(*args):
        helper = start(*args)
        seen.append((helper.pid, os.sched_getaffinity(helper.pid)))
        return helper

    monkeypatch.setattr(sim, "_Helper", recording_start)
    return seen


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two or more allowed CPUs",
)


class TestTelemetryHelper:
    """A forked helper formats, hashes and writes the rows; the bytes do not depend on it."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_tick_cpu_is_an_allowed_cpu(self):
        assert _fork.tick_cpu() in os.sched_getaffinity(0)

    @needs_two_cpus
    @pytest.mark.parametrize("pick", [min, max], ids=["lowest", "highest"])
    def test_helper_runs_off_the_tick_cpu(self, pick, helper_affinity, monkeypatch):
        allowed = os.sched_getaffinity(0)
        tick_cpu = pick(allowed)
        monkeypatch.setattr(_fork, "tick_cpu", lambda: tick_cpu)
        res = run(build_scenario(pair_doc()), compute_digest=True)
        [(pid, helper_cpus)] = helper_affinity
        assert helper_cpus == allowed - {tick_cpu}
        assert os.sched_getaffinity(0) == allowed  # this process is never moved
        assert_reaped(pid)
        assert res.telemetry_digest == hashlib.sha256(reference_telemetry(res)).hexdigest()

    @pytest.mark.parametrize(
        "case", ["one-cpu", "setaffinity-fails", "no-proc", "no-setaffinity"]
    )
    def test_unplaced_helper_writes_the_same_bytes(self, case, helper_pids, monkeypatch, tmp_path):
        sc = build_scenario(pair_doc())
        placed = run(sc, compute_digest=True)
        set_calls = []
        set_affinity = getattr(os, "sched_setaffinity", None)

        def recording_setaffinity(pid, cpus):
            set_calls.append(pid)
            if case == "setaffinity-fails":
                raise OSError("affinity refused")
            set_affinity(pid, cpus)

        def no_proc():
            raise FileNotFoundError("/proc/self/stat")

        if case == "no-setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity, raising=False)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        if case == "no-proc":
            monkeypatch.setattr(_fork, "tick_cpu", no_proc)
        out = tmp_path / "telemetry.csv"
        res = run(sc, telemetry_path=out)
        data = out.read_bytes()
        assert data == reference_telemetry(res)
        assert res.telemetry_digest == placed.telemetry_digest == hashlib.sha256(data).hexdigest()
        assert len(helper_pids) == 2
        for pid in helper_pids:
            assert_reaped(pid)
        if case == "setaffinity-fails" and len(os.sched_getaffinity(0)) > 1:
            assert set_calls == [helper_pids[1]]
        elif case != "no-setaffinity":
            assert set_calls == []

    @pytest.mark.parametrize("case", ["windy-delayed-eight", "single-drone"])
    def test_in_process_fallback_writes_the_same_bytes(
        self, case, helper_pids, monkeypatch, scenario_dir, tmp_path
    ):
        sc = build_scenario(per_cell_case_doc(case, scenario_dir))
        helped = run(sc, telemetry_path=tmp_path / "helper.csv")
        assert len(helper_pids) == 1
        refused = []

        def refuse(*args):
            refused.append(args)
            raise OSError("no fork here")

        monkeypatch.setattr(sim, "_Helper", refuse)
        res = run(sc, telemetry_path=tmp_path / "in-process.csv")
        assert len(refused) == 1
        data = (tmp_path / "in-process.csv").read_bytes()
        assert data == (tmp_path / "helper.csv").read_bytes()
        assert data == reference_telemetry(res)
        assert res.telemetry_digest == helped.telemetry_digest == hashlib.sha256(data).hexdigest()

    def test_helper_is_reaped_after_a_run(self, helper_pids):
        res = run(build_scenario(pair_doc()), compute_digest=True)
        assert res.telemetry_digest is not None
        assert len(helper_pids) == 1
        assert_reaped(helper_pids[0])

    def test_helper_is_reaped_after_an_error_in_the_run(self, helper_pids, monkeypatch, tmp_path):
        # the third observer pass raises: two blocks went to the helper,
        # which writes them and exits
        sc = build_scenario(pair_doc())
        full = tmp_path / "full.csv"
        run(sc, telemetry_path=full)
        calls = []
        lyapunov = sim.lyapunov_value

        def failing_lyapunov(*args):
            calls.append(None)
            if len(calls) == 3:
                raise ValueError("observer failed")
            return lyapunov(*args)

        monkeypatch.setattr(sim, "lyapunov_value", failing_lyapunov)
        out = tmp_path / "partial.csv"
        with pytest.raises(ValueError, match="observer failed"):
            run(sc, telemetry_path=out)
        assert len(helper_pids) == 2
        for pid in helper_pids:
            assert_reaped(pid)
        rows = sim._SUMMARY_BLOCK // (2 + 13 * sc.n_drones + sc.graph.n_edges)
        lines = full.read_bytes().splitlines(keepends=True)
        assert out.read_bytes() == b"".join(lines[:1 + 2 * rows])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_helper_write_error_is_reported(self, helper_pids):
        # every write to /dev/full fails with ENOSPC, in the helper here
        with pytest.raises(sim.TelemetryHelperError, match="OSError: .*No space left"):
            run(build_scenario(pair_doc()), telemetry_path="/dev/full")
        assert len(helper_pids) == 1
        assert_reaped(helper_pids[0])

    def test_a_helper_holds_no_other_helpers_pipe(self, fresh_python):
        proc = fresh_python(_TWO_HELPERS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["stopped 0 0", "no child left"]

    def test_dead_helper_raises_instead_of_hanging(self, killed_helper_run, scenario_dir):
        proc = killed_helper_run(
            f"""
sc = build_scenario(apply_overrides(load_mapping({str(scenario_dir / "two_drones.scn")!r}), ["t_end_s=20"]))
try:
    sim.run(sc, compute_digest=True)
except RuntimeError as exc:
    print(type(exc).__name__, exc)
"""
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == (
            "TelemetryHelperError telemetry helper was killed by signal 9 before the run ended"
        )
        assert lines[1:] == ["no child left"]


# Python run in a fresh interpreter: the first helper sees EOF, and
# stops, only if the second, forked while it runs, closed its inherited
# copy of the first one's request pipe
_TWO_HELPERS = """
import os
from gvfswarm._fork import Child


def drain(requests, replies):
    while os.read(requests, 4096):
        pass
    return 0


first = Child(drain)
second = Child(drain)
first.stop()
second.stop()
print("stopped", first.status, second.status)
"""


class TestTickSums:
    @pytest.mark.parametrize("alpha", [4.0, 2.5], ids=["tangent-negative", "normal-negative"])
    def test_two_negative_zero_products_sum_to_positive_zero(self, alpha):
        # the drone starts on its path origin, so pos - origin is (+0, +0);
        # at alpha = 4.0 both tangent components are negative, at 2.5 both
        # normal components, so x or phi sums two -0.0 products there. The
        # component-axis reduction gives +0.0, as the telemetry digests
        # expect; a[0]*b[0] + a[1]*b[1] would give -0.0
        doc = single_drone_doc()
        doc["paths"] = {"alpha_rad": alpha, "origin_m": [3.0, -7.0]}
        doc["t_end_s"] = 0.1
        sc = build_scenario(doc)
        vector = sc.tangents[:, 0] if alpha == 4.0 else sc.normals[:, 0]
        assert np.all(vector < 0.0)
        res = run(sc)
        assert np.array_equal(res.positions[0], [[3.0, -7.0]])
        assert res.path_parameters[0].tobytes() == np.zeros(1).tobytes()
        assert res.phis[0].tobytes() == np.zeros(1).tobytes()


class TestKernelCalls:
    """The tick calls each traced kernel where a tracer looks it up, as often as ever.

    A tracer (and the benchmark's) replaces these names: the kernels in
    ``gvfswarm.sim``'s globals, ``relaxation_step`` in
    ``gvfswarm.oscillation`` and the averager's two methods on its class.
    A kernel inlined into the tick, or called through another name,
    would change a count here.
    """

    @pytest.mark.parametrize(
        "delay,disagreements", [(0, 201), (2, 201)], ids=["delay-0", "delay-2"],
    )
    def test_call_counts(self, delay, disagreements, monkeypatch):
        # 200 steps, 201 ticks: two observer blocks of 141 rows with telemetry on
        doc = pair_doc()
        doc["t_end_s"] = 4.0
        doc["consensus"]["comm_delay_ticks"] = delay
        targets = [(sim, name) for name in (
            "field_core", "heading_rate_core", "unicycle_step", "neighbor_disagreement",
            "lyapunov_value")]
        targets += [(osc, "relaxation_step"), (WindowAverager, "push"),
                    (WindowAverager, "average")]
        calls = {}
        for owner, name in targets:
            calls[name] = 0

            def counted(*args, _kernel=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        res = run(build_scenario(doc), compute_digest=True)
        assert res.telemetry_digest is not None
        assert calls == {
            "field_core": 201, "heading_rate_core": 201, "unicycle_step": 200,
            "neighbor_disagreement": disagreements, "lyapunov_value": 2,
            "relaxation_step": 200, "push": 201, "average": 201,
        }


class TestControlVelocity:
    def test_control_sees_v_cos_sin_of_each_heading(self, monkeypatch, westbound_eight):
        # advance hands its end-of-step velocity to the next tick's control;
        # it must be v (cos, sin) of the tick's heading to the bit, also
        # on the ticks where a heading wrapped across +-pi
        sc = westbound_eight
        seen = []
        heading_rate_core = sim.heading_rate_core

        def recording(f, f_dot, velocity, *args):
            seen.append(np.array(velocity))
            return heading_rate_core(f, f_dot, velocity, *args)

        monkeypatch.setattr(sim, "heading_rate_core", recording)
        res = run(sc)
        theta = res.headings
        want = sc.speed * np.array([np.cos(theta), np.sin(theta)])  # (2, ticks, N)
        got = np.stack(seen, axis=1)
        same = (got.view(np.int64) == want.view(np.int64)).all(axis=(0, 2))
        wrapped = np.zeros(len(theta), dtype=bool)
        wrapped[1:] = (np.abs(np.diff(theta, axis=0)) > math.pi).any(axis=1)
        assert 0 < wrapped.sum() < len(theta)
        assert same[wrapped].all() and same[~wrapped].all(), np.flatnonzero(~same)


class TestScenarioArrays:
    def test_runs_leave_the_path_arrays_as_built(self):
        # run reads the scenario's origins, tangents and normals in place
        sc = build_scenario({**pair_doc(), "t_end_s": 2.0, "wind_mps": [0.5, -1.0]})
        built = [a.copy() for a in (sc.origins, sc.tangents, sc.normals)]
        first, second = run(sc, compute_digest=True), run(sc, compute_digest=True)
        assert first.telemetry_digest == second.telemetry_digest
        for a, b in zip(built, (sc.origins, sc.tangents, sc.normals)):
            assert a.tobytes() == b.tobytes()


class TestSummary:
    def test_fields(self, scenario_dir):
        doc = apply_overrides(load_mapping(scenario_dir / "two_drones.scn"), ["t_end_s=150"])
        res = run(build_scenario(doc), overrides=("t_end_s=150",))
        s = res.summary
        assert s["name"] == res.scenario.name
        assert s["overrides"] == ["t_end_s=150"]
        assert s["n_drones"] == 2 and s["n_edges"] == 1
        assert s["n_ticks"] == 7500
        # windless flight holds the ground speed exactly
        assert s["ground_speed_min_mps"] == pytest.approx(16.0, abs=1e-9)
        assert s["ground_speed_max_mps"] == pytest.approx(16.0, abs=1e-9)
        # the pair agrees well inside 150 s
        assert s["time_to_convergence_s"] is not None
        assert s["final_max_edge_diff_m"] < s["convergence_threshold_m"]
        assert isinstance(s["final_amplitudes_m"], list)
        assert s["lyapunov_final"] >= 0.0

    @pytest.mark.parametrize("block", [None, 7], ids=["default", "three-rows"])
    def test_ground_speed_extremes_match_whole_array_formula(self, monkeypatch, block):
        # the observers run once per block of ticks; without telemetry a
        # block of 7 cells holds 3 ticks of the pair, so 1001 ticks end ragged
        if block is not None:
            monkeypatch.setattr(sim, "_SUMMARY_BLOCK", block)
        doc = pair_doc()
        doc["wind_mps"] = [1.5, -2.5]
        res = run(build_scenario(doc))
        sc = res.scenario
        vel = sc.speed * np.stack([np.cos(res.headings), np.sin(res.headings)], axis=-1) + sc.wind
        ground_speed = np.linalg.norm(vel, axis=-1)
        assert ground_speed.max() - ground_speed.min() > 1.0  # the wind shows
        assert res.summary["ground_speed_min_mps"] == float(ground_speed.min())
        assert res.summary["ground_speed_max_mps"] == float(ground_speed.max())

    def test_abs_extremes_match_whole_array_formula(self):
        # max |omega| and the per-tick max |z| come from the extremes of
        # the history, not from np.abs copies of it; the windy pair
        # converges at about 67 s
        doc = pair_doc()
        doc["wind_mps"] = [1.5, -2.5]
        doc["t_end_s"] = 100.0
        res = run(build_scenario(doc))
        s = res.summary
        max_edge = np.abs(res.edge_diffs).max(axis=1)
        assert s["max_abs_heading_rate_rad_s"] == float(np.abs(res.omegas).max())
        assert s["final_max_edge_diff_m"] == float(max_edge[-1])
        conv = first_sustained_below(max_edge, res.scenario.convergence_threshold)
        assert conv is not None
        assert s["time_to_convergence_s"] == float(res.times[conv])

    def test_branch_codes(self, scenario_dir):
        doc = apply_overrides(load_mapping(scenario_dir / "two_drones.scn"), ["t_end_s=10"])
        res = run(build_scenario(doc))
        assert set(np.unique(res.branches)) <= {0, 1}


def observer_case_doc(case: str, scenario_dir) -> dict:
    if case == "windy-delayed-eight":
        # exterior ticks, a delay and wind; still apart at the last tick
        return apply_overrides(
            load_mapping(scenario_dir / "eight_drones.scn"),
            [
                "t_end_s=40.02", "wind_mps=[1.5,-2.0]",
                "consensus.comm_delay_ticks=7", "initial.offsets_m=40.0",
            ],
        )
    if case == "single-drone":
        return single_drone_doc()
    doc = pair_doc()
    if case == "agreed-pair":
        doc["initial"]["parameters_m"] = [4.0, 4.0]
        doc["t_end_s"] = 5.0
    else:  # windy-pair: converges at about 67 s, mid-run
        doc["wind_mps"] = [1.5, -2.5]
        doc["t_end_s"] = 99.98
    return doc


class TestObserverBlocks:
    """The per-block observer pass equals the per-tick formulas, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["one-row", "three-rows", "default"])
    @pytest.mark.parametrize(
        "case,converged_s",
        [
            ("windy-delayed-eight", None),
            ("single-drone", 0.0),
            ("agreed-pair", 0.0),
            ("windy-pair", "mid-run"),
        ],
    )
    def test_block_outputs_match_per_tick_formulas(
        self, case, converged_s, rows, monkeypatch, scenario_dir, tmp_path
    ):
        sc = build_scenario(observer_case_doc(case, scenario_dir))
        n, m = sc.n_drones, sc.graph.n_edges
        if rows is not None:
            # a block holds _SUMMARY_BLOCK // cells rows; telemetry is on
            monkeypatch.setattr(sim, "_SUMMARY_BLOCK", rows * (2 + 13 * n + m))
            if rows > 1:
                assert (sc.n_ticks + 1) % rows, "the last block should be ragged"
        interior = []
        field_core = sim.field_core

        def recording_field_core(*args, **kwargs):
            core = field_core(*args, **kwargs)
            interior.append(core[2].copy())  # (f, f_dot, interior)
            return core

        monkeypatch.setattr(sim, "field_core", recording_field_core)
        out = tmp_path / "telemetry.csv"
        res = run(sc, telemetry_path=out)

        assert out.read_bytes() == reference_telemetry(res)
        table = sc.graph.neighbor_table
        tails = np.array([e[0] for e in sc.graph.edges], dtype=np.int64)
        heads = np.array([e[1] for e in sc.graph.edges], dtype=np.int64)
        for k, xbar in enumerate(res.averaged_parameters):
            v = lyapunov_value(neighbor_disagreement(xbar, table), sc.saturation)
            assert res.lyapunov[k] == v, k
            assert np.array_equal(res.edge_diffs[k], xbar[tails] - xbar[heads]), k
            assert np.array_equal(res.branches[k], ~interior[k]), k
        assert res.branches.dtype == np.int8

        conv = assert_summary_matches_history(res)
        if converged_s == "mid-run":
            assert 0 < conv < sc.n_ticks
        else:
            assert (None if conv is None else float(res.times[conv])) == converged_s


class TestPublishDelay:
    def test_delay_changes_the_run(self):
        base = build_scenario(pair_doc())
        delayed = build_scenario(
            apply_overrides(pair_doc(), ["consensus.comm_delay_ticks=5"])
        )
        a = run(base)
        b = run(delayed)
        assert b.scenario.comm_delay_ticks == 5
        assert not np.array_equal(a.path_parameters, b.path_parameters)

    @pytest.mark.parametrize("d", [1, 7])
    def test_inputs_follow_the_delayed_lead(self, scenario_dir, d):
        # the lead at tick k is the neighbor disagreement of the averages
        # of tick max(0, k - d), own and neighbors' alike; at d = 1 every
        # tick from k = 1 on leads with the tick before's
        doc = apply_overrides(
            load_mapping(scenario_dir / "eight_drones.scn"),
            ["t_end_s=20", f"consensus.comm_delay_ticks={d}", "wind_mps=[1.0, -2.0]"],
        )
        sc = build_scenario(doc)
        res = run(sc)
        xbar = res.averaged_parameters
        seen = xbar[np.maximum(0, np.arange(len(xbar)) - d)]
        lead = -disagreement_loop(sc.graph, seen)
        assert np.any(lead > 0.0) and np.any(seen != xbar)
        assert np.array_equal(res.inputs, sat(lead, sc.saturation))

    def test_zero_delay_inputs_are_the_saturated_disagreement(self, windy_eight):
        sc, res = windy_eight
        assert sc.comm_delay_ticks == 0
        # node-first: the ticks ride behind the node axis
        lead = -neighbor_disagreement(res.averaged_parameters.T, sc.graph.neighbor_table).T
        assert np.any(lead > 0.0)
        assert np.array_equal(res.inputs, sat(lead, sc.saturation))

    def test_delay_beyond_the_run_is_the_whole_run(self):
        # a delay past the last tick always shows the first average,
        # however large: 10^20 is beyond a C ssize_t
        base = build_scenario(apply_overrides(pair_doc(), ["t_end_s=1"]))
        a, b = (
            run(build_scenario(
                apply_overrides(pair_doc(), ["t_end_s=1", f"consensus.comm_delay_ticks={d}"])
            ), compute_digest=True)
            for d in (base.n_ticks, 10**20)
        )
        assert b.scenario.comm_delay_ticks == 10**20
        # every tick leads with the first tick's disagreement
        xbar = b.averaged_parameters
        lead = -disagreement_loop(base.graph, np.broadcast_to(xbar[0], xbar.shape))
        assert np.array_equal(b.inputs, sat(lead, base.saturation))
        assert a.telemetry_digest == b.telemetry_digest
        for f in dataclasses.fields(a):
            if isinstance(getattr(a, f.name), np.ndarray):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
        assert {**a.summary, "overrides": None} == {**b.summary, "overrides": None}

    def test_delay_is_harmless_at_equilibrium(self):
        doc = pair_doc()
        doc["initial"]["parameters_m"] = [4.0, 4.0]
        doc["consensus"]["comm_delay_ticks"] = 10
        res = run(build_scenario(doc))
        assert np.all(res.edge_diffs == 0.0)


class TestAmplitudeSchedule:
    def test_commands_are_the_public_schedule(self, scenario_dir):
        sc = build_scenario(per_cell_case_doc("windy-delayed-eight", scenario_dir))
        res = run(sc)
        cfg = sc.oscillation
        assert np.any(res.commanded_amplitudes > 0.0)
        want, raw = osc.amplitude_schedule(
            res.desired_velocities,
            osc.schedule_operands(sc.speed, cfg.w_gamma, cfg.k_a, cfg.amplitude_cap),
        )
        # the 12 m cap of the bundled scenario binds early on, where the
        # uncapped schedule asks for v/w = 8/0.6 m
        assert res.commanded_amplitudes.max() == cfg.amplitude_cap == 12.0
        assert raw.max() == pytest.approx(40.0 / 3.0, rel=1e-9)
        assert want.shape == res.commanded_amplitudes.shape
        assert want.tobytes() == res.commanded_amplitudes.tobytes()


class TestFixedAmplitude:
    def test_command_bypasses_consensus_schedule(self):
        doc = pair_doc()
        doc["oscillation"]["fixed_amplitude_m"] = 15.0
        sc = build_scenario(doc)
        res = run(sc)
        assert np.all(res.commanded_amplitudes == 15.0)
        # exact first-order filter toward the fixed command
        tau = sc.oscillation.tau_a
        expected = 15.0 * (1.0 - math.exp(-res.times[-1] / tau))
        assert res.amplitudes[-1, 0] == pytest.approx(expected, rel=1e-9)
        assert np.all(np.diff(res.amplitudes[:, 0]) > 0.0)

    def test_zero_fixed_amplitude_means_pure_line_following(self):
        doc = pair_doc()
        doc["oscillation"]["fixed_amplitude_m"] = 0.0
        res = run(build_scenario(doc))
        assert np.all(res.amplitudes == 0.0)
        assert np.all(res.gammas == 0.0)


class TestWave:
    def test_gammas_are_the_public_wave(self, windy_eight):
        sc, res = windy_eight
        w = sc.oscillation.w_gamma
        assert np.any(res.gammas != 0.0)
        for k, t in enumerate(res.times):
            assert np.array_equal(res.gammas[k], osc.gamma(t, res.amplitudes[k], w)), k


class TestTimings:
    def test_stage_timers_stay_out_of_the_outputs(self):
        sc = build_scenario(pair_doc())
        a = run(sc, compute_digest=True)
        b = run(sc, compute_digest=True)
        off = run(sc)
        assert list(a.timings) == [
            "publish", "control", "telemetry", "advance", "summary", "telemetry_send",
        ]
        for timings in (a.timings, b.timings, off.timings):
            assert all(type(v) is int and v >= 0 for v in timings.values())
        # the helper start, sends and final wait are part of the telemetry stage
        assert 0 < a.timings["telemetry_send"] <= a.timings["telemetry"]
        assert list(off.timings) == list(a.timings) and off.timings["telemetry_send"] == 0
        assert a.telemetry_digest == b.telemetry_digest
        assert a.summary == b.summary
        assert not any("timing" in key for key in a.summary)


PER_DRONE_FIELDS = (
    "positions", "headings", "path_parameters", "averaged_parameters", "phis", "gammas",
    "amplitudes", "commanded_amplitudes", "inputs", "desired_velocities", "omegas", "branches",
)


class TestHistoryViews:
    @pytest.mark.parametrize("n", [1, 8])
    def test_fields_keep_their_shape_and_share_no_memory(self, n, scenario_dir):
        doc = single_drone_doc() if n == 1 else apply_overrides(
            load_mapping(scenario_dir / "eight_drones.scn"), ["t_end_s=2"])
        res = run(build_scenario(doc))
        ticks = res.scenario.n_ticks + 1
        for name in PER_DRONE_FIELDS:
            value = getattr(res, name)
            assert value.shape == ((ticks, n, 2) if name == "positions" else (ticks, n)), name
            assert value.dtype == (np.int8 if name == "branches" else np.float64), name
            assert value.flags.writeable, name
        arrays = {
            f.name: getattr(res, f.name) for f in dataclasses.fields(res)
            if isinstance(getattr(res, f.name), np.ndarray)
        }
        assert set(PER_DRONE_FIELDS) < set(arrays)
        for a in PER_DRONE_FIELDS:
            for b, other in arrays.items():
                if a != b:
                    assert not np.shares_memory(getattr(res, a), other), (a, b)


class TestWideGraph:
    def test_star_of_4096_drones_flies(self, scenario_dir):
        # a star is a valid spanning tree with one hub of degree N - 1;
        # its neighbour sums cost O(N + M), so a few ticks fly at once
        n = 4096
        doc = load_mapping(scenario_dir / "eight_drones.scn")
        doc["t_end_s"] = 0.1
        doc["graph"] = {"n_drones": n, "edges": [[1, i] for i in range(2, n + 1)]}
        doc["consensus"]["comm_delay_ticks"] = 2
        res = run(build_scenario(doc), compute_digest=True)
        assert res.path_parameters.shape == (6, n)
        assert np.isfinite(res.path_parameters).all() and np.isfinite(res.inputs).all()
        for key, value in res.summary.items():
            numbers = [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, float)]
            assert all(math.isfinite(v) for v in numbers), key
        assert len(res.summary["final_amplitudes_m"]) == n
        assert np.isfinite(res.lyapunov).all()


SPEED, W_GAMMA = 16.0, 0.6


@st.composite
def flown_docs(draw) -> dict:
    """A valid scenario of 1-6 drones on a random recursive tree, up to 4 s."""
    n = draw(st.integers(1, 6))
    per_drone = st.lists(st.floats(-60.0, 60.0), min_size=n, max_size=n)
    wind = st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2)
    return {
        "name": "drawn",
        "speed_mps": SPEED,
        "dt_s": 0.02,
        "t_end_s": draw(st.floats(0.02, 4.0)),
        "wind_mps": draw(st.just([0.0, 0.0]) | wind),
        "graph": {"n_drones": n, "edges": [[draw(st.integers(1, i - 1)), i] for i in range(2, n + 1)]},
        "paths": {
            "alpha_rad": draw(st.floats(allow_nan=False, allow_infinity=False)),
            "spacing_m": draw(st.floats(-200.0, 200.0)),
        },
        "oscillation": {
            "w_gamma_rad_s": W_GAMMA,
            "fixed_amplitude_m": draw(st.none() | st.floats(0.0, SPEED / W_GAMMA)),
        },
        "consensus": {"k_u": 0.06, "r_m": 150.0, "comm_delay_ticks": draw(st.integers(0, 10))},
        "initial": {"parameters_m": draw(per_drone), "offsets_m": draw(per_drone)},
    }


class TestClosedLoopProperty:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=flown_docs())
    def test_any_valid_scenario_flies(self, doc):
        sc = build_scenario(doc)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "telemetry.csv")
            a = run(sc, telemetry_path=out, compute_digest=True)
            with open(out, "rb") as fh:
                written = fh.read()
        b = run(sc, compute_digest=True)
        # a header line and one row per tick, the file hashing to the digest
        assert written.count(b"\n") == sc.n_ticks + 2
        assert hashlib.sha256(written).hexdigest() == a.telemetry_digest
        assert_summary_matches_history(a)
        arrays = [
            f.name for f in dataclasses.fields(a) if isinstance(getattr(a, f.name), np.ndarray)
        ]
        for name in arrays:
            value, again = getattr(a, name), getattr(b, name)
            assert np.isfinite(value).all(), name
            assert (value.dtype, value.shape) == (again.dtype, again.shape), name
            assert value.tobytes() == again.tobytes(), name
        assert a.telemetry_digest == b.telemetry_digest and a.telemetry_digest is not None
        assert a.summary == b.summary
        sat_p = sc.saturation
        assert np.all((sat_p.tau_l <= a.inputs) & (a.inputs <= sat_p.tau_h))
        assert np.all(a.desired_velocities <= sc.speed)
        if not sc.wind.any():
            s = a.summary
            assert abs(s["ground_speed_min_mps"] - sc.speed) <= 1e-9
            assert abs(s["ground_speed_max_mps"] - sc.speed) <= 1e-9
