"""Tests of the benchmark itself: seeded inputs, tracer, pacer, transparency.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import inputs
import jobs
import pacer
import spans
import gvfswarm.consensus
import gvfswarm.sim
from gvfswarm.graph import Graph
from gvfswarm.scenario import validate_mapping

HERE = Path(__file__).resolve().parent

# telemetry SHA-256 of the bundled scenarios at their own settings
BUNDLED_DIGESTS = {
    "eight_drones.scn": "da252a676bb89e61a3f02e2545e02677f5c8d5158197b1465ab479d82cc2add5",
    "two_drones.scn": "760a997e38b31ea60875cc01fae020eb6bd2d6b30b50f6f2435b3bdafe313328",
}


@pytest.mark.parametrize("workload", inputs.SIM_WORKLOADS)
def test_same_seed_gives_identical_scenarios(workload):
    first = [inputs.scenario_mapping(workload, 7, j) for j in range(3)]
    again = [inputs.scenario_mapping(workload, 7, j) for j in range(3)]
    other = inputs.scenario_mapping(workload, 8, 0)
    assert first == again
    assert first[0]["seed"] != first[1]["seed"]
    assert other["seed"] != first[0]["seed"]
    assert all(validate_mapping(doc) == [] for doc in first + [other])


def test_swarm_tree_is_a_wide_spanning_tree():
    doc = inputs.scenario_mapping("swarm-512", 3, 0)
    edges = doc["graph"]["edges"]
    assert edges == inputs.scenario_mapping("swarm-512", 3, 1)["graph"]["edges"]
    assert edges != inputs.scenario_mapping("swarm-512", 4, 0)["graph"]["edges"]
    graph = Graph.from_one_based(inputs.SWARM_N, edges)
    assert graph.check_spanning_tree().is_tree
    degree = np.bincount(np.array(edges).ravel(), minlength=inputs.SWARM_N + 1)
    assert degree.max() >= 6


def test_same_seed_gives_identical_consensus_starts():
    x0 = inputs.consensus_starts(5, 0)
    assert x0.shape == (inputs.CONSENSUS_STARTS, 8)
    assert np.array_equal(x0, inputs.consensus_starts(5, 0))
    assert not np.array_equal(x0, inputs.consensus_starts(5, 1))
    assert x0.min() >= -100.0 and x0.max() <= 100.0
    assert inputs.consensus_graph().check_spanning_tree().is_tree


def test_self_times_cover_the_root_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: sum(range(1000)), "leaf")
    outer = tracer.wrap(lambda: [leaf() for _ in range(3)], "outer")
    with tracer.span("root"):
        outer()
        leaf()
    tab = tracer.table()
    own = spans.self_times(tab)
    root = tab[:, 4] == -1
    assert root.sum() == 1
    assert own.sum() == tab[root, 3][0] - tab[root, 2][0]
    assert (own >= 0).all()
    stats = spans.by_name(tracer)
    assert stats["leaf"]["calls"] == 4 and stats["outer"]["calls"] == 1


def test_patched_restores_originals_even_on_error():
    tracer = spans.Tracer()
    original = gvfswarm.sim.field_core
    with pytest.raises(RuntimeError):
        with tracer.patched(jobs.TRACE_TARGETS):
            assert gvfswarm.sim.field_core is not original
            raise RuntimeError
    assert gvfswarm.sim.field_core is original
    assert all(vars(owner)[attr].__module__.startswith("gvfswarm")
               for owner, attr, _ in jobs.TRACE_TARGETS)


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_digests_are_the_same_untraced_and_traced(name, tmp_path):
    path = inputs.ROOT / "scenarios" / name
    plain = jobs.run_scenario_file(path, tmp_path / "plain.csv")
    pace = pacer.Pacer()
    with pace.hooked(gvfswarm.consensus.WindowAverager, "push"):
        paced = jobs.run_scenario_file(path, tmp_path / "paced.csv")
    tracer = spans.Tracer()
    with tracer.patched(jobs.TRACE_TARGETS):
        traced = jobs.run_scenario_file(path, tmp_path / "traced.csv", tracer)
    assert pace.probes > 0
    for run in (plain, paced, traced):
        assert run.result.telemetry_digest == BUNDLED_DIGESTS[name]
        assert jobs.result_sha256(run.result) == jobs.result_sha256(plain.result)
    stats = spans.by_name(tracer)
    assert stats["gvf.field_core"]["calls"] == plain.ticks
    assert stats["consensus.WindowAverager.average"]["calls"] == plain.ticks


def test_pacer_probes_between_calls_and_restores_the_original():
    owner = types.SimpleNamespace(step=lambda x: x + 1)
    original = owner.step
    pace = pacer.Pacer(interval_ns=0)
    with pace.hooked(owner, "step"):
        assert owner.step is not original
        assert [owner.step(i) for i in range(4)] == [1, 2, 3, 4]
    assert owner.step is original
    assert pace.probes == 3  # the first call only starts the clock
    assert pace.probe_s > 0 and pace.speed_factor() > 0


def test_pacer_ticks_on_first_time_imports():
    pace = pacer.Pacer(interval_ns=0)
    pace.tick()  # starts the clock
    with pace.ticking_imports():
        import tabnanny  # noqa: F401
    assert pace.probes > 0
    assert not any(getattr(f, "__qualname__", "").endswith("Ticker") for f in sys.meta_path)


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "formation-8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
