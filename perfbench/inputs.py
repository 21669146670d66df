"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, workload seed, job index):
the same triple gives byte-identical scenario documents and start
arrays. Scenario documents are validated here, before any timing, and
a mapping with even one violation raises.

- formation-8: the bundled ``eight_drones.scn`` with a fresh scenario
  seed per job (the seed draws the initial path parameters).
- swarm-512: one random recursive spanning tree per workload seed
  (node i attaches to a uniform earlier node, so the maximum degree
  grows like log N and the padded neighbor gather is wide), flown with
  a two-tick communication delay and a crosswind; a fresh scenario
  seed per job.
- consensus-200: 200 starts per job, uniform in [-100, 100], on the
  bundled 8-node demo tree.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from gvfswarm.consensus import SaturationParams  # noqa: E402
from gvfswarm.graph import DEMO_TREE_EDGES, Graph  # noqa: E402
from gvfswarm.scenario import load_mapping, validate_mapping  # noqa: E402

SIM_WORKLOADS = ("formation-8", "swarm-512")

# distinct stream per workload, so one seed never hands two workloads
# correlated draws
_STREAM = {"formation-8": 8, "swarm-512": 512, "consensus-200": 200}

# the bundled length: 32 seeded draws converged at 84-294 s, so 600 s
# leaves a margin of two for the convergence check
FORMATION_T_END_S = 600.0

SWARM_N = 512
# about three wave periods (2 pi / 0.6 = 10.5 s), so two thirds of the
# ticks run the full-window averager in steady state
SWARM_T_END_S = 30.0
SWARM_COMM_DELAY_TICKS = 2
SWARM_WIND_MPS = [0.0, 1.5]

CONSENSUS_STARTS = 200
CONSENSUS_SPAN = (-100.0, 100.0)
CONSENSUS_PARAMS = SaturationParams(tau_l=0.0, tau_h=20.0, r=5.0)
CONSENSUS_DT = 0.01
CONSENSUS_T_END = 150.0


def _rng(workload: str, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed, *extra])


def _scenario_seed(workload: str, seed: int, job: int) -> int:
    return int(_rng(workload, seed, job).integers(0, 2**31 - 1))


def recursive_tree_edges(n: int, rng: np.random.Generator) -> list[list[int]]:
    """1-based edges of a random recursive tree on n nodes."""
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    return [[p + 1, i + 1] for i, p in enumerate(parents, start=1)]


def scenario_mapping(workload: str, seed: int, job: int) -> dict:
    """The scenario document of one sim job, validated."""
    doc = load_mapping(ROOT / "scenarios" / "eight_drones.scn")
    doc["seed"] = _scenario_seed(workload, seed, job)
    if workload == "formation-8":
        doc["name"] = "formation-8"
        doc["t_end_s"] = FORMATION_T_END_S
    elif workload == "swarm-512":
        doc["name"] = "swarm-512"
        doc["t_end_s"] = SWARM_T_END_S
        doc["wind_mps"] = list(SWARM_WIND_MPS)
        doc["graph"] = {
            "n_drones": SWARM_N,
            "edges": recursive_tree_edges(SWARM_N, _rng(workload, seed)),
        }
        doc["consensus"]["comm_delay_ticks"] = SWARM_COMM_DELAY_TICKS
    else:
        raise ValueError(f"{workload} is not a sim workload")
    violations = validate_mapping(doc)
    if violations:
        raise ValueError(f"generated {workload} scenario is invalid: {violations}")
    return doc


def write_scenario(doc: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


def consensus_graph() -> Graph:
    return Graph.from_one_based(8, DEMO_TREE_EDGES)


def consensus_starts(seed: int, job: int) -> np.ndarray:
    """(200, 8) initial states of one consensus-200 job."""
    lo, hi = CONSENSUS_SPAN
    return _rng("consensus-200", seed, job).uniform(lo, hi, (CONSENSUS_STARTS, 8))
