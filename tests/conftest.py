from pathlib import Path

import pytest

from gvfswarm.scenario import apply_overrides, build_scenario, load_mapping
from gvfswarm.sim import run

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def windy_eight(scenario_dir):
    """20 s of the bundled eight drones in a crosswind, zero delay."""
    doc = apply_overrides(
        load_mapping(scenario_dir / "eight_drones.scn"),
        ["t_end_s=20", "wind_mps=[1.0, -2.0]"],
    )
    sc = build_scenario(doc)
    return sc, run(sc)
