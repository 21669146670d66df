import os
import subprocess
import sys
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


@pytest.fixture(scope="session")
def westbound_eight(scenario_dir):
    """60 s of the bundled eight drones flying west in a crosswind, 3-tick delay.

    The headings hover around +-pi, so they wrap 48 times.
    """
    doc = apply_overrides(
        load_mapping(scenario_dir / "eight_drones.scn"),
        ["t_end_s=60", "paths.alpha_rad=3.141592653589793", "wind_mps=[0.7, -1.2]",
         "consensus.comm_delay_ticks=3"],
    )
    return build_scenario(doc)


# Python run before the code of killed_helper_run: the helper is killed
# at the third observer pass, and sim.run only sees it when it next
# sends a block or waits for the digest
_KILL_HELPER = """
import os, signal
from gvfswarm import sim
from gvfswarm.scenario import apply_overrides, build_scenario, load_mapping

start, lyapunov, pids, calls = sim._Helper, sim.lyapunov_value, [], []

def recording_start(*args):
    helper = start(*args)
    pids.append(helper.pid)
    return helper

def killing_lyapunov(*args):
    calls.append(None)
    if len(calls) == 3:
        os.kill(pids[0], signal.SIGKILL)
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)  # dead, not reaped
    return lyapunov(*args)

sim._Helper, sim.lyapunov_value = recording_start, killing_lyapunov
"""

_CHECK_REAPED = """
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.fixture(scope="session")
def killed_helper_run():
    """Run code in a fresh interpreter whose telemetry helper gets killed.

    A hang ends in a timeout, not a stuck suite. The last line of stdout
    is "no child left" when the interpreter ends with no child.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    def go(code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", _KILL_HELPER + code + _CHECK_REAPED],
            capture_output=True, text=True, timeout=60, env=env, cwd=REPO_ROOT,
        )

    return go
