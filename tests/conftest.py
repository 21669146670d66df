import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def swarm_128_doc() -> dict:
    """30 s of the bundled eight drones flown as 128 in a 1.5 m/s crosswind, delay 0.

    The graph is a random recursive tree: node i's parent is drawn
    uniformly from the nodes before it, seed 128. Its window averager
    folds blocks of m = 16 windows, L = 492 terms of each ahead.
    """
    rng = np.random.default_rng(128)
    edges = [[int(rng.integers(0, i)) + 1, i + 1] for i in range(1, 128)]
    return apply_overrides(
        load_mapping(SCENARIO_DIR / "eight_drones.scn"),
        ["graph.n_drones=128", f"graph.edges={edges}", "t_end_s=30.0", "wind_mps=[0.0, 1.5]",
         "consensus.comm_delay_ticks=0"],
    )


@pytest.fixture(scope="session")
def swarm_128():
    return build_scenario(swarm_128_doc())


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
import os
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.fixture(scope="session")
def fresh_python():
    """Run code in a fresh interpreter that imports from src/.

    A hang fails the test after 60 s, with the interpreter and every
    process it forked killed, not a stuck suite. The last line of stdout
    is "no child left" when the interpreter ends with no child.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    def go(code: str) -> subprocess.CompletedProcess:
        # in a session of its own, so that a timeout kills the interpreter
        # and every helper it forked, which may hold its stdout open
        proc = subprocess.Popen(
            [sys.executable, "-c", code + _CHECK_REAPED], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            pytest.fail(f"no end within 60 s; stdout {out!r}, stderr {err!r}")
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    return go


@pytest.fixture(scope="session")
def killed_helper_run(fresh_python):
    """Run code in a fresh interpreter whose telemetry helper gets killed (see fresh_python)."""
    return lambda code: fresh_python(_KILL_HELPER + code)
