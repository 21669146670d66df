"""gvfswarm benchmark runner.

    python3 perfbench/run.py --workload formation-8 --seed 1 --seconds 30 --trace 0

Run from the root of a gvfswarm checkout; the program is imported from
its ``src/``. Jobs run one at a time, each in a fresh interpreter
(worker.py) on one thread with ``workers`` unset, for about
``--seconds`` (at least one job). The untraced run (``--trace 0``)
prints the end-to-end metrics; the traced run (``--trace 1``) runs
every job untraced and then traced and prints the per-layer metrics.
Times that end-to-end metrics are made of are normalised to a fixed
reference speed of the machine (pacer.py).
The last line of stdout is one JSON object: correct, attempted,
failed, metrics. Full results, a machine
and provenance block and the traced spans go to ``.perfbench_out/``.
See README.md next to this file for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = (ROOT / "src" / "gvfswarm" / "__init__.py", ROOT / "scenarios" / "eight_drones.scn")
WORKLOADS = ("formation-8", "swarm-512", "consensus-200")

SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def worker(workload: str, seed: int, job: int, mode: str) -> dict:
    """Run one job in a fresh interpreter (see worker.py) and parse its record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(job), mode, str(OUT)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker for job {job} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_probe(workload: str, seed: int) -> dict:
    """Seconds from starting a fresh interpreter to job 0's first tick.

    raw_s leaves out the pacer's probes; norm_s is at reference speed.
    """
    t0 = time.monotonic_ns()
    rec = worker(workload, seed, 0, "setup")
    raw = (rec["first_tick_ns"] - t0) / 1e9 - rec["probe_s"]
    return {"raw_s": raw, "probes": rec["probes"], "speed_factor": rec["speed_factor"],
            "norm_s": raw * rec["speed_factor"]}


def import_probe() -> dict[str, float]:
    """Cumulative import ms of gvfswarm and gvfswarm.oscillation (-X importtime)."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import gvfswarm"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1000.0
    return {"gvfswarm": cumulative["gvfswarm"], "oscillation": cumulative["gvfswarm.oscillation"]}


def machine_block(workload: str, seed: int) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}"] = read(f"{index}/size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=PROBE_TIMEOUT_S, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor() or None,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def loop(seconds: float, body) -> tuple[int, int]:
    """Call body(job) while time is left; (attempted, failed).

    A job starts only if half of the mean job time still fits, so a run
    lasts about ``seconds`` whatever the job length. body returns the
    list of failed checks; a raise counts as a failure.
    """
    attempted = failed = 0
    t0 = time.perf_counter()
    while attempted == 0 or (time.perf_counter() - t0) * (1 + 0.5 / attempted) < seconds:
        job = attempted
        attempted += 1
        try:
            failures = body(job)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failures = ["raised"]
        if failures:
            failed += 1
            print(f"job {job} failed: {'; '.join(failures)}", file=sys.stderr)
    return attempted, failed


def untraced(workload: str, seed: int, seconds: float):
    setup = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    records = []

    def body(j: int) -> list[str]:
        rec = worker(workload, seed, j, "run")
        records.append(rec)
        return rec["failures"]

    attempted, failed = loop(seconds, body)
    rate = statistics.median(r["work"] / r["norm_s"] for r in records) if records else 0.0
    metrics = {
        # one quantity, agents x time steps per second of the timed
        # section at reference speed, under the name each layer uses for it
        "drone_ticks_per_s": (rate, "1/s"),
        "node_steps_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(s["norm_s"] for s in setup), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in records)
                         if records else 0.0, "MiB"),
        "pass_fraction": ((attempted - failed) / attempted, "fraction"),
    }
    return attempted, failed, metrics, {"jobs": records, "setup_s": setup}


def traced(workload: str, seed: int, seconds: float):
    from jobs import TRACED_NAMES

    imports = [import_probe() for _ in range(IMPORT_PROBES)]
    records = []
    stats: dict[str, dict[str, int]] = {}

    def body(j: int) -> list[str]:
        base = worker(workload, seed, j, "run")
        plain = worker(workload, seed, j, "no-telemetry") if workload == "formation-8" else None
        tr = worker(workload, seed, j, "traced")
        failures = base["failures"] + tr["failures"]
        if tr["result_sha256"] != base["result_sha256"]:
            failures.append("the traced run's output differs from the untraced run's")
        for name, s in tr.pop("spans").items():
            acc = stats.setdefault(name, dict.fromkeys(s, 0))
            for k, v in s.items():
                acc[k] += v
        records.append({**base, "plain_norm_s": plain["norm_s"] if plain else None,
                        "traced": tr, "failures": failures})
        return failures

    attempted, failed = loop(seconds, body)
    if not records:
        return attempted, failed, {}, {"imports_ms": imports}
    n = len(records)
    ticks = sum(r["ticks"] for r in records)
    sim = workload != "consensus-200"
    root = stats["sim.run" if sim else "consensus.integrate_consensus"]

    def per_call_us(name: str) -> float:
        s = stats.get(name)
        return s["self_ns"] / 1e3 / s["calls"] if s and s["calls"] else 0.0

    def per_tick_us(name: str) -> float:
        return stats[name]["self_ns"] / 1e3 / ticks if name in stats else 0.0

    def calls_per_job(name: str) -> float:
        return stats[name]["calls"] / n if name in stats else 0.0

    telemetry = [(r["norm_s"] - r["plain_norm_s"]) / r["ticks"] * 1e6
                 for r in records if r["plain_norm_s"] is not None]
    average = stats.get("consensus.WindowAverager.average", {"self_ns": 0})
    metrics = {
        "sim.self_us_per_tick": (per_tick_us("sim.run"), "us"),
        "sim.telemetry_us_per_tick": (statistics.median(telemetry) if telemetry else 0.0, "us"),
        "sim.history_mib": (max(r["history_bytes"] for r in records) / 2**20, "MiB"),
        "consensus.average_us": (per_call_us("consensus.WindowAverager.average"), "us"),
        "consensus.average_share": (average["self_ns"] / root["total_ns"], "fraction"),
        "consensus.push_us": (per_call_us("consensus.WindowAverager.push"), "us"),
        "consensus.neighbor_disagreement_us": (per_call_us("consensus.neighbor_disagreement"), "us"),
        "consensus.sat_us": (per_call_us("consensus.sat"), "us"),
        "consensus.lyapunov_value_us": (per_call_us("consensus.lyapunov_value"), "us"),
        "consensus.integrate_self_us_per_step": (per_tick_us("consensus.integrate_consensus"), "us"),
        "consensus.rate_evals": (calls_per_job("consensus.sat"), "count"),
        "gvf.field_core_us": (per_call_us("gvf.field_core"), "us"),
        "gvf.exterior_fraction": (sum(r["exterior_ticks"] for r in records)
                                  / sum(r["work"] for r in records) if sim else 0.0, "fraction"),
        "vehicle.heading_rate_core_us": (per_call_us("vehicle.heading_rate_core"), "us"),
        "vehicle.unicycle_step_us": (per_call_us("vehicle.unicycle_step"), "us"),
        "oscillation.wave_us": (sum(per_tick_us(f"oscillation.{g}")
                                    for g in ("gamma", "gamma_dot", "gamma_ddot")), "us"),
        "oscillation.relaxation_step_us": (per_call_us("oscillation.relaxation_step"), "us"),
        "import.gvfswarm_ms": (statistics.median(i["gvfswarm"] for i in imports), "ms"),
        "import.oscillation_ms": (statistics.median(i["oscillation"] for i in imports), "ms"),
        "scenario.build_ms": (statistics.median(r["traced"]["build_s"] for r in records) * 1e3, "ms"),
        "trace.overhead_fraction": (sum(r["traced"]["wall_s"] for r in records)
                                    / sum(r["wall_s"] for r in records) - 1.0, "fraction"),
        "trace.accounted_fraction": (sum(s["self_ns"] for s in stats.values()) / 1e9
                                     / sum(r["traced"]["traced_job_s"] for r in records), "fraction"),
    }
    for name in TRACED_NAMES:
        metrics[f"calls.{name}"] = (calls_per_job(name), "count")
    return attempted, failed, metrics, {"jobs": records, "imports_ms": imports, "spans": stats}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"not a gvfswarm checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    measure = traced if args.trace else untraced
    attempted, failed, metrics, detail = measure(args.workload, args.seed, args.seconds)
    machine = machine_block(args.workload, args.seed)
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "machine": machine, **detail}, indent=1)
    )
    print("machine " + json.dumps(machine))
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
