"""One benchmark job in a fresh interpreter; prints one JSON record.

    python3 perfbench/worker.py <workload> <seed> <job> <mode> <out_dir>

Modes:

- ``setup``: stop at the job's first tick (the first
  ``WindowAverager.push``) or first RK4 step (the first ``sat`` call)
  and record ``time.monotonic_ns()`` there. The parent subtracts its
  own reading taken just before it started this interpreter; both read
  the same system-wide clock. Paced through the imports, with one more
  probe at the first tick; the probe time is reported so the parent
  can take it out.
- ``run``: the job as its workload defines it, paced (pacer.py): a
  reference probe runs every few ms of program time, its time is taken
  out of the job's wall time and gives the machine's speed factor.
- ``no-telemetry``: the same job without its telemetry CSV, paced.
- ``traced``: the job with every ``jobs.TRACE_TARGETS`` function
  wrapped; the spans go to ``<out_dir>/spans-<workload>-job<j>.npz``
  and their per-name totals into the record.

Every job gets its own interpreter because the program is used that
way, one run per process, and because the first large run in a process
pays page faults that later runs in the same process do not (glibc
hands the averager's per-tick window copies back to the kernel until a
large free raises its trim threshold), so jobs that shared a process
would not be comparable.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

MODES = ("setup", "run", "no-telemetry", "traced")


class FirstTick(Exception):
    pass


def setup(workload: str, seed: int, work_dir: Path) -> dict:
    import pacer

    pace = pacer.Pacer()
    with pace.ticking_imports():
        import jobs
        import gvfswarm.consensus

        stamp = []

        def first_tick(*args, **kwargs):
            pace.measure()
            stamp.append(time.monotonic_ns())
            raise FirstTick

        if workload == "consensus-200":
            gvfswarm.consensus.sat = first_tick
        else:
            gvfswarm.consensus.WindowAverager.push = first_tick
        try:
            run_job(jobs, workload, seed, 0, work_dir)
        except FirstTick:
            pass
    if not stamp:
        raise RuntimeError("the job ended without reaching its first tick")
    return {"first_tick_ns": stamp[0], "probes": pace.probes, "probe_s": pace.probe_s,
            "speed_factor": pace.speed_factor()}


def run_job(jobs, workload: str, seed: int, job: int, work_dir: Path, **kw):
    if workload == "consensus-200":
        return jobs.consensus_job(seed, job, **kw)
    return jobs.sim_job(workload, seed, job, work_dir, **kw)


def main(argv: list[str]) -> int:
    workload, seed, job, mode, out_dir = argv[0], int(argv[1]), int(argv[2]), argv[3], Path(argv[4])
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}, expected one of {MODES}")
    work_dir = out_dir / "work"
    if mode == "setup":
        print(json.dumps(setup(workload, seed, work_dir)))
        return 0

    import jobs
    import spans

    record = {}
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.job = job
        t0 = time.perf_counter()
        with tracer.patched(jobs.TRACE_TARGETS), tracer.span("bench.job"):
            out = run_job(jobs, workload, seed, job, work_dir, tracer=tracer)
        record["traced_job_s"] = time.perf_counter() - t0
        tracer.save(out_dir / f"spans-{workload}-job{job}.npz")
        record["spans"] = spans.by_name(tracer)
        wall_s = out.wall_s
    else:
        import gvfswarm.consensus
        import pacer

        pace = pacer.Pacer()
        # called once per tick (sim) or per RK4 stage (consensus)
        hook = ((gvfswarm.consensus, "sat") if workload == "consensus-200"
                else (gvfswarm.consensus.WindowAverager, "push"))
        with pace.hooked(*hook):
            if mode == "no-telemetry":
                out = jobs.sim_job(workload, seed, job, work_dir, telemetry=False)
            else:
                out = run_job(jobs, workload, seed, job, work_dir)
        wall_s = out.wall_s - pace.probe_s
        if not pace.probes:
            pace.measure()  # the hook never fired: one probe after the job
        record.update(probes=pace.probes, probe_s=pace.probe_s,
                      speed_factor=pace.speed_factor(),
                      norm_s=wall_s * pace.speed_factor())
    record.update(
        work=out.work,
        wall_s=wall_s,
        build_s=out.build_s,
        ticks=out.ticks,
        history_bytes=out.history_bytes,
        exterior_ticks=out.exterior_ticks,
        peak_rss_mib=out.peak_rss_mib,
        failures=out.failures,
        result_sha256=jobs.result_sha256(out.result),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
