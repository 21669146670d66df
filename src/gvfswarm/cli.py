"""Command-line interface.

Verbs:

    run            simulate a scenario file, write telemetry/summary
    validate       check a scenario file and report violations
    calibrate      fit the amplitude gain k_a for a speed/frequency
    consensus-demo integrate the reference consensus protocol
    fit-curve      tabulate the slowdown curve by both routes

Exit codes: 0 on success, 1 on runtime failures (unreadable files,
I/O), 2 on usage or validation errors: a verb raises ValueError for a
rejected argument, and ``main`` prints it as one stderr line (a
rejected scenario: one line per violation; a speed, wind component or
gain whose square overflows is one). A scenario that validates but
whose run overflows, say under a wind whose squared norm does, is a
rejected argument too: ``run`` checks the summary before it writes it.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys

import numpy as np
import yaml

from . import __version__
from .consensus import SaturationParams, integrate_consensus
from .graph import DEMO_TREE_EDGES, Graph
from .oscillation import (
    average_parametric_velocity,
    average_parametric_velocity_closed_form,
    fit_k_a,
)
from .scenario import ScenarioError, apply_overrides, build_scenario, load_mapping, validate_mapping
from .sim import TelemetryHelperError, run as run_sim, write_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvfswarm",
        description="Distributed formation coordination of fixed-wing swarms "
        "via oscillatory guiding vector fields.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario", help="scenario file (YAML)")
    p_run.add_argument("--telemetry", metavar="CSV", help="write per-tick telemetry here")
    p_run.add_argument("--summary", metavar="YAML", help="write the run summary here")
    p_run.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY.PATH=VALUE",
        help="override a scenario key (repeatable); recorded in the summary",
    )
    p_run.add_argument(
        "--digest", action="store_true",
        help="compute the telemetry SHA-256 even without a telemetry file",
    )

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario file (YAML)")
    p_val.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY.PATH=VALUE",
        help="override a scenario key before validating",
    )

    p_cal = sub.add_parser("calibrate", help="fit the amplitude gain k_a")
    p_cal.add_argument("--speed", type=float, required=True, help="ground speed v in m/s")
    p_cal.add_argument("--w-gamma", type=float, required=True, help="wave frequency in rad/s")
    p_cal.add_argument("--samples", type=int, default=100, help="fit sample count (>= 10)")

    p_dem = sub.add_parser("consensus-demo", help="integrate the reference consensus protocol")
    p_dem.add_argument("--nodes", type=int, default=8, help="node count (default: bundled 8-node tree)")
    p_dem.add_argument(
        "--x0", type=float, nargs="+", default=None,
        help="initial states; defaults to seeded uniform draws from --span",
    )
    p_dem.add_argument("--span", type=float, nargs=2, default=(-100.0, 100.0), metavar=("LO", "HI"))
    p_dem.add_argument("--seed", type=int, default=0)
    p_dem.add_argument("--r", type=float, default=5.0, help="linear zone width")
    p_dem.add_argument("--tau-h", type=float, default=20.0, help="saturation ceiling")
    p_dem.add_argument("--tau-l", type=float, default=0.0, help="saturation floor")
    p_dem.add_argument("--dt", type=float, default=0.01)
    p_dem.add_argument("--t-end", type=float, default=150.0)
    p_dem.add_argument("--out", metavar="CSV", help="write t, states, V per step here")
    # argparse 3.11 reads -1e3 as an option, since its matcher knows only
    # -1 and -1.5; no option here looks like a number, so -x stays one
    p_dem._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    p_fit = sub.add_parser("fit-curve", help="tabulate the slowdown curve by both routes")
    p_fit.add_argument("--speed", type=float, required=True)
    p_fit.add_argument("--w-gamma", type=float, required=True)
    p_fit.add_argument("--points", type=int, default=50)
    p_fit.add_argument("--out", metavar="CSV", help="write the table here instead of stdout")
    return parser


def _open_output(path, mode, default=None):
    """The file at ``path``, opened now so that a bad path fails before the
    work; without a path, ``default``, which the ``with`` leaves open."""
    return open(path, mode) if path else contextlib.nullcontext(default)


def _cmd_run(args) -> int:
    mapping = apply_overrides(load_mapping(args.scenario), args.overrides)
    scenario = build_scenario(mapping)  # ScenarioError: main reports it, exit 2
    with _open_output(args.summary, "w", sys.stdout) as fh:
        # an overflow shows up below as a non-finite summary value, once
        with np.errstate(all="ignore"):
            result = run_sim(
                scenario,
                telemetry_path=args.telemetry,
                overrides=args.overrides,
                compute_digest=args.digest,
            )
        _check_finite(result.summary)
        fh.write(yaml.safe_dump(result.summary, sort_keys=False))
    return 0


def _check_finite(summary: dict) -> None:
    """Raise ValueError naming the first summary key that holds a NaN or an infinity."""
    for key, value in summary.items():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, float) and not math.isfinite(item):
                raise ValueError(f"the run overflowed: summary {key} is {item}")


def _cmd_validate(args) -> int:
    violations = validate_mapping(apply_overrides(load_mapping(args.scenario), args.overrides))
    if violations:
        raise ScenarioError(violations)  # main reports it, exit 2
    print("ok")
    return 0


def _check_wave(speed: float, w_gamma: float, terms: int = 1) -> None:
    """Raise ValueError unless the amplitude curve of v = ``speed`` and w = ``w_gamma`` computes.

    v^2 and (v/w)^2 must be normal floats and the k_A fit's sum of ``terms``
    (v/w)^2 and the period 2 pi/w finite, else the curve or its quadrature fails."""
    if not all(math.isfinite(v) and v > 0 for v in (speed, w_gamma)):
        raise ValueError("speed and w-gamma must be positive and finite")
    v2, limit2 = speed * speed, (speed / w_gamma) * (speed / w_gamma)
    if not (min(v2, limit2) >= sys.float_info.min
            and max(v2, terms * limit2, 2.0 * math.pi / w_gamma) < math.inf):
        raise ValueError(
            f"speed {speed:g} and w-gamma {w_gamma:g} are out of range: "
            "v^2 and (v/w)^2 must be normal floats, and the fit's sums and the period finite")


def _cmd_calibrate(args) -> int:
    _check_wave(args.speed, args.w_gamma, args.samples)
    print(f"k_a = {fit_k_a(args.speed, args.w_gamma, args.samples):.15g}")
    return 0


def _cmd_consensus_demo(args) -> int:
    if args.nodes == 8:
        graph = Graph.from_one_based(8, DEMO_TREE_EDGES)
    elif args.nodes < 1:
        raise ValueError("--nodes must be at least 1")
    else:
        # simple chain for other sizes
        graph = Graph.from_one_based(args.nodes, [(i, i + 1) for i in range(1, args.nodes)])
    if args.x0 is not None:
        if len(args.x0) != graph.n_nodes:
            raise ValueError(f"--x0 needs {graph.n_nodes} values")
        x0 = np.array(args.x0, dtype=float)
    else:
        lo, hi = args.span
        if not math.isfinite(hi - lo):  # NaN, inf, or a width that overflows
            raise ValueError(f"--span must be finite with a finite width, got {lo:g} {hi:g}")
        if lo > hi:
            raise ValueError(f"--span LO must not exceed HI, got {lo:g} {hi:g}")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        x0 = np.random.default_rng(args.seed).uniform(lo, hi, size=graph.n_nodes)
    params = SaturationParams(tau_l=args.tau_l, tau_h=args.tau_h, r=args.r)
    with _open_output(args.out, "wb") as fh:
        result = integrate_consensus(
            graph, x0, params, dt=args.dt, t_end=args.t_end, record_states=fh is not None
        )
        if fh is not None:
            columns = ["t_s"] + [f"x{i}" for i in range(1, graph.n_nodes + 1)] + ["V"]
            table = np.column_stack((result.times, result.states, result.lyapunov))
            write_table(fh, columns, table)
    spread = float(result.final_state.max() - result.final_state.min())
    print(f"initial states: {np.array2string(x0, precision=6)}")
    print(f"final spread = {spread:.9g}")
    print(f"final max input = {float(np.abs(result.final_input).max()):.9g}")
    print(f"final state max = {float(result.final_state.max()):.9g} "
          f"(initial max {float(x0.max()):.9g})")
    return 0


def _cmd_fit_curve(args) -> int:
    _check_wave(args.speed, args.w_gamma)
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    with _open_output(args.out, "wb") as fh:
        amplitudes = np.linspace(0.0, args.speed / args.w_gamma, args.points)
        table = [
            (
                a,
                average_parametric_velocity(args.speed, args.w_gamma, a),
                average_parametric_velocity_closed_form(args.speed, args.w_gamma, a),
            )
            for a in amplitudes
        ]
        header = ["amplitude_m", "avg_velocity_quadrature_mps", "avg_velocity_elliptic_mps"]
        if fh is None:
            sys.stdout.flush()  # the table goes to the binary layer underneath
            fh = sys.stdout.buffer
        write_table(fh, header, table)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "calibrate": _cmd_calibrate,
        "consensus-demo": _cmd_consensus_demo,
        "fit-curve": _cmd_fit_curve,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        for v in exc.violations:
            print(f"invalid: {v}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a rejected argument: one line, whichever check raised it
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except TelemetryHelperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
