"""Scenario documents: load, override, validate, build.

A scenario is a single YAML mapping with unit-suffixed keys:

    name: eight-drones
    speed_mps: 8.0
    dt_s: 0.02
    t_end_s: 600.0
    seed: 11
    wind_mps: [0.0, 0.0]
    convergence_threshold_m: 1.0
    graph:
      n_drones: 8
      edges: [[1, 2], [2, 3], ...]        # 1-based
    paths:
      alpha_rad: 0.0
      origin_m: [0.0, 0.0]
      spacing_m: 30.0                     # or explicit origins_m
    gvf:
      k_e: 1.0                            # scalar or one value per drone
      k_n: 1.0
    oscillation:
      w_gamma_rad_s: 0.6
      k_a: 1.35
      amplitude_cap_m: 12.0               # or "auto" = v/w
      tau_a_s: auto                       # auto = 5/w
      fixed_amplitude_m: null             # set to bypass the consensus schedule
    consensus:
      k_u: 0.16
      r_m: 30.0
      tau_l: 0.0
      tau_h: auto                         # auto = (v - eps)/k_u; a number must match it
      comm_delay_ticks: 0
    initial:
      parameter_span_m: [-15.0, 15.0]     # sampled with seed, or explicit parameters_m
      offsets_m: 0.0                      # initial lateral offsets
      headings_rad: auto                  # auto = path direction

One parse checks each key once, keeps the parsed value and records
every violation; it constructs the typed Scenario only when nothing was
violated. validate_mapping and build_scenario are two views of that
parse: the violation list (empty means valid), or the Scenario with
ScenarioError carrying the same list. A scenario that validates cleanly
therefore always builds, and vice versa.
"""

from __future__ import annotations

import copy
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from yaml.composer import Composer

from .graph import Graph
from .oscillation import OscillationConfig, epsilon
from .consensus import SaturationParams

__all__ = [
    "Scenario",
    "ScenarioError",
    "load_mapping",
    "apply_overrides",
    "validate_mapping",
    "build_scenario",
]

_TOP_KEYS = {
    "name", "speed_mps", "dt_s", "t_end_s", "seed", "wind_mps",
    "convergence_threshold_m", "graph", "paths", "gvf", "oscillation",
    "consensus", "initial",
}
_GRAPH_KEYS = {"n_drones", "edges"}
_PATH_KEYS = {"alpha_rad", "origin_m", "spacing_m", "origins_m"}
_GVF_KEYS = {"k_e", "k_n"}
_OSC_KEYS = {"w_gamma_rad_s", "k_a", "amplitude_cap_m", "tau_a_s", "fixed_amplitude_m"}
_CONS_KEYS = {"k_u", "r_m", "tau_l", "tau_h", "comm_delay_ticks"}
_INIT_KEYS = {"parameters_m", "parameter_span_m", "offsets_m", "headings_rad"}


_SAFE = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # SafeLoader: PyYAML without libyaml


class _Loader(*(() if issubclass(_SAFE, Composer) else (Composer,)), _SAFE):
    """Safe loader that also reads 1e2, 1e+3 and 1.5e3 as floats.

    PyYAML's float rule is YAML 1.1's, which needs a dot and a signed
    exponent; the scenario file and every override share this loader.
    libyaml parses; PyYAML's Python composer builds the nodes, since
    libyaml's own recurses in C unchecked and overflows the C stack at
    about 40 000 nested brackets, where Python raises RecursionError.
    """

    def __init__(self, stream):
        _SAFE.__init__(self, stream)
        self.anchors = {}  # the Python composer's state


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)

# explicit tau_h must match (v - eps)/k_u to this relative tolerance
_TAU_H_RTOL = 1e-6


class ScenarioError(Exception):
    """Invalid scenario document."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully validated simulation setup."""

    name: str
    speed: float
    dt: float
    t_end: float
    seed: int | None
    graph: Graph
    # line i passes through origins[:, i] along the unit tangent
    # tangents[:, i]; normals[:, i] is its left normal; all (2, N)
    origins: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    k_e: np.ndarray
    k_n: np.ndarray
    oscillation: OscillationConfig
    saturation: SaturationParams
    k_u: float
    comm_delay_ticks: int
    fixed_amplitude: float | None
    initial_parameters: np.ndarray
    initial_offsets: np.ndarray
    initial_headings: np.ndarray
    wind: np.ndarray
    convergence_threshold: float

    @property
    def n_drones(self) -> int:
        return self.graph.n_nodes

    @property
    def n_ticks(self) -> int:
        return int(round(self.t_end / self.dt))

    def initial_positions(self) -> np.ndarray:
        """Initial planar positions, shape (n_drones, 2)."""
        foot = self.origins + self.initial_parameters * self.tangents
        return (foot + self.initial_offsets * self.normals).T


def load_mapping(path) -> dict:
    """Read a scenario document from a YAML file, UTF-8 or UTF-16 whatever the locale."""
    try:
        data = yaml.load(Path(path).read_bytes(), Loader=_Loader)
    # YAMLError: bad YAML or bytes; ValueError: ints of > 4300 digits; RecursionError: too deep
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ScenarioError([f"scenario file {path} is unparsable: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError([f"scenario file {path} is not a mapping"])
    return data


def apply_overrides(mapping: dict, overrides) -> dict:
    """Apply dotted key=value overrides onto a copy of the mapping.

    Values parse as YAML scalars, so numbers, booleans, nulls and
    inline lists all work: "consensus.r_m=25", "wind_mps=[0, 3.5]".
    Unknown keys are left for validation to flag.
    """
    try:
        out = copy.deepcopy(mapping)
    except RecursionError as exc:
        raise ScenarioError([f"scenario document is nested too deeply to copy: {exc}"]) from exc
    for item in overrides:
        shown = repr(item) if len(item) <= 80 else f"{item[:60]!r}... ({len(item)} characters)"
        if "=" not in item:
            raise ScenarioError([f"override {shown} is not of the form key.path=value"])
        dotted, raw = item.split("=", 1)
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise ScenarioError([f"override {shown} has an empty key path"])
        try:
            value = yaml.load(raw, Loader=_Loader)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise ScenarioError([f"override {shown} has an unparsable value: {exc}"]) from exc
        node = out
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return out


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    # rejects nan, +-inf and ints beyond the float range
    return _is_num(x) and abs(x) <= sys.float_info.max


def _pos_num(x) -> bool:
    return _finite(x) and x > 0


def _seq(x, n=None) -> bool:
    return isinstance(x, (list, tuple)) and (n is None or len(x) == n)


def _pair(x) -> bool:
    return _seq(x, 2) and all(map(_finite, x))


def _squares_finite(value, label: str, bad: list) -> bool:
    """Whether every number in ``value``, a finite number or a list of them, has a finite square.

    One violation per number whose square overflows, naming its entry
    in a list: a speed, wind component or gain that large turns the
    flight's first tick to inf and NaN.
    """
    values = value if _seq(value) else [value]
    ok = True
    for i, v in enumerate(values):
        if not math.isfinite(float(v) * float(v)):
            what = f"entry {i}, {v:g}," if _seq(value) else f"{v:g}"
            bad.append(f"{label}: the square of {what} is not a finite number")
            ok = False
    return ok


def _check(value, ok, label: str, message: str, bad: list):
    """``value`` if ``ok(value)``, else None with the violation recorded."""
    if ok(value):
        return value
    bad.append(f"{label}: {message}")
    return None


def _section(mapping: dict, key: str, allowed: set, bad: list) -> dict:
    sec = mapping.get(key, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        bad.append(f"{key}: must be a mapping")
        return {}
    for k in sec:
        if k not in allowed:
            bad.append(f"{key}.{k}: unknown key")
    return sec


def _per_drone(value, n: int, label: str, bad: list) -> np.ndarray | None:
    """A finite number or n finite numbers, as an (n,) float array."""
    if _finite(value):
        return np.full(n, float(value))
    if _seq(value, n) and all(map(_finite, value)):
        return np.array(value, dtype=float)
    bad.append(f"{label}: expected a number or {n} numbers")
    return None


def _parse(mapping) -> tuple[Scenario | None, list[str]]:
    """One pass over a raw mapping: (Scenario, []) or (None, violations)."""
    if not isinstance(mapping, dict):
        return None, ["scenario document must be a mapping"]
    bad = [f"{k}: unknown key" for k in mapping if k not in _TOP_KEYS]

    name = mapping.get("name", "scenario")
    name = _check(name, lambda s: isinstance(s, str) and s, "name",
                  "must be a non-empty string", bad)
    speed = mapping.get("speed_mps")
    if isinstance(speed, (list, tuple)):
        speeds = {float(v) for v in speed} if speed and all(map(_pos_num, speed)) else set()
        if not speeds:
            bad.append("speed_mps: must be a positive number or equal positive numbers")
        elif len(speeds) > 1:
            bad.append("speed_mps: all drones must share one ground speed")
        speed = speeds.pop() if len(speeds) == 1 else None
    else:
        speed = _check(speed, _pos_num, "speed_mps", "required positive number", bad)
    if speed is not None and not _squares_finite(speed, "speed_mps", bad):
        speed = None
    dt = _check(mapping.get("dt_s"), _pos_num, "dt_s", "required positive number", bad)
    t_end = _check(mapping.get("t_end_s"), _pos_num, "t_end_s", "required positive number", bad)
    if dt is not None and t_end is not None and t_end < dt:
        bad.append(f"t_end_s: must cover at least one step of dt_s ({t_end} < {dt})")
    elif dt is not None and t_end is not None and not math.isfinite(t_end / dt):
        bad.append(f"t_end_s: {t_end} is not a finite number of steps of dt_s = {dt}")
    seed = mapping.get("seed")
    if seed is not None and not (_is_int(seed) and seed >= 0):
        bad.append("seed: must be a non-negative integer or absent")
    wind = mapping.get("wind_mps", [0.0, 0.0])
    wind = _check(wind, _pair, "wind_mps", "must be two finite numbers [east, north]", bad)
    if wind is not None and not _squares_finite(wind, "wind_mps", bad):
        wind = None
    threshold = mapping.get("convergence_threshold_m", 1.0)
    threshold = _check(threshold, _pos_num, "convergence_threshold_m",
                       "must be a positive number", bad)

    gsec = _section(mapping, "graph", _GRAPH_KEYS, bad)
    n = _check(gsec.get("n_drones"), lambda v: _is_int(v) and v >= 1,
               "graph.n_drones", "required integer >= 1", bad)
    graph = None
    if n is not None:
        edges = gsec.get("edges", [])  # only null means "no edges"
        edges = _check([] if edges is None else edges, _seq,
                       "graph.edges", "must be a list of 1-based [i, j] pairs", bad)
        if edges is not None and len(edges) != n - 1:
            bad.append(f"graph: must be a spanning tree, a tree on {n} drones "
                       f"has {n - 1} edges, got {len(edges)}")
        if edges is None or len(edges) != n - 1:
            # n is bounded by the edge list only when it has n - 1 entries;
            # past that no per-drone work may trust it
            n = None
        else:
            try:
                graph = Graph.from_one_based(n, edges)
            except ValueError as exc:
                bad.append(f"graph.edges: {exc}")
        if graph is not None and not (tree := graph.check_spanning_tree()).is_tree:
            bad.append(f"graph: must be a spanning tree, {tree.message}")

    psec = _section(mapping, "paths", _PATH_KEYS, bad)
    alpha = _check(psec.get("alpha_rad", 0.0), _finite,
                   "paths.alpha_rad", "must be a finite number", bad)
    origin = _check(psec.get("origin_m", [0.0, 0.0]), _pair,
                    "paths.origin_m", "must be two finite numbers", bad)
    origins = psec.get("origins_m")
    if origins is not None:
        origins = _check(origins, lambda o: _seq(o, n) and all(map(_pair, o)),
                         "paths.origins_m", "must list one [x, y] per drone", bad)
    elif n is not None:
        # a single drone needs no spacing; null counts as absent
        spacing = psec.get("spacing_m")
        spacing = _check(0.0 if spacing is None and n == 1 else spacing, _finite, "paths.spacing_m",
                         "required (finite number) when origins_m is absent", bad)
        if None not in (alpha, origin, spacing):
            base = np.array([float(origin[0]), float(origin[1])])
            normal = np.array([-math.sin(alpha), math.cos(alpha)])
            with np.errstate(all="ignore"):
                origins = base + (np.arange(n) * float(spacing))[:, None] * normal
            if not np.isfinite(origins).all():
                bad.append(f"paths.spacing_m: {spacing} puts the lines beyond the float range")

    vsec = _section(mapping, "gvf", _GVF_KEYS, bad)
    gains = {}
    if n is not None:
        for key in ("k_e", "k_n"):
            value = vsec.get(key, 1.0)
            gain = _per_drone(value, n, f"gvf.{key}", bad)
            if gain is not None:
                gain = _check(gain, lambda g: np.all(g > 0), f"gvf.{key}", "must be positive", bad)
            if gain is not None and _squares_finite(value, f"gvf.{key}", bad):
                gains[key] = gain

    osec = _section(mapping, "oscillation", _OSC_KEYS, bad)
    w = _check(osec.get("w_gamma_rad_s"), _pos_num,
               "oscillation.w_gamma_rad_s", "required positive number", bad)
    k_a = _check(osec.get("k_a", 1.35), lambda k: _is_num(k) and k > 1.0,
                 "oscillation.k_a", "must exceed 1", bad)
    if k_a is not None:
        k_a = _check(k_a, _finite, "oscillation.k_a", "must be finite", bad)
    limit = None if speed is None or w is None else speed / w

    def within_limit(key: str, value) -> None:
        if value is not None and limit is not None and value > limit * (1.0 + 1e-9):
            bad.append(f"oscillation.{key}: {value} exceeds the kinematic limit v/w = {limit:.6g}")

    cap = osec.get("amplitude_cap_m", "auto")
    if cap != "auto":
        cap = _check(cap, _pos_num, "oscillation.amplitude_cap_m",
                     "must be a positive number or 'auto'", bad)
        within_limit("amplitude_cap_m", cap)
    tau_a = osec.get("tau_a_s", "auto")
    if tau_a != "auto":
        tau_a = _check(tau_a, _pos_num, "oscillation.tau_a_s",
                       "must be a positive number or 'auto'", bad)
    fixed = osec.get("fixed_amplitude_m")
    if fixed is not None:
        fixed = _check(fixed, lambda f: _is_num(f) and f >= 0.0, "oscillation.fixed_amplitude_m",
                       "must be a non-negative number or null", bad)
        within_limit("fixed_amplitude_m", fixed)
    if dt is not None and w is not None and dt >= 0.1 / w:
        bad.append(f"dt_s: {dt} too coarse for the oscillation, "
                   f"need dt < 0.1/w_gamma = {0.1 / w:.6g}")
    elif dt is not None and w is not None and not math.isfinite(2.0 * math.pi / w / dt):
        # the window average spans one wave period 2 pi/w in steps of dt
        bad.append(f"oscillation.w_gamma_rad_s: the wave period 2 pi/{w} is not "
                   f"a finite number of steps of dt_s = {dt}")

    csec = _section(mapping, "consensus", _CONS_KEYS, bad)
    k_u = _check(csec.get("k_u"), _pos_num, "consensus.k_u", "required positive number", bad)
    r = _check(csec.get("r_m"), _pos_num, "consensus.r_m", "required positive number", bad)
    tau_l = _check(csec.get("tau_l", 0.0), lambda t: _is_num(t) and t >= 0.0,
                   "consensus.tau_l", "must be non-negative", bad)
    if tau_l is not None:
        tau_l = _check(tau_l, _finite, "consensus.tau_l", "must be finite", bad)
    tau_h = csec.get("tau_h", "auto")
    if tau_h != "auto":
        tau_h = _check(tau_h, _pos_num, "consensus.tau_h",
                       "must be a positive number or 'auto'", bad)
    if None not in (speed, k_a, k_u, tau_l, tau_h):
        auto = (float(speed) - epsilon(float(speed), float(k_a))) / float(k_u)
        if tau_h == "auto":
            tau_h = auto
        elif abs(tau_h - auto) > _TAU_H_RTOL * auto:
            bad.append(
                f"consensus.tau_h: {tau_h} disagrees with (v - eps)/k_u = {auto:.9g}; "
                "set 'auto' or match it"
            )
        if tau_h <= tau_l:
            bad.append("consensus.tau_h: must exceed tau_l")
    delay = _check(csec.get("comm_delay_ticks", 0), lambda d: _is_int(d) and d >= 0,
                   "consensus.comm_delay_ticks", "must be a non-negative integer", bad)

    isec = _section(mapping, "initial", _INIT_KEYS, bad)
    params = isec.get("parameters_m")
    span = isec.get("parameter_span_m")
    if (params is None) == (span is None):
        bad.append("initial: give exactly one of parameters_m or parameter_span_m")
    if params is not None and n is not None:
        params = _check(params, lambda p: _seq(p, n) and all(map(_finite, p)),
                        "initial.parameters_m", f"must list {n} finite numbers", bad)
    if span is not None:
        span = _check(span, lambda s: _pair(s) and s[0] <= s[1],
                      "initial.parameter_span_m", "must be [low, high] with low <= high", bad)
        if span is not None and not math.isfinite(float(span[1]) - float(span[0])):
            bad.append("initial.parameter_span_m: high - low must be a finite number")
        if seed is None:
            bad.append("seed: required when initial.parameter_span_m is used")
    if n is not None:
        offsets = _per_drone(isec.get("offsets_m", 0.0), n, "initial.offsets_m", bad)
        headings = isec.get("headings_rad", "auto")
        if headings != "auto":
            headings = _per_drone(headings, n, "initial.headings_rad", bad)
    if bad:
        return None, bad

    alpha = float(alpha)
    if params is not None:
        initial_parameters = np.array(params, dtype=float)
    else:
        initial_parameters = np.random.default_rng(seed).uniform(float(span[0]), float(span[1]), n)
    oscillation = OscillationConfig(
        speed=float(speed), w_gamma=float(w), k_a=float(k_a),
        amplitude_cap=None if cap == "auto" else float(cap),
        tau_a=None if tau_a == "auto" else float(tau_a),
    )
    cos, sin = math.cos(alpha), math.sin(alpha)
    scenario = Scenario(
        name=name, speed=float(speed), dt=float(dt), t_end=float(t_end), seed=seed,
        graph=graph, origins=np.array(origins, dtype=float).T.copy(),
        tangents=np.array([[cos], [sin]]).repeat(n, 1),
        normals=np.array([[-sin], [cos]]).repeat(n, 1),
        k_e=gains["k_e"], k_n=gains["k_n"],
        oscillation=oscillation,
        saturation=SaturationParams(tau_l=float(tau_l), tau_h=float(tau_h), r=float(r)),
        k_u=float(k_u), comm_delay_ticks=delay,
        fixed_amplitude=None if fixed is None else float(fixed),
        initial_parameters=initial_parameters,
        initial_offsets=offsets,
        initial_headings=np.full(n, alpha) if isinstance(headings, str) else headings,
        wind=np.array([float(v) for v in wind]),
        convergence_threshold=float(threshold),
    )
    return scenario, []


def validate_mapping(mapping: dict) -> list[str]:
    """Check a raw scenario mapping; returns violations, empty if valid."""
    return _parse(mapping)[1]


def build_scenario(mapping: dict) -> Scenario:
    """Construct the typed scenario; ScenarioError lists every violation."""
    scenario, bad = _parse(mapping)
    if bad:
        raise ScenarioError(bad)
    return scenario
