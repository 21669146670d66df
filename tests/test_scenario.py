import copy
import functools
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvfswarm import scenario as scenario_module
from gvfswarm.scenario import (
    Scenario,
    ScenarioError,
    apply_overrides,
    build_scenario,
    load_mapping,
    validate_mapping,
)
from gvfswarm.sim import run


def base_doc() -> dict:
    return {
        "name": "unit",
        "speed_mps": 16.0,
        "dt_s": 0.02,
        "t_end_s": 10.0,
        "seed": 1,
        "graph": {"n_drones": 2, "edges": [[1, 2]]},
        "paths": {"alpha_rad": 0.0, "origin_m": [0.0, 0.0], "spacing_m": 50.0},
        "gvf": {"k_e": 1.0, "k_n": 1.0},
        "oscillation": {"w_gamma_rad_s": 0.6, "k_a": 1.35, "amplitude_cap_m": 20.0},
        "consensus": {"k_u": 0.06, "r_m": 150.0, "tau_l": 0.0, "tau_h": "auto"},
        "initial": {"parameters_m": [-10.0, 15.0]},
    }


class TestLoad:
    def test_bundled_files_are_valid(self, scenario_dir):
        for name in ("eight_drones.scn", "two_drones.scn"):
            doc = load_mapping(scenario_dir / name)
            assert validate_mapping(doc) == []

    def test_benchmark_scenarios_are_valid(self):
        # perfbench/inputs.py raises on a generated document with any violation
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        for workload in inputs.SIM_WORKLOADS:
            for seed, job in ((1, 0), (2, 3), (501, 1)):
                assert validate_mapping(inputs.scenario_mapping(workload, seed, job)) == []

    @pytest.mark.parametrize(
        "override,violations",
        [
            ({"gvf": {"k_e": 1e308}}, ["gvf.k_e: the square of 1e+308 is not a finite number"]),
            ({"gvf": {"k_n": [1.0, 2e154, 1e200, 3.0, 1.0, 1.0, 1.0, 1.0]}},
             ["gvf.k_n: the square of entry 1, 2e+154, is not a finite number",
              "gvf.k_n: the square of entry 2, 1e+200, is not a finite number"]),
            ({"speed_mps": 1e200}, ["speed_mps: the square of 1e+200 is not a finite number"]),
            ({"speed_mps": [2e154] * 8},
             ["speed_mps: the square of 2e+154 is not a finite number"]),
            ({"wind_mps": [1e300, -1e155]},
             ["wind_mps: the square of entry 0, 1e+300, is not a finite number",
              "wind_mps: the square of entry 1, -1e+155, is not a finite number"]),
            ({"wind_mps": [0.0, 10**160]},
             ["wind_mps: the square of entry 1, 1e+160, is not a finite number"]),
        ],
        ids=["gain", "per-drone-gains", "speed", "per-drone-speed", "wind", "integer-wind"],
    )
    def test_squares_beyond_the_float_range_are_invalid(self, scenario_dir, override, violations):
        # each such value turns the first tick's squares to inf; the
        # largest whose square is finite, about 1.34e154, validates, and
        # a wind validates while its squared norm is finite too
        doc = load_mapping(scenario_dir / "eight_drones.scn")
        for key, value in override.items():
            if isinstance(value, dict):
                doc[key].update(value)
            else:
                doc[key] = value
        assert validate_mapping(doc) == violations
        with pytest.raises(ScenarioError) as err:
            build_scenario(doc)
        assert err.value.violations == violations
        doc = load_mapping(scenario_dir / "eight_drones.scn")
        doc.update(speed_mps=1.3e154, wind_mps=[9.4e153, -9.4e153])
        doc["gvf"].update(k_e=1.3e154, k_n=1.3e154)
        assert not any("square" in line for line in validate_mapping(doc))

    def test_non_mapping_rejected(self, tmp_path):
        f = tmp_path / "bad.scn"
        f.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError):
            load_mapping(f)

    @pytest.mark.parametrize(
        "content",
        [b"seed: 1" + b"0" * 5000 + b"\n", b"\xff\xfe seed: 1\n", b"seed: [1, 2\n",
         b"name: \xc3\x28\n"],
        ids=["huge-integer", "not-utf8", "yaml-syntax", "bad-utf8-sequence"],
    )
    def test_unparsable_file_rejected(self, tmp_path, content):
        # an int of more than 4300 digits fails Python's int conversion
        # inside the YAML loader; like bytes that are not UTF-8 or broken
        # YAML it makes a bad scenario, not a crash
        f = tmp_path / "bad.scn"
        f.write_bytes(content)
        with pytest.raises(ScenarioError, match="unparsable"):
            load_mapping(f)

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16-le", "utf-16-be"])
    def test_encoding_is_read_from_the_bytes(self, encoding, scenario_dir, tmp_path):
        # UTF-16 needs its byte order mark; the YAML reader looks for it
        text = (scenario_dir / "two_drones.scn").read_text(encoding="utf-8")
        f = tmp_path / "deux.scn"
        bom = "\ufeff" if encoding.startswith("utf-16") else ""
        f.write_bytes((bom + text.replace("name: ", "name: deux-drônes-", 1)).encode(encoding))
        doc = load_mapping(f)
        assert doc["name"] == "deux-drônes-two-drones"
        assert validate_mapping(doc) == []

    def test_utf8_file_loads_under_the_c_locale(self, scenario_dir, tmp_path):
        # the locale's codec (ASCII here) once decoded the file and failed
        text = (scenario_dir / "two_drones.scn").read_text(encoding="utf-8")
        f = tmp_path / "deux.scn"
        f.write_text(text.replace("name: ", "name: deux-drônes-", 1), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        src = str(Path(scenario_module.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys\nfrom gvfswarm.scenario import load_mapping, validate_mapping\n"
                "doc = load_mapping(sys.argv[1])\n"
                "assert doc['name'] == 'deux-dr\\xf4nes-two-drones', ascii(doc['name'])\n"
                "print('ok' if validate_mapping(doc) == [] else validate_mapping(doc))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(f)], capture_output=True,
                              text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-2000:]

    @pytest.mark.parametrize(
        "spelling,value", [("1e2", 100.0), ("1e+3", 1000.0), ("1.5e3", 1500.0)]
    )
    def test_exponent_floats_without_dot_or_sign(self, spelling, value, scenario_dir, tmp_path):
        # YAML 1.1's float rule needs a dot and a signed exponent, so a
        # plain SafeLoader leaves these spellings strings
        text = (scenario_dir / "two_drones.scn").read_text()
        assert "t_end_s: 300.0\n" in text
        f = tmp_path / "exp.scn"
        f.write_text(text.replace("t_end_s: 300.0\n", f"t_end_s: {spelling}\n"))
        doc = load_mapping(f)
        assert type(doc["t_end_s"]) is float and doc["t_end_s"] == value
        assert validate_mapping(doc) == []
        out = apply_overrides(load_mapping(scenario_dir / "two_drones.scn"), [f"t_end_s={spelling}"])
        assert out == doc

    @pytest.mark.parametrize("spelling", ["1e3", "1.0e+3"])
    def test_exponent_float_name_is_a_number(self, spelling, tmp_path):
        f = tmp_path / "exp.scn"
        f.write_text(f"name: {spelling}\n")
        assert load_mapping(f) == {"name": 1000.0}
        assert "name: must be a non-empty string" in validate_mapping({**base_doc(), "name": 1000.0})


class _PureLoader(yaml.SafeLoader):
    """The scenario loader's pure-Python twin: the same implicit resolvers."""

    yaml_implicit_resolvers = scenario_module._Loader.yaml_implicit_resolvers


@pytest.fixture(params=["libyaml", "pure"])
def loader(request, monkeypatch):
    """Run load_mapping and apply_overrides under the scenario loader or its twin."""
    if request.param == "pure":
        monkeypatch.setattr(scenario_module, "_Loader", _PureLoader)
    return request.param


def under_both(monkeypatch, fn, *args):
    """fn(*args) under the scenario loader, then under the pure twin."""
    out = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(scenario_module, "_Loader", _PureLoader)
        return out, fn(*args)


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def recursive_tree_edges(n: int, rng: np.random.Generator) -> list[list[int]]:
    """1-based edges of a random recursive tree on n nodes."""
    return [[int(rng.integers(0, i)) + 1, i + 1] for i in range(1, n)]


def swarm_text(scenario_dir, n: int) -> str:
    """The bundled eight drones grown to n on a random tree, as YAML."""
    doc = load_mapping(scenario_dir / "eight_drones.scn")
    doc["graph"] = {"n_drones": n, "edges": recursive_tree_edges(n, np.random.default_rng(n))}
    doc["initial"]["offsets_m"] = np.random.default_rng(n + 1).normal(0, 3, n).tolist()
    return yaml.safe_dump(doc, sort_keys=True)


class TestDeepNesting:
    # once a RecursionError traceback under either loader. The pure
    # scanner looks ahead over every open bracket, so its cost grows with
    # the square of the depth: 3000 takes it about 1.5 s
    def test_deeply_nested_file_is_unparsable(self, loader, tmp_path):
        f = tmp_path / "deep.scn"
        f.write_text(f"extra: {nested(3000)}\n")
        with pytest.raises(ScenarioError, match="unparsable"):
            load_mapping(f)

    def test_deeply_nested_override_is_unparsable(self, loader):
        with pytest.raises(ScenarioError, match="unparsable value"):
            apply_overrides(base_doc(), [f"extra={nested(3000)}"])

    def test_deeply_nested_mapping_is_a_scenario_error(self):
        # a library caller's mapping, deeper than copy.deepcopy can recurse
        doc = inner = {}
        for _ in range(700):
            inner["extra"] = inner = {}
        with pytest.raises(ScenarioError, match="nested too deeply"):
            apply_overrides(doc, ["seed=1"])

    # libyaml's own composer overflows the C stack at this depth, which
    # would end the test session, so these run in a fresh interpreter
    @pytest.mark.parametrize("call", [
        "load_mapping(sys.argv[1])",
        "apply_overrides({}, ['extra=' + open(sys.argv[1]).read()])",
    ], ids=["file", "override"])
    def test_very_deep_nesting_does_not_crash_the_interpreter(self, call, tmp_path):
        f = tmp_path / "deep.scn"
        f.write_text(nested(100_000))
        env = dict(os.environ)
        src = str(Path(scenario_module.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys\nfrom gvfswarm.scenario import *\n"
                f"try:\n    {call}\nexcept ScenarioError as exc:\n    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(f)], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0 and "unparsable" in proc.stdout, proc.stderr[-2000:]


class TestLoaderOracle:
    def test_loader_is_libyaml_backed_where_pyyaml_has_it(self):
        c_backed = issubclass(scenario_module._Loader, getattr(yaml, "CSafeLoader", ()))
        assert c_backed == yaml.__with_libyaml__

    @pytest.mark.parametrize("name", ["eight_drones.scn", "two_drones.scn"])
    def test_bundled_files(self, name, scenario_dir, monkeypatch):
        new, old = under_both(monkeypatch, load_mapping, scenario_dir / name)
        assert new == old and validate_mapping(new) == []

    def test_generated_512_drone_document(self, scenario_dir, tmp_path, monkeypatch):
        f = tmp_path / "swarm.scn"
        f.write_text(swarm_text(scenario_dir, 512))
        new, old = under_both(monkeypatch, load_mapping, f)
        assert new == old and new["graph"]["n_drones"] == 512 and validate_mapping(new) == []

    @pytest.mark.parametrize("text,expected", [
        ("a: 1e2\nb: 1e+3\nc: 1.5e3\nd: -2E-2\n",
         {"a": 100.0, "b": 1000.0, "c": 1500.0, "d": -0.02}),
        ("\ufeffname: bom\nseed: 3\n", {"name": "bom", "seed": 3}),
        ("name: crlf\r\nwind_mps: [1.0,\r\n  2]\r\n", {"name": "crlf", "wind_mps": [1.0, 2]}),
        ("base: &b {k_e: 1.0, k_n: 2.0}\ngvf:\n  <<: *b\n  k_n: 3.0\n",
         {"base": {"k_e": 1.0, "k_n": 2.0}, "gvf": {"k_e": 1.0, "k_n": 3.0}}),
        ("seed: 1\nseed: 2\n", {"seed": 2}),
        ("t_end_s: 1:30\ndt_s: 1:30.5\n", {"t_end_s": 90, "dt_s": 90.5}),
    ], ids=["exponents", "bom", "crlf", "merge-key", "duplicate-key", "sexagesimal"])
    def test_file_cases(self, text, expected, tmp_path, monkeypatch):
        f = tmp_path / "case.scn"
        f.write_bytes(text.encode())
        assert under_both(monkeypatch, load_mapping, f) == (expected, expected)

    @pytest.mark.parametrize("value,expected", [
        ("1e2", 100.0), ("1e+3", 1000.0), ("1.5e3", 1500.0), ("\ufeff7", 7),
        ("[1,\r\n 2]", [1, 2]), ("{<<: {a: 1}, b: 2}", {"a": 1, "b": 2}),
        ("{a: 1, a: 2}", {"a": 2}), ("1:30", 90),
    ], ids=["1e2", "1e+3", "1.5e3", "bom", "crlf", "merge-key", "duplicate-key", "sexagesimal"])
    def test_override_cases(self, value, expected, monkeypatch):
        new, old = under_both(monkeypatch, apply_overrides, base_doc(), [f"consensus.r_m={value}"])
        assert new == old and new["consensus"]["r_m"] == expected

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
    def test_lone_surrogate_escape_is_unparsable(self, tmp_path, monkeypatch):
        # the one known difference: the pure parser reads the escape into a
        # lone surrogate, which libyaml rejects
        f = tmp_path / "surrogate.scn"
        f.write_text('name: "\\ud800"\n')
        with pytest.raises(ScenarioError, match="unparsable"):
            load_mapping(f)
        with pytest.raises(ScenarioError, match="unparsable value"):
            apply_overrides({}, ['name="\\ud800"'])
        monkeypatch.setattr(scenario_module, "_Loader", _PureLoader)
        assert load_mapping(f) == {"name": "\ud800"}
        assert apply_overrides({}, ['name="\\ud800"']) == {"name": "\ud800"}


class TestOverrides:
    def test_scalar_list_and_null(self):
        doc = base_doc()
        out = apply_overrides(
            doc,
            ["dt_s=0.01", "wind_mps=[0, 3.5]", "oscillation.fixed_amplitude_m=null"],
        )
        assert out["dt_s"] == 0.01
        assert out["wind_mps"] == [0, 3.5]
        assert out["oscillation"]["fixed_amplitude_m"] is None

    def test_original_untouched(self):
        doc = base_doc()
        apply_overrides(doc, ["consensus.r_m=25"])
        assert doc["consensus"]["r_m"] == 150.0

    def test_creates_intermediate_mappings(self):
        out = apply_overrides({}, ["oscillation.k_a=1.2"])
        assert out == {"oscillation": {"k_a": 1.2}}

    def test_bad_forms_raise(self):
        with pytest.raises(ScenarioError):
            apply_overrides({}, ["no_equals_sign"])
        with pytest.raises(ScenarioError):
            apply_overrides({}, ["=5"])


class TestValidation:
    def test_base_doc_clean(self):
        assert validate_mapping(base_doc()) == []

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("speed_mps"), "speed_mps"),
            (lambda d: d.update(dt_s=-0.02), "dt_s"),
            (lambda d: d.update(dt_s=0.2), "dt_s"),  # >= 0.1 / w_gamma
            (
                lambda d: d["graph"].update(n_drones=3, edges=[[1, 2], [2, 3], [3, 1]]),
                "spanning tree",
            ),
            (lambda d: d["oscillation"].update(amplitude_cap_m=30.0), "kinematic limit"),
            (lambda d: d["initial"].update(parameters_m=[1.0]), "parameters_m"),
            (
                lambda d: d["initial"].update(parameter_span_m=[-5.0, 5.0]),
                "exactly one",
            ),
            (lambda d: d["initial"].pop("parameters_m"), "exactly one"),
            (lambda d: d["consensus"].update(tau_h=80.0), "tau_h"),
            (lambda d: d.update(bogus_key=1), "bogus_key"),
            (lambda d: d["gvf"].update(mystery=2.0), "mystery"),
            (lambda d: d.update(speed_mps=[16.0, 15.0]), "speed_mps"),
            (lambda d: d["oscillation"].update(fixed_amplitude_m=-1.0), "fixed_amplitude_m"),
            (lambda d: d["consensus"].update(comm_delay_ticks=-1), "comm_delay_ticks"),
            (lambda d: d.update(seed="eleven"), "seed"),
            (lambda d: d["graph"].update(n_drones=0), "n_drones"),
            # rejected from the edge count, before any per-drone allocation
            (
                lambda d: d["graph"].update(n_drones=10**9),
                "graph: must be a spanning tree, a tree on 1000000000 drones has 999999999 edges, got 1",
            ),
            (lambda d: d["graph"].update(n_drones=10**400), "graph: must be a spanning tree, a tree on 1"),
            (lambda d: d["graph"].update(edges={}), "graph.edges"),  # only null means no edges
            # each pair is the Graph's to check, and its message is the violation
            (
                lambda d: d["graph"].update(edges=[[1.0, 2.0]]),
                "graph.edges: node ids must be integers, got float",
            ),
            (
                lambda d: d["graph"].update(edges=[{1: 0, 2: 0}]),
                "graph.edges: edges must be (tail, head) pairs",
            ),
            (
                lambda d: d["graph"].update(edges=[[1, 2**64]]),
                "graph.edges: node id beyond the int64 range",
            ),
            (lambda d: d["gvf"].update(k_n=[1.0, 0.0]), "gvf.k_n: must be positive"),
            # auto tau_h = (v - eps)/k_u is about 87.5 here
            (lambda d: d["consensus"].update(tau_l=1000.0), "consensus.tau_h: must exceed tau_l"),
            (lambda d: d["oscillation"].update(k_a=math.inf), "oscillation.k_a: must be finite"),
            (lambda d: d["consensus"].update(tau_l=math.inf), "consensus.tau_l: must be finite"),
            (lambda d: d["initial"].update(offsets_m=math.nan), "initial.offsets_m"),
            (lambda d: d["gvf"].update(k_e=math.inf), "gvf.k_e: expected"),
            (lambda d: d["initial"].update(headings_rad=[0.0, -math.inf]), "initial.headings_rad"),
            (
                lambda d: d["initial"].update(parameters_m=None, parameter_span_m=[-1e308, 1e308]),
                "high - low",
            ),
            (lambda d: d["paths"].update(origin_m=[0.0, 1e308], spacing_m=1e308), "float range"),
            (
                lambda d: (
                    d["graph"].update(n_drones=1, edges=None),
                    d["initial"].update(parameters_m=[0.0]),
                    d["paths"].update(spacing_m=math.inf),
                ),
                "paths.spacing_m",
            ),
            # 1e10 / 1e-300 ticks overflow to inf
            (lambda d: d.update(dt_s=1e-300, t_end_s=1e10), "t_end_s: 10000000000.0 is not a finite"),
            # the averager's window, 2 pi / 1e-300 s, in steps of 1e-10 s
            (
                lambda d: (d.update(dt_s=1e-10), d["oscillation"].update(w_gamma_rad_s=1e-300)),
                "oscillation.w_gamma_rad_s: the wave period",
            ),
        ],
    )
    def test_violations(self, mutate, needle):
        doc = base_doc()
        mutate(doc)
        bad = validate_mapping(doc)
        assert bad, f"expected a violation mentioning {needle!r}"
        assert any(needle in v for v in bad)

    def test_span_requires_seed(self):
        doc = base_doc()
        doc.pop("seed")
        doc["initial"] = {"parameter_span_m": [-5.0, 5.0]}
        assert any("seed" in v for v in validate_mapping(doc))

    def test_matching_tau_h_accepted(self):
        doc = base_doc()
        # (v - eps) / k_u for v = 16, k_a = 1.35, k_u = 0.06
        doc["consensus"]["tau_h"] = 87.5223985460044
        assert validate_mapping(doc) == []

    def test_equal_speed_list_accepted(self):
        doc = base_doc()
        doc["speed_mps"] = [16.0, 16.0]
        assert validate_mapping(doc) == []
        assert build_scenario(doc).speed == 16.0

    def test_build_raises_with_same_violations(self):
        doc = base_doc()
        doc.pop("speed_mps")
        doc["bogus"] = 1
        expected = validate_mapping(doc)
        with pytest.raises(ScenarioError) as err:
            build_scenario(doc)
        assert err.value.violations == expected


SCHEMA_PATHS = {
    "name", "speed_mps", "dt_s", "t_end_s", "seed", "wind_mps", "convergence_threshold_m",
    "graph", "graph.n_drones", "graph.edges",
    "paths", "paths.alpha_rad", "paths.origin_m", "paths.spacing_m", "paths.origins_m",
    "gvf", "gvf.k_e", "gvf.k_n",
    "oscillation", "oscillation.w_gamma_rad_s", "oscillation.k_a", "oscillation.amplitude_cap_m",
    "oscillation.tau_a_s", "oscillation.fixed_amplitude_m",
    "consensus", "consensus.k_u", "consensus.r_m", "consensus.tau_l", "consensus.tau_h",
    "consensus.comm_delay_ticks",
    "initial", "initial.parameters_m", "initial.parameter_span_m", "initial.offsets_m",
    "initial.headings_rad",
}
DROP = object()
ODD_VALUES = [
    None, True, "abc", "auto", "", [], {}, [1], [1, 2, 3], [[1, 2]], [-5.0, 5.0], [5.0, -5.0],
    [16.0, 15.0], [math.nan, 1.0], [0.0, math.inf], [-1e200, 1e200], [-1e308, 1e308],
    math.inf, -math.inf, math.nan, 1e200, -1e200, 0, -1, 0.5, 1.0, 1000,
]
BAD_EDGES = [
    [[1, 2], [2, 1]], [[1, 1]], [[0, 1]], [[1, 9]], [[1, 2], [2, 3], [3, 1]], [[1, 2, 3]],
    [[True, 2]], [[1.0, 2.0]], {}, "1-2",
]
MUTATION = st.one_of(
    st.tuples(
        st.sampled_from(sorted(SCHEMA_PATHS) + ["bogus", "graph.bogus", "initial.extra"]),
        st.one_of(st.just(DROP), st.sampled_from(ODD_VALUES), st.floats(), st.integers(-3, 1000)),
    ),
    st.tuples(st.just("graph.edges"), st.sampled_from(BAD_EDGES)),
)


@functools.cache
def bundled(path) -> dict:
    return load_mapping(path)


def mutate(doc: dict, path: str, value) -> None:
    *section, key = path.split(".")
    node = doc
    if section:
        node = doc.get(section[0])
        if not isinstance(node, dict):
            node = doc[section[0]] = {}
    if value is DROP:
        node.pop(key, None)
    else:
        node[key] = copy.deepcopy(value)


class TestParseProperty:
    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(["eight_drones.scn", "two_drones.scn"]),
        mutations=st.lists(MUTATION, min_size=1, max_size=4),
    )
    # mutants that once validated clean and then failed to build
    @example(name="two_drones.scn", mutations=[("consensus.tau_l", 1000)])
    @example(name="eight_drones.scn", mutations=[("oscillation.k_a", math.inf)])
    @example(name="eight_drones.scn", mutations=[("initial.parameter_span_m", [-1e308, 1e308])])
    def test_validates_iff_builds(self, scenario_dir, name, mutations):
        doc = copy.deepcopy(bundled(scenario_dir / name))
        for path, value in mutations:
            mutate(doc, path, value)
        violations = validate_mapping(doc)
        try:
            scenario = build_scenario(doc)
        except ScenarioError as err:
            assert violations and err.violations == violations
        else:
            assert violations == [] and isinstance(scenario, Scenario)
        unknown = {k for k in doc if k not in SCHEMA_PATHS} | {
            f"{sec}.{k}"
            for sec, body in doc.items()
            if isinstance(body, dict)
            for k in body
            if f"{sec}.{k}" not in SCHEMA_PATHS
        }
        for v in violations:
            assert v.partition(": ")[0] in SCHEMA_PATHS | unknown, v


class TestBuild:
    def test_base_doc(self):
        sc = build_scenario(base_doc())
        assert isinstance(sc, Scenario)
        assert sc.n_drones == 2
        assert sc.n_ticks == 500
        assert np.array_equal(sc.initial_parameters, [-10.0, 15.0])
        assert sc.fixed_amplitude is None
        assert sc.oscillation.amplitude_cap == 20.0

    def test_eight_drone_file(self, scenario_dir):
        sc = build_scenario(load_mapping(scenario_dir / "eight_drones.scn"))
        assert sc.n_drones == 8
        # horizontal lines stacked 30 m apart
        assert np.array_equal(sc.origins, [[0.0] * 8, [30.0 * i for i in range(8)]])
        assert np.array_equal(sc.tangents, np.repeat([[1.0], [0.0]], 8, axis=1))
        assert np.array_equal(sc.normals, np.repeat([[0.0], [1.0]], 8, axis=1))
        assert np.array_equal(sc.initial_headings, np.zeros(8))
        # tau_h resolves from the speed deficit at full amplitude
        assert sc.saturation.tau_h == pytest.approx(16.410449727375825, abs=1e-9)
        assert sc.saturation.tau_l == 0.0
        assert sc.saturation.r == 30.0
        span = sc.initial_parameters
        assert span.shape == (8,)
        assert np.all(span >= -15.0) and np.all(span <= 15.0)

    def test_seeded_parameters_reproducible(self, scenario_dir):
        doc = load_mapping(scenario_dir / "eight_drones.scn")
        a = build_scenario(doc).initial_parameters
        b = build_scenario(doc).initial_parameters
        assert np.array_equal(a, b)
        other = build_scenario(apply_overrides(doc, ["seed=12"])).initial_parameters
        assert not np.array_equal(a, other)

    def test_initial_positions(self):
        doc = base_doc()
        doc["initial"]["offsets_m"] = [2.0, -1.0]
        sc = build_scenario(doc)
        pos = sc.initial_positions()
        # alpha = 0: foot (x_i, 50 i), left normal (0, 1)
        assert np.allclose(pos[0], [-10.0, 2.0], atol=1e-12)
        assert np.allclose(pos[1], [15.0, 50.0 - 1.0], atol=1e-12)

    def test_per_drone_gains(self):
        doc = base_doc()
        doc["gvf"]["k_e"] = [1.0, 2.0]
        sc = build_scenario(doc)
        assert np.array_equal(sc.k_e, [1.0, 2.0])
        assert np.array_equal(sc.k_n, [1.0, 1.0])

    def test_auto_defaults_resolve(self):
        doc = base_doc()
        doc["oscillation"].pop("amplitude_cap_m")
        sc = build_scenario(doc)
        assert sc.oscillation.amplitude_cap == pytest.approx(16.0 / 0.6)
        assert sc.oscillation.tau_a == pytest.approx(5.0 / 0.6)

    def test_two_drone_file(self, scenario_dir):
        sc = build_scenario(load_mapping(scenario_dir / "two_drones.scn"))
        assert sc.n_drones == 2
        assert np.array_equal(sc.initial_parameters, [-10.0, 15.0])
        assert sc.speed == 16.0


def oracle_geometry(doc: dict, sc: Scenario) -> tuple[np.ndarray, ...]:
    """Each drone's line from the document, one drone at a time in plain floats.

    Line i passes through o_i with tangent t = (cos a, sin a) and left
    normal n = (-sin a, cos a); drone i starts at o_i + x_i t + d_i n.
    Spaced lines have o_i = o + (i s) n. Returns origins, tangents and
    normals as (2, N), and the initial positions as (N, 2).
    """
    psec = doc.get("paths") or {}
    alpha = psec.get("alpha_rad", 0.0)
    c, s = math.cos(alpha), math.sin(alpha)
    if psec.get("origins_m") is not None:
        origins = [(float(ox), float(oy)) for ox, oy in psec["origins_m"]]
    else:
        bx, by = (float(v) for v in psec.get("origin_m", [0.0, 0.0]))
        spacing = psec.get("spacing_m")
        spacing = 0.0 if spacing is None else float(spacing)
        origins = [(bx + i * spacing * -s, by + i * spacing * c) for i in range(sc.n_drones)]
    positions = []
    for (ox, oy), x, d in zip(origins, sc.initial_parameters.tolist(),
                              sc.initial_offsets.tolist()):
        fx, fy = ox + x * c, oy + x * s
        positions.append((fx + d * -s, fy + d * c))
    n = sc.n_drones
    return (np.array(origins).T, np.array([[c] * n, [s] * n]), np.array([[-s] * n, [c] * n]),
            np.array(positions))


def assert_geometry_matches_oracle(doc: dict) -> Scenario:
    sc = build_scenario(doc)
    got = (sc.origins, sc.tangents, sc.normals, sc.initial_positions())
    for name, a, b in zip(("origins", "tangents", "normals", "positions"), got,
                          oracle_geometry(doc, sc)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return sc


def alpha_doc(alpha: float, explicit: bool) -> dict:
    # drones at parameter 0.0 with offsets of both signed zeros meet the
    # -0.0 products of TestTickSums
    doc = base_doc()
    doc["graph"] = {"n_drones": 4, "edges": [[1, 2], [2, 3], [2, 4]]}
    doc["paths"] = {"alpha_rad": alpha, "origin_m": [3.0, -7.0], "spacing_m": 30.0}
    if explicit:
        doc["paths"] = {"alpha_rad": alpha, "origins_m": [[0, 0], [3.0, -7.0], [-0.0, 5], [1e3, 2.5]]}
    doc["initial"] = {"parameters_m": [0.0, 0.0, -12.5, 40.0], "offsets_m": [0.0, -0.0, 2.0, -3.5]}
    return doc


def tree_doc(n: int, seed: int, explicit: bool) -> dict:
    rng = np.random.default_rng(seed)
    doc = base_doc()
    doc["graph"] = {"n_drones": n, "edges": recursive_tree_edges(n, rng)}
    alpha = float(rng.uniform(-math.pi, math.pi))
    doc["paths"] = {"alpha_rad": alpha, "origin_m": rng.normal(0, 100, 2).tolist(),
                    "spacing_m": float(rng.uniform(-60, 60))}
    if explicit:
        doc["paths"] = {"alpha_rad": alpha, "origins_m": rng.normal(0, 500, (n, 2)).tolist()}
    doc["initial"] = {"parameters_m": rng.uniform(-50, 50, n).tolist(),
                      "offsets_m": rng.normal(0, 5, n).tolist()}
    return doc


class TestPathArrays:
    @pytest.mark.parametrize("name", ["eight_drones.scn", "two_drones.scn"])
    def test_bundled_files(self, name, scenario_dir):
        assert_geometry_matches_oracle(load_mapping(scenario_dir / name))

    @pytest.mark.parametrize("explicit", [False, True], ids=["spacing", "origins"])
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.5, 4.0, -math.pi])
    def test_headings(self, alpha, explicit):
        assert_geometry_matches_oracle(alpha_doc(alpha, explicit))

    @pytest.mark.parametrize("explicit", [False, True], ids=["spacing", "origins"])
    @pytest.mark.parametrize("n", [1, 2, 64, 4096])
    def test_random_recursive_trees(self, n, explicit):
        assert_geometry_matches_oracle(tree_doc(n, 100 + n, explicit))

    @pytest.mark.parametrize("explicit", [False, True], ids=["spacing", "origins"])
    @pytest.mark.parametrize("alpha", [0.7, 2.5, 4.0, -math.pi])
    def test_round_trip_through_run(self, alpha, explicit):
        # the first history row measures each drone back onto its line:
        # parameter and offset are the ones it was placed at
        sc = build_scenario({**alpha_doc(alpha, explicit), "t_end_s": 0.02})
        res = run(sc)
        scale = max(1.0, *(float(np.abs(a).max()) for a in
                           (sc.origins, sc.initial_parameters, sc.initial_offsets)))
        assert np.abs(res.path_parameters[0] - sc.initial_parameters).max() <= 1e-12 * scale
        assert np.abs(res.phis[0] - sc.initial_offsets).max() <= 1e-12 * scale
        normal = np.array([-math.sin(alpha), math.cos(alpha)])
        assert all(sc.normals[:, i].tobytes() == normal.tobytes() for i in range(sc.n_drones))
