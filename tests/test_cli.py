import contextlib
import csv
import hashlib
import io
import math
import warnings

import numpy as np
import pytest
import yaml

from gvfswarm import cli
from gvfswarm.cli import main
from gvfswarm.oscillation import (
    average_parametric_velocity,
    average_parametric_velocity_closed_form,
)


def _csv_oracle(header, rows) -> bytes:
    """A table's bytes as a per-cell ``%.9g`` csv.writer formatter writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.9g" % v for v in row])
    return buf.getvalue().encode()


def _spy(monkeypatch, name) -> list:
    """Record what cli.<name> returns, calling the real one."""
    real, results = getattr(cli, name), []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, spy)
    return results


@pytest.mark.parametrize(
    "args",
    [
        ["run", "two_drones.scn", "--summary"],
        ["consensus-demo", "--out"],
        ["fit-curve", "--speed", "16", "--w-gamma", "0.6", "--out"],
    ],
    ids=["run-summary", "consensus-demo", "fit-curve"],
)
def test_bad_output_path_fails_before_the_work(args, scenario_dir, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the work started before the output file was opened")

    for name in ("run_sim", "integrate_consensus", "average_parametric_velocity"):
        monkeypatch.setattr(cli, name, never)
    args = [str(scenario_dir / a) if a.endswith(".scn") else a for a in args]
    assert main(args + [str(tmp_path / "missing" / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("[Errno 2] ")


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "gvfswarm" in capsys.readouterr().out


class TestValidate:
    def test_bundled_scenarios_ok(self, scenario_dir, capsys):
        for name in ("eight_drones.scn", "two_drones.scn"):
            assert main(["validate", str(scenario_dir / name)]) == 0
            assert capsys.readouterr().out.strip() == "ok"

    def test_override_can_break_a_scenario(self, scenario_dir, capsys):
        code = main(
            ["validate", str(scenario_dir / "two_drones.scn"), "--set", "dt_s=-1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid:" in err and "dt_s" in err

    def test_huge_integer_override_is_invalid(self, scenario_dir, capsys):
        code = main(
            [
                "validate",
                str(scenario_dir / "two_drones.scn"),
                "--set", "graph.n_drones=1" + "0" * 5000,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid:" in err and "graph.n_drones" in err

    @pytest.mark.parametrize(
        "override",
        ["graph.n_drones=1" + "0" * 5000, "x" * 5000, "." * 5000 + "=1"],
        ids=["unparsable", "no-equals", "empty-key"],
    )
    def test_long_override_is_echoed_short(self, override, scenario_dir, capsys):
        assert main(["validate", str(scenario_dir / "two_drones.scn"), "--set", override]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid: override ") and len(lines[0]) < 300
        assert f"({len(override)} characters)" in lines[0]

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_deeply_nested_value_is_unparsable(self, where, scenario_dir, tmp_path, capsys):
        # once a RecursionError traceback
        deep = "[" * 3000 + "]" * 3000
        bundled = scenario_dir / "two_drones.scn"
        if where == "file":
            path = tmp_path / "deep.scn"
            path.write_text(bundled.read_text() + f"extra: {deep}\n")
            args = ["validate", str(path)]
        else:
            args = ["validate", str(bundled), "--set", f"extra={deep}"]
        assert main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid: ") and "unparsable" in lines[0]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.scn")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("spelling", ["1e2", "1e+3", "1.5e3"])
    @pytest.mark.parametrize("where", ["file", "set"])
    def test_exponent_float_without_dot_is_a_number(
        self, where, spelling, scenario_dir, tmp_path, capsys
    ):
        # these once read as strings: "t_end_s: required positive number"
        bundled = scenario_dir / "two_drones.scn"
        if where == "file":
            path = tmp_path / "exp.scn"
            path.write_text(bundled.read_text().replace("t_end_s: 300.0\n", f"t_end_s: {spelling}\n"))
            args = ["validate", str(path)]
        else:
            args = ["validate", str(bundled), "--set", f"t_end_s={spelling}"]
        assert main(args) == 0
        assert capsys.readouterr() == ("ok\n", "")


class TestRun:
    def test_run_writes_telemetry_and_summary(self, scenario_dir, tmp_path, capsys):
        telem = tmp_path / "out.csv"
        summ = tmp_path / "summary.yaml"
        code = main(
            [
                "run",
                str(scenario_dir / "two_drones.scn"),
                "--set", "t_end_s=10",
                "--telemetry", str(telem),
                "--summary", str(summ),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = yaml.safe_load(summ.read_text())
        assert doc["n_drones"] == 2
        assert doc["overrides"] == ["t_end_s=10"]
        assert doc["telemetry_sha256"]
        with open(telem, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t_s"
        assert len(rows) == doc["n_ticks"] + 2

    def test_summary_to_stdout(self, scenario_dir, capsys):
        code = main(
            ["run", str(scenario_dir / "two_drones.scn"), "--set", "t_end_s=5", "--digest"]
        )
        assert code == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["name"]
        assert doc["telemetry_sha256"]

    def test_telemetry_file_is_the_digested_bytes(self, scenario_dir, tmp_path, capsys):
        scn = str(scenario_dir / "two_drones.scn")
        telem = tmp_path / "out.csv"
        summ = tmp_path / "summary.yaml"
        args = ["run", scn, "--set", "t_end_s=5"]
        assert main(args + ["--telemetry", str(telem), "--summary", str(summ)]) == 0
        with_file = yaml.safe_load(summ.read_text())
        data = telem.read_bytes()
        assert hashlib.sha256(data).hexdigest() == with_file["telemetry_sha256"]
        lines = data.split(b"\r\n")
        assert lines[-1] == b""  # the last line ends in CR LF too
        assert len(lines) == with_file["n_ticks"] + 3
        assert all(b"\r" not in line and b"\n" not in line for line in lines)
        # without a file the digest covers the same bytes
        capsys.readouterr()
        assert main(args + ["--digest"]) == 0
        file_less = yaml.safe_load(capsys.readouterr().out)
        assert file_less["telemetry_sha256"] == with_file["telemetry_sha256"]

    def test_huge_comm_delay_runs(self, scenario_dir, capsys):
        delay = "consensus.comm_delay_ticks=100000000000000000000"
        args = ["run", str(scenario_dir / "two_drones.scn"), "--set", delay]
        assert main(args + ["--set", "t_end_s=1", "--digest"]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["overrides"] == [delay, "t_end_s=1"]
        assert doc["telemetry_sha256"]

    def test_run_reports_what_validate_reports(self, scenario_dir, capsys):
        # the resolved tau_h (auto, about 87.5 here) must exceed tau_l
        args = [str(scenario_dir / "two_drones.scn"), "--set", "consensus.tau_l=1000"]
        assert main(["validate"] + args) == 2
        validated = capsys.readouterr().err
        assert main(["run"] + args) == 2
        ran = capsys.readouterr().err
        assert validated == ran == "invalid: consensus.tau_h: must exceed tau_l\n"

    def test_history_too_large_for_memory(self, scenario_dir, capsys):
        # 5e13 ticks: the first history array asks for hundreds of TiB
        # and fails at allocation, before any page is touched
        args = ["run", str(scenario_dir / "two_drones.scn"), "--set", "t_end_s=1.0e+12"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_tick_count_beyond_the_float_range_is_invalid(self, scenario_dir, capsys):
        args = [str(scenario_dir / "two_drones.scn"), "--set", "dt_s=1e-300", "--set", "t_end_s=1e10"]
        assert main(["validate"] + args) == 2
        validated = capsys.readouterr().err
        assert main(["run"] + args) == 2
        out, ran = capsys.readouterr()
        assert out == ""
        assert validated == ran == (
            "invalid: t_end_s: 10000000000.0 is not a finite number of steps of dt_s = 1e-300\n"
        )

    @pytest.mark.parametrize(
        "overrides",
        [["dt_s=1e-20", "t_end_s=100"], ["oscillation.w_gamma_rad_s=1e-300"],
         ["dt_s=1e-17", "t_end_s=10"], ["t_end_s=1e300"]],
        ids=["window-dimension", "window-of-a-slow-wave", "window-bytes", "history"],
    )
    def test_arrays_beyond_the_address_space(self, overrides, scenario_dir, capsys):
        # numpy would call these sizes a ValueError; no page is asked for
        args = ["run", str(scenario_dir / "two_drones.scn")]
        for item in overrides:
            args += ["--set", item]
        assert main(["validate"] + args[1:]) == 0
        capsys.readouterr()
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory: a float64 array of at least 1e")
        assert err.endswith(" values exceeds the address space\n") and err.count("\n") == 1

    def test_dead_telemetry_helper_is_one_error_line(self, killed_helper_run, scenario_dir):
        scenario = str(scenario_dir / "two_drones.scn")
        proc = killed_helper_run(
            "from gvfswarm.cli import main\n"
            f"print('exit', main(['run', {scenario!r}, '--set', 't_end_s=20', '--digest']))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["exit 1", "no child left"]
        assert proc.stderr.splitlines() == [
            "error: telemetry helper was killed by signal 9 before the run ended"
        ]

    def test_overflowing_run_is_one_error_line(self, scenario_dir, tmp_path, monkeypatch,
                                               capsys):
        # a run whose summary holds a non-finite value exits 2 with one
        # line, and the summary file stays empty
        args = [str(scenario_dir / "two_drones.scn"), "--set", "t_end_s=2"]
        flown = cli.run_sim

        def overflowing(*args, **kwargs):
            result = flown(*args, **kwargs)
            result.summary["ground_speed_min_mps"] = math.inf
            return result

        monkeypatch.setattr(cli, "run_sim", overflowing)
        summary = tmp_path / "summary.yaml"
        assert main(["run"] + args + ["--summary", str(summary)]) == 2
        assert capsys.readouterr() == (
            "", "the run overflowed: summary ground_speed_min_mps is inf\n")
        assert summary.read_text() == ""

    @pytest.mark.parametrize(
        "override,violation",
        [
            ("gvf.k_e=1e308", "gvf.k_e: the square of 1e+308 is not a finite number"),
            ("wind_mps=[1e300,0]",
             "wind_mps: the square of entry 0, 1e+300, is not a finite number"),
            ("speed_mps=1e200", "speed_mps: the square of 1e+200 is not a finite number"),
            # each component's square is finite, the norm's is not
            ("wind_mps=[1.3e154,1.3e154]",
             "wind_mps: the squared norm of [1.3e+154, 1.3e+154] is not a finite number"),
            ("initial.offsets_m=1e308",
             "initial: a drone starts where a coordinate's square is not a finite number"),
        ],
        ids=["gain", "wind", "speed", "wind-norm", "offset"],
    )
    def test_value_whose_square_overflows_is_invalid(self, override, violation, scenario_dir,
                                                      tmp_path, monkeypatch, capsys):
        # validate rejects it, and run exits 2 before the first tick
        args = [str(scenario_dir / "two_drones.scn"), "--set", override]
        assert main(["validate"] + args) == 2
        assert capsys.readouterr() == ("", f"invalid: {violation}\n")

        def no_flight(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_sim", no_flight)
        summary = tmp_path / "summary.yaml"
        assert main(["run"] + args + ["--summary", str(summary)]) == 2
        assert capsys.readouterr() == ("", f"invalid: {violation}\n")
        assert not summary.exists()

    def test_invalid_override_rejected(self, scenario_dir, capsys):
        code = main(
            ["run", str(scenario_dir / "two_drones.scn"), "--set", "speed_mps=-16"]
        )
        assert code == 2
        assert "invalid:" in capsys.readouterr().err


class TestCalibrate:
    def test_fits_in_band(self, capsys):
        assert main(["calibrate", "--speed", "16", "--w-gamma", "0.6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k_a = ")
        value = float(out.split("=")[1])
        assert 1.30 <= value <= 1.40

    def test_too_few_samples(self, capsys):
        code = main(
            ["calibrate", "--speed", "16", "--w-gamma", "0.6", "--samples", "5"]
        )
        assert code == 2
        capsys.readouterr()

    def test_rejects_nonpositive_speed(self, capsys):
        assert main(["calibrate", "--speed", "-1", "--w-gamma", "0.6"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--speed", "--w-gamma"])
    def test_rejects_non_finite(self, flag, value, capsys):
        args = {"--speed": "16", "--w-gamma": "0.6", flag: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", *(x for kv in args.items() for x in kv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "speed and w-gamma must be positive and finite\n"


    @pytest.mark.parametrize(
        "speed,w_gamma",
        [("1e308", "1e-308"), ("1e200", "1"), ("1e154", "1"), ("1", "1e-154"), ("1e-170", "1"),
         ("2e-154", "2e-308")],
        ids=["v/w-overflows", "v2-overflows", "sums-overflow", "limit2-overflows", "v2-underflows",
             "period-overflows"],
    )
    def test_rejects_out_of_range_curves(self, speed, w_gamma, capsys):
        # each pair once printed k_a = nan or inf, or a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "--speed", speed, "--w-gamma", w_gamma]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "out of range" in err
        assert "nan" not in err and "inf" not in err

    def test_output_unchanged_in_range(self, capsys):
        assert main(["calibrate", "--speed", "8", "--w-gamma", "0.6"]) == 0
        assert capsys.readouterr().out == "k_a = 1.36656575128255\n"


class TestConsensusDemo:
    def test_writes_monotone_lyapunov_trace(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = main(
            ["consensus-demo", "--t-end", "30", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_s"] + [f"x{i}" for i in range(1, 9)] + ["V"]
        v = np.array([float(r[-1]) for r in rows[1:]])
        assert len(v) == 3001
        assert np.all(np.diff(v) <= 1e-9)

    @pytest.mark.parametrize(
        "args, cells",
        [
            (["--t-end", "30", "--seed", "3"], []),
            (["--nodes", "5", "--x0", "-0.0", "1e300", "-3.5", "2", "7", "--t-end", "5"],
             [b"0,-0,1e+300,", b",4e+301\r\n"]),
        ],
        ids=["seeded-tree", "chain-extremes"],
    )
    def test_table_bytes(self, args, cells, tmp_path, monkeypatch, capsys):
        runs = _spy(monkeypatch, "integrate_consensus")
        out = tmp_path / "demo.csv"
        assert main(["consensus-demo", *args, "--out", str(out)]) == 0
        capsys.readouterr()
        (res,) = runs
        n = res.states.shape[1]
        rows = [[t, *x, v] for t, x, v in zip(res.times, res.states, res.lyapunov)]
        data = out.read_bytes()
        assert data == _csv_oracle(["t_s"] + [f"x{i}" for i in range(1, n + 1)] + ["V"], rows)
        assert all(cell in data for cell in cells)

    def test_explicit_x0_chain(self, capsys):
        code = main(
            ["consensus-demo", "--nodes", "3", "--x0", "0", "1", "2", "--t-end", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final spread" in out
        spread = float(next(l for l in out.splitlines() if "final spread" in l).split("=")[1])
        assert spread < 1e-6

    def test_steps_beyond_the_address_space(self, capsys):
        assert main(["consensus-demo", "--dt", "1e-20", "--t-end", "100"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: out of memory: a float64 array of at least 1e22 values exceeds the address space\n"
        )

    def test_x0_length_mismatch(self, capsys):
        assert main(["consensus-demo", "--nodes", "3", "--x0", "0", "1"]) == 2
        assert capsys.readouterr() == ("", "--x0 needs 3 values\n")

    @pytest.mark.parametrize("t_end", ["inf", "nan"])
    def test_rejects_non_finite_t_end(self, t_end, capsys):
        assert main(["consensus-demo", "--t-end", t_end]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"t_end must be a positive finite number, got {t_end}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--tau-h", "inf", "--t-end", "1"], "tau_h must be finite, got inf"),
            (["--tau-l", "nan", "--t-end", "1"], "tau_l must be finite, got nan"),
            (["--r", "inf", "--t-end", "1"], "r must be finite, got inf"),
            (["--x0", "nan", "0", "0", "0", "0", "0", "0", "0"],
             "x0 must be finite; 1 of its values are NaN or inf"),
            (["--x0", "0", "nan", "0", "0", "inf", "0", "0", "0", "--t-end", "1"],
             "x0 must be finite; 2 of its values are NaN or inf"),
            (["--span", "0", "inf", "--t-end", "1"],
             "--span must be finite with a finite width, got 0 inf"),
            (["--span", "nan", "1", "--t-end", "1"],
             "--span must be finite with a finite width, got nan 1"),
            (["--span", "0", "1e308", "--t-end", "1"],
             "x0 is too far from agreement: V(x0) is not a finite number"),
            (["--dt", "1e-300", "--t-end", "1e10"],
             "t_end 10000000000.0 / dt 1e-300 is not a finite count of steps"),
            (["--nodes", "0"], "--nodes must be at least 1"),
            # numpy's own errors for these two name no flag
            (["--seed", "-1"], "--seed must be non-negative, got -1"),
            (["--nodes", "3", "--span", "1", "0"], "--span LO must not exceed HI, got 1 0"),
        ],
        ids=[
            "tau-h-inf", "tau-l-nan", "r-inf", "x0-nan", "x0-inf", "span-inf", "span-nan",
            "span-overflows-v", "step-count-overflows", "no-nodes", "seed-negative",
            "span-reversed",
        ],
    )
    def test_rejects_non_finite_inputs(self, args, message, capsys):
        # one line and exit 2, before any step: no RuntimeWarning, no nan spread
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["consensus-demo", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message + "\n"


    @pytest.mark.parametrize(
        "args",
        [["--span", "-1e3", "1e3"], ["--nodes", "2", "--x0", "-1e2", "3"], ["--span", "-1E+3", "-5e-1"]],
        ids=["span", "x0", "both-negative"],
    )
    def test_negative_numbers_in_exponent_form(self, args, capsys):
        assert main(["consensus-demo", *args, "--t-end", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        initial = [float(v) for v in out.split("[", 1)[1].split("]", 1)[0].split()]
        assert min(initial) < 0.0

    def test_unknown_option_is_still_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["consensus-demo", "--span", "-1e3", "1e3", "-x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -x" in capsys.readouterr().err


class TestFitCurve:
    def test_routes_agree_in_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            ["fit-curve", "--speed", "16", "--w-gamma", "0.6", "--points", "12",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "amplitude_m", "avg_velocity_quadrature_mps", "avg_velocity_elliptic_mps"
        ]
        assert len(rows) == 13
        for row in rows[1:]:
            a, quad_v, ell_v = map(float, row)
            assert abs(quad_v - ell_v) < 1e-8 * 16.0
        # endpoints of the table
        assert float(rows[1][1]) == pytest.approx(16.0, abs=1e-9)
        assert float(rows[-1][1]) == pytest.approx(2 * 16.0 / np.pi, abs=1e-6)

    def test_stdout_table(self, capsys):
        assert main(["fit-curve", "--speed", "8", "--w-gamma", "0.6", "--points", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_table_bytes(self, to_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        args = ["fit-curve", "--speed", "16", "--w-gamma", "0.6", "--points", "50"]
        assert main(args + (["--out", str(out)] if to_file else [])) == 0
        printed = capsys.readouterr().out.encode()
        data = out.read_bytes() if to_file else printed
        assert printed == (b"" if to_file else data)
        rows = [
            (a, average_parametric_velocity(16.0, 0.6, a),
             average_parametric_velocity_closed_form(16.0, 0.6, a))
            for a in np.linspace(0.0, 16.0 / 0.6, 50)
        ]
        header = ["amplitude_m", "avg_velocity_quadrature_mps", "avg_velocity_elliptic_mps"]
        assert data == _csv_oracle(header, rows)

    def test_out_file_needs_no_binary_stdout(self, tmp_path, capsys):
        # with --out, stdout is not touched: a text-only one has no .buffer
        args = ["fit-curve", "--speed", "8", "--w-gamma", "0.6", "--points", "4"]
        out = tmp_path / "curve.csv"
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(args + ["--out", str(out)]) == 0
        assert text.getvalue() == ""
        assert main(args) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_rejects_single_point(self, capsys):
        assert main(["fit-curve", "--speed", "8", "--w-gamma", "0.6", "--points", "1"]) == 2
        assert capsys.readouterr() == ("", "--points must be at least 2\n")

    @pytest.mark.parametrize(
        "speed,w_gamma",
        [("1e308", "1e-308"), ("1e200", "1"), ("1", "1e-155"), ("1e-170", "1"), ("2e-154", "2e-308")],
        ids=["v/w-overflows", "v2-overflows", "limit2-overflows", "v2-underflows", "period-overflows"],
    )
    def test_rejects_out_of_range_curves(self, speed, w_gamma, capsys):
        # the first once ended in a traceback, the second printed nan cells
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit-curve", "--speed", speed, "--w-gamma", w_gamma, "--points", "3"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "out of range" in err
        assert "nan" not in err and "inf" not in err

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    @pytest.mark.parametrize("flag", ["--speed", "--w-gamma"])
    def test_rejects_non_finite_or_nonpositive(self, flag, value, capsys):
        args = {"--speed": "8", "--w-gamma": "0.6", flag: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit-curve", *(x for kv in args.items() for x in kv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "speed and w-gamma must be positive and finite\n"
