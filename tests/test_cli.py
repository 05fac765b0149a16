import io
import json
import math
import runpy
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbell import (
    DEFAULT_CONFIG, Sharp, bell_average_mc, bell_average_sharp, cli, correlator_mc,
)
from relbell.cli import (
    COMMAND_FLAGS,
    UsageError,
    emit,
    main,
    parse_args,
    render_args,
)


def finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def triple_text(lo, hi, min_norm=0.0):
    base = st.tuples(finite(lo, hi), finite(lo, hi), finite(lo, hi))
    if min_norm:
        base = base.filter(lambda t: math.sqrt(sum(c * c for c in t)) > min_norm)
    return base.map(lambda t: ",".join(repr(c) for c in t))


_dir3 = triple_text(-3.0, 3.0, min_norm=0.3)
_beta3 = triple_text(-0.5, 0.5)
_sigma3 = st.one_of(finite(0.0, 2.0).map(repr), triple_text(0.0, 2.0))

FLAG_TEXT = {
    "a": _dir3,
    "a-prime": _dir3,
    "b": _dir3,
    "b-prime": _dir3,
    "beta": _beta3,
    "beta2": _beta3,
    "sigma": _sigma3,
    "sigma2": _sigma3,
    "mass": finite(0.1, 5.0).map(repr),
    "dist": st.sampled_from(["sharp", "gaussian", "joint"]),
    "samples": st.integers(100, 5000).map(str),
    "seed": st.integers(0, 2**31).map(str),
    "workers": st.integers(1, 4).map(str),
    "figure": st.integers(1, 6).map(str),
    "resolution": st.integers(2, 50).map(str),
    "beta-max": finite(0.05, 0.95).map(repr),
    "out": st.sampled_from(["-", "table.csv", "runs/out.json"]),
    "format": st.sampled_from(["csv", "json"]),
    # enough test rounds at any drawn --test-fraction
    "pairs": st.integers(2000, 100_000).map(str),
    "key-axes": st.lists(_dir3, min_size=1, max_size=2).map(";".join),
    "eve-probability": finite(0.0, 1.0).map(repr),
    "eve-pool": st.lists(_dir3, min_size=1, max_size=2).map(";".join),
    "test-fraction": finite(0.05, 0.95).map(repr),
    "significance": finite(0.01, 0.2).map(repr),
    "threshold-mode": st.sampled_from(["empirical", "configured"]),
    "threshold-samples": st.integers(100, 5000).map(str),
}


@st.composite
def valid_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    chosen = {}
    for flag in flags:
        required = flag.default is None and flag.name in ("a", "b", "figure")
        if required or draw(st.booleans()):
            chosen[flag.name] = draw(FLAG_TEXT[flag.name])
    # correlate needs both axes; scan needs the figure
    for flag in flags:
        if flag.name in ("figure",) and command == "scan" and flag.name not in chosen:
            chosen[flag.name] = draw(FLAG_TEXT[flag.name])
        if flag.name in ("a", "b") and command == "correlate" and flag.name not in chosen:
            chosen[flag.name] = draw(FLAG_TEXT[flag.name])
    if chosen.get("dist") in ("gaussian", "joint") and "sigma" not in chosen:
        chosen["sigma"] = draw(FLAG_TEXT["sigma"])
    # a profile flag the chosen profile does not read is a usage error
    dist = chosen.get("dist", "sharp")
    used = {"sharp": (), "gaussian": ("sigma",), "joint": ("sigma", "beta2", "sigma2")}[dist]
    if command == "correlate" and dist == "sharp":
        used = ("beta2",)
    for name in ("sigma", "beta2", "sigma2"):
        if name not in used:
            chosen.pop(name, None)
    # Eve's pool is read only together with her attack probability
    if "eve-probability" not in chosen:
        chosen.pop("eve-pool", None)
    argv = [command]
    for name, text in chosen.items():
        argv.extend([f"--{name}", text])
    return argv


_BAD_DIR = ["0,0,0", "1,0", "1,x,0", "nan,0,0"]

#: Values each flag rejects whatever the other flags say: syntax errors and
#: values the library constructors refuse.
BAD_TEXT = {
    "a": _BAD_DIR,
    "a-prime": _BAD_DIR,
    "b": _BAD_DIR,
    "b-prime": _BAD_DIR,
    "beta": ["1.5,0,0", "0.8,0.8,0", "1,0,0", "0.5,0"],
    "beta2": ["1.5,0,0", "inf,0,0"],
    "sigma": ["-0.1", "0,-1,0", "nan", "x"],
    "sigma2": ["-0.1", "x"],
    "mass": ["0", "-1", "nan", "inf", "x", "1e200", "1e-170"],
    "dist": ["uniform"],
    "samples": ["99", "-1", "1.5"],
    "seed": ["-1", "x"],
    "workers": ["0", "-5"],
    "figure": ["0", "7", "x"],
    "resolution": ["1", "-3"],
    "beta-max": ["0", "1", "1.5"],
    "format": ["xml"],
    "pairs": ["0", "-5", "99"],
    "key-axes": [";", "0,0,0", "1,0"],
    "eve-probability": ["1.5", "-0.1"],
    "eve-pool": [";", "0,0,0"],
    "test-fraction": ["0", "1", "1.5"],
    "significance": ["0", "1"],
    "threshold-mode": ["exact"],
    "threshold-samples": ["99"],
    "frobnicate": ["1"],
}


@st.composite
def invalid_argv(draw):
    """A valid invocation with one flag overridden by a bad value."""
    argv = draw(valid_argv())
    names = [flag.name for flag in COMMAND_FLAGS[argv[0]] if flag.name in BAD_TEXT]
    name = draw(st.sampled_from([*names, "frobnicate"]))
    return [*argv, f"--{name}", draw(st.sampled_from(BAD_TEXT[name]))]


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(valid_argv())
    def test_parse_render_parse_is_identity(self, argv):
        first = parse_args(argv)
        assert parse_args(render_args(first)) == first

    def test_defaults_render_to_bare_command(self):
        config = parse_args(["bell"])
        assert render_args(config) == ["bell"]

    def test_direction_normalization_is_idempotent(self, capsys):
        config = parse_args(["correlate", "--a", "2,0,0", "--b", "0,1,0"])
        assert config["a"] == (1.0, 0.0, 0.0)
        assert "normalizing --a" in capsys.readouterr().err
        again = parse_args(render_args(config))
        assert "normalizing" not in capsys.readouterr().err
        assert again == config


class TestParsing:
    def test_triple_shape_errors(self):
        for text in ("1,0", "1,0,0,0", "1,x,0"):
            with pytest.raises(UsageError):
                parse_args(["correlate", "--a", text, "--b", "0,1,0"])

    def test_superluminal_beta_rejected(self):
        with pytest.raises(UsageError, match="beta"):
            parse_args(["bell", "--beta", "1.5,0,0"])

    def test_zero_direction_rejected(self):
        with pytest.raises(UsageError, match="nonzero"):
            parse_args(["correlate", "--a", "0,0,0", "--b", "0,1,0"])

    def test_scalar_sigma_broadcasts(self):
        config = parse_args(
            ["bell", "--dist", "gaussian", "--sigma", "0.25", "--beta", "0.9,0,0"]
        )
        assert config["sigma"] == (0.25, 0.25, 0.25)

    def test_gaussian_requires_sigma(self):
        with pytest.raises(UsageError, match="sigma"):
            parse_args(["bell", "--dist", "gaussian"])

    def test_choice_flags(self):
        with pytest.raises(UsageError, match="one of"):
            parse_args(["scan", "--figure", "1", "--format", "xml"])

    def test_key_axes_list(self):
        config = parse_args(["protocol", "--key-axes", "0,0,1;1,0,0"])
        assert config["key_axes"] == ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["correlate", "--a", "1,0,0", "--b", "0,1,0"]) == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_usage_errors_return_one(self, capsys):
        cases = [
            ["bell", "--beta", "1.5,0,0"],
            ["bell", "--frobnicate", "1"],
            ["bell", "--samples", "50"],
            ["correlate", "--b", "0,1,0"],
            ["scan", "--figure", "9"],
            ["scan"],
            [],
            # rejected by ProtocolConfig: too few test rounds, bad fraction
            ["protocol", "--pairs", "120"],
            ["protocol", "--pairs", "150"],
            ["protocol", "--test-fraction", "1.5"],
            # flags must match exactly: --beta is not --beta-max
            ["scan", "--figure", "1", "--beta", "0.5"],
        ]
        for argv in cases:
            assert main(argv) == 1, argv
            assert "error:" in capsys.readouterr().err

    def test_edge_flag_values_are_usage_errors(self, tmp_path, capsys):
        empty_key = tmp_path / "run.conf"
        empty_key.write_text(" = 1\n")
        cases = {
            ("protocol", "--key-axes", ";"): "--key-axes must list at least one triple",
            ("bell", "--mass", "inf"): "--mass must be finite, got 'inf'",
            ("bell", "--config", str(empty_key)): f"{empty_key}:1: empty key",
            ("bell", "--config"): "--config expects a file path",
        }
        for argv, message in cases.items():
            assert main(list(argv)) == 1, argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["relbell", "correlate", "--a", "1,0,0", "--b", "0,1,0"])
        assert main() == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_pool_past_the_int16_index_limit_exits_one(self, capsys):
        # Bob's 3 axes followed by Eve's 32766 make one axis too many
        argv = ["protocol", "--eve-probability", "0.5", "--eve-pool", ";".join(["0,0,1"] * 32766)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: Bob's pool plus the eavesdropper's basis_pool make 32769 axes; "
            "an int16 pool index addresses at most 32768\n"
        )

    def test_negative_seed_message(self, capsys):
        assert main(["bell", "--seed", "-1"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_runtime_errors_return_two(self, capsys):
        # 200 pairs pass the config checks, but one basis pair draws too
        # few test rounds; this shows only once the run is under way
        assert main(["protocol", "--pairs", "200"]) == 2
        assert "basis pair (0, 0) has 13 test rounds" in capsys.readouterr().err

    def test_runtime_error_without_text_is_named(self, capsys, monkeypatch):
        # a huge --samples makes the chunk list raise a bare MemoryError();
        # raise one directly so the test allocates nothing
        def out_of_memory(run):
            raise MemoryError()

        monkeypatch.setitem(cli._COMMANDS, "bell", out_of_memory)
        assert main(["bell"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestInvalidInput:
    @settings(max_examples=150, deadline=None)
    @given(invalid_argv())
    # the momentum overflows; these exited 0, 1 or 2 depending on the command
    @example(["correlate", "--a", "1,0,0", "--b", "0,1,0", "--mass", "1e308", "--beta", "0.9,0,0"])
    @example(["bell", "--mass", "1e308", "--beta", "0.9,0,0"])
    @example(["scan", "--figure", "1", "--mass", "1e308", "--beta", "0.9,0,0"])
    @example(["threshold", "--mass", "1e308", "--beta", "0.9,0,0"])
    @example(["protocol", "--mass", "1e308", "--beta", "0.9,0,0"])
    def test_exits_one_with_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code == 1, (argv, lines)
        assert [line for line in lines if line.startswith("error:")] == lines[-1:], lines
        assert all(line.startswith(("warning:", "error:")) for line in lines), lines
        assert out.getvalue() == ""

    def test_unread_profile_flags_are_usage_errors(self, capsys):
        ab = ["--a", "1,0,0", "--b", "0,1,0"]
        gaussian = ["--dist", "gaussian", "--sigma", "0.1"]
        cases = [
            (["bell", "--beta2", "0.9,0,0"], "--beta2 has no effect on bell with --dist sharp"),
            (["threshold", "--beta2", "0.9,0,0"], "--beta2 has no effect on threshold with --dist sharp"),
            (["protocol", "--beta2", "0.9,0,0"], "--beta2 has no effect on protocol with --dist sharp"),
            (["bell", *gaussian, "--beta2", "0.9,0,0"], "--beta2 has no effect on bell with --dist gaussian"),
            (["correlate", *ab, *gaussian, "--beta2", "0.9,0,0"],
             "--beta2 has no effect on correlate with --dist gaussian"),
            (["bell", "--sigma2", "0.1"], "--sigma2 has no effect on bell with --dist sharp"),
            (["bell", *gaussian, "--sigma2", "0.1"], "--sigma2 has no effect on bell with --dist gaussian"),
            (["correlate", *ab, "--sigma2", "0.1"], "--sigma2 has no effect on correlate with --dist sharp"),
            (["bell", "--sigma", "0.1"], "--sigma has no effect on bell with --dist sharp"),
            (["protocol", "--eve-pool", "1,0,0"], "--eve-pool has no effect without --eve-probability"),
        ]
        for argv, message in cases:
            assert main(argv) == 1, argv
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_joint_profile_reads_the_second_particle(self, capsys):
        # zero spread: the swap-symmetrized mixed-momentum Bell average
        argv = ["bell", "--dist", "joint", "--sigma", "0", "--beta2", "0.9,0,0",
                "--samples", "1000"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["value"] == pytest.approx(-2.730491670425466, abs=1e-8)


class TestCommandOutput:
    def test_correlate_mixed_kinematics(self, capsys):
        argv = [
            "correlate", "--a", "0,0,1", "--b", "0,0,1",
            "--beta", "0,0,0", "--beta2", "0.9,0,0",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == "-1.0\n"

    def test_correlate_monte_carlo_record(self, capsys):
        argv = [
            "correlate", "--a", "1,0,0", "--b", "0,1,0",
            "--dist", "gaussian", "--sigma", "0.05",
            "--beta", "0.9,0,0", "--samples", "2000",
        ]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) >= {"value", "standard_error", "samples", "rejected"}
        assert record["samples"] == 2000

    def test_sharp_correlate_is_the_estimators_value(self, capsys, tmp_path):
        # a sharp beam goes through correlator_mc, which draws nothing
        out = tmp_path / "record.json"
        argv = ["correlate", "--a", "0,0,1", "--b", "0,0.6,0.8", "--beta", "0.9,0.1,0"]
        assert main([*argv, "--out", str(out)]) == 0
        want = correlator_mc((0, 0, 1), (0, 0.6, 0.8), Sharp.from_beta((0.9, 0.1, 0.0)), 100, 0)
        assert capsys.readouterr().out == f"{want.value!r}\n"
        assert json.loads(out.read_text()) == {
            "value": want.value, "standard_error": 0.0, "samples": 0, "rejected": 0,
        }

    def test_bell_prints_sharp_average(self, capsys):
        # the estimator's exact value at the beam's momentum
        assert main(["bell", "--beta", "0.9,0,0"]) == 0
        expected = bell_average_mc(DEFAULT_CONFIG, Sharp.from_beta((0.9, 0.0, 0.0)), 100, 0).value
        assert capsys.readouterr().out == f"{expected!r}\n"
        assert expected == pytest.approx(
            bell_average_sharp(DEFAULT_CONFIG, (0.9, 0.0, 0.0)), rel=0, abs=1e-15
        )

    def test_sharp_beam_has_one_value(self, capsys):
        # bell, threshold and a configured protocol threshold all answer a
        # sharp beam through one estimator
        assert main(["bell", "--beta", "0.9,0,0"]) == 0
        bell = float(capsys.readouterr().out)
        assert main(["threshold", "--beta", "0.9,0,0"]) == 0
        threshold = json.loads(capsys.readouterr().out)["threshold"]
        assert main(["protocol", "--pairs", "2000", "--beta", "0.9,0,0", "--threshold-mode",
                     "configured", "--threshold-samples", "100"]) == 0
        protocol = json.loads(capsys.readouterr().out)["threshold"]
        assert -bell == threshold == protocol

    def test_scan_csv_to_stdout(self, capsys):
        assert main(["scan", "--figure", "5", "--resolution", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beta,c,abs_c"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] == pytest.approx(-2.8284271247461903, abs=1e-12)

    def test_scan_json_to_stdout(self, capsys):
        assert main(["scan", "--figure", "6", "--resolution", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["beta", "correlation", "reference"]

    def test_threshold_record(self, capsys):
        assert main(["threshold", "--beta", "0.9,0,0"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"threshold", "standard_error", "samples"}
        expected = abs(bell_average_sharp(DEFAULT_CONFIG, (0.9, 0.0, 0.0)))
        assert record["threshold"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--dist", "gaussian", "--sigma", "1e200"],
        ["--dist", "joint", "--sigma", "1e200", "--beta2", "0,0.8,0"],
    ])
    def test_overflowing_momenta_give_a_finite_threshold(self, argv, capsys):
        # m^2 + |p|^2 overflows for every draw: the rest value 2.828... was
        # printed here once, and the momentum form without scaling gives NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["threshold", *argv, "--samples", "1000"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        threshold = json.loads(out)["threshold"]
        assert math.isfinite(threshold) and threshold < 2.0 + 1e-12
        if argv[1] == "gaussian":
            # every draw is ultra relativistic, so each axis collapses onto
            # the shared momentum direction and every draw gives -2
            assert abs(threshold - 2.0) < 1e-12

    @pytest.mark.parametrize("argv", [
        ["--dist", "gaussian", "--sigma", "1e200"],
        ["--dist", "joint", "--sigma", "1e200", "--beta2", "0,0.8,0"],
    ])
    def test_overflowing_momenta_give_the_protocol_its_threshold(self, argv, capsys):
        # m^2 + |p|^2 overflowed here once, with a RuntimeWarning, and the
        # run judged every pair at rest against 2.828427124746191
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["protocol", "--pairs", "2000", "--seed", "3", *argv]) == 0
            assert main(["threshold", *argv]) == 0
        run, beam = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        if argv[1] == "gaussian":
            # every draw gives CHSH -2, on the recorded momenta as in the MC
            assert run["threshold"] == beam["threshold"] == 2.0
        else:
            # each draw's CHSH is random: in the ultra relativistic limit
            # it is 2 (n1.n2) times a sign, with variance 5/6 over
            # independent isotropic directions, so the two thresholds agree
            # within their errors
            error = math.hypot(math.sqrt(5 / 6 / 2000), beam["standard_error"])
            assert abs(run["threshold"] - beam["threshold"]) < 4 * error

    # the first three beams gave |bell| and threshold one ulp apart when
    # threshold took the beam's momentum and bell its velocity
    @pytest.mark.parametrize(
        "beta", ["0.9,0,0", "-0.87,0.06,-0.04", "-0.04,0.57,0.80", "0.5,0.5,0"]
    )
    def test_bell_and_threshold_agree_on_sharp_beams(self, beta, capsys):
        assert main(["bell", "--beta", beta]) == 0
        value = float(capsys.readouterr().out)
        assert main(["threshold", "--beta", beta]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"threshold": abs(value), "standard_error": 0.0, "samples": 0}

    @pytest.mark.parametrize("argv", [
        ["correlate", "--a", "1,0,0", "--b", "0,1,0", "--dist", "gaussian",
         "--sigma", "0.05", "--beta", "0.9,0,0", "--samples", "500"],
        ["bell", "--dist", "gaussian", "--sigma", "0.05", "--beta", "0.9,0,0",
         "--samples", "500"],
        ["threshold", "--beta", "0.9,0,0"],
        ["threshold", "--dist", "gaussian", "--sigma", "0.05", "--beta", "0.9,0,0",
         "--samples", "500"],
    ])
    def test_stdout_record_equals_out_file(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RELBELL_OUT_DIR", raising=False)
        path = tmp_path / "record.json"
        assert main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    def test_protocol_summary(self, capsys):
        argv = ["protocol", "--pairs", "800", "--seed", "7", "--beta", "0.9,0,0"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pair_count"] == 800
        assert summary["naive_verdict"] in ("clean", "eavesdropper")
        assert summary["key_disagreement_rate"] == 0.0

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "relbell.cli", "scan", "--figure", "5",
             "--resolution", "3"],
            capture_output=True, text=True, check=False,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("beta,c,abs_c\n")

    def test_module_entry_point_in_process(self, capsys, monkeypatch):
        # the module's own __main__ block, run in this process
        monkeypatch.setattr(sys, "argv", ["relbell", "correlate", "--a", "1,0,0", "--b", "0,1,0"])
        with warnings.catch_warnings():
            # relbell.cli is already imported, which runpy warns about
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exited:
                runpy.run_module("relbell.cli", run_name="__main__")
        assert exited.value.code == 0
        assert capsys.readouterr().out == "0.0\n"


class TestConfigFile:
    def test_values_are_read(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "beta = 0.9,0,0\n"
            "samples = 2000   # fast smoke run\n"
            "\n"
            "seed = 3\n"
        )
        config = parse_args(["bell", "--config", str(path)])
        assert config["beta"] == (0.9, 0.0, 0.0)
        assert config["samples"] == 2000
        assert config["seed"] == 3

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 3\n")
        config = parse_args(["bell", f"--config={path}", "--seed", "9"])
        assert config["seed"] == 9

    def test_keys_must_match_exactly(self, tmp_path, capsys):
        # scan has --beta-max but no --beta; a prefix is not expanded
        path = tmp_path / "run.conf"
        path.write_text("figure = 1\nbeta = 0.5\n")
        assert main(["scan", "--config", str(path)]) == 1
        assert "unrecognized arguments: --beta 0.5" in capsys.readouterr().err

    def test_bad_line_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("this is not a setting\n")
        assert main(["bell", "--config", str(path)]) == 1
        assert "key = value" in capsys.readouterr().err

    def test_nested_config_is_usage_error(self, tmp_path, capsys):
        # the inner file would be parsed and dropped, so the run would
        # quietly use seed 0
        (tmp_path / "inner.cfg").write_text("seed = 3\n")
        outer = tmp_path / "outer.cfg"
        outer.write_text(f"config = {tmp_path / 'inner.cfg'}\n")
        assert main(["bell", "--config", str(outer)]) == 1
        assert "cannot name another config file" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_args(["bell", "--config", "/nonexistent/run.conf"])


class TestOutputFiles:
    def test_scan_file_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for path in paths:
            assert main(
                ["scan", "--figure", "2", "--resolution", "7", "--out", str(path)]
            ) == 0
        capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.endswith(b"\n")
        assert b"\r" not in first

    def test_protocol_transcript_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in paths:
            assert main(
                ["protocol", "--pairs", "800", "--seed", "7",
                 "--beta", "0.9,0,0", "--out", str(path)]
            ) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        payload = json.loads(paths[0].read_text())
        assert payload["schema_version"] == 1

    def test_protocol_csv_transcript(self, tmp_path, capsys):
        path = tmp_path / "rounds.csv"
        assert main(
            ["protocol", "--pairs", "800", "--seed", "7",
             "--out", str(path), "--format", "csv"]
        ) == 0
        capsys.readouterr()
        assert len(path.read_text().splitlines()) == 801

    def test_out_dir_variable_anchors_relative_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELBELL_OUT_DIR", str(tmp_path))
        assert main(
            ["scan", "--figure", "5", "--resolution", "3", "--out", "sub/cut.csv"]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "sub" / "cut.csv").exists()

    def test_out_dir_variable_ignores_absolute_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELBELL_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        assert main(
            ["scan", "--figure", "5", "--resolution", "3", "--out", str(target)]
        ) == 0
        capsys.readouterr()
        assert target.exists()
        assert not (tmp_path / "elsewhere").exists()


class TestEmit:
    def test_plain_records_are_json_only(self):
        with pytest.raises(ValueError, match="json"):
            emit({"value": 1.0}, "csv", "-")

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError, match="cannot emit"):
            emit(3.0, "json", "-")
