import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfirstlaw import cli, experiment, verification
from qfirstlaw.firstlaw import EnergeticsLedger
from qfirstlaw.experiment import (
    ConfigError,
    ExperimentConfig,
    config_from_sources,
    csv_text,
    format_number,
    parse_channel,
    parse_theta,
    reproduce_figure,
    run_experiment,
)

NUMBER_RE = re.compile(r"-?\d\.\d{11}e[+-]\d{2,3}")
ROOT = Path(__file__).parents[1]
PHASE_DAMPING_CUSTOM = ROOT / "tests" / "data" / "phase_damping_custom.json"


def small_config(**overrides):
    base = dict(channel=parse_channel("phase-damping"), tau_max=4.0, steps=50)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParseHelpers:
    def test_theta_tokens(self):
        assert parse_theta("pi/6") == math.pi / 6
        assert parse_theta("pi") == math.pi
        assert parse_theta("0.75") == 0.75
        assert parse_theta(0.5) == 0.5

    def test_theta_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_theta("pi/zero")
        with pytest.raises(ConfigError):
            parse_theta("tau/6")

    def test_channel_names(self):
        assert parse_channel("phase-damping").kind == "phase_damping"
        assert parse_channel("bit-phase-flip").kind == "bit_phase_flip"

    def test_channel_unknown(self):
        with pytest.raises(ConfigError):
            parse_channel("amplitude-damping")

    def test_channel_custom_file(self, tmp_path):
        payload = {
            "kind": "custom",
            "dim": 2,
            "kraus": [[[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]],
        }
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(payload))
        assert parse_channel(f"custom:{path}").kind == "custom"

    def test_channel_custom_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_channel("custom:/nonexistent/chan.json")

    def test_channel_custom_broken_at_zero(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "kind": "custom",
            "dim": 2,
            "kraus": [[[["0.5", "0"], ["0", "0"]], [["0", "0"], ["0.5", "0"]]]],
        }))
        with pytest.raises(ConfigError, match="CPTP"):
            parse_channel(f"custom:{path}")


class TestExperimentConfig:
    def test_steps_minimum(self):
        with pytest.raises(ConfigError):
            small_config(steps=5)

    def test_tau_max_positive(self):
        with pytest.raises(ConfigError):
            small_config(tau_max=0.0)

    def test_oracle_gate_channel(self):
        with pytest.raises(ConfigError, match="oracle"):
            ExperimentConfig(channel=parse_channel("bit-flip"), emit_oracle=True)

    def test_oracle_gate_angle(self):
        with pytest.raises(ConfigError, match="pi/6"):
            ExperimentConfig(channel=parse_channel("phase-damping"),
                             theta=0.4, emit_oracle=True)

    def test_flags_override_file(self):
        config = config_from_sources(
            {"channel": "phase-flip", "steps": 100, "theta": "pi/4"},
            {"steps": 200, "theta": None},
        )
        assert config.channel.kind == "phase_flip"
        assert config.steps == 200
        assert config.theta == math.pi / 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_sources({"channel": "phase-flip", "gamma": 2.0}, {})

    def test_channel_required(self):
        with pytest.raises(ConfigError, match="channel"):
            config_from_sources({}, {"steps": 100})


class TestCsvSerialization:
    def test_number_format(self):
        assert format_number(0.25) == "2.50000000000e-01"
        assert format_number(-1.0) == "-1.00000000000e+00"
        assert "e" in format_number(1e-300)

    def test_header_and_shape(self):
        result = run_experiment(small_config())
        text = csv_text(result)
        lines = text.split("\n")
        assert lines[0] == "tau,delta_u,work,heat,coherence"
        assert len(lines) == 1 + 51 + 1  # header + rows + trailing newline
        for line in lines[1:-1]:
            fields = line.split(",")
            assert len(fields) == 5
            assert all(NUMBER_RE.fullmatch(f) for f in fields)

    def test_oracle_header(self):
        result = run_experiment(small_config(channel=parse_channel("phase-flip"),
                                             emit_oracle=True))
        header = csv_text(result).split("\n")[0]
        assert header == "tau,delta_u,work,heat,coherence,heat_oracle,coherence_oracle"

    def test_tau_strictly_increasing(self):
        result = run_experiment(small_config())
        assert np.all(np.diff(result.ledger.tau) > 0)

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "run.csv"
        experiment.write_trajectory_csv(out, run_experiment(small_config()))
        assert b"\r" not in out.read_bytes()

    @pytest.mark.parametrize("oracle_columns", [False, True], ids=["5-columns", "7-columns"])
    def test_matches_per_value_formatting(self, oracle_columns):
        specials = [0.0, -0.0, 1e-300, -1e300, 0.1, -2.5e-17, 123456.789]
        columns = np.array([np.roll(specials, k) for k in range(7)])
        ledger = EnergeticsLedger(*columns[:5])
        oracle_cols = tuple(columns[5:]) if oracle_columns else (None, None)
        result = experiment.ExperimentResult(small_config(), ledger, *oracle_cols)
        width = 7 if oracle_columns else 5
        header = list(experiment.CSV_COLUMNS) + (list(experiment.CSV_ORACLE_COLUMNS)
                                                 if oracle_columns else [])
        rows = [",".join(format_number(v) for v in row) for row in columns[:width].T]
        assert csv_text(result) == "\n".join([",".join(header)] + rows) + "\n"
        assert "-0.00000000000e+00" in csv_text(result)


def per_value_csv(result):
    """csv_text's reference: format_number on each value, joined row by row."""
    columns = [result.ledger.tau, result.ledger.delta_u, result.ledger.work,
               result.ledger.heat, result.ledger.coherence]
    header = list(experiment.CSV_COLUMNS)
    if result.heat_oracle is not None:
        columns += [result.heat_oracle, result.coherence_oracle]
        header += list(experiment.CSV_ORACLE_COLUMNS)
    rows = [",".join(format_number(v) for v in row) for row in np.column_stack(columns).tolist()]
    return "\n".join([",".join(header)] + rows) + "\n"


def block_result(block):
    """An ExperimentResult whose CSV columns are the columns of block (5 or 7)."""
    oracle_cols = tuple(block[:, 5:].T) if block.shape[1] == 7 else (None, None)
    return experiment.ExperimentResult(small_config(), EnergeticsLedger(*block[:, :5].T),
                                       *oracle_cols)


# 15 significant digits: 12 then a tail, with a 500 tail just off a rounding
# tie and 999999999999 carrying into the next power of ten; exponents run
# from subnormal to 3-digit positive
_DECIMALS = st.builds(lambda m, tail, e: float(f"{m}{tail:03d}e{e}"),
                      st.one_of(st.integers(10**11, 10**12 - 1),
                                st.sampled_from([10**11, 10**12 - 1])),
                      st.one_of(st.integers(0, 999), st.just(500)),
                      st.integers(-337, 293))
# powers of ten and their neighbours, where the decimal exponent changes
_DECADES = st.builds(lambda k, steps: _nudge(float(f"1e{k}"), steps),
                     st.integers(-323, 308), st.integers(-2, 2))


def _nudge(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


@st.composite
def ledger_blocks(draw):
    width = draw(st.sampled_from([5, 7]))
    rows = draw(st.integers(1, 12))
    values = st.one_of(st.floats(), _DECIMALS, _DECADES)  # st.floats(): every float64, nan and inf
    return np.array(draw(st.lists(values, min_size=rows * width, max_size=rows * width)),
                    dtype=float).reshape(rows, width)


class TestCsvExactness:
    """csv_text equals per-value format_number, byte for byte, over all of float64."""

    @given(ledger_blocks())
    @example(np.array([[0.0, -0.0, 5e-324, -2.2250738585072014e-308, 2.225073858507201e-308],
                       [sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan],
                       [1e-290, 9.999999999995e290, 1e291, -1e-100, 0.09999999999999999]]))
    @settings(deadline=None)
    def test_random_ledgers(self, block):
        result = block_result(block)
        assert csv_text(result) == per_value_csv(result)

    def test_random_bit_patterns_across_chunks(self):
        # 2500 rows span three row chunks; any 64-bit pattern is a float64
        bits = np.random.default_rng(14).integers(0, 2**64, size=(2500, 7), dtype=np.uint64)
        result = block_result(bits.view(np.float64))
        assert csv_text(result) == per_value_csv(result)

    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_full_figure_ledgers(self, figure):
        config = ExperimentConfig(channel=parse_channel(experiment.FIGURE_PRESETS[figure]),
                                  emit_oracle=True)
        result = run_experiment(config)
        assert len(result.ledger.tau) == 4001
        assert csv_text(result) == per_value_csv(result)


class TestSimulateCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main([
            "simulate", "--channel", "phase-damping", "--theta", "pi/6",
            "--steps", "50", "--tau-max", "4", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "final tau=4" in captured.out
        assert "max_closure_residual" in captured.out
        assert out.read_text().startswith("tau,delta_u,work,heat,coherence\n")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "channel": "phase-flip", "theta": "pi/6", "steps": 40, "tau_max": 2.0,
        }))
        out = tmp_path / "traj.csv"
        code = cli.main(["simulate", "--config", str(config), "--steps", "80",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 82  # header + 81 rows

    def test_too_few_steps_exits_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "--channel", "phase-damping", "--steps", "5",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "steps" in capsys.readouterr().err

    def test_unknown_channel_exits_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "--channel", "warp", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_theta_exits_2(self, tmp_path):
        code = cli.main(["simulate", "--channel", "phase-damping", "--theta", "nope",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_cptp_drift_exits_3_naming_time(self, tmp_path, capsys):
        chan = tmp_path / "drift.json"
        chan.write_text(json.dumps({
            "kind": "custom",
            "dim": 2,
            "kraus": [[[["1", "0"], ["0", "0"]], [["0", "0"], ["1-0.1*t", "0"]]]],
        }))
        code = cli.main(["simulate", "--channel", f"custom:{chan}",
                         "--tau-max", "30", "--steps", "10",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "not CPTP" in err
        assert "t=3" in err

    def test_readme_custom_channel_reproduces_builtin_ledger(self, tmp_path, capsys):
        # the committed file is the README's custom-channel example, verbatim
        readme = (ROOT / "README.md").read_text()
        example = readme.split("### Custom channels", 1)[1].split("```json", 1)[1]
        assert json.loads(example.split("```", 1)[0]) == json.loads(
            PHASE_DAMPING_CUSTOM.read_text())
        flags = ["--channel", f"custom:{PHASE_DAMPING_CUSTOM}", "--theta", "pi/6"]
        code = cli.main(["simulate", *flags, "--out", str(tmp_path / "custom.csv")])
        assert code == 0
        custom = run_experiment(config_from_sources(
            None, {"channel": f"custom:{PHASE_DAMPING_CUSTOM}", "theta": "pi/6"})).ledger
        builtin = run_experiment(config_from_sources(
            None, {"channel": "phase-damping", "theta": "pi/6"})).ledger
        for column in ("tau", "delta_u", "work", "heat", "coherence"):
            assert np.max(np.abs(getattr(custom, column) - getattr(builtin, column))) <= 1e-12
        written = np.loadtxt(tmp_path / "custom.csv", delimiter=",", skiprows=1)
        assert written.shape == (len(builtin.tau), 5)
        assert np.max(np.abs(written[:, 3] - builtin.heat)) <= 1e-11  # 12 significant digits

    def test_expression_domain_error_exits_3(self, tmp_path, capsys):
        chan = tmp_path / "domain.json"
        chan.write_text(json.dumps({
            "kind": "custom",
            "dim": 2,
            "kraus": [[[["1", "0"], ["0", "0"]], [["0", "0"], ["sqrt(1-0.01*t)", "0"]]]],
        }))
        # sqrt argument goes negative past t = 100
        code = cli.main(["simulate", "--channel", f"custom:{chan}",
                         "--tau-max", "200", "--steps", "10",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numeric error" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["channel-info", "simulate"])
    def test_custom_entry_of_wrong_type_exits_2(self, tmp_path, capsys, command):
        chan = tmp_path / "null.json"
        chan.write_text(json.dumps({
            "kind": "custom",
            "dim": 2,
            "kraus": [[[["1", "0"], ["0", "0"]], [["0", "0"], ["1", None]]]],
        }))
        argv = {"channel-info": ["channel-info", "--channel", f"custom:{chan}", "--t", "0.5"],
                "simulate": ["simulate", "--channel", f"custom:{chan}",
                             "--out", str(tmp_path / "x.csv")]}[command]
        code = cli.main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "operator 0 entry (1,1)" in err
        assert "cannot interpret None" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("kraus, message", [
        ([[[True, 0], [0, True]]], "operator 0 entry (0,0): cannot interpret True"),
        ([[[["1", "0"], [0, 0]], [[False, 0], ["1", "0"]]]],
         "operator 0 entry (1,0): cannot interpret False"),
        ([[["exp(-1e400)+1", 0], [0, "1"]]], "number '1e400' overflows a double (offset 5)"),
        ([[["1+1/1e400", 0], [0, "1"]]], "number '1e400' overflows a double (offset 4)"),
    ], ids=["bool-entries", "bool-part", "overflowing-exp-argument", "overflowing-divisor"])
    def test_bool_or_overflowing_entry_exits_2(self, tmp_path, capsys, kraus, message):
        # JSON true/false are not 1/0, and 1e400 is not infinity
        chan = tmp_path / "bad.json"
        chan.write_text(json.dumps({"kind": "custom", "dim": 2, "kraus": kraus}))
        assert cli.main(["channel-info", "--channel", f"custom:{chan}", "--t", "0.5"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["channel-info", "simulate"])
    @pytest.mark.parametrize("payload, message", [
        ({"kraus": []}, "needs a non-empty list of Kraus operators, got []"),
        ({"kraus": [[1]]}, "operator 0 must be a 1x1 list of rows"),
        ({"kraus": 5}, "needs a non-empty list of Kraus operators, got 5"),
        ({"dim": 2.0}, "dim must be a positive integer, got 2.0"),
        ({"dim": 0}, "dim must be a positive integer, got 0"),
        ({"dim": "2"}, "dim must be a positive integer, got '2'"),
    ], ids=["no-operators", "scalar-row", "kraus-not-a-list", "float-dim", "zero-dim",
            "string-dim"])
    def test_malformed_custom_channel_exits_2(self, tmp_path, capsys, command, payload, message):
        # a bad dim is paired with the valid operators of the committed example
        kraus = json.loads(PHASE_DAMPING_CUSTOM.read_text())["kraus"]
        chan = tmp_path / "bad.json"
        chan.write_text(json.dumps({"kind": "custom", "kraus": kraus, **payload}))
        argv = {"channel-info": ["channel-info", "--channel", f"custom:{chan}", "--t", "0.5"],
                "simulate": ["simulate", "--channel", f"custom:{chan}",
                             "--out", str(tmp_path / "x.csv")]}[command]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ({"steps": 100.5}, [], "steps must be an integer, got 100.5"),
        ({"theta": [1]}, [], "theta must be a finite number, got [1]"),
        ({}, ["--tau-max", "nan"], "tau_max must be a finite number, got nan"),
        ({}, ["--tau-max", "inf"], "tau_max must be a finite number, got inf"),
        ({"emit_oracle": "no"}, [], "emit_oracle must be true or false, got 'no'"),
        ({"emit_oracle": 1}, [], "emit_oracle must be true or false, got 1"),
        ({"emit_oracle": None}, [], "emit_oracle must be true or false, got None"),
    ], ids=["float-steps", "list-theta", "nan-tau-max", "inf-tau-max",
            "string-emit-oracle", "int-emit-oracle", "null-emit-oracle"])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, config, flags, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"channel": "phase-damping", **config}))
        out = tmp_path / "x.csv"
        code = cli.main(["simulate", "--config", str(path), *flags, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReproduceCommand:
    def test_fig3_outputs(self, tmp_path, capsys):
        code = cli.main(["reproduce", "fig3", "--out-dir", str(tmp_path)])
        assert code == 0
        csv_path = tmp_path / "fig3.csv"
        report = (tmp_path / "fig3_report.txt").read_text()
        assert csv_path.exists()
        assert report.count("PASS") == 5
        out = capsys.readouterr().out
        assert "PASS" in out

        header, *rows = csv_path.read_text().splitlines()
        assert header == "tau,delta_u,work,heat,coherence,heat_oracle,coherence_oracle"
        taus = [float(r.split(",")[0]) for r in rows]
        heats = [float(r.split(",")[3]) for r in rows]
        d_us = [float(r.split(",")[1]) for r in rows]
        # heat peaks near tau = ln 2 at ln4/8
        peak = max(heats)
        assert peak == pytest.approx(math.log(4) / 8, abs=1e-4)
        assert taus[heats.index(peak)] == pytest.approx(math.log(2), abs=5e-3)
        assert max(abs(u) for u in d_us) <= 1e-9

    def test_unknown_figure_exits_2(self, tmp_path):
        code = cli.main(["reproduce", "fig4", "--out-dir", str(tmp_path)])
        assert code == 2  # argparse rejects the choice


class TestVerifyCommand:
    def test_exit_zero_and_lines(self, capsys, monkeypatch):
        fabricated = [
            verification.CheckResult("alpha", True, 1e-9, 1e-5),
            verification.CheckResult("beta", True, 2e-9, 1e-5, detail="spot"),
        ]
        monkeypatch.setattr(verification, "run_all_checks", lambda oracle_tol: fabricated)
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] alpha" in out
        assert "2/2 checks passed" in out

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        fabricated = [verification.CheckResult("gamma", False, 3e-3, 1e-5)]
        monkeypatch.setattr(verification, "run_all_checks", lambda oracle_tol: fabricated)
        assert cli.main(["verify"]) == 1
        assert "[FAIL] gamma" in capsys.readouterr().out

    def test_overtight_tolerance_fails_closed_form_checks(self):
        results = verification.check_phase_damping_curves(oracle_tol=1e-12)
        failed = [r for r in results if not r.passed]
        assert failed
        assert all(r.measured > 1e-12 for r in failed)


class TestChannelInfoCommand:
    def test_phase_damping_at_log4(self, capsys):
        code = cli.main(["channel-info", "--channel", "phase-damping",
                         "--t", str(math.log(4))])
        assert code == 0
        out = capsys.readouterr().out
        assert "+0.5" in out  # sqrt(1-gamma) = 1/2
        assert "+0.8660254038" in out  # sqrt(gamma) = sqrt(3)/2
        assert "PASS" in out

    def test_phase_flip_at_zero(self, capsys):
        code = cli.main(["channel-info", "--channel", "phase-flip", "--t", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deviation" in out and "0.000e+00" in out

    def test_drifted_custom_flags_failure(self, tmp_path, capsys):
        chan = tmp_path / "drift.json"
        chan.write_text(json.dumps({
            "kind": "custom",
            "dim": 2,
            "kraus": [[[["1", "0"], ["0", "0"]], [["0", "0"], ["1-0.1*t", "0"]]]],
        }))
        code = cli.main(["channel-info", "--channel", f"custom:{chan}", "--t", "3"])
        assert code == 0
        assert "FAIL" in capsys.readouterr().out

    def test_negative_time_exits_2(self, capsys):
        code = cli.main(["channel-info", "--channel", "phase-damping", "--t", "-1"])
        assert code == 2

    @pytest.mark.parametrize("t", ["nan", "inf"])
    @pytest.mark.parametrize("channel", ["bit-phase-flip", f"custom:{PHASE_DAMPING_CUSTOM}"])
    def test_non_finite_time_exits_2(self, capsys, channel, t):
        code = cli.main(["channel-info", "--channel", channel, "--t", t])
        assert code == 2
        captured = capsys.readouterr()
        assert f"time must be finite and non-negative, got {t}" in captured.err
        assert "PASS" not in captured.out


class TestDeterminism:
    def test_reproduce_fig2_twice_identical(self, tmp_path):
        first = reproduce_figure("fig2", tmp_path / "a")
        second = reproduce_figure("fig2", tmp_path / "b")
        assert (
            hashlib.sha256(first.csv_path.read_bytes()).hexdigest()
            == hashlib.sha256(second.csv_path.read_bytes()).hexdigest()
        )


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "qfirstlaw.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for command in ("simulate", "reproduce", "verify", "channel-info"):
        assert command in proc.stdout
