import json
import math

import pytest

from qarfcs.analytic import sb_current
from qarfcs import cli
from qarfcs.cli import build_parser, main
from qarfcs.model import OhmicSpectralDensity, preset, save_model, spectral_value
from tests.conftest import make_spin_boson


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurrent:
    def test_inside_window(self, capsys):
        code, out, _ = run(
            capsys, "current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9"
        )
        assert code == 0
        value = float(out.split("current = ")[1].split()[0])
        assert value > 0
        assert "cooling = True" in out

    def test_outside_window(self, capsys):
        code, out, _ = run(
            capsys, "current", "--preset", "A", "--e21", "0.95", "--betaH", "0.9"
        )
        assert code == 0
        assert float(out.split("current = ")[1].split()[0]) < 0

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "sb.json"
        save_model(make_spin_boson(), path)
        code, out, _ = run(capsys, "current", "--model", str(path), "--bath", "C")
        assert code == 0
        gam = spectral_value(OhmicSpectralDensity(), 0.01, 1.0)
        expected = sb_current(1.0, gam, gam, 1.0, 0.5)
        assert float(out.split("current = ")[1].split()[0]) == pytest.approx(
            expected, rel=1e-10
        )

    def test_verbose_charpoly(self, capsys):
        code, out, _ = run(
            capsys, "current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--verbose",
        )
        assert code == 0 and "a_1 =" in out and "a_3 =" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["cooling"] is True and data["current"] > 0

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "current", "--preset", "A", "--e21", "2.0", "--betaH", "0.9"
        )
        assert code == 2
        assert "validation" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "current")
        assert code == 2

    def test_unknown_bath(self, capsys):
        code, _, err = run(
            capsys, "current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--bath", "Q",
        )
        assert code == 2

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "current", "--model", "/nonexistent/x.json")
        assert code == 2

    def test_disconnected_model_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps(
                {
                    "energies": [0.0, 0.4, 1.0, 1.5],
                    "baths": [
                        {"label": "C", "beta": 1.0,
                         "couplings": [{"i": 1, "j": 2, "gamma": 1e-3}]},
                        {"label": "H", "beta": 0.5,
                         "couplings": [{"i": 3, "j": 4, "gamma": 1e-3}]},
                    ],
                    "cold": "C",
                }
            )
        )
        code, _, err = run(capsys, "current", "--model", str(path))
        assert code == 2
        assert "disconnected" in err


_GOOD_FILE = {
    "energies": [0.0, 0.5, 1.0],
    "baths": [
        {"label": "C", "beta": 1.0, "couplings": [{"i": 1, "j": 2, "gamma": 1e-3}]},
        {"label": "H", "beta": 0.5, "couplings": [{"i": 1, "j": 3, "gamma": 1e-3}]},
        {"label": "W", "beta": 0.1, "couplings": [{"i": 2, "j": 3, "gamma": 1e-3}]},
    ],
    "cold": "C",
}


def _malformed(edit):
    data = json.loads(json.dumps(_GOOD_FILE))
    edit(data)
    return data


class TestMalformedModelFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "data, message",
        [
            (_malformed(lambda d: d["baths"][1].pop("beta")), "bath 'H' is missing field 'beta'"),
            (_malformed(lambda d: d["baths"][2].pop("label")), "bath 3 is missing field 'label'"),
            (
                _malformed(lambda d: d["baths"][0]["couplings"][0].pop("i")),
                "bath 'C' coupling 1 is missing field 'i'",
            ),
            (
                _malformed(lambda d: d["baths"][0]["couplings"][0].pop("j")),
                "bath 'C' coupling 1 is missing field 'j'",
            ),
            (
                _malformed(lambda d: d["baths"][1]["couplings"][0].pop("gamma")),
                "bath 'H' coupling 1 is missing field 'gamma'",
            ),
            (
                _malformed(lambda d: d["baths"][1]["couplings"][0].update(gamma="abc")),
                "bath 'H' coupling 1: field 'gamma' has invalid value 'abc'",
            ),
            ([_GOOD_FILE], "model file must be a JSON object, got list"),
            (_malformed(lambda d: d["baths"][2].update(label="H")), "bath labels must be unique"),
            (
                _malformed(lambda d: d.update(gap_tol=-5, energies=[1.0, 0.0, 0.5])),
                "gap tolerance must be positive, got -5.0",
            ),
            (
                _malformed(
                    lambda d: d["baths"][0]["couplings"].append({"i": 2, "j": 1, "gamma": 0.5})
                ),
                "bath 'C' coupling 2: fields 'i', 'j' repeat the pair (2, 1)",
            ),
            (
                _malformed(lambda d: d["baths"][2]["couplings"][0].update(j=2.5)),
                "bath 'W' coupling 1: field 'j' has invalid value 2.5",
            ),
        ],
        ids=["beta", "label", "i", "j", "gamma", "gamma-abc", "top-level-list", "duplicate-label",
             "gap-tol-negative", "pair-repeated", "j-fraction"],
    )
    def test_exit_2_with_bath_and_field(self, capsys, tmp_path, data, message, fmt):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "current", "--model", str(path), "--format", fmt)
        assert code == 2
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["code"] == "validation" and error["exit"] == 2
            assert message in error["message"]
        else:
            assert err.startswith("error (validation): ") and message in err

    def test_good_file_still_loads(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_GOOD_FILE))
        code, out, _ = run(capsys, "current", "--model", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["bath"] == "C"


class TestNoise:
    def test_preset_a_with_verify(self, capsys):
        code, out, _ = run(
            capsys, "noise", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--verify",
        )
        assert code == 0
        assert float(out.split("noise = ")[1].split()[0]) > 0
        assert "numeric noise" in out

    def test_preset_b_inapplicable_exit_3(self, capsys):
        code, _, err = run(
            capsys, "noise", "--preset", "B", "--e21", "0.5", "--betaH", "0.9"
        )
        assert code == 3
        assert "noise-formula-inapplicable" in err

    def test_json_error_is_machine_parsable(self, capsys):
        code, out, _ = run(
            capsys, "noise", "--preset", "B", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json",
        )
        assert code == 3
        data = json.loads(out)
        assert data["error"]["code"] == "noise-formula-inapplicable"
        assert data["error"]["exit"] == 3

    def test_tolerance_override(self, capsys):
        # an absurdly loose precondition lets preset B through
        code, out, _ = run(
            capsys, "noise", "--preset", "B", "--e21", "0.5", "--betaH", "0.9",
            "--tol", "noise_precondition=1.0",
        )
        assert code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_with_zero_current(self, capsys, tmp_path, fmt):
        # one bath drives no current: J = 0 exactly, so deviations are absolute
        path = tmp_path / "one_bath.json"
        path.write_text(json.dumps({
            "energies": [0, 0.5],
            "baths": [{"label": "C", "beta": 1,
                       "couplings": [{"i": 1, "j": 2, "gamma": 0.001}]}],
            "cold": "C",
        }))
        code, out, _ = run(
            capsys, "noise", "--model", str(path), "--verify", "--format", fmt
        )
        assert code == 0
        if fmt == "json":
            data = json.loads(out)
            assert data["current"] == 0.0
            assert math.copysign(1.0, data["current"]) == 1.0
            assert math.copysign(1.0, data["noise"]) == 1.0
            assert abs(data["current_numeric"]) < 1e-12
        else:
            assert "\ncurrent = 0.00000000000000000e+00\n" in out
            assert "\nnoise = 0.00000000000000000e+00\n" in out
            assert "numeric current" in out and "(abs dev " in out
            assert "rel dev" not in out


class TestScanCommands:
    def test_scan_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "scan", "--preset", "A", "--resolution", "9x9",
            "--out", str(out_path),
        )
        assert code == 0
        assert "cooling fraction" in out and "max current" in out
        assert out_path.exists()

    def test_scan_deterministic_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(capsys, "scan", "--preset", "D", "--resolution", "7x7", "--out", str(p1))
        run(capsys, "scan", "--preset", "D", "--resolution", "7x7", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_scan_bad_resolution(self, capsys):
        code, _, err = run(capsys, "scan", "--preset", "A", "--resolution", "9")
        assert code == 2

    def test_line_command(self, capsys, tmp_path):
        out_path = tmp_path / "line.json"
        code, out, _ = run(
            capsys, "line", "--betaH", "0.9", "--presets", "A,D",
            "--resolution", "41", "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert set(data["currents"]) == {"A", "D"}


class TestDecomposeCommand:
    def test_preset_a_single_cycle(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert list(data["cycles"]) == ["2,1"]
        assert data["cycles"]["2,1"] > 0
        assert all(abs(v) <= 1e-12 * data["cycles"]["2,1"] for v in data["leaks"].values())

    def test_preset_c_cycle_plus_leak(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--preset", "C", "--e21", "0.3", "--betaH", "0.9",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["leaks"]["H;2,1"] < 0

    def test_preset_b_residual(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--preset", "B", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["cycles"]) == 3 and len(data["leaks"]) == 6
        assert abs(data["reconstruction_residual"]) <= 1e-10 * abs(data["total"])

    def test_topology_error_exit_4(self, capsys, tmp_path):
        path = tmp_path / "sb.json"
        save_model(make_spin_boson(), path)
        code, _, err = run(capsys, "decompose", "--model", str(path))
        assert code == 4


class TestCopCommand:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "cop", "--preset", "A", "--e21", "0.5", "--betaH", "0.9"
        )
        assert code == 0
        assert float(out.split("cop = ")[1].split()[0]) == pytest.approx(1.0, rel=1e-9)

    def test_undefined_exit_7(self, capsys):
        code, _, err = run(
            capsys, "cop", "--preset", "A", "--e21", "0.95", "--betaH", "0.9"
        )
        assert code == 7


class TestCheckCommand:
    def test_passes_with_default_seed(self, capsys):
        code, out, _ = run(capsys, "check", "--trials", "25")
        assert code == 0
        assert "FAIL" not in out
        for name in (
            "detailed-balance",
            "eigen-structure",
            "oracle-equivalence",
            "conservation",
            "sign-equivalence",
            "fluctuation-symmetry",
            "ideal-cycle-term",
            "cop-bound",
        ):
            assert name in out

    def test_reproducible(self, capsys):
        _, out1, _ = run(capsys, "check", "--seed", "7", "--trials", "10")
        _, out2, _ = run(capsys, "check", "--seed", "7", "--trials", "10")
        assert out1 == out2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trials_below_one_refused(self, capsys, trials, fmt):
        code, out, err = run(capsys, "check", "--trials", trials, "--format", fmt)
        assert code == 2
        assert "checks passed" not in out
        text = json.loads(out)["error"]["message"] if fmt == "json" else err
        assert f"--trials must be at least 1, got {trials}" in text

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", "--trials", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["failed"] == []
        assert len(data["results"]) == 8


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for pid in "ABCD":
            assert f"{pid}:" in out


class TestOutputFiles:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["cooling"] is True


class TestParserReuse:
    def test_build_parser_returns_fresh_parsers(self):
        assert build_parser() is not build_parser()

    def test_parser_is_built_once(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)
        built = []
        original = cli.build_parser

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        for _ in range(3):
            run(capsys, "presets")
        assert len(built) == 1

    def test_tol_does_not_leak_into_next_call(self, capsys, monkeypatch):
        seen = []
        original = cli._parse_tols

        def recording(pairs):
            seen.append(pairs)
            return original(pairs)

        monkeypatch.setattr(cli, "_parse_tols", recording)
        point = ("--preset", "A", "--e21", "0.5", "--betaH", "0.9")
        assert run(capsys, "current", *point)[0] == 0
        assert run(capsys, "check", "--trials", "10", "--tol", "symmetry=1e-9")[0] == 0
        assert run(capsys, "noise", *point)[0] == 0
        assert seen == [["symmetry=1e-9"], None]

    @pytest.mark.parametrize("command", ["current", "decompose", "noise"])
    def test_same_stdout_on_first_and_second_call(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_PARSER", None)
        argv = (command, "--preset", "A", "--e21", "0.3", "--betaH", "0.9")
        first = run(capsys, *argv)
        assert first == run(capsys, *argv)
        assert first[0] == 0 and first[1]
