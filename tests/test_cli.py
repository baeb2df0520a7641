import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qarfcs.analytic import sb_current
from qarfcs import cli, oracle
from qarfcs.cli import build_parser, main
from qarfcs.fcs import charpoly, cooling_condition, heat_current, noise
from qarfcs.liouvillian import build_counting_family, build_generator
from qarfcs.model import (
    PRESET_IDS,
    PRESET_NOTES,
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    preset,
    save_model,
    spectral_value,
)
from tests.conftest import EIGHTY_BIT, make_spin_boson, make_tied_machine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurrent:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_underflowing_rates_refused(self, capsys, fmt):
        # the trace reads 0.0 here, although the direct current (2.5e-152) cools
        code, out, err = run(capsys, "current", "--preset", "A", "--e21", "0.3", "--betaH", "0.9",
                             "--gamma", "1e-150", "--format", fmt)
        assert code == 6
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["code"] == "internal-consistency" and "underflow" in error["message"]
        else:
            assert out == "" and err.startswith("error (internal-consistency): the trace's")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, gamma, message", [
        ("current", "1e150", "the trace's 2 rate products overflow (gross inf)"),
        ("current", "1e200", "a_(N-1)(0) = inf is not positive and finite"),
        ("noise", "1e150", "the trace's 2 rate products overflow (gross inf)"),
        ("cop", "1e150", "the trace's 2 rate products overflow (gross inf)"),
        ("decompose", "1e150", "the decomposition's 2 rate products overflow (gross inf)"),
        ("decompose", "1e-150", "the decomposition's 2 rate products underflow"),
        ("current", "1e308", "L(0) has an entry that is not finite"),
        ("noise", "1e308", "L(0) has an entry that is not finite"),
        ("decompose", "1e308", "a total rate's 3 rate products overflow (gross inf)"),
    ], ids=["current-1e150", "current-1e200", "noise-1e150", "cop-1e150", "decompose-1e150",
            "decompose-1e-150", "current-1e308", "noise-1e308", "decompose-1e308"])
    def test_rates_out_of_double_range_refused(self, capsys, fmt, command, gamma, message):
        # each printed a traceback, or decompose a silent 0.0, while the direct current answers
        code, out, err = run(capsys, command, "--preset", "A", "--e21", "0.3", "--betaH", "0.9",
                             "--gamma", gamma, "--format", fmt)
        assert code == 6
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["code"] == "internal-consistency"
            assert error["message"].startswith(message)
        else:
            assert out == "" and err.startswith(f"error (internal-consistency): {message}")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bose_overflow_exit_2(self, capsys, tmp_path, fmt):
        # the cold bath's e^(beta omega) at beta 2000 on the 0.5 gap leaves the double range
        model = preset("A", 0.5, 0.9)
        cold = BathSpec("C", 2000.0, model.baths[0].couplings, model.baths[0].spectral)
        path = tmp_path / "cold.json"
        save_model(QarModel(model.system, (cold, *model.baths[1:]), 0), path)
        code, out, err = run(capsys, "current", "--model", str(path), "--format", fmt)
        assert code == 2
        message = "e^(beta omega) overflows at beta * omega = 1000"
        if fmt == "json":
            assert json.loads(out)["error"] == {"code": "validation", "exit": 2, "message": message}
        else:
            assert out == "" and err == f"error (validation): {message}\n"

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
        assert list(data) == ["bath", "current", "cooling_value", "cooling"]

    def test_bath_label_matches_case_insensitively(self, capsys):
        argv = ["current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--bath", "c")
        assert code == 0 and json.loads(out)["bath"] == "C"
        assert out == run(capsys, *argv, "--bath", "C")[1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bath_label_matching_two_baths_case_insensitively_exit_2(self, capsys, tmp_path, fmt):
        # "Cold" and "COLD" both match "cold" case-insensitively: refused, not the first taken
        model = make_spin_boson()
        cold, hot = (dataclasses.replace(b, label=x) for b, x in zip(model.baths, ("Cold", "COLD")))
        path = tmp_path / "two.json"
        save_model(QarModel(model.system, (cold, hot), model.cold_index), path)
        argv = ["current", "--model", str(path), "--format", fmt]
        code, out, err = run(capsys, *argv, "--bath", "cold")
        assert code == 2
        message = (
            "bath 'cold' matches ['Cold', 'COLD'] only case-insensitively; give one of them exactly"
        )
        if fmt == "json":
            assert json.loads(out)["error"] == {"code": "validation", "exit": 2, "message": message}
        else:
            assert out == "" and err == f"error (validation): {message}\n"
        # an exact label still wins
        for label in ("Cold", "COLD"):
            code, out, _ = run(capsys, *argv, "--bath", label)
            counted = json.loads(out)["bath"] if fmt == "json" else out.split("\n")[0]
            assert code == 0 and counted == (label if fmt == "json" else f"bath = {label}")

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


class TestReport:
    # the current command's payload: the counted current, the cold bath's
    # cooling certificate and, with --verbose, the charpoly of L(0)
    def test_report_fields(self, capsys):
        argv = ["current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        plain = json.loads(out)
        assert code == 0 and list(plain) == ["bath", "current", "cooling_value", "cooling"]
        assert plain["bath"] == "C" and plain["cooling"] is True and plain["current"] > 0
        code, out, _ = run(capsys, *argv, "--verbose")
        verbose = json.loads(out)
        assert code == 0
        assert list(verbose) == ["bath", "current", "cooling_value", "cooling", "charpoly"]
        assert {key: verbose[key] for key in plain} == plain
        l0 = build_generator(preset("A", 0.5, 0.9))
        assert verbose["charpoly"] == charpoly(l0).coeffs.tolist()

    def test_cooling_certificate_matches_cooling_condition(self, capsys):
        for pid in "ABCD":
            m = preset(pid, 0.3, 0.9)
            value, cooling = cooling_condition(m)
            for bath in m.baths:
                code, out, _ = run(
                    capsys, "current", "--preset", pid, "--e21", "0.3", "--betaH", "0.9",
                    "--bath", bath.label, "--format", "json",
                )
                data = json.loads(out)
                assert code == 0 and data["bath"] == bath.label
                assert data["cooling_value"] == value and data["cooling"] is cooling
                assert data["current"] == heat_current(m, m.baths.index(bath))


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
            # json.dumps writes the non-finite floats as Infinity / NaN, which
            # json.load reads back
            (
                _malformed(lambda d: d["baths"][1]["couplings"][0].update(gamma=math.inf)),
                "bath 'H': coupling 'gamma' for pair (0, 2) must be nonnegative and finite, "
                "got inf",
            ),
            (
                _malformed(lambda d: d["baths"][0]["couplings"][0].update(gamma=math.nan)),
                "bath 'C': coupling 'gamma' for pair (0, 1) must be nonnegative and finite, "
                "got nan",
            ),
            (
                _malformed(lambda d: d["baths"][2].update(beta=math.nan)),
                "bath 'W': inverse temperature 'beta' must be positive and finite, got nan",
            ),
            (
                _malformed(lambda d: d["baths"][1].update(beta=math.inf)),
                "bath 'H': inverse temperature 'beta' must be positive and finite, got inf",
            ),
            (
                _malformed(lambda d: d["baths"][0].update(omega_c=math.nan)),
                "cutoff 'omega_c' must be positive, got nan",
            ),
            (
                _malformed(lambda d: d.update(energies=[0.0, math.nan, 1.0])),
                "field 'energies': level 2 is not finite, got nan",
            ),
            (
                _malformed(lambda d: d.update(energies=[0.0, 0.5, math.inf])),
                "field 'energies': level 3 is not finite, got inf",
            ),
            # levels numbered from 1, as in the file
            (
                _malformed(lambda d: d.update(energies=[0.0, 0.4, 1.0, 1.5], baths=[
                    d["baths"][0],
                    {"label": "H", "beta": 0.5, "couplings": [{"i": 3, "j": 4, "gamma": 1e-3}]},
                ])),
                "transition graph is disconnected: levels [3, 4] are not reachable",
            ),
            (
                _malformed(
                    lambda d: d["baths"][0]["couplings"].append({"i": 2, "j": 5, "gamma": 1e-3})
                ),
                "bath 'C': pair (2, 5) references a level outside 1..3",
            ),
        ],
        ids=["beta", "label", "i", "j", "gamma", "gamma-abc", "top-level-list", "duplicate-label",
             "gap-tol-negative", "pair-repeated", "j-fraction", "gamma-inf", "gamma-nan",
             "beta-nan", "beta-inf", "omega-c-nan", "energy-nan", "energy-inf",
             "levels-unreachable", "pair-outside"],
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_gamma_literal(self, capsys, tmp_path, fmt):
        # json reads the literal 1e999 as inf; a heat current of nan used to come back
        path = tmp_path / "model.json"
        save_model(preset("A", 0.5, 0.9), path)
        path.write_text(path.read_text().replace('"gamma": 0.001', '"gamma": 1e999', 1))
        code, out, err = run(capsys, "current", "--model", str(path), "--format", fmt)
        assert code == 2
        message = (
            "bath 'C': coupling 'gamma' for pair (0, 1) must be nonnegative and finite, got inf"
        )
        if fmt == "json":
            assert message in json.loads(out)["error"]["message"]
        else:
            assert err.startswith("error (validation): ") and message in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"energies": [0.0, \xff]}', "is not UTF-8 text: 'utf-8' codec can't decode"),
            (b"[" * 100_000 + b"]" * 100_000, "nests too deeply to parse"),
        ],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unreadable_file_exits_2(self, capsys, tmp_path, content, message, fmt):
        # a bare UnicodeDecodeError or RecursionError traceback with exit 1 used to come back
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "current", "--model", str(path), "--format", fmt)
        assert code == 2
        message = f"model file {path} {message}"
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["code"] == "validation" and error["exit"] == 2
            assert error["message"].startswith(message)
        else:
            assert err.startswith(f"error (validation): {message}")

    def test_good_file_still_loads(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_GOOD_FILE))
        code, out, _ = run(capsys, "current", "--model", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["bath"] == "C"


# preset B at (0.5, 0.9): the fixed precondition of noise refuses it, and no option moves that
_B_REFUSAL = (
    "coefficient a_2(s) varies with the counting variable (relative deviation 0.000206 at "
    "s = 0.5); the truncated noise formula needs the counted bath to own its transitions "
    "exclusively"
)


class TestNoise:
    def test_preset_a_with_verify(self, capsys):
        code, out, _ = run(
            capsys, "noise", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--verify",
        )
        assert code == 0
        assert float(out.split("noise = ")[1].split()[0]) > 0
        assert "numeric noise" in out

    @pytest.mark.parametrize("verify, charpolys", [((), 9), (("--verify",), 10)],
                             ids=["plain", "verify"])
    def test_one_counting_family_per_run(self, capsys, monkeypatch, verify, charpolys):
        # the current, the noise and the --verify cumulants share one family
        import qarfcs.fcs as fcs_module

        families, calls = [], []

        def building(model, bath):
            families.append(bath)
            return build_counting_family(model, bath)

        def counting(m):
            calls.append(np.shape(m))
            return charpoly(m)

        monkeypatch.setattr(fcs_module, "build_counting_family", building)
        monkeypatch.setattr(cli, "build_counting_family", building)
        monkeypatch.setattr(fcs_module, "charpoly", counting)
        argv = ("noise", "--preset", "A", "--e21", "0.5", "--betaH", "0.9", "--format", "json")
        code, out, _ = run(capsys, *argv, *verify)
        assert code == 0
        assert families == [0] and len(calls) == charpolys
        data = json.loads(out)
        m = preset("A", 0.5, 0.9)
        assert (data["current"], data["noise"]) == (heat_current(m, 0), noise(m, 0))

    def test_preset_b_inapplicable_exit_3(self, capsys):
        code, _, err = run(
            capsys, "noise", "--preset", "B", "--e21", "0.5", "--betaH", "0.9"
        )
        assert code == 3
        assert err == f"error (noise-formula-inapplicable): {_B_REFUSAL}\n"

    def test_json_error_is_machine_parsable(self, capsys):
        code, out, _ = run(
            capsys, "noise", "--preset", "B", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json",
        )
        assert code == 3
        data = json.loads(out)
        assert data["error"]["code"] == "noise-formula-inapplicable"
        assert data["error"]["exit"] == 3
        assert data["error"]["message"] == _B_REFUSAL

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

    def test_scan_names_the_first_bad_point_of_a_default_axis(self, capsys, tmp_path):
        # beta_W = 2 reverses the default beta_H axis; its first point is refused
        out_path = tmp_path / "scan.csv"
        argv = ["scan", "--preset", "A", "--betaW", "2", "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and not out_path.exists()
        assert err == ("error (validation): grid point (e21=0.01, betaH=2.01): "
                       "need beta_w < beta_h < beta_c, got 2.0, 2.01, 1.0\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_with_rates_beyond_double_range_writes_nothing(self, capsys, tmp_path, fmt):
        out_path = tmp_path / f"scan.{fmt}"
        code, out, err = run(capsys, "scan", "--preset", "A", "--gamma", "1e150",
                             "--resolution", "3x3", "--format", fmt, "--out", str(out_path))
        assert code == 6 and not out_path.exists()
        message = "the trace's 2 rate products overflow (gross inf)"
        if fmt == "json":
            assert json.loads(out)["error"]["message"] == message
        else:
            assert out == "" and err == f"error (internal-consistency): {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_with_a_generator_beyond_double_range_writes_nothing(self, capsys, tmp_path, fmt):
        # numpy warned from the generator's rate sums before the refusal
        out_path = tmp_path / f"scan.{fmt}"
        code, out, err = run(capsys, "scan", "--preset", "A", "--gamma", "1e308",
                             "--resolution", "3x3", "--format", fmt, "--out", str(out_path))
        assert code == 6 and not out_path.exists()
        message = "L(0) has an entry that is not finite: the rates or their sums leave double range"
        if fmt == "json":
            assert json.loads(out)["error"]["message"] == message
        else:
            assert out == "" and err == f"error (internal-consistency): {message}\n"

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

    def test_line_presets_are_upper_cased_once_each(self, capsys, tmp_path):
        paths = [tmp_path / "mixed.csv", tmp_path / "plain.csv"]
        outs = []
        for presets, path in zip(("b, a,B", "B,A"), paths):
            code, out, _ = run(
                capsys, "line", "--betaH", "0.9", "--presets", presets,
                "--resolution", "5", "--out", str(path),
            )
            assert code == 0
            outs.append(out.replace(str(path), "<out>"))
        assert outs[0] == outs[1] and outs[0].count("B: max") == 1
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_line_empty_presets_refused_before_writing(self, capsys, tmp_path):
        path = tmp_path / "line.csv"
        code, out, err = run(
            capsys, "line", "--betaH", "0.9", "--presets", ",", "--out", str(path),
        )
        assert code == 2 and out == "" and "--presets" in err
        assert not path.exists()


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
        assert err == "error (topology): decompose needs a three-level model, got 2 levels\n"

    def test_three_levels_with_two_baths(self, capsys, tmp_path):
        # preset C without its work bath: no cycle closes, and the hot bath's leak is all
        model = preset("C", 0.3, 0.9)
        path = tmp_path / "two.json"
        save_model(QarModel(model.system, model.baths[:2], 0), path)
        code, out, _ = run(capsys, "decompose", "--model", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["cycles"] == {"2,1": 0.0} and list(data["leaks"]) == ["H;2,1"]
        assert data["leaks"]["H;2,1"] == pytest.approx(data["total"], rel=1e-12)
        assert data["total"] < 0.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_on_threshold_cycle_prints_unsigned_zero(self, capsys, fmt):
        # criterion 08's middle cell, where the cycle's affinity rounds to exactly 0
        code, out, _ = run(
            capsys, "decompose", "--preset", "A", "--e21", "0.49999999999999994",
            "--betaH", "0.5499999999999999", "--format", fmt,
        )
        assert code == 0
        if fmt == "json":
            assert '"2,1": 0.0\n' in out
        else:
            assert "\ncycle[2,1] = 0.00000000000000000e+00\n" in out


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_topology_error_exit_4_from_model_file(self, capsys, tmp_path, fmt):
        path = tmp_path / "c.json"
        save_model(preset("C", 0.5, 0.9), path)
        code, out, err = run(capsys, "cop", "--model", str(path), "--format", fmt)
        assert code == 4
        message = "ideal refrigerator: bath 'H' couples [(1, 2), (1, 3)], expected [(1, 3)]"
        if fmt == "json":
            assert json.loads(out)["error"] == {"code": "topology", "exit": 4, "message": message}
        else:
            assert err == f"error (topology): {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tied_hot_and_work_betas_exit_2(self, capsys, tmp_path, fmt):
        # the order fails, not the topology
        path = tmp_path / "tied.json"
        save_model(make_tied_machine(), path)
        code, out, err = run(capsys, "cop", "--model", str(path), "--format", fmt)
        assert code == 2
        message = "need beta_w < beta_h < beta_c, got 0.5, 0.5, 1.0"
        if fmt == "json":
            assert json.loads(out)["error"] == {"code": "validation", "exit": 2, "message": message}
        else:
            assert err == f"error (validation): {message}\n"


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_seed_refused(self, capsys, fmt):
        # numpy's generator refuses a negative seed with a ValueError traceback
        code, out, err = run(capsys, "check", "--seed", "-1", "--format", fmt)
        assert code == 2
        text = json.loads(out)["error"]["message"] if fmt == "json" else err
        assert "--seed must be at least 0, got -1" in text

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf", "1e999", ""])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_tolerance_refused(self, capsys, value, fmt):
        code, out, err = run(
            capsys, "check", "--trials", "1", "--tol", f"symmetry={value}", "--format", fmt
        )
        assert code == 2
        assert "checks passed" not in out
        text = json.loads(out)["error"]["message"] if fmt == "json" else err
        assert f"tolerance 'symmetry' must be a finite number >= 0, got {value!r}" in text

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", "--trials", "10", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["failed"] == []
        assert len(data["results"]) == 8

    # sha256 of stdout at --trials 10, so every row's detail string is pinned; recorded
    # once the fluctuation-symmetry row became relative to the largest |G|
    _DIGESTS = {
        ("1234", "csv", ()): "9cad1341f06cf6610e3a6e5a58f874c442cec8a38baa5cc35543340fa4eb3421",
        ("1234", "json", ()): "5be25723bb80f827758e8cb4f2886ceae97000979308054a642e0bf479f79208",
        ("7", "csv", ()): "fb248e841252bbf6880b1bf7a200014b9de7b1a722c98a0afecd69198a8c7092",
        ("7", "json", ()): "98046092039eecde7aa38b69b8f23adef6d183ef5e4bc474127409ff9ea4dd3e",
        ("1234", "csv", ("--tol", "symmetry=0")):
            "fb37e4823a78f983c75b8fc3d99e263558b56eb8032cbc73b66ee3e1ed51db49",
    }

    @EIGHTY_BIT
    @pytest.mark.parametrize("seed, fmt, extra", list(_DIGESTS), ids=lambda x: "-".join(x))
    def test_output_is_pinned(self, capsys, seed, fmt, extra):
        argv = ["check", "--seed", seed, "--trials", "10", "--format", fmt, *extra]
        code, out, _ = run(capsys, *argv)
        assert code == (1 if extra else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == self._DIGESTS[(seed, fmt, extra)]

    @pytest.mark.parametrize(
        "row, key, value",
        [
            ("eigen-structure", "second", 1e-10),  # a second root at zero
            ("eigen-structure", "gap", 0.0),
            ("eigen-structure", "coeff", 0.0),
            ("oracle-equivalence", "scale", 0.0),  # no current to compare against
            ("cop-bound", "excess", 2e-10),  # cop above its Carnot bound
        ],
    )
    def test_each_limit_fails_its_row(self, capsys, monkeypatch, row, key, value):
        def spoil(measure):  # the first of the row's models only, so the fold must find it
            seen = []

            def spoiled(model):
                seen.append(model)
                return {**measure(model), key: value} if len(seen) == 1 else measure(model)

            return spoiled

        table = [(name, spoil(m) if name == row else m, *rest) for name, m, *rest in cli.INVARIANTS]
        monkeypatch.setattr(cli, "INVARIANTS", table)
        code, out, _ = run(capsys, "check", "--trials", "3", "--format", "json")
        assert code == 1
        assert json.loads(out)["failed"] == [row]

    def test_symmetry_row_fails_a_relative_1e8_spoil(self, capsys, monkeypatch):
        # |G| stays below 1e-2 on these models, so a relative 1e-8 error on one side is an
        # absolute one below the default tolerance 1e-10; the row compares the ratio
        real = oracle.cgf

        def spoiled(family, s):
            g = real(family, s)
            g[g.size // 2 :] *= 1.0 + 1e-8
            return g

        monkeypatch.setattr(oracle, "cgf", spoiled)
        code, out, _ = run(capsys, "check", "--trials", "3", "--format", "json")
        assert code == 1
        assert json.loads(out)["failed"] == ["fluctuation-symmetry"]

    def test_sign_row_counts_a_verdict_other_than_value_positive(self, capsys, monkeypatch):
        # one violation per model: the flipped verdict disagrees with the direct cold current
        real = oracle.cooling_condition
        monkeypatch.setattr(oracle, "cooling_condition", lambda m: (real(m)[0], real(m)[0] <= 0.0))
        code, out, _ = run(capsys, "check", "--trials", "3")
        assert code == 1
        assert "FAIL sign-equivalence: 3 violations\n" in out

    def test_sign_row_fails_when_the_direct_cold_current_flips(self, capsys, monkeypatch):
        # the verdict is held against the oracle's direct current, not against itself
        real = oracle._solved

        def flipped(model):
            return tuple(-j if b == model.cold_index else j for b, j in enumerate(real(model)))

        monkeypatch.setattr(oracle, "_solved", flipped)
        code, out, _ = run(capsys, "check", "--trials", "3")
        assert code == 1
        assert "FAIL sign-equivalence: 3 violations\n" in out

    def test_tolerance_defaults_are_pinned(self):
        # each check's tolerance in table order, and nothing else
        pinned = [
            ("detailed_balance", 1e-12),
            ("oracle_equivalence", 1e-10),
            ("conservation", 1e-12),
            ("symmetry", 1e-10),
            ("decomposition", 1e-10),
            ("cop", 1e-10),
        ]
        assert list(cli._TOL_DEFAULTS.items()) == pinned
        assert [row[2] for row in oracle.INVARIANTS if row[2]] == pinned


class TestArgumentRefusals:
    @pytest.mark.parametrize(
        "tol, message",
        [
            ("bogus", "--tol expects name=value, got 'bogus'"),
            ("nope=1", "unknown tolerance 'nope'"),
            ("noise_precondition=1", "unknown tolerance 'noise_precondition'"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_tol_refused(self, capsys, tol, message, fmt):
        code, out, err = run(capsys, "check", "--trials", "1", "--tol", tol, "--format", fmt)
        assert code == 2
        assert "checks passed" not in out
        text = json.loads(out)["error"]["message"] if fmt == "json" else err
        assert message in text

    def test_model_and_preset_refused_together(self, capsys, tmp_path):
        path = tmp_path / "sb.json"
        save_model(make_spin_boson(), path)
        code, out, err = run(
            capsys, "current", "--model", str(path), "--preset", "A",
            "--e21", "0.5", "--betaH", "0.9",
        )
        assert code == 2 and out == ""
        assert "give either --model or --preset, not both" in err

    @pytest.mark.parametrize("given", [["--e21", "0.5"], ["--betaH", "0.9"]])
    def test_preset_needs_e21_and_beta_h(self, capsys, given):
        code, out, err = run(capsys, "current", "--preset", "A", *given)
        assert code == 2 and out == ""
        assert "--preset needs --e21 and --betaH" in err


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for pid in "ABCD":
            assert f"{pid}:" in out

    def test_json_is_the_notes_dict(self, capsys):
        code, out, _ = run(capsys, "presets", "--format", "json")
        assert code == 0 and json.loads(out) == PRESET_NOTES
        assert list(PRESET_NOTES) == list(PRESET_IDS)

    def test_module_entry_point_runs_and_passes_the_exit_code(self):
        # python -m qarfcs runs __main__.py, which exits with main()'s code
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def module_run(*argv):
            return subprocess.run([sys.executable, "-m", "qarfcs", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        listed = module_run("presets", "--format", "json")
        assert listed.returncode == 0 and json.loads(listed.stdout) == PRESET_NOTES
        refused = module_run("current", "--preset", "A")
        assert refused.returncode == 2 and "--preset needs --e21 and --betaH" in refused.stderr


class TestOutputFiles:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9",
            "--format", "json", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["cooling"] is True


_UNWRITABLE_COMMANDS = {
    "current": ["current", "--preset", "A", "--e21", "0.5", "--betaH", "0.9"],
    "scan": ["scan", "--preset", "A", "--resolution", "3x3"],
    "line": ["line", "--betaH", "0.9", "--presets", "A", "--resolution", "3"],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", sorted(_UNWRITABLE_COMMANDS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_missing_directory_refused(self, capsys, tmp_path, command, fmt):
        path = str(tmp_path / "missing" / "x.out")
        code, out, err = run(
            capsys, *_UNWRITABLE_COMMANDS[command], "--format", fmt, "--out", path
        )
        assert code == 2
        if fmt == "json":
            error = json.loads(out)["error"]
            assert error["code"] == "validation" and error["exit"] == 2
            text = error["message"]
        else:
            assert out == ""
            text = err
        assert f"cannot write output file {path!r}" in text
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["scan", "line"])  # the commands that check early
    def test_permission_denied_refused(self, capsys, tmp_path, monkeypatch, command):
        # the tests may run as root, whom no mode bit stops: os.access denies instead
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        path = tmp_path / "x.out"
        code, out, err = run(capsys, *_UNWRITABLE_COMMANDS[command], "--out", str(path))
        assert code == 2 and out == ""
        assert f"cannot write output file {str(path)!r}: Permission denied" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, default", [("scan", "scan_A.csv"), ("line", "line_betaH0.9.csv")]
    )
    def test_default_name_refused(self, capsys, tmp_path, monkeypatch, command, default):
        # a directory sitting on the default output name cannot be opened as a file
        monkeypatch.chdir(tmp_path)
        (tmp_path / default).mkdir()
        code, out, err = run(capsys, *_UNWRITABLE_COMMANDS[command])
        assert code == 2 and out == ""
        assert f"cannot write output file {default!r}" in err

    @pytest.mark.parametrize("command", ["scan", "line"])
    @pytest.mark.parametrize("default", [False, True])
    def test_refused_before_computing(self, capsys, tmp_path, monkeypatch, command, default):
        def never(*args, **kwargs):
            raise AssertionError(f"{command} computed points for an unwritable output")

        monkeypatch.setattr(cli.scan_mod, "grid_scan" if command == "scan" else "line_scan", never)
        monkeypatch.chdir(tmp_path)
        argv = list(_UNWRITABLE_COMMANDS[command])
        if default:
            name = "scan_A.csv" if command == "scan" else "line_betaH0.9.csv"
            (tmp_path / name).mkdir()
        else:
            name = str(tmp_path / "missing" / "x.csv")
            argv += ["--out", name]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"cannot write output file {name!r}" in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["scan", "line"])
    def test_early_check_creates_and_truncates_nothing(self, capsys, tmp_path, command):
        # the output is writable, so the check passes; the scan then refuses a
        # one-point axis, and neither file may have been touched
        bad = {"scan": ["--resolution", "1x1"], "line": ["--resolution", "1"]}[command]
        kept = tmp_path / "kept.csv"
        kept.write_text("old contents\n")
        for path in (kept, tmp_path / "new.csv"):
            code, _, err = run(capsys, *_UNWRITABLE_COMMANDS[command], *bad, "--out", str(path))
            assert code == 2 and "at least 2 points" in err
        assert kept.read_text() == "old contents\n"
        assert not (tmp_path / "new.csv").exists()


class TestTolScope:
    """``--tol`` exists only where a tolerance is read: check."""

    @pytest.mark.parametrize(
        "argv",
        [
            _UNWRITABLE_COMMANDS["current"],
            ["noise", "--preset", "B", "--e21", "0.5", "--betaH", "0.9"],
            ["decompose", "--preset", "A", "--e21", "0.5", "--betaH", "0.9"],
            ["cop", "--preset", "A", "--e21", "0.5", "--betaH", "0.9"],
            _UNWRITABLE_COMMANDS["scan"],
            _UNWRITABLE_COMMANDS["line"],
            ["presets"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refused_where_unread(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "bogus=abc"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol bogus=abc" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        assert run(capsys, "check", "--trials", "10")[0] == 0
        assert seen == [["symmetry=1e-9"], None]

    @pytest.mark.parametrize("command", ["current", "decompose", "noise"])
    def test_same_stdout_on_first_and_second_call(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_PARSER", None)
        argv = (command, "--preset", "A", "--e21", "0.3", "--betaH", "0.9")
        first = run(capsys, *argv)
        assert first == run(capsys, *argv)
        assert first[0] == 0 and first[1]
