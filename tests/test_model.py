import json
import math

import numpy as np
import pytest

from qarfcs.errors import ValidationError
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    bose_occupation,
    load_model,
    model_from_dict,
    model_to_dict,
    preset,
    rate,
    rate_table,
    save_model,
    spectral_value,
)
from qarfcs.oracle import random_connected_model


class TestBoseOccupation:
    def test_unit_values(self):
        assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert bose_occupation(1.0, 0.1) == pytest.approx(
            1.0 / (math.exp(0.1) - 1.0), rel=1e-14
        )

    def test_large_argument_decays(self):
        assert bose_occupation(50.0, 1.0) < 1e-21

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValidationError):
            bose_occupation(1.0, -2.0)


class TestSpectralDensity:
    def test_ohmic_values(self):
        sd = OhmicSpectralDensity(omega_c=10.0)
        assert spectral_value(sd, 1e-3, 1.0) == pytest.approx(1e-3 * math.exp(-0.1), rel=1e-14)
        assert spectral_value(sd, 0.0, 1.0) == 0.0
        assert spectral_value(sd, 1e-3, 10.0) == pytest.approx(0.01 * math.exp(-1.0), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            OhmicSpectralDensity(omega_c=-1.0)
        with pytest.raises(ValidationError):
            spectral_value(OhmicSpectralDensity(), 1e-3, -1.0)


class TestRates:
    def test_two_level_rates_against_scalar_product(self):
        # independent scalar evaluation of the two factors
        m = make_two_level(gamma=1e-3, beta=1.0)
        gam = 1e-3 * 1.0 * math.exp(-1.0 / 10.0)
        occ = 1.0 / math.expm1(1.0)
        assert rate(m, 0, 1, 0) == pytest.approx(gam * occ, rel=1e-13)
        assert rate(m, 1, 0, 0) == pytest.approx(gam * (occ + 1.0), rel=1e-13)
        assert rate(m, 0, 1, 0) == pytest.approx(5.2659e-4, rel=1e-4)
        assert rate(m, 1, 0, 0) == pytest.approx(1.43147e-3, rel=1e-4)

    def test_detailed_balance_exact(self):
        m = make_two_level(gamma=1e-3, beta=1.0)
        assert rate(m, 0, 1, 0) / rate(m, 1, 0, 0) == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_detailed_balance_random_models(self, rng):
        for _ in range(100):
            m = random_connected_model(rng)
            for b, bath in enumerate(m.baths):
                for (i, j), g in bath.couplings.items():
                    if g == 0.0:
                        continue
                    de = m.system.energies[j] - m.system.energies[i]
                    ratio = rate(m, i, j, b) / rate(m, j, i, b)
                    assert ratio == pytest.approx(math.exp(-bath.beta * de), rel=1e-12)

    def test_zero_coupling_means_zero_rate(self):
        m = preset("A", 0.5, 0.9)
        # the cold bath does not touch the 1-3 transition in preset A
        assert rate(m, 0, 2, 0) == 0.0

    def test_identical_indices_rejected(self):
        m = preset("A", 0.5, 0.9)
        with pytest.raises(ValidationError):
            rate(m, 1, 1, 0)


def make_two_level(gamma, beta):
    sd = OhmicSpectralDensity(omega_c=10.0)
    return QarModel(
        system=SystemSpec((0.0, 1.0)),
        baths=(BathSpec("C", beta, {(0, 1): gamma}, sd),),
        cold_index=0,
    )


class TestValidation:
    def test_nonincreasing_energies(self):
        with pytest.raises(ValidationError):
            SystemSpec((0.0, 1.0, 0.5))

    def test_gap_below_tolerance(self):
        with pytest.raises(ValidationError):
            SystemSpec((0.0, 1e-9, 1.0))
        # configurable guard
        SystemSpec((0.0, 1e-9, 1.0), gap_tol=1e-10)

    @pytest.mark.parametrize("gap_tol", [-5.0, 0.0, float("nan")])
    def test_nonpositive_gap_tolerance(self, gap_tol):
        # a negative tolerance would admit the unordered levels (1, 0, 0.5)
        with pytest.raises(ValidationError, match="gap tolerance must be positive"):
            SystemSpec((1.0, 0.0, 0.5), gap_tol=gap_tol)

    def test_single_level_rejected(self):
        with pytest.raises(ValidationError):
            SystemSpec((1.0,))

    def test_nonpositive_temperature(self):
        with pytest.raises(ValidationError):
            BathSpec("C", 0.0, {(0, 1): 1e-3})

    def test_negative_coupling(self):
        with pytest.raises(ValidationError):
            BathSpec("C", 1.0, {(0, 1): -1e-3})

    def test_pair_listed_in_both_orders(self):
        with pytest.raises(ValidationError, match=r"bath 'C': pair \(1, 0\) repeats a coupling"):
            BathSpec("C", 1.0, {(0, 1): 1e-3, (1, 0): 0.5})

    def test_disconnected_graph(self):
        sd = OhmicSpectralDensity()
        with pytest.raises(ValidationError, match="disconnected"):
            QarModel(
                system=SystemSpec((0.0, 0.5, 1.0, 1.5)),
                baths=(
                    BathSpec("C", 1.0, {(0, 1): 1e-3}, sd),
                    BathSpec("H", 0.5, {(2, 3): 1e-3}, sd),
                ),
                cold_index=0,
            )

    def test_zero_strength_does_not_connect(self):
        sd = OhmicSpectralDensity()
        with pytest.raises(ValidationError, match="disconnected"):
            QarModel(
                system=SystemSpec((0.0, 0.5, 1.0)),
                baths=(BathSpec("C", 1.0, {(0, 1): 1e-3, (1, 2): 0.0}, sd),),
                cold_index=0,
            )

    def test_bad_cold_index(self):
        sd = OhmicSpectralDensity()
        with pytest.raises(ValidationError):
            QarModel(
                system=SystemSpec((0.0, 1.0)),
                baths=(BathSpec("C", 1.0, {(0, 1): 1e-3}, sd),),
                cold_index=3,
            )

    def test_pair_out_of_range(self):
        sd = OhmicSpectralDensity()
        with pytest.raises(ValidationError):
            QarModel(
                system=SystemSpec((0.0, 1.0)),
                baths=(BathSpec("C", 1.0, {(0, 5): 1e-3}, sd),),
                cold_index=0,
            )

    def test_duplicate_labels_rejected(self):
        # two leaking baths under one label would share one key in every
        # label-keyed result (the decompose leaks) and in bath lookups
        sd = OhmicSpectralDensity()
        with pytest.raises(ValidationError, match="unique"):
            QarModel(
                system=SystemSpec((0.0, 0.4, 1.0)),
                baths=(
                    BathSpec("C", 1.0, {(0, 1): 1e-3}, sd),
                    BathSpec("X", 0.5, {(0, 2): 1e-3, (0, 1): 1e-3}, sd),
                    BathSpec("X", 0.1, {(1, 2): 1e-3, (0, 1): 1e-3}, sd),
                ),
                cold_index=0,
            )

    def test_models_are_immutable(self):
        m = preset("A", 0.5, 0.9)
        with pytest.raises(AttributeError):
            m.cold_index = 1


class TestPresets:
    def test_preset_a_has_exactly_three_couplings(self):
        m = preset("A", 0.5, 0.9)
        nonzero = [(b.label, p) for b in m.baths for p, g in b.couplings.items() if g > 0]
        assert len(nonzero) == 3
        k_up = [rate(m, i, j, b) for b in range(3) for i in range(3) for j in range(3)
                if i < j and rate(m, i, j, b) > 0]
        k_dn = [rate(m, i, j, b) for b in range(3) for i in range(3) for j in range(3)
                if i > j and rate(m, i, j, b) > 0]
        assert len(k_up) == 3 and len(k_dn) == 3

    def test_preset_b_has_nine_couplings_six_weak(self):
        m = preset("B", 0.5, 0.9)
        strengths = [g for b in m.baths for g in b.couplings.values() if g > 0]
        assert len(strengths) == 9
        assert sum(1 for g in strengths if g == pytest.approx(2e-5)) == 6
        assert sum(1 for g in strengths if g == pytest.approx(1e-3)) == 3

    def test_preset_c_hot_leak(self):
        m = preset("C", 0.5, 0.9)
        assert m.baths[1].coupling(0, 1) == pytest.approx(1e-3)
        assert m.baths[2].coupling(0, 1) == 0.0

    def test_preset_d_work_leak(self):
        m = preset("D", 0.5, 0.9)
        assert m.baths[2].coupling(0, 1) == pytest.approx(1e-3)
        assert m.baths[1].coupling(0, 1) == 0.0

    def test_preset_domain_errors(self):
        with pytest.raises(ValidationError):
            preset("A", 1.5, 0.9)
        with pytest.raises(ValidationError):
            preset("A", 0.5, 0.05)  # betaH below betaW
        with pytest.raises(ValidationError):
            preset("X", 0.5, 0.9)

    def test_rate_table_matches_rate(self):
        m = preset("B", 0.3, 0.7)
        for b in range(3):
            table = rate_table(m, b)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert table[i, j] == rate(m, i, j, b)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        m = preset("C", 0.37, 0.81)
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        assert m2.system.energies == m.system.energies
        assert m2.cold_index == m.cold_index
        for b1, b2 in zip(m.baths, m2.baths):
            assert b1.label == b2.label
            assert b1.beta == b2.beta
            assert b1.couplings == b2.couplings

    def test_one_based_indices_in_files(self, tmp_path):
        m = preset("A", 0.5, 0.9)
        data = model_to_dict(m)
        pairs = {(c["i"], c["j"]) for b in data["baths"] for c in b["couplings"]}
        assert pairs == {(1, 2), (1, 3), (2, 3)}
        assert model_from_dict(data).baths[0].couplings == m.baths[0].couplings

    def test_zero_based_file_rejected(self):
        data = model_to_dict(preset("A", 0.5, 0.9))
        data["baths"][0]["couplings"][0]["i"] = 0
        with pytest.raises(ValidationError, match="1-based"):
            model_from_dict(data)

    def test_missing_fields(self):
        with pytest.raises(ValidationError):
            model_from_dict({"energies": [0.0, 1.0]})

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["baths"][1].pop("beta"), "bath 'H' is missing field 'beta'"),
            (lambda d: d["baths"][1].pop("label"), "bath 2 is missing field 'label'"),
            (
                lambda d: d["baths"][2]["couplings"][0].pop("i"),
                "bath 'W' coupling 1 is missing field 'i'",
            ),
            (
                lambda d: d["baths"][2]["couplings"][0].pop("j"),
                "bath 'W' coupling 1 is missing field 'j'",
            ),
            (
                lambda d: d["baths"][0]["couplings"][0].pop("gamma"),
                "bath 'C' coupling 1 is missing field 'gamma'",
            ),
            (
                lambda d: d["baths"][0]["couplings"][0].update(gamma="abc"),
                "bath 'C' coupling 1: field 'gamma' has invalid value 'abc'",
            ),
            (
                lambda d: d["baths"][1].update(beta=None),
                "bath 'H': field 'beta' has invalid value None",
            ),
            (lambda d: d["baths"].append(3), "bath 4 must be a JSON object, got int"),
            (lambda d: d.update(energies="abc"), "field 'energies' has invalid value 'abc'"),
            (lambda d: d.pop("cold"), "model file is missing field 'cold'"),
            (
                lambda d: d["baths"][0]["couplings"][0].update(i=1.7),
                "bath 'C' coupling 1: field 'i' has invalid value 1.7",
            ),
            (
                lambda d: d["baths"][1]["couplings"].append({"i": 3, "j": 1, "gamma": 0.5}),
                "bath 'H' coupling 2: fields 'i', 'j' repeat the pair (3, 1)",
            ),
            (
                lambda d: d["baths"][1]["couplings"].append({"i": 1, "j": 3, "gamma": 0.5}),
                "bath 'H' coupling 2: fields 'i', 'j' repeat the pair (1, 3)",
            ),
            (
                lambda d: d.update(gap_tol=-5, energies=[1.0, 0.0, 0.5]),
                "gap tolerance must be positive, got -5.0",
            ),
        ],
        ids=["beta", "label", "i", "j", "gamma", "gamma-abc", "beta-null", "bath-int",
             "energies-abc", "cold", "i-fraction", "pair-reversed", "pair-repeated",
             "gap-tol-negative"],
    )
    def test_malformed_entries_name_bath_and_field(self, edit, message):
        data = model_to_dict(preset("A", 0.5, 0.9))
        edit(data)
        with pytest.raises(ValidationError) as info:
            model_from_dict(data)
        assert message in str(info.value)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValidationError, match="model file must be a JSON object, got list"):
            model_from_dict([1, 2])

    def test_duplicate_labels_in_file_rejected(self):
        data = model_to_dict(preset("C", 0.5, 0.9))
        data["baths"][2]["label"] = "H"
        with pytest.raises(ValidationError, match="unique"):
            model_from_dict(data)

    def test_unknown_cold_label(self):
        data = model_to_dict(preset("A", 0.5, 0.9))
        data["cold"] = "Z"
        with pytest.raises(ValidationError):
            model_from_dict(data)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_model(path)
