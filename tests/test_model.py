import hashlib
import json
import math

import numpy as np
import pytest

from qarfcs.errors import ValidationError
from qarfcs.fcs import heat_current
from qarfcs.model import (
    BathSpec,
    _is_integer,
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

    def test_overflow_is_a_validation_error_naming_beta_omega(self):
        assert bose_occupation(0.5, 1419.0) > 0.0  # beta omega = 709.5 still fits
        message = r"^e\^\(beta omega\) overflows at beta \* omega = 1000$"
        with pytest.raises(ValidationError, match=message):
            bose_occupation(0.5, 2000.0)


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
        with pytest.raises(ValidationError, match="coupling must be nonnegative, got -0.001"):
            spectral_value(OhmicSpectralDensity(), -1e-3, 1.0)


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

    def test_explicit_zero_coupling_changes_no_bit(self):
        # rate_table skips a listed zero coupling; the currents are those without it
        sd = OhmicSpectralDensity()
        ref = preset("A", 0.5, 0.9)
        baths = list(ref.baths)
        baths[0] = BathSpec("C", 1.0, {(0, 1): 1e-3, (0, 2): 0.0}, sd)
        m = QarModel(system=ref.system, baths=tuple(baths), cold_index=0)
        assert m.baths[0].couplings == {(0, 1): 1e-3, (0, 2): 0.0}
        for b in range(3):
            assert rate_table(m, b).tobytes() == rate_table(ref, b).tobytes()
            assert heat_current(m, b).hex() == heat_current(ref, b).hex()


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

    def test_no_bath_rejected(self):
        with pytest.raises(ValidationError, match="^at least one bath is required$"):
            QarModel(SystemSpec((0.0, 1.0)), (), 0)

    def test_single_level_rejected(self):
        with pytest.raises(ValidationError):
            SystemSpec((1.0,))

    def test_nonpositive_temperature(self):
        with pytest.raises(ValidationError):
            BathSpec("C", 0.0, {(0, 1): 1e-3})

    def test_negative_coupling(self):
        with pytest.raises(ValidationError):
            BathSpec("C", 1.0, {(0, 1): -1e-3})

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_nonfinite_temperature(self, beta):
        with pytest.raises(ValidationError, match="bath 'C': inverse temperature 'beta'"):
            BathSpec("C", beta, {(0, 1): 1e-3})

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_nonfinite_coupling(self, gamma):
        with pytest.raises(ValidationError, match=r"bath 'C': coupling 'gamma' for pair \(0, 1\)"):
            BathSpec("C", 1.0, {(0, 1): gamma})

    @pytest.mark.parametrize("omega_c", [math.nan, 0.0, -1.0])
    def test_nonpositive_or_nan_cutoff(self, omega_c):
        with pytest.raises(ValidationError, match="cutoff 'omega_c' must be positive"):
            OhmicSpectralDensity(omega_c=omega_c)

    def test_infinite_cutoff_is_the_ohmic_limit(self):
        assert OhmicSpectralDensity(omega_c=math.inf).value(1e-3, 0.5) == 1e-3 * 0.5

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_nonfinite_energy(self, energy):
        with pytest.raises(ValidationError, match="field 'energies': level 2 is not finite"):
            SystemSpec((0.0, energy, 1.0))

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

    def test_pair_joining_a_level_to_itself(self):
        with pytest.raises(ValidationError, match=r"must join distinct levels, got \(1, 1\)"):
            BathSpec("C", 1.0, {(1, 1): 1e-3})

    def test_one_integer_rule(self):
        # pairs and bath indices take an int or a numpy integer, never a bool
        for x in (0, -3, 7, np.int64(2), np.uint8(1)):
            assert _is_integer(x)
        for x in (True, np.bool_(True), 1.0, np.float64(1.0), "1", None):
            assert not _is_integer(x)

    def test_random_model_needs_two_levels(self):
        with pytest.raises(ValidationError, match="need at least 2 levels"):
            random_connected_model(np.random.default_rng(0), n_levels=1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SystemSpec(energies="012"), r"field 'energies': level 1 .* got '0'"),
            (lambda: SystemSpec(energies=(False, 0.5, True)), r"'energies': level 1 .* False"),
            (lambda: SystemSpec((0.0, 1.0), gap_tol="1e-6"), r"field 'gap_tol' .* '1e-6'"),
            (lambda: BathSpec("C", 1.0, {(0, 1): "0.001"}), r"'gamma' for pair \(0, 1\)"),
            (lambda: BathSpec("C", 1.0, {(0, 1): True}), r"'gamma' for pair \(0, 1\)"),
            (lambda: BathSpec(None, 1.0, {}), r"field 'label' .* got None"),
            (lambda: BathSpec("C", "1.0", {}), r"bath 'C': field 'beta' .* got '1.0'"),
            (lambda: BathSpec("C", 1.0, {(True, 2): 0.1}), r"pair \(True, 2\) .* integer"),
            (lambda: BathSpec("C", 1.0, {(0, 1.0): 0.1}), r"pair \(0, 1.0\) .* integer"),
            (lambda: OhmicSpectralDensity(True), r"field 'omega_c' .* got True"),
            (lambda: OhmicSpectralDensity("10"), r"field 'omega_c' .* got '10'"),
            (lambda: OhmicSpectralDensity(np.bool_(True)), r"field 'omega_c'"),
        ],
        ids=[
            "energies-str", "energies-bool", "gap_tol-str", "gamma-str", "gamma-bool",
            "label-none", "beta-str", "pair-bool", "pair-float", "omega_c-bool",
            "omega_c-str", "omega_c-numpy-bool",
        ],
    )
    def test_constructors_coerce_nothing(self, build, message):
        # the loader's rule: numbers only, never a string or a boolean
        with pytest.raises(ValidationError, match=message):
            build()

    def test_constructors_convert_ints_and_numpy_numbers(self):
        system = SystemSpec((0, np.float64(0.25), np.int64(1)), gap_tol=np.float32(1e-6))
        assert system.energies == (0.0, 0.25, 1.0)
        assert all(type(e) is float for e in system.energies)
        bath = BathSpec("C", np.int64(1), {(np.int64(1), 0): np.float64(1e-3), (0, 2): 1},
                        OhmicSpectralDensity(np.int32(10)))
        assert bath.couplings == {(0, 1): 1e-3, (0, 2): 1.0}
        assert all(type(x) is int for pair in bath.couplings for x in pair)
        assert all(type(g) is float for g in bath.couplings.values())

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda s, b: QarModel(s, b, True), r"^field 'cold_index' .* integer, got True$"),
            (lambda s, b: QarModel(s, b, 1.0), r"^field 'cold_index' .* integer, got 1.0$"),
            (lambda s, b: QarModel(s, b, "0"), r"^field 'cold_index' .* integer, got '0'$"),
            (lambda s, b: SystemSpec(5), r"^field 'energies' must be a sequence, got 5$"),
            (lambda s, b: SystemSpec((0, 10**400)),
             r"^field 'energies': level 2 is an integer beyond the float range$"),
            (lambda s, b: BathSpec("C", 10**400, {}),
             r"^bath 'C': field 'beta' is an integer beyond the float range$"),
        ],
        ids=["cold_index-bool", "cold_index-float", "cold_index-str", "energies-int",
             "energies-overflow", "beta-overflow"],
    )
    def test_constructors_refuse_what_they_cannot_store(self, build, message):
        system = SystemSpec((0.0, 1.0))
        baths = (BathSpec("C", 1.0, {(0, 1): 1e-3}), BathSpec("H", 0.5, {(0, 1): 1e-3}))
        with pytest.raises(ValidationError, match=message):
            build(system, baths)

    @pytest.mark.parametrize("cold", [1, np.int64(1), np.uint8(1)], ids=["int", "int64", "uint8"])
    def test_cold_index_is_stored_as_int(self, cold):
        baths = (BathSpec("C", 1.0, {(0, 1): 1e-3}), BathSpec("H", 0.5, {(0, 1): 1e-3}))
        model = QarModel(SystemSpec((0.0, 1.0)), baths, cold)
        assert model.cold_index == 1 and type(model.cold_index) is int

    def test_models_are_immutable(self):
        m = preset("A", 0.5, 0.9)
        with pytest.raises(AttributeError):
            m.cold_index = 1


# written out by hand from the README presets table: A is the ideal machine
# (cold on 1-2, hot on 1-3, work on 2-3), B adds gamma/50 on every other
# transition, C a hot-bath and D a work-bath leak on 1-2; 0-based pairs
_G, _W = 1e-3, 2e-5
PRESET_COUPLINGS = {
    "A": {"C": {(0, 1): _G}, "H": {(0, 2): _G}, "W": {(1, 2): _G}},
    "B": {
        "C": {(0, 1): _G, (0, 2): _W, (1, 2): _W},
        "H": {(0, 1): _W, (0, 2): _G, (1, 2): _W},
        "W": {(0, 1): _W, (0, 2): _W, (1, 2): _G},
    },
    "C": {"C": {(0, 1): _G}, "H": {(0, 1): _G, (0, 2): _G}, "W": {(1, 2): _G}},
    "D": {"C": {(0, 1): _G}, "H": {(0, 2): _G}, "W": {(0, 1): _G, (1, 2): _G}},
}


class TestPresets:
    @pytest.mark.parametrize("pid", sorted(PRESET_COUPLINGS))
    def test_couplings_match_the_presets_table(self, pid):
        m = preset(pid, 0.5, 0.9)
        assert {b.label: b.couplings for b in m.baths} == PRESET_COUPLINGS[pid]
        assert [(b.label, b.beta) for b in m.baths] == [("C", 1.0), ("H", 0.9), ("W", 0.1)]
        assert m.cold_index == 0 and m.system.energies == (0.0, 0.5, 1.0)

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
        assert m.baths[1].couplings.get((0, 1), 0.0) == pytest.approx(1e-3)
        assert m.baths[2].couplings.get((0, 1), 0.0) == 0.0

    def test_preset_d_work_leak(self):
        m = preset("D", 0.5, 0.9)
        assert m.baths[2].couplings.get((0, 1), 0.0) == pytest.approx(1e-3)
        assert m.baths[1].couplings.get((0, 1), 0.0) == 0.0

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

    def test_round_trip_keeps_a_gap_tolerance(self, tmp_path):
        sd = OhmicSpectralDensity()
        m = QarModel(
            system=SystemSpec((0.0, 1e-7, 0.5), gap_tol=1e-9),
            baths=(BathSpec("C", 1.0, {(0, 1): 1e-3}, sd), BathSpec("H", 0.5, {(1, 2): 1e-3}, sd)),
            cold_index=0,
        )
        assert model_to_dict(m)["gap_tol"] == 1e-9
        assert model_from_dict(model_to_dict(m)) == m
        path = tmp_path / "model.json"
        save_model(m, path)
        assert load_model(path) == m

    # sha256 of json.dumps(model_to_dict(preset(pid, 0.3, 0.9)), indent=2): a default
    # gap tolerance is not written, so files of default models keep their bytes
    _PRESET_DICT_DIGESTS = {
        "A": "1b5f7e15026788758969c06475d80323fc065d316d87868ee11bb22b41a29ba3",
        "B": "e25c784e4d375f0b497e8ec7bc09e63f644a2459b7df9064352034d5bb008728",
        "C": "c7b99ae2c87d156416589d29f6521f112afddc39743e8a6ab7e6c94bfd428ada",
        "D": "c5ef2e18834ffeeb33c9625d022f84b43a1feeb6f81825dab09b67b68f6bbf43",
    }

    @pytest.mark.parametrize("pid", "ABCD")
    def test_default_gap_tolerance_is_not_written(self, pid):
        data = model_to_dict(preset(pid, 0.3, 0.9))
        assert "gap_tol" not in data
        digest = hashlib.sha256(json.dumps(data, indent=2).encode()).hexdigest()
        assert digest == self._PRESET_DICT_DIGESTS[pid]

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["baths"][1].update(beta="1.0"),
                "bath 'H': field 'beta' has invalid value '1.0'",
            ),
            (
                lambda d: d["baths"][0]["couplings"][0].update(gamma="0.001"),
                "bath 'C' coupling 1: field 'gamma' has invalid value '0.001'",
            ),
            (
                lambda d: d["baths"][0]["couplings"][0].update(i=True),
                "bath 'C' coupling 1: field 'i' has invalid value True",
            ),
            (
                lambda d: d["baths"][0]["couplings"][0].update(j=2.0),
                "bath 'C' coupling 1: field 'j' has invalid value 2.0",
            ),
            (
                lambda d: d["baths"][0]["couplings"][0].update(gamma=True),
                "bath 'C' coupling 1: field 'gamma' has invalid value True",
            ),
            (
                lambda d: d["baths"][1].update(beta=False),
                "bath 'H': field 'beta' has invalid value False",
            ),
            (
                lambda d: d["baths"][1].update(omega_c="10"),
                "bath 'H': field 'omega_c' has invalid value '10'",
            ),
            (
                lambda d: d["baths"][1].update(beta=10**400),
                "bath 'H': field 'beta' has invalid value 1",
            ),
            (lambda d: d.update(gap_tol="1e-6"), "field 'gap_tol' has invalid value '1e-6'"),
            (
                lambda d: d.update(energies=[False, 0.5, True]),
                "field 'energies' has invalid value [False, 0.5, True]",
            ),
            (lambda d: d.update(energies="012"), "field 'energies' has invalid value '012'"),
            (
                lambda d: d["baths"][0].update(label=None),
                "bath 1: field 'label' has invalid value None",
            ),
            (lambda d: d["baths"][0].update(label=7), "bath 1: field 'label' has invalid value 7"),
            (lambda d: d.update(baths="CHW"), "field 'baths' has invalid value 'CHW'"),
            (
                lambda d: d["baths"][2].update(couplings={"i": 2, "j": 3, "gamma": 0.001}),
                "bath 'W': field 'couplings' has invalid value",
            ),
        ],
        ids=["beta-str", "gamma-str", "i-bool", "j-float", "gamma-bool", "beta-bool",
             "omega-c-str", "beta-huge-int", "gap-tol-str", "energies-bools", "energies-str",
             "label-null", "label-int", "baths-str", "couplings-object"],
    )
    def test_non_json_numbers_are_not_coerced(self, edit, message):
        data = model_to_dict(preset("A", 0.5, 0.9))
        edit(data)
        with pytest.raises(ValidationError) as info:
            model_from_dict(data)
        assert message in str(info.value)

    def test_integer_numbers_stay_valid(self):
        data = model_to_dict(preset("A", 0.5, 0.9))
        data.update(energies=[0, 1, 2], gap_tol=1)
        data["baths"][0].update(beta=1, omega_c=10)
        data["baths"][0]["couplings"][0]["gamma"] = 0
        m = model_from_dict(data)
        assert m.system.energies == (0.0, 1.0, 2.0) and m.system.gap_tol == 1.0
        assert m.baths[0].beta == 1.0 and m.baths[0].spectral.omega_c == 10.0
        assert m.baths[0].couplings == {(0, 1): 0.0}
        assert all(type(x) is float for x in (*m.system.energies, m.baths[0].beta))

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
