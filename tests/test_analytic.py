import json
import math

import numpy as np
import pytest

from qarfcs import analytic, cli, fcs, liouvillian
from qarfcs.analytic import (
    cop,
    cycle_conditions,
    decompose,
    ideal_cooling,
    leaky_cooling,
    sb_current,
    sb_noise,
)
from qarfcs.errors import ConsistencyError, CopUndefinedError, TopologyError, ValidationError
from qarfcs.fcs import charpoly, cooling_condition, heat_current, noise
from qarfcs.liouvillian import build_generator
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    preset,
    rate_table,
    spectral_value,
)
from qarfcs.oracle import direct_current, random_connected_model
from tests.conftest import make_spin_boson, make_tied_machine


class TestSpinBosonForms:
    def test_equilibrium_vanishes(self):
        assert sb_current(1.0, 1e-3, 2e-3, 0.7, 0.7) == 0.0

    def test_sign_follows_occupations(self):
        assert sb_current(1.0, 1e-3, 1e-3, 1.0, 0.5) < 0.0
        assert sb_current(1.0, 1e-3, 1e-3, 0.5, 1.0) > 0.0

    def test_pipeline_cross_check(self, rng):
        sd = OhmicSpectralDensity()
        for _ in range(50):
            w0 = float(rng.uniform(0.2, 2.0))
            bc = float(rng.uniform(0.1, 2.0))
            bh = float(rng.uniform(0.1, 2.0))
            gc = float(10 ** rng.uniform(-4, -2))
            gh = float(10 ** rng.uniform(-4, -2))
            m = make_spin_boson(w0, bc, bh, gc, gh)
            gam_c = spectral_value(sd, gc, w0)
            gam_h = spectral_value(sd, gh, w0)
            assert heat_current(m, 0) == pytest.approx(
                sb_current(w0, gam_c, gam_h, bc, bh), rel=1e-10
            )
            assert noise(m, 0) == pytest.approx(
                sb_noise(w0, gam_c, gam_h, bc, bh), rel=1e-10
            )

    def test_equilibrium_noise_positive(self):
        assert sb_noise(1.0, 1e-3, 1e-3, 0.7, 0.7) > 0.0

    def test_noise_nonnegative_random(self, rng):
        for _ in range(100):
            s = sb_noise(
                float(rng.uniform(0.2, 2.0)),
                float(10 ** rng.uniform(-4, -2)),
                float(10 ** rng.uniform(-4, -2)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            assert s >= 0.0


class TestIdealCooling:
    def test_threshold_examples(self):
        assert ideal_cooling(0.8, 1.0, 1.0, 0.9, 0.1) is True  # 0.8 < 8/9
        assert ideal_cooling(0.95, 1.0, 1.0, 0.9, 0.1) is False

    def test_matches_pipeline_on_grid(self):
        # axes chosen to stay clear of the exact boundary curve
        e21s = np.linspace(0.0153, 0.9853, 41)
        bhs = np.linspace(0.1171, 0.9871, 41)
        thr_gap = min(
            abs(e21 - (bh - 0.1) / 0.9) for e21 in e21s for bh in bhs
        )
        assert thr_gap > 1e-4  # grid is non-degenerate by construction
        for e21 in e21s[::8]:
            for bh in bhs[::8]:
                analytic = ideal_cooling(e21, 1.0, 1.0, bh, 0.1)
                assert cooling_condition(preset("A", e21, bh))[1] == analytic

    def test_boundary_current_vanishes(self):
        bh = 0.9
        e21 = (bh - 0.1) / 0.9  # exact threshold
        m = preset("A", e21, bh)
        j = heat_current(m, 0)
        # scale: the current prefactor without the vanishing thermal bracket
        kc = rate_table(m, 0)
        kh = rate_table(m, 1)
        kw = rate_table(m, 2)
        a2 = charpoly(build_generator(m)).coefficient(2)
        scale = e21 * kc[1, 0] * kh[2, 0] * kw[2, 1] / a2
        assert abs(j) <= 1e-12 * scale

    def test_ordering_validation(self):
        with pytest.raises(ValidationError):
            ideal_cooling(1.2, 1.0, 1.0, 0.9, 0.1)
        with pytest.raises(ValidationError):
            ideal_cooling(0.5, 1.0, 0.5, 0.9, 0.1)


class TestCop:
    def test_symmetric_point(self):
        eta, eta_c = cop(preset("A", 0.5, 0.9))
        assert eta == pytest.approx(1.0, rel=1e-10)  # E21/E32 = 0.5/0.5
        assert eta_c == pytest.approx(0.8 / 0.1, rel=1e-12)

    def test_currents_ratio_equals_spacing_ratio(self, rng):
        for _ in range(20):
            bh = float(rng.uniform(0.2, 0.8))
            thr = (bh - 0.1) / 0.9
            e21 = float(rng.uniform(0.1, 0.9)) * thr
            eta, eta_c = cop(preset("A", e21, bh))
            assert eta == pytest.approx(e21 / (1.0 - e21), rel=1e-10)
            assert eta <= eta_c + 1e-10

    def test_boundary_approach(self):
        bh = 0.5
        thr = (bh - 0.1) / 0.9
        eta, eta_c = cop(preset("A", thr - 1e-4, bh))
        assert abs(eta - eta_c) <= 1e-3

    def test_outside_window_undefined(self):
        with pytest.raises(CopUndefinedError):
            cop(preset("A", 0.95, 0.9))

    def test_wrong_topology(self):
        with pytest.raises(TopologyError):
            cop(preset("C", 0.5, 0.9))
        with pytest.raises(TopologyError, match="^expected a three-level, three-bath model$"):
            cop(make_spin_boson())

    @pytest.mark.parametrize(
        "pid, message",
        [
            ("B", "bath 'C' couples [(1, 2), (1, 3), (2, 3)], expected [(1, 2)]"),
            ("C", "bath 'H' couples [(1, 2), (1, 3)], expected [(1, 3)]"),
            ("D", "bath 'W' couples [(1, 2), (2, 3)], expected [(2, 3)]"),
        ],
        ids=["B", "C", "D"],
    )
    def test_refusal_names_the_bath_and_its_pairs(self, pid, message):
        with pytest.raises(TopologyError) as info:
            cop(preset(pid, 0.5, 0.9))
        assert str(info.value) == f"ideal refrigerator: {message}"


class TestTiedHotAndWorkBetas:
    @pytest.mark.parametrize("func", [cop, leaky_cooling], ids=["cop", "leaky_cooling"])
    def test_refused_by_the_temperature_order(self, func):
        # one bath would take both the hot and the work role
        with pytest.raises(ValidationError) as info:
            func(make_tied_machine())
        assert str(info.value) == "need beta_w < beta_h < beta_c, got 0.5, 0.5, 1.0"


class TestOneOrderingRule:
    @pytest.mark.parametrize(
        "calls, message",
        [
            (
                [lambda: preset("A", 1.2, 0.9), lambda: ideal_cooling(1.2, 1.0, 1.0, 0.9, 0.1)],
                "need 0 < E21 < E31, got E21=1.2, E31=1.0",
            ),
            (
                [
                    lambda: preset("A", 0.4, 0.5, beta_w=0.5),
                    lambda: ideal_cooling(0.4, 1.0, 1.0, 0.5, 0.5),
                    lambda: cop(make_tied_machine()),
                ],
                "need beta_w < beta_h < beta_c, got 0.5, 0.5, 1.0",
            ),
        ],
        ids=["energies", "betas"],
    )
    def test_preset_ideal_cooling_and_cop_share_the_message(self, calls, message):
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == message


class TestCycleConditions:
    def test_thresholds_at_reference_point(self):
        # betaH = 0.9: cond21 iff E21 <= 8/9, cond32 iff E21 >= 1/9
        assert cycle_conditions(0.5, 1.0, 1.0, 0.9, 0.1) == (True, True)
        assert cycle_conditions(0.05, 1.0, 1.0, 0.9, 0.1) == (True, False)
        assert cycle_conditions(0.95, 1.0, 1.0, 0.9, 0.1) == (False, True)

    def test_limits_close_window(self):
        for e21 in (0.01, 0.99):
            c21, c32 = cycle_conditions(e21, 1.0, 1.0, 0.9, 0.1)
            assert not (c21 and c32) or (0.111 < e21 < 0.889)


def _recoupled(pid, index, couplings):
    """Preset ``pid`` at (0.5, 0.9) with bath ``index`` coupled by ``couplings`` instead."""
    m = preset(pid, 0.5, 0.9)
    baths = list(m.baths)
    old = baths[index]
    baths[index] = BathSpec(old.label, old.beta, couplings, old.spectral)
    return QarModel(system=m.system, baths=tuple(baths), cold_index=0)


class TestLeakyCooling:
    def test_agrees_with_pipeline(self):
        for pid in ("C", "D"):
            for e21 in np.linspace(0.05, 0.95, 13):
                for bh in np.linspace(0.15, 0.95, 9):
                    m = preset(pid, float(e21), float(bh))
                    _, _, cools = leaky_cooling(m)
                    assert cools == cooling_condition(m)[1]

    def test_leak_term_nonpositive(self):
        for pid in ("C", "D"):
            _, leak, _ = leaky_cooling(preset(pid, 0.3, 0.9))
            assert leak <= 0.0

    def test_leak_vanishes_when_leak_bath_matches_cold(self):
        # hand-built model C with the leak bath at the cold temperature
        sd = OhmicSpectralDensity()
        g = 1e-3
        m = QarModel(
            system=SystemSpec((0.0, 0.4, 1.0)),
            baths=(
                BathSpec("C", 1.0, {(0, 1): g}, sd),
                BathSpec("H", 1.0, {(0, 2): g, (0, 1): g}, sd),
                BathSpec("W", 0.1, {(1, 2): g}, sd),
            ),
            cold_index=0,
        )
        ideal, leak, _ = leaky_cooling(m)
        assert leak == 0.0

    def test_wrong_topology_refused(self):
        with pytest.raises(TopologyError):
            leaky_cooling(preset("A", 0.5, 0.9))
        with pytest.raises(TopologyError):
            leaky_cooling(preset("B", 0.5, 0.9))

    @pytest.mark.parametrize(
        "build, message",
        [
            # no leak: the work bath, which must leak when the hot bath does not
            (lambda: preset("A", 0.5, 0.9), "bath 'W' couples [(2, 3)], expected [(1, 2), (2, 3)]"),
            (lambda: preset("B", 0.5, 0.9),
             "bath 'C' couples [(1, 2), (1, 3), (2, 3)], expected [(1, 2)]"),
            (lambda: _recoupled("C", 2, {(1, 2): 1e-3, (0, 1): 1e-3}),
             "bath 'W' couples [(1, 2), (2, 3)], expected [(2, 3)]"),
            (lambda: _recoupled("A", 1, {(0, 2): 1e-3, (1, 2): 1e-3}),
             "bath 'H' couples [(1, 3), (2, 3)], expected [(1, 3)]"),
        ],
        ids=["A", "B", "hot-and-work-leak", "hot-leak-on-2-3"],
    )
    def test_refusal_names_the_bath_and_its_pairs(self, build, message):
        with pytest.raises(TopologyError) as info:
            leaky_cooling(build())
        assert str(info.value) == f"leaky refrigerator: {message}"

    def test_roles_do_not_depend_on_the_bath_order(self):
        # roles come from the cold index and the betas
        ref = preset("D", 0.3, 0.9)
        c, h, w = ref.baths
        m = QarModel(system=ref.system, baths=(h, w, c), cold_index=2)
        assert leaky_cooling(m) == leaky_cooling(ref)

    def test_terms_are_decompose_parts_over_the_ideal_rate_product(self):
        # cycle / (E21 kC_21 kH_31 kW_32) is the ideal term and the leaks over it the leak
        # term, two independent routes to the same closed form
        worst = 0.0
        for pid in ("C", "D"):
            for e21 in np.linspace(0.05, 0.95, 21):
                for bh in np.linspace(0.12, 0.98, 21):
                    m = preset(pid, float(e21), float(bh))
                    ideal, leak, _ = leaky_cooling(m)
                    kc, kh, kw = (rate_table(m, b) for b in range(3))
                    scale = float(e21) * kc[1, 0] * kh[2, 0] * kw[2, 1]
                    dec = decompose(m)
                    parts = (dec.cycles[(0, 1)] / scale, math.fsum(dec.leaks.values()) / scale)
                    gap = max(abs(parts[0] - ideal), abs(parts[1] - leak))
                    worst = max(worst, gap / (abs(ideal) + abs(leak)))
        assert worst <= 4e-15

    def test_d_window_inside_c_window(self):
        # work-bath leaks hurt far more than hot-bath leaks
        for bh in np.linspace(0.2, 0.9, 8):
            for e21 in np.linspace(0.05, 0.95, 19):
                cools_d = cooling_condition(preset("D", float(e21), float(bh)))[1]
                if cools_d:
                    assert cooling_condition(preset("C", float(e21), float(bh)))[1]


def ideal_cycle_closed_form(m):
    """E21 k^H_31 k^W_32 k^C_21 (e^(-bW E32 - bC E21) - e^(-bH E31))."""
    e1, e2, e3 = m.system.energies
    bc, bh, bw = (m.baths[i].beta for i in range(3))
    kc = rate_table(m, 0)
    kh = rate_table(m, 1)
    kw = rate_table(m, 2)
    bracket = math.exp(-bw * (e3 - e2) - bc * (e2 - e1)) - math.exp(-bh * (e3 - e1))
    return (e2 - e1) * kh[2, 0] * kw[2, 1] * kc[1, 0] * bracket


def _fields_hex(dec):
    """float.hex of total, normalization, magnitude and residual, then of every part."""
    return (
        dec.total.hex(),
        dec.normalization.hex(),
        dec.magnitude.hex(),
        dec.reconstruction_residual.hex(),
        {k: v.hex() for k, v in dec.cycles.items()},
        {k: v.hex() for k, v in dec.leaks.items()},
    )


# _fields_hex of the closed form; plain double arithmetic, so no long-double width enters
_DECOMPOSE_GOLDEN = {
    ("A", 0.3, 0.9): (
        "0x1.8376b16b997fcp-30",
        "0x1.d0316120d39c3p-15",
        "0x1.9271a4dbdbba2p-27",
        "0x1.8000000000000p-81",
        {(0, 1): "0x1.8376b16b997ffp-30"},
        {
            ("H", (0, 1)): "0x0.0p+0",
            ("W", (0, 1)): "0x0.0p+0",
        },
    ),
    ("A", 0.5, 0.5): (
        "-0x1.b8d7470eca4a0p-32",
        "0x1.4e8e3e7028f4cp-14",
        "0x1.cb1279d3bdc94p-26",
        "0x1.d800000000000p-79",
        {(0, 1): "-0x1.b8d7470eca4dbp-32"},
        {
            ("H", (0, 1)): "0x0.0p+0",
            ("W", (0, 1)): "0x0.0p+0",
        },
    ),
    ("B", 0.3, 0.9): (
        "0x1.ba15f3fef06f2p-31",
        "0x1.1fbe852c9c0c8p-14",
        "0x1.ef878b104f070p-27",
        "0x1.0000000000000p-81",
        {
            (0, 1): "0x1.83366de5c6328p-30",
            (0, 2): "-0x1.4c7764f1ddb76p-39",
            (1, 2): "0x1.9c3b28926819dp-42",
        },
        {
            ("H", (0, 1)): "-0x1.8d525d1301439p-39",
            ("W", (0, 1)): "-0x1.3182b622f733dp-32",
            ("H", (0, 2)): "-0x1.34aa71472f6a6p-36",
            ("W", (0, 2)): "-0x1.5f6f19c8ef7ddp-33",
            ("H", (1, 2)): "-0x1.6142b88ec43e1p-40",
            ("W", (1, 2)): "-0x1.3af63c15c4356p-33",
        },
    ),
    ("B", 0.5, 0.5): (
        "-0x1.dae351a1bb003p-30",
        "0x1.8c1c3c05fbb8cp-14",
        "0x1.0f8ee2f7d1162p-25",
        "0x1.1000000000000p-77",
        {
            (0, 1): "-0x1.bb30ee91cda74p-32",
            (0, 2): "-0x1.4160f9c8da735p-38",
            (1, 2): "-0x1.c966ce260c1e3p-43",
        },
        {
            ("H", (0, 1)): "-0x1.3924f198902e9p-34",
            ("W", (0, 1)): "-0x1.cb124e013482bp-31",
            ("H", (0, 2)): "-0x1.7488e15edf37bp-33",
            ("W", (0, 2)): "-0x1.20c20407a99cep-33",
            ("H", (1, 2)): "-0x1.27b238ab2f381p-37",
            ("W", (1, 2)): "-0x1.cb33294c2d064p-34",
        },
    ),
    ("C", 0.3, 0.9): (
        "0x1.66b830d7da7c0p-30",
        "0x1.747c2cc4e330bp-14",
        "0x1.40ff8c2c120bcp-26",
        "0x1.0000000000000p-81",
        {(0, 1): "0x1.8376b16b997ffp-30"},
        {
            ("H", (0, 1)): "-0x1.cbe8093bf0413p-34",
            ("W", (0, 1)): "0x0.0p+0",
        },
    ),
    ("C", 0.5, 0.5): (
        "-0x1.a9eb0c4e8bba8p-29",
        "0x1.2ecfab77c3cd8p-13",
        "0x1.9fe8423a21282p-25",
        "0x1.8000000000000p-79",
        {(0, 1): "-0x1.b8d7470eca4dbp-32"},
        {
            ("H", (0, 1)): "-0x1.72d0236cb2707p-29",
            ("W", (0, 1)): "0x0.0p+0",
        },
    ),
    ("D", 0.3, 0.9): (
        "-0x1.e8b430c114778p-28",
        "0x1.7e2edd6ed0161p-12",
        "0x1.430c2acd7e650p-24",
        "0x1.0000000000000p-76",
        {(0, 1): "0x1.8376b16b997ffp-30"},
        {
            ("H", (0, 1)): "0x0.0p+0",
            ("W", (0, 1)): "-0x1.24c8ee8dfd6b4p-27",
        },
    ),
    ("D", 0.5, 0.5): (
        "-0x1.ab89a9375a198p-26",
        "0x1.ac99f83ce5db8p-12",
        "0x1.270232c541464p-23",
        "0x1.8000000000000p-77",
        {(0, 1): "-0x1.b8d7470eca4dbp-32"},
        {
            ("H", (0, 1)): "0x0.0p+0",
            ("W", (0, 1)): "-0x1.a4a64c1b1ef08p-26",
        },
    ),
}


class TestDecompose:
    def test_preset_a_single_cycle_term(self):
        m = preset("A", 0.4, 0.7)
        dec = decompose(m)
        closed = ideal_cycle_closed_form(m)
        assert dec.cycles[(0, 1)] == pytest.approx(closed, rel=1e-12)
        scale = abs(dec.cycles[(0, 1)])
        for v in dec.leaks.values():
            assert abs(v) <= 1e-12 * scale
        assert dec.total == pytest.approx(closed, rel=1e-12)

    def test_preset_c_reproduces_leak_split(self):
        m = preset("C", 0.3, 0.9)
        dec = decompose(m)
        e1, e2, e3 = m.system.energies
        kc = rate_table(m, 0)
        kh = rate_table(m, 1)
        kw = rate_table(m, 2)
        leak_closed = (
            (e2 - e1)
            * kc[1, 0]
            * kh[1, 0]
            * (kw[2, 1] + kh[2, 0])
            * (math.exp(-1.0 * (e2 - e1)) - math.exp(-0.9 * (e2 - e1)))
        )
        assert dec.cycles[(0, 1)] == pytest.approx(ideal_cycle_closed_form(m), rel=1e-12)
        assert dec.leaks[("H", (0, 1))] == pytest.approx(leak_closed, rel=1e-12)
        assert dec.leaks[("W", (0, 1))] == pytest.approx(0.0, abs=1e-12 * abs(leak_closed))

    def test_preset_b_reconstruction_and_signs(self):
        dec = decompose(preset("B", 0.5, 0.9))
        assert dec.reconstruction_residual <= 1e-10 * dec.magnitude
        assert dec.cycles[(0, 2)] <= 0.0  # the 3-1 cycle never cools
        for v in dec.leaks.values():
            assert v <= 1e-12 * dec.magnitude

    def test_reconstruction_random_three_bath(self, rng):
        for _ in range(60):
            m = random_connected_model(rng, n_levels=3, n_baths=3, topology="any")
            dec = decompose(m)
            assert dec.reconstruction_residual <= 1e-10 * dec.magnitude
            # per-transition leak negativity is guaranteed when the cold bath
            # owns a single transition; with several cold contacts the bath
            # can circulate heat between them and individual shares may flip
            cold_pairs = [
                p for p, g in m.baths[m.cold_index].couplings.items() if g > 0
            ]
            if len(cold_pairs) == 1:
                for v in dec.leaks.values():
                    assert v <= 1e-12 * dec.magnitude

    def test_total_is_penultimate_times_current(self):
        m = preset("B", 0.37, 0.66)
        dec = decompose(m)
        j = heat_current(m, 0)
        assert dec.total == pytest.approx(dec.normalization * j, rel=1e-12)

    def test_current_units_option(self, capsys):
        # numerator units live in the library; the CLI divides by a_(N-1)(0)
        m = preset("B", 0.5, 0.9)
        argv = ["decompose", "--preset", "B", "--e21", "0.5", "--betaH", "0.9"]
        assert cli.main([*argv, "--current-units", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["current_units"] is True
        assert data["total"] == pytest.approx(heat_current(m, 0), rel=1e-12)
        parts = math.fsum([*data["cycles"].values(), *data["leaks"].values()])
        assert parts == pytest.approx(data["total"], rel=1e-9)

    def test_requires_three_levels(self, spin_boson):
        message = "^decompose needs a three-level model, got 2 levels$"
        with pytest.raises(TopologyError, match=message):
            decompose(spin_boson)

    @pytest.mark.parametrize("n_baths", [1, 2, 4])
    def test_any_bath_count_takes_the_same_sums(self, n_baths):
        # a cycle needs two baths besides the cold one, so with fewer every cycle is 0.0
        rng = np.random.default_rng(n_baths)
        for _ in range(10):
            m = random_connected_model(rng, n_levels=3, n_baths=n_baths, topology="any")
            dec = decompose(m)
            cold = m.baths[m.cold_index]
            pairs = sorted(p for p, g in cold.couplings.items() if g > 0.0)
            assert sorted(dec.cycles) == pairs
            assert sorted(dec.leaks) == sorted((b.label, p) for b in m.baths if b is not cold
                                               for p in pairs)
            if n_baths < 3:
                assert all(v == 0.0 for v in dec.cycles.values())
            current = dec.normalization * heat_current(m, m.cold_index)
            assert abs(dec.total - current) <= 1e-12 * dec.magnitude
            assert dec.reconstruction_residual <= 1e-10 * dec.magnitude

    def test_calls_neither_charpoly_nor_generator_from_tables(self, monkeypatch):
        rng = np.random.default_rng(11)
        models = [preset(pid, 0.3, 0.9) for pid in "ABCD"] + [
            random_connected_model(rng, n_levels=3, n_baths=3, topology="any") for _ in range(5)
        ]
        before = [_fields_hex(decompose(m)) for m in models]

        def refuse(*args, **kwargs):
            raise AssertionError("decompose built or traced a generator")

        for mod in (analytic, fcs, liouvillian):
            for name in ("charpoly", "generator_from_tables"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        # nothing reads the working precision either: plain double gives the same bits
        monkeypatch.setattr(liouvillian, "WORKING_DTYPE", np.float64)
        monkeypatch.setattr(fcs, "WORKING_DTYPE", np.float64)
        assert [_fields_hex(decompose(m)) for m in models] == before

    def test_on_threshold_cycle_is_exactly_zero(self):
        # criterion 08's middle cell, where beta_C E21 + beta_W E32 - beta_H E31 rounds to 0
        e21 = np.linspace(0.05, 0.95, 21)[10].item()
        beta_h = np.linspace(0.15, 0.95, 21)[10].item()
        cycle = decompose(preset("A", e21, beta_h)).cycles[(0, 1)]
        assert cycle == 0.0 and math.copysign(1.0, cycle) == 1.0

    def test_single_cold_pair_leaks_are_never_positive(self):
        # with one cold pair every leak term is a two-bath flux out of the cold bath
        rng = np.random.default_rng(5)
        models = [preset(pid, e21, bh) for pid in "ACD" for e21 in (0.05, 0.5, 0.95)
                  for bh in (0.15, 0.55, 0.95)]
        models += [random_connected_model(rng, n_levels=3, n_baths=3, topology="any")
                   for _ in range(200)]
        single = [m for m in models
                  if sum(g > 0 for g in m.baths[m.cold_index].couplings.values()) == 1]
        assert len(single) > 50
        for m in single:
            assert all(v <= 0.0 for v in decompose(m).leaks.values())

    def test_no_bracket_overflows_with_a_very_cold_bath(self):
        # W at beta 2000 gives triangles it cannot close affinities near -800, where a
        # reverse product times expm1(-affinity) would overflow
        sd = OhmicSpectralDensity()
        baths = (
            BathSpec("C", 1.0, {(0, 1): 1e-3}, sd),
            BathSpec("H", 0.5, {(0, 2): 1e-3}, sd),
            BathSpec("W", 2000.0, {(1, 2): 1e-3}, sd),
        )
        m = QarModel(system=SystemSpec((0.0, 0.4, 0.5)), baths=baths, cold_index=0)
        dec = decompose(m)
        assert dec.total == pytest.approx(dec.normalization * heat_current(m, 0), rel=1e-12)
        assert dec.cycles[(0, 1)] == pytest.approx(dec.total, rel=1e-12)
        assert all(v == 0.0 for v in dec.leaks.values())

    @pytest.mark.parametrize("gamma, message", [
        (1e-150, r"^the decomposition's 2 rate products underflow"),
        (1e150, r"^the decomposition's 2 rate products overflow \(gross inf\)$"),
        # tree products in range whose sum is not: a bare OverflowError from fsum before
        (10**153.5, r"^a tree sum's 3 rate products overflow \(gross inf\)$"),
        (1e200, r"^a tree sum's 3 rate products overflow \(gross inf\)$"),
    ], ids=["1e-150", "1e150", "10^153.5", "1e200"])
    def test_rate_products_out_of_double_range_are_refused(self, gamma, message):
        m = preset("A", 0.3, 0.9, gamma=gamma)
        assert 0.0 < direct_current(m, 0) < math.inf
        with pytest.raises(ConsistencyError, match=message):
            decompose(m)

    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_total_rates_out_of_double_range_are_refused(self, pid):
        # C's total rates overflowed inside fsum, a bare OverflowError
        with pytest.raises(ConsistencyError,
                           match=r"^a total rate's 3 rate products overflow \(gross inf\)$"):
            decompose(preset(pid, 0.3, 0.9, gamma=1e308))

    def test_cycle_fluxes_out_of_double_range_are_refused(self):
        # at a small gap the numerator dE k tau stays in range while its fluxes, which
        # dE does not scale, overflow; the cycle part read inf before
        assert math.isfinite(decompose(preset("A", 0.01, 0.5, gamma=1e102)).total)
        with pytest.raises(ConsistencyError, match=r"^a cycle part's 2 rate products overflow"):
            decompose(preset("A", 0.01, 0.5, gamma=10**102.5))

    def test_rates_at_both_ends_of_range_keep_their_bits(self):
        # decompose runs in double only, so these hold in every long-double configuration
        assert _fields_hex(decompose(preset("A", 0.3, 0.9, gamma=1e-90))) == (
            "0x1.7d46256737f20p-897", "0x1.cb3c6e0402bf4p-593", "0x1.8c03d5aaecdb0p-894",
            "0x0.0p+0", {(0, 1): "0x1.7d46256737f20p-897"},
            {("H", (0, 1)): "0x0.0p+0", ("W", (0, 1)): "0x0.0p+0"},
        )
        assert _fields_hex(decompose(preset("A", 0.3, 0.9, gamma=1e100))) == (
            "0x1.0d6ad172dcc74p+997", "0x1.212b375915377p+670", "0x1.17d5655fbfd32p+1000",
            "0x1.0000000000000p+946", {(0, 1): "0x1.0d6ad172dcc76p+997"},
            {("H", (0, 1)): "0x0.0p+0", ("W", (0, 1)): "0x0.0p+0"},
        )

    @pytest.mark.parametrize("key", sorted(_DECOMPOSE_GOLDEN), ids="{0[0]}-{0[1]}-{0[2]}".format)
    def test_golden_bits(self, key):
        assert _fields_hex(decompose(preset(*key))) == _DECOMPOSE_GOLDEN[key]
