import hashlib
import json
import math

import numpy as np
import pytest

from qarfcs.errors import TopologyError, ValidationError
from qarfcs.fcs import heat_current
from qarfcs.liouvillian import build_generator
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    model_to_dict,
    preset,
    rate,
)
from qarfcs.oracle import (
    conservation_residual,
    direct_current,
    fluctuation_symmetry_check,
    random_connected_model,
    steady_state,
)
from tests.conftest import make_spin_boson


class TestSteadyState:
    def test_single_bath_gives_gibbs(self, rng):
        for _ in range(10):
            m = random_connected_model(rng, n_baths=1)
            ss = steady_state(build_generator(m))
            energies = np.array(m.system.energies)
            beta = m.baths[0].beta
            gibbs = np.exp(-beta * energies)
            gibbs /= gibbs.sum()
            assert np.allclose(ss.populations, gibbs, rtol=1e-10)

    def test_spin_boson_ratio(self, spin_boson):
        # 2x2 kernel by hand: p2/p1 = total up rate / total down rate
        ss = steady_state(build_generator(spin_boson))
        up = rate(spin_boson, 0, 1, 0) + rate(spin_boson, 0, 1, 1)
        dn = rate(spin_boson, 1, 0, 0) + rate(spin_boson, 1, 0, 1)
        assert ss.populations[1] / ss.populations[0] == pytest.approx(up / dn, rel=1e-12)

    def test_kernel_quality(self, rng):
        for _ in range(50):
            m = random_connected_model(rng)
            l0 = build_generator(m)
            ss = steady_state(l0)
            scale = np.max(np.abs(l0))
            assert ss.residual <= 1e-12 * scale
            assert np.all(ss.populations >= -1e-14)
            assert abs(ss.populations.sum() - 1.0) <= 1e-12

    def test_row_replacement_independence(self, rng):
        for _ in range(20):
            m = random_connected_model(rng)
            l0 = build_generator(m)
            p0 = steady_state(l0, replace_row=0).populations
            p1 = steady_state(l0, replace_row=l0.shape[0] - 1).populations
            assert np.max(np.abs(p0 - p1)) <= 1e-12

    def test_degenerate_generator_rejected(self):
        # two disconnected blocks: rank N-2, no unique kernel
        l0 = np.array(
            [
                [-1.0, 2.0, 0.0, 0.0],
                [1.0, -2.0, 0.0, 0.0],
                [0.0, 0.0, -3.0, 1.0],
                [0.0, 0.0, 3.0, -1.0],
            ]
        )
        with pytest.raises(ValidationError):
            steady_state(l0)

    def test_replace_row_validation(self):
        with pytest.raises(ValidationError):
            steady_state(np.zeros((2, 2)), replace_row=5)


class TestDirectCurrent:
    def test_matches_fcs_pipeline(self, rng):
        for _ in range(300):
            m = random_connected_model(rng)
            currents = [
                (heat_current(m, b), direct_current(m, b)) for b in range(m.n_baths)
            ]
            j_scale = max(max(abs(x), abs(y)) for x, y in currents)
            assert j_scale > 0
            for jf, jd in currents:
                assert abs(jf - jd) <= 1e-10 * j_scale

    def test_matches_on_cyclic_topologies(self, rng):
        # cyclic coupling graphs exercise the full three-bath QAR structure
        for _ in range(200):
            m = random_connected_model(rng, topology="any")
            currents = [
                (heat_current(m, b), direct_current(m, b)) for b in range(m.n_baths)
            ]
            j_scale = max(max(abs(x), abs(y)) for x, y in currents)
            for jf, jd in currents:
                assert abs(jf - jd) <= 1e-9 * max(j_scale, 1e-300)

    def test_single_bath_zero(self, rng):
        m = random_connected_model(rng, n_baths=1)
        scale = np.max(np.abs(build_generator(m))) * m.system.energies[-1]
        assert abs(direct_current(m, 0)) <= 1e-14 * scale

    def test_presets(self):
        for pid in ("A", "B", "C", "D"):
            m = preset(pid, 0.4, 0.8)
            for b in range(3):
                jf, jd = heat_current(m, b), direct_current(m, b)
                assert jf == pytest.approx(jd, rel=1e-10)


class TestConservation:
    def test_preset_points(self):
        for pid in ("A", "B"):
            m = preset(pid, 0.5, 0.9)
            j_max = max(abs(direct_current(m, b)) for b in range(3))
            assert conservation_residual(m) <= 1e-14 * j_max

    def test_random_models(self, rng):
        for _ in range(100):
            m = random_connected_model(rng)
            j_max = max(abs(direct_current(m, b)) for b in range(m.n_baths))
            assert conservation_residual(m) <= 1e-12 * max(j_max, 1e-300)

    def test_five_level_four_bath(self, rng):
        m = random_connected_model(rng, n_levels=5, n_baths=4)
        j_max = max(abs(direct_current(m, b)) for b in range(4))
        assert conservation_residual(m) <= 1e-12 * j_max


class TestEquilibrium:
    def test_equal_temperatures_no_current(self):
        # all baths at the same beta: detailed-balance fixed point
        sd = OhmicSpectralDensity()
        m = QarModel(
            system=SystemSpec((0.0, 0.4, 1.0)),
            baths=(
                BathSpec("C", 0.8, {(0, 1): 1e-3}, sd),
                BathSpec("H", 0.8, {(0, 2): 2e-3}, sd),
                BathSpec("W", 0.8, {(1, 2): 5e-4, (0, 1): 1e-4}, sd),
            ),
            cold_index=0,
        )
        scale = np.max(np.abs(build_generator(m)))
        for b in range(3):
            assert abs(direct_current(m, b)) <= 1e-14 * scale
            assert abs(heat_current(m, b)) <= 1e-14 * scale
        ss = steady_state(build_generator(m))
        gibbs = np.exp(-0.8 * np.array(m.system.energies))
        gibbs /= gibbs.sum()
        assert np.allclose(ss.populations, gibbs, rtol=1e-12)


class TestFluctuationSymmetry:
    def test_spin_boson_sample_points(self, spin_boson):
        dev = fluctuation_symmetry_check(spin_boson, [-0.4, -0.1, 0.2, 0.25, 0.6, 0.9])
        assert dev <= 1e-10

    def test_equal_beta_even_function(self):
        m = make_spin_boson(beta_c=0.9, beta_h=0.9)
        dev = fluctuation_symmetry_check(m, [-0.5, -0.2, 0.2, 0.5])
        assert dev <= 1e-12

    def test_random_two_bath_models(self, rng):
        for _ in range(25):
            m = random_connected_model(rng, n_baths=2)
            beta_max = max(b.beta for b in m.baths)
            s_star = m.baths[m.cold_index].beta - m.baths[1 - m.cold_index].beta
            lo = min(-0.3 * beta_max, s_star - 0.3 * beta_max)
            hi = max(0.3 * beta_max, s_star + 0.3 * beta_max)
            assert fluctuation_symmetry_check(m, np.linspace(lo, hi, 10)) <= 1e-10

    def test_three_baths_refused(self):
        with pytest.raises(TopologyError):
            fluctuation_symmetry_check(preset("A", 0.5, 0.9), [0.1])


class TestRandomModelGenerator:
    def test_deterministic_given_seed(self):
        a = random_connected_model(np.random.default_rng(7))
        b = random_connected_model(np.random.default_rng(7))
        assert a.system.energies == b.system.energies
        assert [x.beta for x in a.baths] == [x.beta for x in b.baths]
        assert [x.couplings for x in a.baths] == [x.couplings for x in b.baths]

    @pytest.mark.parametrize(
        "topology, digest",
        [
            ("tree", "48da7873f7f86e7b415fcaf95b27fabdd07fa69f8dd7086fd9701db744083b1b"),
            ("any", "471eaa7fd90104e1ae4fda35f7e10062b58a33a40e062c96c23471965c9ba9df"),
        ],
    )
    def test_model_stream_is_pinned(self, topology, digest):
        # the draw sequence is the input stream of seeded property runs and of
        # the benchmark, so a refactor must leave it unchanged
        rng = np.random.default_rng(2718)
        h = hashlib.sha256()
        for _ in range(200):
            model = random_connected_model(rng, topology=topology)
            h.update(json.dumps(model_to_dict(model), sort_keys=True).encode())
        assert h.hexdigest() == digest

    def test_respects_pins(self, rng):
        m = random_connected_model(rng, n_levels=4, n_baths=3)
        assert m.n_levels == 4 and m.n_baths == 3

    def test_cold_is_coldest(self, rng):
        for _ in range(20):
            m = random_connected_model(rng)
            assert m.baths[m.cold_index].beta == max(b.beta for b in m.baths)

    def test_parameters_within_documented_ranges(self, rng):
        for _ in range(50):
            m = random_connected_model(rng)
            assert 2 <= m.n_levels <= 5 and 2 <= m.n_baths <= 4
            for b in m.baths:
                assert 0.1 <= b.beta <= 2.0
                for g in b.couplings.values():
                    assert 1e-4 <= g <= 1e-2
            span = m.system.energies[-1] - m.system.energies[0]
            assert span <= 0.4 + 1e-12

    def test_unknown_topology(self, rng):
        with pytest.raises(ValidationError):
            random_connected_model(rng, topology="ring")
