import dataclasses
import math
import re

import numpy as np
import pytest

from qarfcs.analytic import sb_current, sb_noise
from qarfcs.errors import (
    ConsistencyError,
    ContinuationError,
    NoiseNotApplicableError,
    ValidationError,
)
from qarfcs import fcs as fcs_module
from qarfcs.fcs import (
    CharPoly,
    _base_charpoly,
    _checked_fsum,
    _current_from_family,
    _target_polynomials,
    _trace_product,
    adjugate_derivative,
    cgf,
    charpoly,
    cooling_condition,
    heat_current,
    noise,
    numeric_cumulants,
)
from qarfcs.liouvillian import CountingFamily, build_counting_family, build_generator
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    preset,
    rate,
    spectral_value,
)
from qarfcs.oracle import direct_current, random_connected_model
from tests.conftest import EIGHTY_BIT, make_spin_boson


def cofactor_adjugate(m):
    """Independent adjugate: transpose of the signed-minor matrix."""
    n = m.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            out[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return out


# float.hex of the coefficients and the row-major adjugate of L(0), recorded
# from the recursion before its per-call numpy dispatch was trimmed
_CHARPOLY_GOLDEN = {
    ("A", 0.3, 0.9): (
        ["0x1.74d3e1120468fp-6", "0x1.d0316120d39c3p-15", "0x1.0300000000000p-80"],
        [
            "0x1.b8f007c7047bap-16", "0x1.b8f007c7047bbp-16", "0x1.b8f007c7047bbp-16",
            "0x1.0079fb2b33498p-16", "0x1.0079fb2b33498p-16", "0x1.0079fb2b33498p-16",
            "0x1.cdf17e9edee67p-17", "0x1.cdf17e9edee67p-17", "0x1.cdf17e9edee68p-17",
        ],
    ),
    ("A", 0.5, 0.5): (
        ["0x1.941c2dca72316p-6", "0x1.4e8e3e7028f4cp-14", "0x1.41d0000000000p-76"],
        [
            "0x1.2d27557015f4bp-15", "0x1.2d27557015f4bp-15", "0x1.2d27557015f4bp-15",
            "0x1.787298faca128p-16", "0x1.787298faca129p-16", "0x1.787298faca128p-16",
            "0x1.6777b5e5add72p-16", "0x1.6777b5e5add73p-16", "0x1.6777b5e5add73p-16",
        ],
    ),
    ("B", 0.3, 0.9): (
        ["0x1.83d00269dc5aep-6", "0x1.1fbe852c9c0c8p-14", "0x1.296aaaaaaaaabp-78"],
        [
            "0x1.0541226803d9ap-15", "0x1.0541226803d9ap-15", "0x1.0541226803d9ap-15",
            "0x1.4aecf6651902fp-16", "0x1.4aecf66519030p-16", "0x1.4aecf6651902fp-16",
            "0x1.298ad97d4f7bcp-16", "0x1.298ad97d4f7bcp-16", "0x1.298ad97d4f7bcp-16",
        ],
    ),
    ("B", 0.5, 0.5): (
        ["0x1.a410927926785p-6", "0x1.8c1c3c05fbb8cp-14", "-0x1.1c80000000000p-76"],
        [
            "0x1.5abbbcf698b26p-15", "0x1.5abbbcf698b28p-15", "0x1.5abbbcf698b27p-15",
            "0x1.c8f45e76c9df3p-16", "0x1.c8f45e76c9df4p-16", "0x1.c8f45e76c9df4p-16",
            "0x1.b20517b3f39f0p-16", "0x1.b20517b3f39f1p-16", "0x1.b20517b3f39f0p-16",
        ],
    ),
    ("C", 0.3, 0.9): (
        ["0x1.985ff85ab2ce2p-6", "0x1.747c2cc4e330bp-14", "0x1.06a0000000000p-77"],
        [
            "0x1.4fd908e771033p-15", "0x1.4fd908e771032p-15", "0x1.4fd908e771033p-15",
            "0x1.b0a1e42b6b3c8p-16", "0x1.b0a1e42b6b3c8p-16", "0x1.b0a1e42b6b3c9p-16",
            "0x1.819cbd193f7ffp-16", "0x1.819cbd193f7ffp-16", "0x1.819cbd193f800p-16",
        ],
    ),
    ("C", 0.5, 0.5): (
        ["0x1.d2c63191da38ep-6", "0x1.2ecfab77c3cd9p-13", "0x1.812aaaaaaaaabp-75"],
        [
            "0x1.0343bcf651418p-14", "0x1.0343bcf651417p-14", "0x1.0343bcf651416p-14",
            "0x1.65841da2b02a9p-15", "0x1.65841da2b02a9p-15", "0x1.65841da2b02a9p-15",
            "0x1.4f33164fbc88cp-15", "0x1.4f33164fbc88cp-15", "0x1.4f33164fbc88cp-15",
        ],
    ),
    ("D", 0.3, 0.9): (
        ["0x1.596c6d9a2f670p-5", "0x1.7e2edd6ed015fp-12", "-0x1.3db9555555555p-71"],
        [
            "0x1.1e0e358fac0a7p-13", "0x1.1e0e358fac0a8p-13", "0x1.1e0e358fac0a8p-13",
            "0x1.002c2fdb3d314p-13", "0x1.002c2fdb3d314p-13", "0x1.002c2fdb3d314p-13",
            "0x1.bc46aae56de08p-14", "0x1.bc46aae56de07p-14", "0x1.bc46aae56de05p-14",
        ],
    ),
    ("D", 0.5, 0.5): (
        ["0x1.65efdad810eacp-5", "0x1.ac99f83ce5dbap-12", "0x1.44cc000000000p-71"],
        [
            "0x1.41c3f2d4d1c02p-13", "0x1.41c3f2d4d1c00p-13", "0x1.41c3f2d4d1c00p-13",
            "0x1.19831bc25529fp-13", "0x1.19831bc25529fp-13", "0x1.19831bc25529fp-13",
            "0x1.fbd9c3c5499a1p-14", "0x1.fbd9c3c5499a0p-14", "0x1.fbd9c3c5499a3p-14",
        ],
    ),
    ("random", 2): (
        ["0x1.fb8a2463b96b8p-6", "-0x0.0p+0"],
        [
            "-0x1.267e1efd76c44p-6", "-0x1.267e1efd76c44p-6",
            "-0x1.aa180acc854e7p-7", "-0x1.aa180acc854e7p-7",
        ],
    ),
    ("random", 3): (
        ["0x1.8012c62c91e38p-5", "0x1.1dbc6be998cdep-11", "0x1.31c0000000000p-73"],
        [
            "0x1.95adba68a012ep-13", "0x1.95adba68a012dp-13", "0x1.95adba68a012dp-13",
            "0x1.7c3817f51f5c9p-13", "0x1.7c3817f51f5c8p-13", "0x1.7c3817f51f5c8p-13",
            "0x1.650bdd48a3c82p-13", "0x1.650bdd48a3c81p-13", "0x1.650bdd48a3c82p-13",
        ],
    ),
    ("random", 4): (
        [
            "0x1.aba45b77f2062p-5", "0x1.c4afdafb12639p-11", "0x1.344cfb3d6be71p-18",
            "-0x1.0bb7800000000p-78",
        ],
        [
            "-0x1.5cd91d833d016p-20", "-0x1.5cd91d833d017p-20", "-0x1.5cd91d833d017p-20",
            "-0x1.5cd91d833d018p-20",
            "-0x1.413f40abfce01p-20", "-0x1.413f40abfce00p-20", "-0x1.413f40abfce01p-20",
            "-0x1.413f40abfce02p-20",
            "-0x1.256897a9fdc61p-20", "-0x1.256897a9fdc61p-20", "-0x1.256897a9fdc60p-20",
            "-0x1.256897a9fdc61p-20",
            "-0x1.0db2f71c77f4fp-20", "-0x1.0db2f71c77f4ep-20", "-0x1.0db2f71c77f4ep-20",
            "-0x1.0db2f71c77f4ep-20",
        ],
    ),
    ("random", 5): (
        [
            "0x1.f4f4b5a3d7449p-6", "0x1.5e6e84b681c63p-12", "0x1.9b4a4396a24bfp-20",
            "0x1.4f1d3567e2ca7p-29", "0x1.ed9999999999ap-95",
        ],
        [
            "0x1.5ffa12379fcc3p-31", "0x1.5ffa12379fcc4p-31", "0x1.5ffa12379fcc3p-31",
            "0x1.5ffa12379fcc3p-31", "0x1.5ffa12379fcc3p-31",
            "0x1.2ff36cadf11c0p-31", "0x1.2ff36cadf11c0p-31", "0x1.2ff36cadf11c0p-31",
            "0x1.2ff36cadf11c0p-31", "0x1.2ff36cadf11c0p-31",
            "0x1.02d8b08b3c95ep-31", "0x1.02d8b08b3c95fp-31", "0x1.02d8b08b3c95fp-31",
            "0x1.02d8b08b3c95fp-31", "0x1.02d8b08b3c95fp-31",
            "0x1.cadf3a5fab128p-32", "0x1.cadf3a5fab129p-32", "0x1.cadf3a5fab129p-32",
            "0x1.cadf3a5fab129p-32", "0x1.cadf3a5fab129p-32",
            "0x1.887e11fdd044cp-32", "0x1.887e11fdd044cp-32", "0x1.887e11fdd044cp-32",
            "0x1.887e11fdd044cp-32", "0x1.887e11fdd044dp-32",
        ],
    ),
}


def _golden_generator(key):
    if key[0] == "random":
        rng = np.random.default_rng(100 + key[1])
        return build_generator(random_connected_model(rng, n_levels=key[1], topology="any"))
    return build_generator(preset(*key))


class TestCharPoly:
    def test_identity_2x2(self):
        cp = charpoly(np.eye(2))
        assert cp.coeffs == pytest.approx([-2.0, 1.0])

    def test_preset_a_coefficients(self):
        l0 = build_generator(preset("A", 0.5, 0.9))
        cp = charpoly(l0)
        assert cp.coefficient(1) > 0 and cp.coefficient(2) > 0
        assert abs(cp.coefficient(3)) <= 1e-12 * cp.coefficient(2) * np.max(np.abs(l0))

    def test_random_matrix_against_interpolation_oracle(self, rng):
        # fit det(lambda I - M) through 5 integer nodes; exact for degree 4
        for _ in range(10):
            m = rng.normal(size=(4, 4))
            nodes = np.arange(5.0)
            vals = [np.linalg.det(lam * np.eye(4) - m) for lam in nodes]
            vand = np.vander(nodes, 5)  # columns lam^4 .. lam^0
            fitted = np.linalg.solve(vand, vals)  # [1, a1, a2, a3, a4]
            cp = charpoly(m)
            assert fitted[0] == pytest.approx(1.0, rel=1e-10)
            for j in range(1, 5):
                assert cp.coefficient(j) == pytest.approx(fitted[j], rel=1e-9, abs=1e-12)

    def test_monic_and_a0(self):
        cp = charpoly(np.diag([1.0, 2.0, 3.0]))
        assert cp.coefficient(0) == 1.0
        assert cp.monic()[0] == 1.0
        assert len(cp.monic()) == 4

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            charpoly(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            charpoly(np.zeros((4, 2, 3)))
        with pytest.raises(ValidationError):
            charpoly(np.zeros(3))

    def test_stack_is_bitwise_per_matrix(self, rng):
        for n in range(1, 6):
            scales = 10.0 ** rng.uniform(-4.0, 0.0, size=(2, 3, 1, 1))
            stack = rng.normal(size=(2, 3, n, n)) * scales
            cp = charpoly(stack)
            assert cp.coeffs.shape == (2, 3, n) and cp.adjugate.shape == (2, 3, n, n)
            assert cp.n == n
            for idx in np.ndindex(2, 3):
                single = charpoly(stack[idx])
                assert single.n == n
                assert np.array_equal(cp.coeffs[idx], single.coeffs)
                assert np.array_equal(cp.adjugate[idx], single.adjugate)

    def test_one_by_one_is_minus_m_with_unit_adjugate(self):
        # the recursion takes no step at N = 1: a_1 = -m and adj = 1, in any stack and dtype
        cases = [([[0.0]], "-0x0.0p+0"), ([[-0.0]], "0x0.0p+0"),
                 ([[2.5]], "-0x1.4000000000000p+1"), (np.array([[3]]), "-0x1.8000000000000p+1")]
        for m, a_1 in cases:
            cp = charpoly(m)
            assert cp.coeffs.dtype == cp.adjugate.dtype == np.float64
            assert [c.hex() for c in cp.coeffs.tolist()] == [a_1]
            assert cp.adjugate.tolist() == [[1.0]]
        for shape in ((2, 1, 1), (2, 3, 1, 1)):
            m = np.arange(float(np.prod(shape))).reshape(shape)
            cp = charpoly(m)
            assert cp.coeffs.shape == shape[:-1] and cp.adjugate.shape == shape
            assert np.array_equal(cp.coeffs, -m[..., 0]) and np.all(cp.adjugate == 1.0)

    def test_empty_matrix_refused_and_empty_stack_kept(self):
        for shape in ((0, 0), (3, 0, 0)):
            with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
                charpoly(np.zeros(shape))
        cp = charpoly(np.zeros((0, 3, 3)))
        assert cp.coeffs.shape == (0, 3) and cp.adjugate.shape == (0, 3, 3)

    def test_stack_monic(self, rng):
        cp = charpoly(rng.normal(size=(4, 3, 3)))
        monic = cp.monic()
        assert monic.shape == (4, 4)
        assert np.all(monic[:, 0] == 1.0) and np.array_equal(monic[:, 1:], cp.coeffs)

    @EIGHTY_BIT
    @pytest.mark.parametrize("key", list(_CHARPOLY_GOLDEN), ids=str)
    def test_golden_bits(self, key):
        coeffs, adj = _CHARPOLY_GOLDEN[key]
        cp = charpoly(_golden_generator(key))
        assert [c.hex() for c in cp.coeffs.tolist()] == coeffs
        assert [x.hex() for x in cp.adjugate.ravel().tolist()] == adj

    @EIGHTY_BIT
    def test_golden_bits_of_one_stacked_call(self):
        keys = [key for key in _CHARPOLY_GOLDEN if key[0] != "random"]
        cp = charpoly(np.array([_golden_generator(key) for key in keys]))
        for q, key in enumerate(keys):
            coeffs, adj = _CHARPOLY_GOLDEN[key]
            assert [c.hex() for c in cp.coeffs[q].tolist()] == coeffs
            assert [x.hex() for x in cp.adjugate[q].ravel().tolist()] == adj


class TestAdjugate:
    def test_2x2_closed_form(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(charpoly(m).adjugate, [[4.0, -2.0], [-3.0, 1.0]], rtol=1e-14)

    def test_product_identity_random(self, rng):
        for n in (2, 3, 4, 5):
            m = rng.normal(size=(n, n))
            prod = m @ charpoly(m).adjugate
            assert np.allclose(prod, np.linalg.det(m) * np.eye(n), rtol=1e-9, atol=1e-9)

    def test_matches_cofactor_transpose(self, rng):
        for n in (3, 4):
            for _ in range(10):
                m = rng.normal(size=(n, n))
                a = charpoly(m).adjugate
                b = cofactor_adjugate(m)
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_singular_generator_annihilated(self):
        l0 = build_generator(preset("A", 0.5, 0.9))
        prod = l0 @ charpoly(l0).adjugate
        assert np.max(np.abs(prod)) <= 1e-20  # det is ~1e-22 at these scales

    def test_spin_boson_cofactor_structure(self, spin_boson):
        # C_12 = -[L]_21 and C_21 = -[L]_12 for the 2x2 generator
        l0 = build_generator(spin_boson)
        adj = charpoly(l0).adjugate
        k_up = rate(spin_boson, 0, 1, 0) + rate(spin_boson, 0, 1, 1)
        k_dn = rate(spin_boson, 1, 0, 0) + rate(spin_boson, 1, 0, 1)
        assert adj[1, 0] == pytest.approx(-k_up, rel=1e-13)  # cofactor C_12
        assert adj[0, 1] == pytest.approx(-k_dn, rel=1e-13)  # cofactor C_21


class TestHeatCurrent:
    def test_spin_boson_closed_form(self, spin_boson):
        gam = spectral_value(OhmicSpectralDensity(), 0.01, 1.0)
        expected = sb_current(1.0, gam, gam, 1.0, 0.5)
        assert heat_current(spin_boson, 0) == pytest.approx(expected, rel=1e-12)
        assert expected < 0  # heat flows from hot into the cold contact

    def test_cooling_window_signs(self):
        assert heat_current(preset("A", 0.5, 0.5), 0) < 0  # 0.5 > 4/9
        assert heat_current(preset("A", 0.5, 0.9), 0) > 0  # 0.5 < 8/9
        assert heat_current(preset("A", 0.8, 0.9), 0) > 0
        assert heat_current(preset("A", 0.95, 0.9), 0) < 0

    def test_single_bath_equilibrium(self, rng):
        for _ in range(10):
            m = random_connected_model(rng, n_baths=1)
            scale = np.max(np.abs(build_generator(m))) * m.system.energies[-1]
            assert abs(heat_current(m, 0)) <= 1e-14 * scale

    def test_bad_generator_raises(self):
        # a growing "generator" has a_{N-1} < 0
        fam = CountingFamily(
            base=np.diag([1.0, 2.0]),
            energies=(0.0, 1.0),
            betas=(1.0,),
        )
        from qarfcs.fcs import _base_charpoly, _current_from_family

        with pytest.raises(ConsistencyError):
            _current_from_family(fam.dressed, _base_charpoly(fam.base))


class TestCurrents:
    """``_currents`` of a list of models against the counting-family path, model by model."""

    @staticmethod
    def _family_path(model, bath):
        fam = build_counting_family(model, bath)
        return _current_from_family(fam.dressed, _base_charpoly(fam.base))

    def test_bitwise_the_family_path_beyond_the_grid_shapes(self):
        # the grid stacks only N = 3, B = 3: here N 2-5, B 2-4, tree and cyclic graphs
        rng = np.random.default_rng(3535)
        groups: dict[tuple[int, int], list] = {}
        for n in range(2, 6):
            for nb in range(2, 5):
                for topology in ("tree", "any"):
                    groups.setdefault((n, nb), []).extend(
                        random_connected_model(rng, n_levels=n, n_baths=nb, topology=topology)
                        for _ in range(9)
                    )
        assert sum(map(len, groups.values())) >= 200
        for (n, nb), models in groups.items():
            for bath in range(nb):
                got = fcs_module._currents(models, bath)
                expected = [self._family_path(m, bath) for m in models]
                assert [tuple(map(float.hex, x)) for x in got] == [
                    tuple(map(float.hex, x)) for x in expected
                ], (n, nb, bath)

    def test_scalar_calls_are_the_size_1_case(self):
        m = preset("B", 0.3, 0.9)
        for bath in range(m.n_baths):
            assert fcs_module._currents([m], bath) == [self._family_path(m, bath)]
            assert heat_current(m, bath) == self._family_path(m, bath)[0]
        assert cooling_condition(m)[0] == self._family_path(m, 0)[1]

    def test_first_error_in_list_order(self):
        # an underflowing trace (gamma 1e-150) and rates that overflow e^(beta omega)
        # (beta_C * E21 = 900 > 709.78): the earlier model's own refusal comes back, though
        # the later one fails while the tables are written, before any trace
        under = preset("A", 0.3, 0.9, gamma=1e-150)
        over = preset("A", 0.3, 0.9, beta_c=3000.0)
        with pytest.raises(ConsistencyError, match="rate products underflow"):
            fcs_module._currents([under, over], 0)
        with pytest.raises(ValidationError, match="e\\^\\(beta omega\\) overflows at beta"):
            fcs_module._currents([over, under], 0)


class TestCoolingCondition:
    def test_threshold_examples(self):
        assert cooling_condition(preset("A", 0.8, 0.9))[1] is True
        assert cooling_condition(preset("A", 0.95, 0.9))[1] is False

    def test_sign_matches_current(self, rng):
        for _ in range(200):
            m = random_connected_model(rng)
            value, cooling = cooling_condition(m)
            j = heat_current(m, m.cold_index)
            assert cooling == (value > 0)
            if value != 0.0:
                assert math.copysign(1.0, value) == math.copysign(1.0, j)


class TestNoise:
    def test_spin_boson_closed_form(self, spin_boson):
        gam = spectral_value(OhmicSpectralDensity(), 0.01, 1.0)
        expected = sb_noise(1.0, gam, gam, 1.0, 0.5)
        assert noise(spin_boson, 0) == pytest.approx(expected, rel=1e-12)

    def test_preset_a_noise_positive_and_consistent(self):
        m = preset("A", 0.5, 0.9)
        s = noise(m, 0)
        assert s >= 0.0
        _, s_num = numeric_cumulants(build_counting_family(m, 0))
        assert s_num == pytest.approx(s, rel=1e-6)

    def test_preset_b_rejected(self):
        with pytest.raises(NoiseNotApplicableError, match="a_2"):
            noise(preset("B", 0.5, 0.9), 0)

    def test_leaky_presets_rejected(self):
        with pytest.raises(NoiseNotApplicableError):
            noise(preset("C", 0.5, 0.9), 0)
        with pytest.raises(NoiseNotApplicableError):
            noise(preset("D", 0.5, 0.9), 0)

    def test_spin_boson_always_applicable(self):
        # for N = 2 both a_1 and a_0 are counting-independent by construction
        m = make_spin_boson(beta_c=1.7, beta_h=0.4, gamma_c=3e-3, gamma_h=8e-3)
        assert noise(m, 0) > 0.0

    def test_nine_charpoly_calls_on_preset_a(self, monkeypatch):
        # one for L(0) and 8 for the precondition; adjugate_derivative runs
        # the shared recursion without going through charpoly
        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return charpoly(m)

        monkeypatch.setattr(fcs_module, "charpoly", counting)
        noise(preset("A", 0.5, 0.9), 0)
        assert calls == [(3, 3)] * 9
        calls.clear()
        adjugate_derivative(build_counting_family(preset("A", 0.5, 0.9), 0))
        assert calls == []

    @pytest.mark.parametrize("pid", ["B", "C", "D"])
    def test_refusal_takes_no_trace(self, pid, monkeypatch):
        traces = []
        monkeypatch.setattr(fcs_module, "_trace_product", lambda *args: traces.append(args))
        with pytest.raises(NoiseNotApplicableError):
            noise(preset(pid, 0.5, 0.9), 0)
        assert traces == []

    def test_nonpositive_a_pen_is_refused_before_the_precondition(self, monkeypatch):
        # -L(0) of a 4-level model has a_3(0) < 0 and would also fail the
        # precondition; the ConsistencyError comes first
        m = random_connected_model(np.random.default_rng(304), n_levels=4, topology="any")
        build = fcs_module.build_counting_family

        def negated_base(model, bath):
            fam = build(model, bath)
            return dataclasses.replace(fam, base=-fam.base)

        fam = negated_base(m, m.cold_index)
        with pytest.raises(NoiseNotApplicableError):
            fcs_module._check_noise_precondition(fam, charpoly(fam.base))
        monkeypatch.setattr(fcs_module, "build_counting_family", negated_base)
        with pytest.raises(ConsistencyError, match=r"a_\(N-1\)\(0\) = -\S+ is not positive"):
            noise(m, m.cold_index)

    def test_noise_nonnegative_random_two_level(self, rng):
        for _ in range(50):
            m = make_spin_boson(
                omega0=float(rng.uniform(0.2, 2)),
                beta_c=float(rng.uniform(0.1, 2)),
                beta_h=float(rng.uniform(0.1, 2)),
                gamma_c=float(10 ** rng.uniform(-4, -2)),
                gamma_h=float(10 ** rng.uniform(-4, -2)),
            )
            assert noise(m, 0) >= 0.0


def ring_model(n):
    """N-level ring whose edges go to three baths in turn, so each bath owns its transitions."""
    rng = np.random.default_rng(400 + n)
    energies = tuple(np.cumsum([0.0] + rng.uniform(0.2, 0.4, size=n - 1).tolist()).tolist())
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    coup = [{}, {}, {}]
    for q, e in enumerate(edges):
        coup[q % 3][e] = float(10.0 ** rng.uniform(-3.5, -2.5))
    baths = tuple(BathSpec(f"B{k}", beta, coup[k]) for k, beta in enumerate((1.0, 0.6, 0.1)))
    return QarModel(system=SystemSpec(energies), baths=baths, cold_index=0)


def _golden_model(key):
    if key[0] == "random":
        return random_connected_model(
            np.random.default_rng(300 + key[1]), n_levels=key[1], topology="any"
        )
    if key[0] == "ring":
        return ring_model(key[1])
    return preset(*key)


_REFUSAL = (
    "coefficient {}(s) varies with the counting variable (relative deviation {} at s = {}); "
    "the truncated noise formula needs the counted bath to own its transitions exclusively"
)

# noise at every bath (float.hex, or the refusal's coefficient, deviation and
# s) and the row-major d/ds adj(L(s)) at the cold bath, recorded from the two
# separate recursions that preceded the shared one
_NOISE_GOLDEN = {
    ('A', 0.3, 0.9): ['0x1.e621e367db596p-16', '0x1.5197889658535p-12', '0x1.4ad7101875475p-13'],
    ('A', 0.5, 0.5): ['0x1.a5aef2fcd32f8p-14', '0x1.a5aef2fcd32fap-12', '0x1.a5aef2fcd3300p-14'],
    ('B', 0.3, 0.9): [
        ('a_2', '0.000248', '0.5'),
        ('a_2', '0.000511', '0.5'),
        ('a_2', '0.00383', '0.5'),
    ],
    ('B', 0.5, 0.5): [
        ('a_2', '0.000197', '0.5'),
        ('a_2', '0.000444', '0.5'),
        ('a_2', '0.00276', '0.5'),
    ],
    ('C', 0.3, 0.9): [
        ('a_2', '0.000211', '0.5'),
        ('a_2', '0.000317', '0.5'),
        '0x1.b4aa7f8cd9e0cp-13',
    ],
    ('C', 0.5, 0.5): [
        ('a_2', '0.00157', '-0.5'),
        ('a_2', '0.00157', '0.5'),
        '0x1.601368379fee1p-13',
    ],
    ('D', 0.3, 0.9): [
        ('a_2', '0.000464', '0.5'),
        '0x1.263ac9505150fp-11',
        ('a_2', '0.00164', '0.5'),
    ],
    ('D', 0.5, 0.5): [
        ('a_2', '0.0011', '0.5'),
        '0x1.ce57376ecf695p-11',
        ('a_2', '0.00392', '0.5'),
    ],
    ('random', 2): [
        '0x1.01f14393160c3p-15',
        '0x1.a9a2332684d37p-15',
        '0x1.96d3a42d393b4p-16',
        '0x1.ffbb5471c2b72p-16',
    ],
    ('random', 3): [('a_2', '0.00202', '1.6'), ('a_2', '0.0266', '1.6'), ('a_2', '0.0102', '1.6')],
    ('random', 4): [
        ('a_3', '0.00159', '1.3'),
        ('a_3', '0.0276', '1.3'),
        ('a_3', '0.00375', '1.3'),
        ('a_3', '0.00568', '1.3'),
    ],
    ('random', 5): [('a_4', '0.00617', '1.41'), ('a_4', '0.0221', '1.41')],
    ('ring', 3): ['0x1.3c9154cfa32eep-16', '0x1.ac77815712df0p-15', '0x1.14e5ffe5d78fdp-13'],
    ('ring', 4): ['0x1.03de22cc5b20dp-15', '0x1.208629c9889e7p-17', '0x1.d16b6ef41aad7p-18'],
    ('ring', 5): ['0x1.9fdc96bc9c30fp-15', '0x1.b562adee8e3f9p-14', '0x1.515f2548a8b1bp-17'],
}
_ADJUGATE_DERIVATIVE_GOLDEN = {
    ('A', 0.3, 0.9): [
        '0x0.0p+0', '-0x1.f99c382b48c23p-19', '-0x1.b4a589f916491p-19',
        '0x1.7690b5b288232p-19', '0x0.0p+0', '0x1.98b7458cf0967p-22',
        '0x1.2d9b58b38246fp-19', '-0x1.c09db8030dc4fp-23', '0x1.6580000000000p-76',
    ],
    ('A', 0.5, 0.5): [
        '0x0.0p+0', '-0x1.e8d04feb3a65cp-18', '-0x1.8b8a88f7cad2fp-18',
        '0x1.287b028e34b29p-18', '0x0.0p+0', '0x1.c494d4d8768fdp-21',
        '0x1.c86a2f675f728p-19', '-0x1.c494d4d8768fcp-21', '0x0.0p+0',
    ],
    ('B', 0.3, 0.9): [
        '0x1.481295e3e94eap-24', '-0x1.134376f7d2da4p-18', '-0x1.e23893e003824p-19',
        '0x1.8b77faa4ff408p-19', '0x1.3cf2cffe64e65p-28', '0x1.8f60ffcc0d3d1p-22',
        '0x1.3e7637eda35f8p-19', '-0x1.01516007f6d71p-22', '0x1.091fbf5d58badp-26',
    ],
    ('B', 0.5, 0.5): [
        '0x1.5dce5e9d97003p-25', '-0x1.028b51371db62p-17', '-0x1.a4224eccc20e4p-18',
        '0x1.352d196cd4082p-18', '0x1.4025c6205c534p-26', '0x1.d0973d4201ce5p-21',
        '0x1.daf277e568466p-19', '-0x1.edb1b1185fe63p-21', '0x1.837f5c8937d9cp-25',
    ],
    ('C', 0.3, 0.9): [
        '0x0.0p+0', '-0x1.f99c382b48c23p-19', '-0x1.b4a589f916491p-19',
        '0x1.7690b5b288232p-19', '0x0.0p+0', '0x1.98b7458cf0967p-22',
        '0x1.2d9b58b38246fp-19', '-0x1.c09db8030dc4fp-23', '0x1.4169971de282cp-27',
    ],
    ('C', 0.5, 0.5): [
        '0x0.0p+0', '-0x1.e8d04feb3a65cp-18', '-0x1.8b8a88f7cad2fp-18',
        '0x1.287b028e34b29p-18', '0x0.0p+0', '0x1.c494d4d8768fdp-21',
        '0x1.c86a2f675f728p-19', '-0x1.c494d4d8768fcp-21', '0x1.e0c1e040135d9p-23',
    ],
    ('D', 0.3, 0.9): [
        '0x0.0p+0', '-0x1.f99c382b48c23p-19', '-0x1.b4a589f916491p-19',
        '0x1.7690b5b288232p-19', '0x0.0p+0', '0x1.98b7458cf0967p-22',
        '0x1.2d9b58b38246fp-19', '-0x1.c09db8030dc4fp-23', '0x1.993bf4a5631a3p-21',
    ],
    ('D', 0.5, 0.5): [
        '0x0.0p+0', '-0x1.e8d04feb3a65cp-18', '-0x1.8b8a88f7cad2fp-18',
        '0x1.287b028e34b29p-18', '0x0.0p+0', '0x1.c494d4d8768fdp-21',
        '0x1.c86a2f675f728p-19', '-0x1.c494d4d8768fcp-21', '0x1.10af6247326cbp-19',
    ],
    ('random', 2): [
        '-0x0.0p+0', '0x1.c221db202826ep-14', '-0x1.e7437a82c6814p-15',
        '-0x0.0p+0',
    ],
    ('random', 3): [
        '0x0.0p+0', '-0x1.df5c83cde0cf1p-19', '-0x1.79fa4ef531453p-17',
        '0x1.4686822809bcap-19', '0x1.93839a47cd15fp-19', '-0x1.ea1d4803114c0p-18',
        '0x1.c36312517f3cap-18', '0x1.344592be9e9e8p-18', '0x0.0p+0',
    ],
    ('random', 4): [
        '-0x1.6b4f9cd947984p-34', '0x1.96202f5f391a1p-33', '0x1.7a1877ce0502ap-31',
        '0x1.e8a41f7bfed64p-31', '0x1.8dcbedccce156p-38', '-0x1.a27837025cc09p-34',
        '0x1.37ad118ce0a80p-31', '0x1.821b685f84e17p-31', '-0x1.02b2025dc25fbp-31',
        '-0x1.b0c34960ff893p-32', '-0x1.1173c71ea3e1bp-33', '0x1.a9bdde78b4504p-33',
        '-0x1.12c687e73f0bap-31', '-0x1.023d23c3ce3c7p-31', '-0x1.1e2873990edbap-35',
        '-0x1.74f68eb9a3e56p-35',
    ],
    ('random', 5): [
        '0x1.0259c44422ff4p-51', '-0x1.da2f2000e51b7p-47', '-0x1.daebb762fbed9p-47',
        '-0x1.820d00ffe3b24p-46', '-0x1.ae14217974318p-46', '0x1.636f006471b57p-47',
        '0x1.41ad925b428fbp-55', '-0x1.31c1c5cd5b1aap-51', '-0x1.04d82de89a225p-47',
        '-0x1.4d59f659523edp-47', '0x1.4ae9b09ecfffbp-47', '-0x1.85f67b20157cap-53',
        '0x1.2e28b9d2ecb3fp-50', '-0x1.c68e23b7a608ap-48', '-0x1.22afe5ada56e7p-47',
        '0x1.d4f8f1186383ep-47', '0x1.6875b50c122a7p-48', '0x1.6351908566a03p-48',
        '0x1.660352f009636p-52', '-0x1.fee9e916acdaap-50', '0x1.cc53f4c77d18fp-47',
        '0x1.997cdc95c0b53p-48', '0x1.9725300792ba7p-48', '0x1.314a2630d6f22p-50',
        '0x1.3e6d975f79be3p-52',
    ],
    ('ring', 3): [
        '0x0.0p+0', '-0x1.624052cda3d30p-19', '-0x1.71c667722b258p-21',
        '0x1.17ea2b2aeaca3p-19', '0x0.0p+0', '0x1.9dbd2cfc21dccp-20',
        '0x1.cf22d802af307p-22', '-0x1.ebfcf832dd344p-20', '0x1.d600000000000p-80',
    ],
    ('ring', 4): [
        '0x1.a937d46c26fdep-92', '0x1.146198938b173p-27', '0x1.63c5db336717dp-27',
        '0x1.7354e24418b00p-27', '-0x1.77425a979d19fp-28', '-0x1.bcad905727b20p-85',
        '0x1.e96f9f616828fp-30', '0x1.24ad28172b430p-29', '-0x1.7538f4995e7afp-28',
        '-0x1.2173f0792ead1p-30', '0x1.b5d6c82b93d90p-83', '0x1.424d54432dda3p-32',
        '-0x1.76aec628cbee3p-28', '-0x1.51439c532c923p-30', '-0x1.ba1de0035a674p-33',
        '0x1.01aa4df51b09cp-82',
    ],
    ('ring', 5): [
        '-0x1.079fba891cb53p-90', '-0x1.68a86b67964e3p-37', '-0x1.c60e1dd3d0ad9p-38',
        '-0x1.62e3e1086a787p-38', '-0x1.97a4d9f55b3a8p-37', '0x1.e1a9ed79f0eadp-38',
        '-0x1.213f7512396a6p-91', '0x1.6e7154cddd1e9p-39', '0x1.f6688ebda9f55p-39',
        '-0x1.350992786d2b4p-40', '0x1.ee43ab4c0a7efp-39', '-0x1.69cb34c9ebdb4p-39',
        '0x1.67cbe6d587e45p-96', '0x1.d6abd99e85673p-41', '-0x1.d92528a611adcp-39',
        '0x1.64083de8bb827p-39', '-0x1.df7ad45832f36p-39', '-0x1.03856db0e8dd9p-40',
        '0x1.e1022bb71a568p-93', '-0x1.218b9ebadd84fp-38', '0x1.40f79878cc272p-38',
        '0x1.3a492fbfc34aep-42', '0x1.175b8f059ba3bp-39', '0x1.706f39e6d84d2p-39',
        '0x1.f7022bb71a568p-93',
    ],
}


class TestRecursionGoldens:
    @EIGHTY_BIT
    @pytest.mark.parametrize("key", list(_NOISE_GOLDEN), ids=str)
    def test_noise_bits_and_refusals(self, key):
        m = _golden_model(key)
        got = []
        for b in range(m.n_baths):
            try:
                got.append(noise(m, b).hex())
            except NoiseNotApplicableError as exc:
                got.append(str(exc))
        want = [x if isinstance(x, str) else _REFUSAL.format(*x) for x in _NOISE_GOLDEN[key]]
        assert got == want

    @EIGHTY_BIT
    @pytest.mark.parametrize("key", list(_ADJUGATE_DERIVATIVE_GOLDEN), ids=str)
    def test_adjugate_derivative_bits(self, key):
        m = _golden_model(key)
        dadj = adjugate_derivative(build_counting_family(m, m.cold_index))
        assert [x.hex() for x in dadj.ravel().tolist()] == _ADJUGATE_DERIVATIVE_GOLDEN[key]


class TestAdjugateDerivative:
    def test_spin_boson_entries(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        dadj = adjugate_derivative(fam)
        kc_u = rate(spin_boson, 0, 1, 0)
        kc_d = rate(spin_boson, 1, 0, 0)
        # dC_21/ds = +omega0 k^C_down, dC_12/ds = -omega0 k^C_up
        assert dadj[0, 1] == pytest.approx(1.0 * kc_d, rel=1e-13)
        assert dadj[1, 0] == pytest.approx(-1.0 * kc_u, rel=1e-13)
        assert dadj[0, 0] == 0.0 and dadj[1, 1] == 0.0

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(20):
            m = random_connected_model(rng)
            fam = build_counting_family(m, int(rng.integers(m.n_baths)))
            dadj = adjugate_derivative(fam)
            plus, minus = fam.dressed_stack(np.array([h, -h]))[0].astype(float)
            fd = (charpoly(plus).adjugate - charpoly(minus).adjugate) / (2 * h)
            scale = max(np.max(np.abs(dadj)), np.max(np.abs(fd)), 1e-300)
            assert np.max(np.abs(dadj - fd)) <= 1e-7 * scale

    def test_zero_for_uncoupled_counted_bath(self):
        sd = OhmicSpectralDensity()
        base = make_spin_boson()
        m = QarModel(
            system=base.system,
            baths=base.baths + (BathSpec("X", 0.7, {}, sd),),
            cold_index=0,
        )
        fam = build_counting_family(m, 2)
        assert np.count_nonzero(adjugate_derivative(fam)) == 0

    def test_one_level_family_is_zero(self):
        # the adjugate of a 1x1 L(s) is [[1]] for every s
        fam = CountingFamily(base=np.zeros((1, 1)), energies=(0.0,), betas=(1.0,))
        dadj = adjugate_derivative(fam)
        assert dadj.shape == (1, 1) and dadj.tolist() == [[0.0]]


def entrywise_trace_product(a, b):
    """tr(a @ b) as fsum over the entry pairs where both factors are nonzero."""
    n = a.shape[0]
    return math.fsum(
        a[i, j] * b[j, i]
        for i in range(n)
        for j in range(n)
        if a[i, j] != 0.0 and b[j, i] != 0.0
    )


def dense_derivative(family, order):
    """d^order L/ds^order at s = 0 as a dense matrix, built as the family's fields once were."""
    d = np.zeros(family.base.shape)
    for row, col, k, de in family.dressed:
        d[row, col] += de * k if order == 1 else de * de * k
    return d


def random_family(rng, n):
    """A family with random transitions at distinct off-diagonal entries, some with dE = 0."""
    entries = [(r, c) for r in range(n) for c in range(n) if r != c]
    picked = rng.permutation(len(entries))[: int(rng.integers(0, len(entries) + 1))]
    dressed = tuple(
        (*entries[i], float(rng.uniform(0.1, 2.0) * 10.0 ** rng.integers(-20, 5)),
         float(rng.normal() * 10.0 ** rng.integers(-3, 2) * (rng.random() > 0.2)))
        for i in picked.tolist()
    )
    return CountingFamily(np.zeros((n, n)), tuple(range(n)), (1.0,), dressed)


def with_signed_zeros(rng, a):
    """A copy of ``a`` with random entries set to 0.0 and to -0.0."""
    a = a.copy()
    a[rng.random(a.shape) < 0.3] = 0.0
    a[rng.random(a.shape) < 0.1] = -0.0
    return a


class TestTraceProduct:
    """_trace_product sums over the dressed transitions; the reference is the entrywise
    trace against the dense derivative matrix built from the same transitions."""

    def test_bitwise_entrywise_on_random_pairs_with_zeros(self, rng):
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            fam = random_family(rng, n)
            a = with_signed_zeros(rng, rng.normal(size=(n, n)) * 10.0 ** rng.integers(-20, 5, (n, n)))
            for order in (1, 2):
                got = _trace_product(a, fam.dressed, order)
                assert type(got) is float
                assert got.hex() == entrywise_trace_product(a, dense_derivative(fam, order)).hex()

    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_bitwise_entrywise_on_presets(self, pid, rng):
        for e21, beta_h in ((0.3, 0.9), (0.5, 0.5), (0.1, 0.2)):
            fam = build_counting_family(preset(pid, e21, beta_h), 0)
            adj = charpoly(fam.base).adjugate
            dadj = adjugate_derivative(fam)
            for a in (adj, dadj, with_signed_zeros(rng, rng.normal(size=adj.shape))):
                for order in (1, 2):
                    want = entrywise_trace_product(a, dense_derivative(fam, order))
                    assert _trace_product(a, fam.dressed, order).hex() == want.hex()

    def test_bitwise_entrywise_on_random_models(self, rng):
        count = 0
        for topology in ("tree", "any"):
            for _ in range(110):
                m = random_connected_model(rng, topology=topology)
                for bath in range(m.n_baths):
                    fam = build_counting_family(m, bath)
                    adj = charpoly(fam.base).adjugate
                    noisy = with_signed_zeros(rng, rng.normal(size=adj.shape))
                    for a in (adj, adjugate_derivative(fam), noisy):
                        for order in (1, 2):
                            want = entrywise_trace_product(a, dense_derivative(fam, order))
                            assert _trace_product(a, fam.dressed, order).hex() == want.hex()
                count += 1
        assert count >= 200

    def test_zero_b_gives_zero(self):
        # no transitions, or transitions without energy, have a zero derivative
        for dressed in ((), ((0, 1, 0.3, 0.0), (1, 0, 0.2, 0.0))):
            fam = CountingFamily(np.zeros((3, 3)), (0.0, 1.0, 2.0), (1.0,), dressed)
            for order in (1, 2):
                got = _trace_product(np.ones((3, 3)), fam.dressed, order)
                assert type(got) is float and got.hex() == "0x0.0p+0"

    def test_underflowing_products_are_refused(self):
        # two products of nonzero factors, each 1e-320 < 2 * 2^-1022
        fam = CountingFamily(np.zeros((2, 2)), (0.0, 1.0), (1.0,),
                             ((0, 1, 1e-160, 1.0), (1, 0, 1e-160, -1.0)))
        for order in (1, 2):
            with pytest.raises(ConsistencyError, match=r"^the trace's 2 rate products underflow"):
                _trace_product(np.full((2, 2), 1e-160), fam.dressed, order)

    def test_a_zero_factor_is_no_underflow(self):
        # a product that is 0 because a factor is exactly 0 carries no rounding
        fam = CountingFamily(np.zeros((2, 2)), (0.0, 1.0), (1.0,),
                             ((0, 1, 1e-300, 1.0), (1, 0, 1e-300, -1.0)))
        assert _trace_product(np.zeros((2, 2)), fam.dressed, 1).hex() == "0x0.0p+0"
        tiny = 2.0**-1022  # one product, exactly at the bound: accepted
        fam = CountingFamily(np.zeros((2, 2)), (0.0, 1.0), (1.0,), ((0, 1, tiny, 1.0),))
        assert _trace_product(np.array([[0.0, 0.0], [1.0, 0.0]]), fam.dressed, 1) == tiny

    def test_products_beyond_double_range_are_refused(self):
        fam = CountingFamily(np.zeros((2, 2)), (0.0, 1.0), (1.0,),
                             ((0, 1, 1e200, 1.0), (1, 0, 1e200, -1.0)))
        with pytest.raises(ConsistencyError, match=r"^the trace's 2 rate products overflow \(gross inf\)$"):
            _trace_product(np.full((2, 2), 1e200), fam.dressed, 1)


class TestCheckedSum:
    def test_floor_applies_only_when_asked(self):
        terms = [1e-320, -1e-320]
        with pytest.raises(ConsistencyError, match=r"^the x's 2 rate products underflow"):
            _checked_fsum(terms, "the x")
        assert _checked_fsum(terms, "the x", floor=False) == 0.0
        assert _checked_fsum([], "the x") == 0.0

    @pytest.mark.parametrize("floor", [True, False])
    def test_overflow_and_nan_are_refused_with_or_without_the_floor(self, floor):
        # a finite sum whose gross leaves double range would also make fsum raise OverflowError
        for terms in ([1e308, 1e308, -1e308], [math.inf, -math.inf], [math.nan, 1.0]):
            with pytest.raises(ConsistencyError, match=r"^the x's \d rate products overflow"):
                _checked_fsum(terms, "the x", floor=floor)


def _three_level_leaky(gamma):
    """C on 1-2 and 2-3, H on 1-3 and 1-2, every coupling ``gamma``."""
    baths = (BathSpec("C", 1.0, {(0, 1): gamma, (1, 2): gamma}),
             BathSpec("H", 0.5, {(0, 2): gamma, (0, 1): gamma}))
    return QarModel(SystemSpec((0.0, 0.4, 1.0)), baths, 0)


class TestRateUnderflow:
    """Rates whose trace products leave double range, below or above, are refused."""

    def test_refused_where_the_direct_current_cools(self):
        m = preset("A", 0.3, 0.9, gamma=1e-150)
        assert direct_current(m, 0) > 0.0  # 2.5e-152: the point cools, the trace reads 0.0
        for call in (heat_current, lambda m, b: cooling_condition(m), noise):
            with pytest.raises(ConsistencyError, match="rate products underflow"):
                call(m, 0)

    def test_three_level_model_refused_once_digits_go(self):
        # J lost 1.3e-9 relative at gamma = 1e-105 and read exactly 0.0 from 1e-110
        m = _three_level_leaky(1e-100)
        assert heat_current(m, 0) == pytest.approx(direct_current(m, 0), rel=1e-13)
        for gamma in (1e-105, 1e-110):
            with pytest.raises(ConsistencyError, match="rate products underflow"):
                heat_current(_three_level_leaky(gamma), 0)

    @EIGHTY_BIT
    def test_small_rates_in_range_keep_their_bits(self):
        m = preset("A", 0.3, 0.9, gamma=1e-90)
        assert heat_current(m, 0).hex() == "0x1.a9149bc639c9fp-305"
        assert cooling_condition(m)[0].hex() == "0x1.7d46256737f20p-897"
        assert noise(m, 0).hex() == "0x1.e387a477332adp-305"

    @EIGHTY_BIT
    def test_large_rates_in_range_keep_their_bits(self):
        m = preset("A", 0.3, 0.9, gamma=1e100)
        assert heat_current(m, 0).hex() == "0x1.dd072e8e0ddfdp+326"
        assert cooling_condition(m)[0].hex() == "0x1.0d6ad172dcc74p+997"
        assert noise(m, 0).hex() == "0x1.0f4f65a5acf84p+327"

    @pytest.mark.parametrize("gamma, message", [
        (1e150, r"^the trace's 2 rate products overflow \(gross inf\)$"),
        (1e200, r"^a_\(N-1\)\(0\) = inf is not positive and finite"),
    ], ids=["1e150", "1e200"])
    def test_large_rates_refused_where_the_direct_current_answers(self, gamma, message):
        # the trace's products, or a_(N-1)(0) itself, leave double range; no numpy warning
        # escapes (warnings are errors here) and no bare ValueError from fsum
        m = preset("A", 0.3, 0.9, gamma=gamma)
        assert 0.0 < direct_current(m, 0) < math.inf
        for call in (heat_current, lambda m, b: cooling_condition(m), noise):
            with pytest.raises(ConsistencyError, match=message):
                call(m, 0)


    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_rates_at_the_top_of_double_range_refused_at_l0(self, pid):
        # L(0)'s rate sums overflow, or meet inf * 0; numpy's RuntimeWarning escaped before
        m = preset(pid, 0.3, 0.9, gamma=1e308)
        for call in (heat_current, lambda m, b: cooling_condition(m), noise, direct_current):
            with pytest.raises(ConsistencyError, match=r"^L\(0\) has an entry that is not finite"):
                call(m, 0)


class TestBaseCharpoly:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_entry_refused(self, rng, n, bad):
        # from N = 3 on a_(N-1) is then not finite, zero entries or not, so L(0) is read only
        # where a_(N-1) fails, or below N = 3
        for row in range(n):
            for col in range(n):
                l0 = rng.uniform(-1.0, 1.0, (n, n))
                l0[rng.random((n, n)) < 0.4] = 0.0
                l0[row, col] = bad
                if n >= 3:
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert not math.isfinite(charpoly(l0).coefficient(n - 1))
                with pytest.raises(ConsistencyError, match=r"^L\(0\) has an entry that is not"):
                    fcs_module._base_charpoly(l0)


class TestCgf:
    def test_zero_at_origin(self, rng):
        for _ in range(5):
            m = random_connected_model(rng)
            fam = build_counting_family(m, m.cold_index)
            assert cgf(fam, 0.0) == 0.0

    def test_spin_boson_symmetry(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        s_star = 0.5  # beta_C - beta_H
        for s in (-0.4, -0.1, 0.2, 0.25, 0.6, 0.9):
            assert abs(cgf(fam, s) - cgf(fam, s_star - s)) <= 1e-12

    def test_first_derivative_is_current(self):
        for m in (make_spin_boson(), preset("A", 0.5, 0.9)):
            fam = build_counting_family(m, m.cold_index)
            j = heat_current(m, m.cold_index)
            h = 1e-4
            j_num = (cgf(fam, h) - cgf(fam, -h)) / (2 * h)
            assert j_num == pytest.approx(j, rel=1e-6)

    def test_derivative_underflow_on_the_first_step_is_refused(self):
        # with every rate near 1e-200, p' underflows to 0 at Newton's start and the solve stops
        fam = build_counting_family(_three_level_leaky(1e-150), 0)
        assert cgf(fam, 0.5) == pytest.approx(1.73e-151, rel=1e-2)
        fam = build_counting_family(_three_level_leaky(1e-200), 0)
        with pytest.raises(ContinuationError, match=r"^Newton did not converge at s = 0\.5 "
                           r"\(last step nan, root estimate 1\.73e-201\)$"):
            cgf(fam, 0.5)

    def test_window_guard(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        with pytest.raises(ValidationError, match="window"):
            cgf(fam, 4.1)  # window is 4 * max beta = 4.0

    def test_array_matches_scalar_calls(self, rng):
        # each target is solved alone, so the array gives every scalar call's bits
        for _ in range(8):
            m = random_connected_model(rng)
            fam = build_counting_family(m, m.cold_index)
            w = 4.0 * max(fam.betas)
            s = np.array([0.3 * w, -0.05 * w, 0.1 * w, 1e-4, -0.3 * w, 0.2 * w])
            got = cgf(fam, s)
            assert got.shape == s.shape
            assert got.tolist() == [cgf(fam, x) for x in s.tolist()]

    def test_array_keeps_input_order(self):
        fam = build_counting_family(preset("A", 0.5, 0.9), 0)
        s = np.array([0.6, -0.2, 0.1, 0.4, -0.5])
        got = cgf(fam, s)
        assert got.tolist() == [cgf(fam, x) for x in s.tolist()]
        for perm in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            assert np.array_equal(cgf(fam, s[perm]), got[perm])

    def test_array_duplicates_and_zero(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        got = cgf(fam, [0.3, 0.0, 0.3, -0.0, -0.3, -0.3])
        assert got[1] == 0.0 and got[3] == 0.0
        assert got[0] == got[2] and got[4] == got[5]
        assert got[0] == cgf(fam, 0.3) and got[4] == cgf(fam, -0.3)

    def test_array_empty(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        got = cgf(fam, np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_single_target_is_bitwise_scalar(self, rng):
        for _ in range(5):
            m = random_connected_model(rng)
            fam = build_counting_family(m, m.cold_index)
            for s in (1e-4, -1e-4, 0.7):
                scalar = cgf(fam, s)
                assert isinstance(scalar, float)
                assert cgf(fam, np.array([s]))[0] == scalar

    def test_array_window_guard(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        with pytest.raises(ValidationError, match="window"):
            cgf(fam, np.array([0.1, -0.2, -4.1, 0.3]))

    def test_perron_root_oracle(self, rng):
        # L(s) is a Metzler matrix with an irreducible graph, so G(s) is its
        # Perron root: the eigenvalue of largest real part, real and simple
        families = [build_counting_family(preset(pid, 0.5, 0.9), 0) for pid in "ABCD"]
        for topology in ("tree", "any"):
            for _ in range(12):
                m = random_connected_model(rng, topology=topology)
                families.append(build_counting_family(m, m.cold_index))
        for fam in families:
            s = np.linspace(-1.0, 1.0, 9) * 4.0 * max(fam.betas)
            stack = fam.dressed_stack(s)[0].astype(float)
            perron = [np.max(np.linalg.eigvals(l_s).real) for l_s in stack]
            scale = np.max(np.abs(fam.base))
            assert np.max(np.abs(cgf(fam, s) - perron)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "model",
        [preset(pid, 0.5, 0.9, beta_c=40.0) for pid in "ABCD"] + [make_spin_boson(beta_c=40.0)],
        ids=["A", "B", "C", "D", "two-level"],
    )
    def test_perron_root_oracle_cold_bath(self, model):
        # beta_C = 40 on unit-scale gaps: at the window edge the largest column
        # sum grows like k * exp(|s dE|), e^40 and more above G, far beyond the
        # Newton budget from there; the Fujiwara bound starts within 2N of the
        # spectral radius
        for bath in range(model.n_baths):
            fam = build_counting_family(model, bath)
            s = np.array([-1.0, -0.5, 0.5, 1.0]) * 4.0 * max(fam.betas)
            stack = fam.dressed_stack(s)[0].astype(float)
            perron = [np.max(np.linalg.eigvals(l_s).real) for l_s in stack]
            scale = np.max(np.abs(stack), axis=(1, 2))
            assert np.all(np.abs(cgf(fam, s) - perron) <= 1e-12 * scale)

    def test_newton_starts_above_the_root(self, rng):
        # the smaller of the largest column sum of L(s) and the Fujiwara bound
        # bounds G(s) from above
        u = 2.0**-53
        for n in range(2, 6):
            for topology in ("tree", "any"):
                m = random_connected_model(rng, n_levels=n, topology=topology)
                fam = build_counting_family(m, m.cold_index)
                s = np.linspace(-1.0, 1.0, 8) * 4.0 * max(fam.betas)
                _, bounds = _target_polynomials(fam, s)
                assert np.all(bounds >= cgf(fam, s) - 8.0 * u * np.max(np.abs(fam.base)))

    def test_one_stacked_charpoly_per_call(self, monkeypatch):
        import qarfcs.fcs as fcs_module

        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return charpoly(m)

        monkeypatch.setattr(fcs_module, "charpoly", counting)
        fam = build_counting_family(preset("A", 0.5, 0.9), 0)
        cgf(fam, np.array([0.3, -0.2, 0.1]))
        # one matrix per target
        assert calls == [(3, 3, 3)]

    def _preset_a_family(self):
        model = preset("A", 0.5, 0.9)
        return build_counting_family(model, model.cold_index)

    def test_newton_failure(self, monkeypatch):
        fam = self._preset_a_family()
        monkeypatch.setattr(fcs_module, "_MAX_NEWTON_ITER", 1)
        with pytest.raises(ContinuationError, match=r"Newton did not converge at s = 0\.3 "):
            cgf(fam, np.array([0.3, -0.2]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_coefficients_fail_at_the_first_target(self, monkeypatch, bad):
        fam = self._preset_a_family()

        def spoiled(family, s):
            coeffs, bounds = _target_polynomials(family, s)
            coeffs[1:, 1] = bad  # every target but the first
            return coeffs, bounds

        monkeypatch.setattr(fcs_module, "_target_polynomials", spoiled)
        with pytest.raises(ContinuationError, match=r"Newton did not converge at s = -0\.2 "):
            cgf(fam, np.array([0.1, -0.2, 0.3]))

    def test_overflowing_polynomial_fails(self, monkeypatch):
        # p(lam) overflows to inf above a root near 1e200, so the first step
        # lands on -inf: an error, never a non-finite G
        def huge(family, s):
            return np.array([[1.0, -1e200, 0.0]] * len(s)), np.full(len(s), 2e200)

        monkeypatch.setattr(fcs_module, "_target_polynomials", huge)
        with pytest.raises(ContinuationError, match=r"Newton did not converge at s = 0\.3 "):
            cgf(self._preset_a_family(), 0.3)

    def test_uncoupled_counted_bath_is_zero(self):
        # no counted transitions: every column sum and a_N(s) are 0, so Newton
        # starts on the root and stops at once
        model = preset("A", 0.5, 0.9)
        idle = BathSpec("X", 0.7, {}, model.baths[0].spectral)
        model = QarModel(model.system, model.baths + (idle,), model.cold_index)
        fam = build_counting_family(model, 3)
        assert fam.dressed == ()
        assert cgf(fam, 0.3) == 0.0
        assert np.array_equal(cgf(fam, np.array([0.3, -0.2, 0.0])), np.zeros(3))


class TestConstantCoefficient:
    """a_N(s) of det(lambda - L(s)), checked without reference to its method."""

    def test_small_s_slope_is_current(self, rng):
        # a_N(h) / h -> a_N'(0) = -a_(N-1)(0) * J with an O(h * dE) remainder
        # (~1e-6 at the first step). The second step is far below the O(1)
        # cancellation floor of a plain det(L(h)), which it would miss by ~1e-3.
        for n in range(2, 6):
            for _ in range(6):
                m = random_connected_model(rng, n_levels=n)
                fam = build_counting_family(m, m.cold_index)
                a_pen = charpoly(fam.base).coefficient(n - 1)
                j = heat_current(m, m.cold_index)
                for h_rel, rtol in ((1e-7, 1e-5), (1e-12, 1e-9)):
                    h = h_rel / fam.energy_span
                    slope = _target_polynomials(fam, [h])[0][0, -1] / h
                    assert slope == pytest.approx(-a_pen * j, rel=rtol, abs=0.0)

    def test_matches_determinant_at_finite_s(self, rng):
        for n in range(2, 6):
            for topology in ("tree", "any"):
                m = random_connected_model(rng, n_levels=n, topology=topology)
                fam = build_counting_family(m, m.cold_index)
                l_s = fam.dressed_stack(np.array([0.5]))[0][0].astype(float)
                expected = (-1.0) ** n * np.linalg.det(l_s)
                got = _target_polynomials(fam, [0.5])[0][0, -1]
                assert got == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_nothing_counted_is_exactly_zero(self):
        # a family with only its base generator: the replaced row is all zeros
        fam = dataclasses.replace(build_counting_family(preset("B", 0.4, 0.8), 0), dressed=())
        assert _target_polynomials(fam, [0.5])[0][0, -1] == 0.0
        assert np.array_equal(_target_polynomials(fam, [0.5, -0.3])[0][:, -1], np.zeros(2))


class TestNumericCumulants:
    def test_spin_boson_against_closed_forms(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        gam = spectral_value(OhmicSpectralDensity(), 0.01, 1.0)
        j_num, s_num = numeric_cumulants(fam)
        assert j_num == pytest.approx(sb_current(1.0, gam, gam, 1.0, 0.5), rel=1e-6)
        assert s_num == pytest.approx(sb_noise(1.0, gam, gam, 1.0, 0.5), rel=1e-6)

    def test_preset_a_current(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        j_num, _ = numeric_cumulants(fam)
        assert j_num == pytest.approx(heat_current(m, 0), rel=1e-6)

    def test_single_bath_vanishes(self, rng):
        m = random_connected_model(rng, n_baths=1)
        fam = build_counting_family(m, 0)
        j_num, _ = numeric_cumulants(fam)
        scale = np.max(np.abs(fam.base)) * m.system.energies[-1]
        assert abs(j_num) <= 1e-10 * scale


class TestSpectrumInvariants:
    def test_eigenstructure_random_models(self, rng):
        # real spectrum, single zero mode, strictly negative remainder,
        # positive leading coefficients
        for _ in range(200):
            m = random_connected_model(rng)
            l0 = build_generator(m)
            cp = charpoly(l0)
            n = cp.n
            roots = np.roots(cp.monic())
            scale = np.max(np.abs(roots))
            assert np.max(np.abs(roots.imag)) <= 1e-8 * scale
            mags = np.sort(np.abs(roots))
            assert mags[0] <= 1e-10
            real_sorted = np.sort(roots.real)
            assert np.all(real_sorted[: n - 1] < 0.0)
            for j in range(1, n):
                assert cp.coefficient(j) > 0.0
            assert abs(cp.coefficient(n)) <= 1e-12 * np.linalg.norm(l0) ** n

    def test_preset_spectra_real_across_grid(self):
        for pid in ("A", "B", "C", "D"):
            for e21 in (0.1, 0.5, 0.9):
                for bh in (0.2, 0.6, 0.95):
                    l0 = build_generator(preset(pid, e21, bh))
                    ev = np.linalg.eigvals(l0)
                    assert np.max(np.abs(ev.imag)) <= 1e-10 * np.max(np.abs(ev))


class TestEnergyConservation:
    def test_currents_sum_to_zero(self, rng):
        for _ in range(100):
            m = random_connected_model(rng)
            currents = [heat_current(m, b) for b in range(m.n_baths)]
            j_max = max(abs(j) for j in currents)
            assert abs(math.fsum(currents)) <= 1e-10 * max(j_max, 1e-300)

