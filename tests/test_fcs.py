import dataclasses
import math

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
    _certified_separation,
    _constant_coefficient,
    _continue_root,
    _plan_steps,
    _step_polynomials,
    _trace_product,
    adjugate,
    adjugate_derivative,
    cgf,
    charpoly,
    cooling_condition,
    fcs_report,
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
from qarfcs.oracle import fluctuation_symmetry_check, random_connected_model
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
        assert np.allclose(adjugate(m), [[4.0, -2.0], [-3.0, 1.0]], rtol=1e-14)

    def test_product_identity_random(self, rng):
        for n in (2, 3, 4, 5):
            m = rng.normal(size=(n, n))
            prod = m @ adjugate(m)
            assert np.allclose(prod, np.linalg.det(m) * np.eye(n), rtol=1e-9, atol=1e-9)

    def test_matches_cofactor_transpose(self, rng):
        for n in (3, 4):
            for _ in range(10):
                m = rng.normal(size=(n, n))
                a = adjugate(m)
                b = cofactor_adjugate(m)
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_singular_generator_annihilated(self):
        l0 = build_generator(preset("A", 0.5, 0.9))
        prod = l0 @ adjugate(l0)
        assert np.max(np.abs(prod)) <= 1e-20  # det is ~1e-22 at these scales

    def test_spin_boson_cofactor_structure(self, spin_boson):
        # C_12 = -[L]_21 and C_21 = -[L]_12 for the 2x2 generator
        l0 = build_generator(spin_boson)
        adj = adjugate(l0)
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
            counted_bath=0,
            energies=(0.0, 1.0),
            betas=(1.0,),
        )
        from qarfcs.fcs import _current_from_family

        with pytest.raises(ConsistencyError):
            _current_from_family(fam)


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
            fd = (adjugate(fam.evaluator(h)) - adjugate(fam.evaluator(-h))) / (2 * h)
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


def entrywise_trace_product(a, b):
    """tr(a @ b) as fsum over the entry pairs where both factors are nonzero."""
    n = a.shape[0]
    return math.fsum(
        a[i, j] * b[j, i]
        for i in range(n)
        for j in range(n)
        if a[i, j] != 0.0 and b[j, i] != 0.0
    )


class TestTraceProduct:
    def test_bitwise_entrywise_on_random_pairs_with_zeros(self, rng):
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-20, 5, size=(n, n))
            b = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-20, 5, size=(n, n))
            a[rng.random((n, n)) < 0.3] = 0.0
            a[rng.random((n, n)) < 0.1] = -0.0
            b[rng.random((n, n)) < 0.4] = 0.0
            got = _trace_product(a, b)
            assert type(got) is float
            assert got.hex() == entrywise_trace_product(a, b).hex()

    @pytest.mark.parametrize("pid", ["A", "B", "C", "D"])
    def test_bitwise_entrywise_on_presets(self, pid):
        for e21, beta_h in ((0.3, 0.9), (0.5, 0.5), (0.1, 0.2)):
            fam = build_counting_family(preset(pid, e21, beta_h), 0)
            adj = charpoly(fam.base).adjugate
            dadj = adjugate_derivative(fam)
            for a, b in ((adj, fam.d1), (adj, fam.d2), (dadj, fam.d1)):
                assert _trace_product(a, b).hex() == entrywise_trace_product(a, b).hex()

    def test_stack_matches_per_matrix(self, rng):
        for n in range(1, 6):
            stack = rng.normal(size=(2, 3, n, n))
            stack[rng.random(stack.shape) < 0.3] = 0.0
            b = rng.normal(size=(n, n))
            b[rng.random((n, n)) < 0.4] = 0.0
            got = _trace_product(stack, b)
            assert got.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                assert got[idx] == _trace_product(stack[idx], b)

    def test_zero_b_gives_zero(self):
        assert _trace_product(np.ones((3, 3)), np.zeros((3, 3))) == 0.0
        assert np.array_equal(_trace_product(np.ones((4, 3, 3)), np.zeros((3, 3))), np.zeros(4))


def numpy_plan_steps(flat, ds_max):
    """Reference step plan: sides by np.flatnonzero, each ordered by a stable argsort of |s|."""
    grid, side_starts, reached = [], set(), []
    for side in (np.flatnonzero(flat > 0.0), np.flatnonzero(flat < 0.0)):
        side_starts.add(len(grid))
        s_prev = 0.0
        order = side[np.argsort(np.abs(flat[side]), kind="stable")].tolist()
        for i, s_to in zip(order, flat[order].tolist()):
            if s_to != s_prev:
                n_steps = max(1, int(math.ceil(abs(s_to - s_prev) / ds_max)))
                grid.extend(
                    s_prev + (s_to - s_prev) * k / n_steps for k in range(1, n_steps + 1)
                )
            reached.append((i, len(grid) - 1))
            s_prev = s_to
    return grid, side_starts, reached


class TestPlanSteps:
    @pytest.mark.parametrize(
        "targets",
        [
            [0.3, -0.3, 0.3, 0.0, -0.0, 0.1, -0.1, 0.3, -0.7, 0.0],
            [-0.2, -0.2, -0.05, 0.0],
            [0.0, -0.0],
            [1e-4, -1e-4],
            [0.45],
            [],
        ],
    )
    def test_matches_numpy_reference(self, targets):
        flat = np.array(targets, dtype=float)
        grid, side_starts, reached = _plan_steps(flat, 0.04)
        ref_grid, ref_starts, ref_reached = numpy_plan_steps(flat, 0.04)
        assert [g.hex() for g in grid] == [g.hex() for g in ref_grid]
        assert side_starts == ref_starts
        assert reached == ref_reached

    def test_matches_numpy_reference_on_random_targets(self, rng):
        for _ in range(50):
            flat = rng.choice([-1.0, 0.0, 1.0], size=12) * rng.choice(
                [0.0, 0.1, 0.25, rng.uniform(0.0, 0.9)], size=12
            )
            got = _plan_steps(flat, 0.03)
            ref = numpy_plan_steps(flat, 0.03)
            assert [g.hex() for g in got[0]] == [g.hex() for g in ref[0]]
            assert got[1:] == ref[1:]


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

    def test_window_guard(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        with pytest.raises(ValidationError, match="window"):
            cgf(fam, 4.1)  # window is 4 * max beta = 4.0

    def test_array_matches_scalar_calls(self, rng):
        for _ in range(8):
            m = random_connected_model(rng)
            fam = build_counting_family(m, m.cold_index)
            w = 4.0 * max(fam.betas)
            s = np.array([0.3 * w, -0.05 * w, 0.1 * w, 1e-4, -0.3 * w, 0.2 * w])
            got = cgf(fam, s)
            scale = np.max(np.abs(fam.base)) * fam.energy_span
            expected = np.array([cgf(fam, x) for x in s])
            assert got.shape == s.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_array_keeps_input_order(self):
        fam = build_counting_family(preset("A", 0.5, 0.9), 0)
        s = np.array([0.6, -0.2, 0.1, 0.4, -0.5])
        got = cgf(fam, s)
        scale = np.max(np.abs(fam.base)) * fam.energy_span
        for i, x in enumerate(s):
            assert abs(got[i] - cgf(fam, x)) <= 1e-12 * scale
        # the path depends on the set of targets only, not on their order
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
        for topology in ("tree", "any"):
            for _ in range(12):
                m = random_connected_model(rng, topology=topology)
                fam = build_counting_family(m, m.cold_index)
                s = np.linspace(-0.9, 0.9, 9) * 4.0 * max(fam.betas)
                perron = [np.max(np.linalg.eigvals(fam.evaluator(x)).real) for x in s]
                scale = np.max(np.abs(fam.base))
                assert np.max(np.abs(cgf(fam, s) - perron)) <= 1e-12 * scale

    def test_one_stacked_charpoly_per_call(self, monkeypatch):
        import qarfcs.fcs as fcs_module

        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return charpoly(m)

        monkeypatch.setattr(fcs_module, "charpoly", counting)
        fam = build_counting_family(preset("A", 0.5, 0.9), 0)
        cgf(fam, np.array([0.3, -0.2, 0.1]))
        # 6 steps to 0.3 and 4 steps to -0.2 at ds_max = 0.05
        assert calls == [(10, 3, 3)]

    def _preset_a_family(self):
        model = preset("A", 0.5, 0.9)
        return build_counting_family(model, model.cold_index)

    def test_newton_failure(self):
        fam = self._preset_a_family()
        with pytest.raises(ContinuationError, match=r"Newton did not converge at s = 0\.05 "):
            cgf(fam, np.array([0.3, -0.2]), max_newton_iter=1)

    def test_root_collision(self):
        fam = self._preset_a_family()
        with pytest.raises(ContinuationError, match=r"root collision at s = 0\.05:"):
            cgf(fam, np.array([0.3, -0.2]), collision_rtol=1.0)

    def test_newton_failure_reported_before_collision(self):
        fam = self._preset_a_family()
        with pytest.raises(ContinuationError, match=r"Newton did not converge at s = 0\.05 "):
            cgf(fam, np.array([0.3, -0.2]), max_newton_iter=1, collision_rtol=1.0)

    def test_each_side_starts_from_the_origin(self):
        # four Newton iterations reach the first step on either side from
        # G(0) = 0, but not from the far root G(0.9) of the positive side
        fam = self._preset_a_family()
        got = cgf(fam, np.array([0.9, -0.2]), max_newton_iter=4)
        assert got.tolist() == [cgf(fam, 0.9), cgf(fam, -0.2)]

    def test_uncoupled_counted_bath_is_zero(self):
        # no counted transitions: a_N(s) = 0 on every step and the zero root
        # splits off before the companion eigenvalues
        model = preset("A", 0.5, 0.9)
        idle = BathSpec("X", 0.7, {}, model.baths[0].spectral)
        model = QarModel(model.system, model.baths + (idle,), model.cold_index)
        fam = build_counting_family(model, 3)
        assert fam.dressed == ()
        assert cgf(fam, 0.3) == 0.0
        assert np.array_equal(cgf(fam, np.array([0.3, -0.2, 0.0])), np.zeros(3))


def companion_roots(coeffs):
    """Eigenvalues of the companion matrix of every monic row [1, a_1, ..., a_N]."""
    k, n = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((k, n, n))
    comp[:, 0, :] = np.negative(coeffs[:, 1:])
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(comp)


def certificate_families(rng):
    """Counted cold baths of A-D and of N = 2..5 random tree and cyclic models."""
    families = [
        build_counting_family(preset(pid, e21, beta_h), 0)
        for pid in "ABCD"
        for e21, beta_h in ((0.3, 0.9), (0.5, 0.5))
    ]
    for n in range(2, 6):
        for topology in ("tree", "any"):
            for _ in range(3):
                m = random_connected_model(rng, n_levels=n, topology=topology)
                families.append(build_counting_family(m, m.cold_index))
    return families


def window_targets(fam):
    return np.linspace(-0.95, 0.95, 9) * 4.0 * max(fam.betas)


_COLLISION_RTOLS = (1e-8, 1e-3, 0.1, 0.5, 1.0)


class TestRootSeparationCertificate:
    def test_certified_steps_are_separated(self, rng):
        decided = dict.fromkeys(_COLLISION_RTOLS, 0)
        steps = 0
        for fam in certificate_families(rng):
            grid, side_starts, _ = _plan_steps(window_targets(fam), 0.05 / fam.energy_span)
            # collision_rtol = 0 certifies every step, so no eigvals runs here
            lams = _continue_root(fam, grid, side_starts, 1e-12, 100, 0.0)
            coeffs = _step_polynomials(fam, grid)
            n = coeffs.shape[1] - 1
            for poly, lam, roots in zip(coeffs.tolist(), lams, companion_roots(coeffs)):
                deriv = [c * (n - j) for j, c in enumerate(poly[:-1])]
                gap = np.sort(np.abs(roots - lam))[1]
                scale = np.max(np.abs(roots))
                steps += 1
                for rtol in _COLLISION_RTOLS:
                    if _certified_separation(poly, deriv, lam, rtol):
                        decided[rtol] += 1
                        assert gap >= rtol * scale
        # every step is decided at the default; from 0.5 on none can be,
        # because |p'| <= (2F)^(N-1) <= 4 * rtol * F * (2F)^(N-2)
        assert decided[1e-8] == steps > 1000
        assert decided[0.5] == decided[1.0] == 0

    def test_cgf_matches_eigvals_only_reference(self, rng, monkeypatch):
        families = certificate_families(rng)

        def outcomes():
            out = []
            for fam in families:
                for rtol in _COLLISION_RTOLS:
                    for iters in (100, 3):
                        try:
                            g = cgf(fam, window_targets(fam), collision_rtol=rtol,
                                    max_newton_iter=iters)
                            out.append([x.hex() for x in g.tolist()])
                        except ContinuationError as exc:
                            out.append(str(exc))
            return out

        got = outcomes()
        monkeypatch.setattr(fcs_module, "_certified_separation", lambda *args: False)
        reference = outcomes()
        assert got == reference
        messages = [x for x in reference if isinstance(x, str)]
        assert any(x.startswith("root collision") for x in messages)
        assert any(x.startswith("Newton did not converge") for x in messages)
        assert len(messages) < len(reference)

    def test_collision_step_indexes_the_full_grid(self, monkeypatch):
        # certify the first three steps by fiat: the first step left to eigvals
        # is the fourth, s = 0.2 on the 0.05 grid, and every step collides at 1.0
        verdicts = iter([True, True, True])
        monkeypatch.setattr(
            fcs_module, "_certified_separation", lambda *args: next(verdicts, False)
        )
        fam = build_counting_family(preset("A", 0.5, 0.9), 0)
        with pytest.raises(ContinuationError, match=r"root collision at s = 0\.2:"):
            cgf(fam, np.array([0.3, -0.2]), collision_rtol=1.0)

    def test_no_eigvals_on_the_common_path(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for pid in "ABCD":
            fam = build_counting_family(preset(pid, 0.5, 0.9), 0)
            numeric_cumulants(fam)
            cgf(fam, window_targets(fam))
        for n in range(2, 6):
            for topology in ("tree", "any"):
                m = random_connected_model(rng, n_levels=n, n_baths=2, topology=topology)
                numeric_cumulants(build_counting_family(m, m.cold_index))
                fluctuation_symmetry_check(m, np.linspace(-0.3, 0.9, 8))

    def test_two_level_bound_is_the_gap(self):
        # roots 1 and 2: |p'(1)| = 1 is the gap, F = 2 * max(3, (2 / 2)^(1/2)) = 6,
        # so the step is certified while 1 >= 4 * rtol * 6
        poly, deriv = [1.0, -3.0, 2.0], [2.0, -3.0]
        assert _certified_separation(poly, deriv, 1.0, 0.04)
        assert not _certified_separation(poly, deriv, 1.0, 0.05)

    @pytest.mark.parametrize(
        "poly",
        [
            [1.0, 1e200, 1.0, 1.0, 1.0, 1.0],  # (2F)^(N-2) overflows in **
            [1.0, 1e200, 1.0, 1.0],  # the product overflows to inf
            [1.0, math.inf, 1.0, 1.0],
            [1.0, math.nan, 1.0, 1.0],
        ],
        ids=["pow-overflow", "product-overflow", "inf", "nan"],
    )
    def test_nonfinite_bound_leaves_step_undecided(self, poly):
        n = len(poly) - 1
        deriv = [c * (n - j) for j, c in enumerate(poly[:-1])]
        assert not _certified_separation(poly, deriv, 0.5, 1e-8)


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
                    slope = _constant_coefficient(fam, h) / h
                    assert slope == pytest.approx(-a_pen * j, rel=rtol, abs=0.0)

    def test_matches_determinant_at_finite_s(self, rng):
        for n in range(2, 6):
            for topology in ("tree", "any"):
                m = random_connected_model(rng, n_levels=n, topology=topology)
                fam = build_counting_family(m, m.cold_index)
                expected = (-1.0) ** n * np.linalg.det(fam.evaluator(0.5))
                got = _constant_coefficient(fam, 0.5)
                assert got == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_nothing_counted_is_exactly_zero(self):
        # a family with only its base generator: the replaced row is all zeros
        fam = dataclasses.replace(build_counting_family(preset("B", 0.4, 0.8), 0), dressed=())
        assert _constant_coefficient(fam, 0.5) == 0.0
        assert np.array_equal(_constant_coefficient(fam, np.array([0.5, -0.3])), np.zeros(2))


class TestNumericCumulants:
    def test_spin_boson_against_closed_forms(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        gam = spectral_value(OhmicSpectralDensity(), 0.01, 1.0)
        j_num, s_num = numeric_cumulants(fam, 1e-4)
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

    def test_step_validation(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        with pytest.raises(ValidationError):
            numeric_cumulants(fam, 1e-2)
        with pytest.raises(ValidationError):
            numeric_cumulants(fam, 0.0)


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


class TestReport:
    def test_report_fields(self):
        m = preset("A", 0.5, 0.9)
        rep = fcs_report(m, with_noise=True)
        assert rep.bath_label == "C"
        assert rep.cooling is True
        assert rep.current > 0
        assert rep.noise is not None and rep.noise > 0
        assert len(rep.charpoly_coeffs) == 3
        payload = rep.to_dict()
        assert payload["cooling"] is True

    def test_cooling_certificate_matches_cooling_condition(self):
        for pid in "ABCD":
            m = preset(pid, 0.3, 0.9)
            value, cooling = cooling_condition(m)
            for bath in range(m.n_baths):
                rep = fcs_report(m, bath)
                assert rep.cooling_value == value and rep.cooling is cooling
