import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from qarfcs import oracle as oracle_module
from qarfcs.errors import TopologyError, ValidationError
from qarfcs.fcs import cgf, heat_current, noise
from qarfcs.liouvillian import build_counting_family, build_generator
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    model_from_dict,
    model_to_dict,
    preset,
    rate,
    rate_table,
)
from qarfcs.oracle import (
    conservation_residual,
    direct_current,
    fluctuation_symmetry_check,
    random_connected_model,
    steady_state,
)
from tests.conftest import EIGHTY_BIT, make_spin_boson


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

    @pytest.mark.parametrize("row", [0, 2])
    def test_nan_in_replaced_row_rejected(self, row):
        # row 0 is the replaced row, which the solve never sees, so only L(0) p shows its
        # NaN; row 2's NaN reaches the solve, and p and L(0) p show it
        l0 = build_generator(preset("A", 0.5, 0.9))
        l0[row, 1] = np.nan
        with pytest.raises(ValidationError, match="residual"):
            steady_state(l0)


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

    @pytest.mark.parametrize("bath", [-1, 3])
    def test_bath_index_out_of_range(self, bath):
        # -1 used to read the last bath's table, 3 to raise a bare IndexError
        m = preset("A", 0.5, 0.9)
        message = f"counted bath index {bath} out of range"
        with pytest.raises(ValidationError, match=message):
            heat_current(m, bath)
        with pytest.raises(ValidationError, match=message):
            direct_current(m, bath)

    @pytest.mark.parametrize("func", [heat_current, noise, direct_current])
    @pytest.mark.parametrize("bath", [True, 1.0], ids=["bool", "float"])
    def test_bath_index_must_be_an_integer(self, func, bath):
        # True used to count bath 1, and 1.0 to raise a bare TypeError
        with pytest.raises(ValidationError) as info:
            func(preset("A", 0.5, 0.9), bath)
        assert str(info.value) == f"counted bath index must be an integer, got {bath!r}"
        assert info.value.code == 2

    @pytest.mark.parametrize("func", [heat_current, noise, direct_current])
    def test_numpy_integer_bath_keeps_the_bits(self, func):
        got, want = (func(preset("A", 0.5, 0.9), bath) for bath in (np.int64(1), 1))
        assert type(got) is float and got.hex() == want.hex()


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


class TestRateTablesOncePerModel:
    def test_each_bath_table_built_once(self, rng, monkeypatch):
        calls, solves = [], []

        def counting(model, bath):
            calls.append(bath)
            return rate_table(model, bath)

        def counting_solve(l0):
            solves.append(l0)
            return steady_state(l0)

        monkeypatch.setattr(oracle_module, "rate_table", counting)
        monkeypatch.setattr(oracle_module, "steady_state", counting_solve)
        m = random_connected_model(rng, n_levels=4, n_baths=3)
        direct_current(m, 1)
        assert calls == [0, 1, 2] and len(solves) == 1
        calls.clear()
        direct_current(m, 0)
        direct_current(m, 2)
        conservation_residual(m)
        assert calls == [] and len(solves) == 1
        # a new object, equal or not, is solved again
        for other in (dataclasses.replace(m), model_from_dict(model_to_dict(m))):
            calls.clear()
            conservation_residual(other)
            assert calls == [0, 1, 2]
        assert len(solves) == 3

    def test_kept_solution_is_not_a_field(self, rng):
        m = random_connected_model(rng, n_levels=3, n_baths=2)
        before = ([f.name for f in dataclasses.fields(m)], repr(m), model_to_dict(m))
        direct_current(m, 0)
        assert ([f.name for f in dataclasses.fields(m)], repr(m), model_to_dict(m)) == before
        assert before[0] == ["system", "baths", "cold_index"]
        fresh = dataclasses.replace(m)
        assert m == fresh and fresh == m
        assert dataclasses.replace(m) == model_from_dict(model_to_dict(m))
        # the kept value is the currents alone, immutable floats: no table or population
        kept = oracle_module._solved(m)
        assert type(kept) is tuple and [type(j) for j in kept] == [float] * m.n_baths
        assert vars(m)["_oracle_solution"] is kept
        assert kept == (direct_current(fresh, 0), direct_current(fresh, 1))

    def test_every_call_order_gives_a_fresh_models_bits(self, rng):
        def query(m, q):  # q is a bath index, or None for the conservation residual
            return (conservation_residual(m) if q is None else direct_current(m, q)).hex()

        def orders(m):
            queries = [*range(m.n_baths), None]
            if m.n_baths == 3:
                return list(itertools.permutations(queries))
            return [queries, queries[::-1], [queries[i] for i in rng.permutation(len(queries))]]

        models = [preset(pid, 0.3, 0.9) for pid in "ABCD"]
        models += [random_connected_model(rng, topology=("tree", "any")[k % 2]) for k in range(200)]
        assert {(m.n_levels, m.n_baths) for m in models} == {
            (n, b) for n in range(2, 6) for b in range(2, 5)
        }
        for m in models:
            want = {q: query(dataclasses.replace(m), q) for q in [*range(m.n_baths), None]}
            for order in orders(m):
                kept = dataclasses.replace(m)
                assert [query(kept, q) for q in order] == [want[q] for q in order]


# float.hex of the validation path, recorded before the oracle built its rate
# tables once per call; cgf recorded once it took a_N near s = 0 from the cofactor
# expansion along the replaced last row, with the recursion's adjugate
_ORACLE_GOLDEN = {
    ("A", 0.3, 0.9): {
        "direct": ["0x1.ab5e517500eccp-16", "-0x1.6423ee8c2b724p-14", "0x1.f298b45dd6680p-15"],
        "conservation": ["0x1.8800000000000p-61"],
        "populations": ["0x1.e659845b43f03p-2", "0x1.1ae4149b743a6p-2", "0x1.fd84ce128faadp-3"],
        "residual": ["0x1.070b4c7f73ad1p-61"],
        "cgf": [
            "0x1.9332c95ab128cp-14", "0x1.c3e1fcad5de1ep-18", "-0x1.0843397171d9bp-17",
            "0x1.a3dcf35ccfd67p-17", "0x1.ccdf259bd3e2bp-14", "0x1.2ccf950a9bf65p-12",
        ],
    },
    ("A", 0.5, 0.5): {
        "direct": ["-0x1.5154311e2b900p-18", "0x1.5154311e2ba00p-17", "-0x1.5154311e2ba00p-18"],
        "conservation": ["0x1.0000000000000p-62"],
        "populations": ["0x1.cce1c9c0e2862p-2", "0x1.200e364be6568p-2", "0x1.130ffff337236p-2"],
        "residual": ["0x1.4ab1c59f8d0bfp-61"],
        "cgf": [
            "0x1.76b57d218420ap-11", "0x1.c46b7abf538ffp-13", "0x1.51af76c367f3ap-17",
            "0x1.950d2b178be9ep-18", "0x1.988287f04254fp-13", "0x1.614846ed28888p-11",
        ],
    },
    ("B", 0.3, 0.9): {
        "direct": ["0x1.89507e5907403p-17", "-0x1.dfb28a2c1db52p-14", "0x1.ae887a60fccb6p-14"],
        "conservation": ["0x1.ba00000000000p-62"],
        "populations": ["0x1.d0dd7c8562a21p-2", "0x1.266ae7d1cb657p-2", "0x1.08b79ba8d1f8ap-2"],
        "residual": ["0x1.8d66ca34feedcp-62"],
        "cgf": [
            "0x1.a74199ee58f3ap-12", "0x1.6c8af54ee0763p-14", "-0x1.770b33e6472bbp-21",
            "0x1.215cd68eed340p-17", "0x1.0823c08642d63p-13", "0x1.c065cbb524077p-12",
        ],
    },
    ("B", 0.5, 0.5): {
        "direct": ["-0x1.32e9ad534900bp-16", "-0x1.456e33308cd13p-16", "0x1.3c2bf041eae98p-15"],
        "conservation": ["0x1.2000000000000p-64"],
        "populations": ["0x1.c02d485575591p-2", "0x1.27529ddb51616p-2", "0x1.188019cf39459p-2"],
        "residual": ["0x1.36ff2a2cb4644p-62"],
        "cgf": [
            "0x1.07e4f287b6e75p-10", "0x1.357c6be721109p-12", "0x1.1ea4f64a3937cp-16",
            "0x1.3ec77658904cap-19", "0x1.bc6f5f9195658p-13", "0x1.a6b331ea9534cp-11",
        ],
    },
    ("C", 0.3, 0.9): {
        "direct": ["0x1.ed1419f54d918p-17", "-0x1.8fb7f4e154f12p-14", "0x1.521571a2ab400p-14"],
        "conservation": ["0x1.1000000000000p-62"],
        "populations": ["0x1.cda3e2e2f0d1ep-2", "0x1.29567ab07ae4cp-2", "0x1.0905a26c94496p-2"],
        "residual": ["0x1.2745d991aa898p-61"],
        "cgf": [
            "0x1.d70f367fc0520p-13", "0x1.ca6e76d827eb5p-15", "-0x1.544684091cb0ep-19",
            "0x1.35a81a2997b93p-17", "0x1.dfcb3c586efa5p-14", "0x1.60286c0c0176bp-12",
        ],
    },
    ("C", 0.5, 0.5): {
        "direct": ["-0x1.681374784d4e8p-16", "0x1.e77d0291dd000p-20", "0x1.499ba44f2f8c0p-16"],
        "conservation": ["0x1.b000000000000p-61"],
        "populations": ["0x1.b65ed39b37583p-2", "0x1.2e3f84189fa26p-2", "0x1.1b61a84c29058p-2"],
        "residual": ["0x1.f37ba64898bbcp-61"],
        "cgf": [
            "0x1.1680d8074f144p-10", "0x1.4ef742e05203ep-12", "0x1.401fdc87fd62fp-16",
            "0x1.ef8634dbf560fp-20", "0x1.d9007fbb2e11dp-13", "0x1.c3d0cc0fcd12fp-11",
        ],
    },
    ("D", 0.3, 0.9): {
        "direct": ["-0x1.4759fa42d6e5cp-16", "-0x1.bac1a5de0daa1p-13", "0x1.e3ace52668858p-13"],
        "conservation": ["0x1.4800000000000p-61"],
        "populations": ["0x1.7f38784b1f7b3p-2", "0x1.572ff2c3a03c7p-2", "0x1.299794f140486p-2"],
        "residual": ["0x1.3331a323c9333p-59"],
        "cgf": [
            "0x1.fa4756e152717p-12", "0x1.4aaf78325b51fp-13", "0x1.9eefd554b9f79p-17",
            "-0x1.b7ef45e839d5dp-19", "0x1.3bb5df5b53fb1p-14", "0x1.4b903b0a8b677p-12",
        ],
    },
    ("D", 0.5, 0.5): {
        "direct": ["-0x1.febab465fee44p-15", "-0x1.4a9d75ebfca98p-13", "0x1.ca4c23057c630p-13"],
        "conservation": ["0x1.c000000000000p-63"],
        "populations": ["0x1.8060213097b7ap-2", "0x1.504a248dc11e7p-2", "0x1.2f55ba41a729fp-2"],
        "residual": ["0x1.7c2ea46a36baap-61"],
        "cgf": [
            "0x1.9f0a4b91c54a8p-10", "0x1.efa342501e93ep-12", "0x1.35af004d2e3c8p-15",
            "-0x1.954c2ebb643c4p-17", "0x1.92beca4203d31p-13", "0x1.e0809783053f6p-11",
        ],
    },
    ("random", 2): {
        "direct": ["0x1.e704df866a7a0p-14", "-0x1.d224a211858f0p-14", "-0x1.4e03d74e4ea80p-18"],
        "conservation": ["0x1.0000000000000p-63"],
        "populations": ["0x1.2914aaf9802a3p-1", "0x1.add6aa0cffabap-2"],
        "residual": ["0x1.cfbd866808bacp-62"],
        "cgf": [
            "0x1.6f9de438da3f3p-8", "0x1.cf83dc5c95a6cp-10", "0x1.f0b605924268fp-14",
            "-0x1.b180e855a1164p-18", "0x1.22bc1987d304ep-10", "0x1.18bee258e4cf0p-8",
        ],
    },
    ("random", 3): {
        "direct": ["-0x1.2235115aec34cp-15", "0x1.306804c8f7078p-15", "-0x1.c65e6dc15a7c0p-20"],
        "conservation": ["0x1.2000000000000p-63"],
        "populations": ["0x1.6b75dca5e14a8p-2", "0x1.54a6816c5e246p-2", "0x1.3fe3a1edc0912p-2"],
        "residual": ["0x1.0741b38f84738p-61"],
        "cgf": [
            "0x1.816eda5c1ac61p-10", "0x1.d84d6c6572fe5p-12", "0x1.2d5fa94ce34e1p-15",
            "-0x1.98c4f605fd08ap-17", "0x1.7930eabfe1593p-13", "0x1.bfbb018185477p-11",
        ],
    },
    ("random", 4): {
        "direct": [
            "-0x1.178dbc02aae4fp-15", "-0x1.4ccebbf5a1940p-21", "0x1.3592fbcb1697cp-14",
            "-0x1.4e6500a3abc7bp-15",
        ],
        "conservation": ["0x1.b800000000000p-62"],
        "populations": [
            "0x1.21ab3a82e54e1p-2", "0x1.0ac008349676bp-2", "0x1.e744b42245d28p-3",
            "0x1.bfe4c66ec2a3fp-3",
        ],
        "residual": ["0x1.8000000000000p-60"],
        "cgf": [
            "0x1.092990336fc9ep-9", "0x1.4781b88c51111p-11", "0x1.953ab9b01349ap-15",
            "-0x1.d706d20173bf8p-17", "0x1.24787b051cf3ap-12", "0x1.4a0607c564b83p-10",
        ],
    },
    ("random", 5): {
        "direct": ["-0x1.b37f90af2b35bp-16", "0x1.b37f90af2b36ep-16"],
        "conservation": ["0x1.3000000000000p-64"],
        "populations": [
            "0x1.0ce1bba575d25p-2", "0x1.d0633d50f551bp-3", "0x1.8b79b36da2399p-3",
            "0x1.5e8a7e83c1193p-3", "0x1.2bd51972bbb6dp-3",
        ],
        "residual": ["0x1.595ebf3c5b39ap-63"],
        "cgf": [
            "0x1.232f919e10ff9p-9", "0x1.5143632ecd3c0p-11", "0x1.45b2419e9eb5ap-15",
            "0x1.c7aba71a1c0b7p-20", "0x1.c73a89d937fd5p-12", "0x1.ca46322880c69p-10",
        ],
    },
}


def _golden_model(key):
    if key[0] == "random":
        rng = np.random.default_rng(100 + key[1])
        return random_connected_model(rng, n_levels=key[1], topology="any")
    return preset(*key)


@EIGHTY_BIT
@pytest.mark.parametrize("key", list(_ORACLE_GOLDEN), ids=str)
def test_golden_bits(key):
    want = _ORACLE_GOLDEN[key]
    m = _golden_model(key)
    ss = steady_state(build_generator(m))
    fam = build_counting_family(m, m.cold_index)
    g = cgf(fam, np.array([-0.9, -0.5, -0.1, 0.1, 0.5, 0.9]) * 4.0 * max(fam.betas))
    assert [direct_current(m, b).hex() for b in range(m.n_baths)] == want["direct"]
    assert [conservation_residual(m).hex()] == want["conservation"]
    assert [x.hex() for x in ss.populations.tolist()] == want["populations"]
    assert [ss.residual.hex()] == want["residual"]
    assert [x.hex() for x in g.tolist()] == want["cgf"]


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

    def test_relative_to_the_largest_g(self, monkeypatch, spin_boson):
        # a relative 1e-8 error on one side; |G| stays below 1e-2 here, so the absolute
        # deviation stays below the default tolerance 1e-10 that the ratio exceeds
        real, largest = oracle_module.cgf, []

        def spoiled(family, s):
            g = real(family, s)
            largest.append(np.max(np.abs(g)))
            g[g.size // 2 :] *= 1.0 + 1e-8
            return g

        monkeypatch.setattr(oracle_module, "cgf", spoiled)
        dev = fluctuation_symmetry_check(spin_boson, [-0.4, -0.1, 0.2, 0.6])
        assert 0.0 < largest[0] < 1e-2
        assert 1e-10 < dev <= 1e-8 * (1.0 + 1e-12)

    def test_zero_when_every_g_is_zero(self):
        # nothing counted: G(s) = 0 at every s, and at no s at all
        sd = OhmicSpectralDensity()
        m = QarModel(
            SystemSpec((0.0, 0.3)),
            (BathSpec("C", 1.0, {(0, 1): 0.0}, sd), BathSpec("H", 0.5, {(0, 1): 1e-3}, sd)),
            0,
        )
        assert fluctuation_symmetry_check(m, [0.1, 0.3]) == 0.0
        assert fluctuation_symmetry_check(make_spin_boson(), []) == 0.0


class TestRandomModelGenerator:
    @pytest.mark.parametrize(
        "pinned",
        [{"n_levels": 2.7}, {"n_levels": True}, {"n_baths": 2.5}, {"n_baths": np.float64(3.0)}],
        ids=repr,
    )
    def test_non_integer_counts_refused_before_any_draw(self, pinned):
        # 2.7 levels built 2, 2.5 baths built 2, and True levels read as 1
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"^pinned counts must be integers, got "):
            random_connected_model(rng, **pinned)
        assert rng.bit_generator.state == state

    def test_numpy_integer_counts_accepted(self):
        rng = np.random.default_rng(3)
        m = random_connected_model(rng, n_levels=np.int64(4), n_baths=np.int8(2))
        assert (m.n_levels, m.n_baths) == (4, 2)

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

    @pytest.mark.parametrize("n_baths", [0, 5])
    def test_bath_count_outside_one_to_four_refused(self, n_baths):
        # a fifth inverse temperature may find no room 0.3 away from four
        # others, so the draw could spin forever; the refusal draws nothing
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="1 to 4 baths"):
            random_connected_model(rng, n_baths=n_baths)
        assert rng.bit_generator.state == state


class TestInvariantTable:
    def _model_for(self, name):
        rng = np.random.default_rng(3)
        if name == "fluctuation-symmetry":
            return random_connected_model(rng, n_baths=2)
        if name in ("ideal-cycle-term", "cop-bound"):
            return preset("A", 0.3, 0.6)
        return random_connected_model(rng)

    def test_sign_row_reads_the_direct_cold_current(self, monkeypatch):
        m = preset("A", 0.3, 0.9)  # cools
        assert oracle_module.sign_agreement(m) == {"violations": 0}
        monkeypatch.setattr(oracle_module, "_solved", lambda model: (-1e-3, 6e-4, 4e-4))
        assert oracle_module.sign_agreement(m) == {"violations": 1}
        # a cold current within 1e-10 of the largest decides no sign
        monkeypatch.setattr(oracle_module, "_solved", lambda model: (-1e-14, 1e-3, -1e-3))
        assert oracle_module.sign_agreement(m) == {"violations": 0}

    def test_rows_in_check_order(self):
        assert [row[0] for row in oracle_module.INVARIANTS] == [
            "detailed-balance", "eigen-structure", "oracle-equivalence", "conservation",
            "sign-equivalence", "fluctuation-symmetry", "ideal-cycle-term", "cop-bound",
        ]

    @pytest.mark.parametrize("row", oracle_module.INVARIANTS, ids=lambda row: row[0])
    def test_limits_and_detail_read_what_the_measure_returns(self, row):
        name, measure, tol, limits, detail = row
        values = measure(self._model_for(name))
        assert all(type(v) in (float, int) for v in values.values())
        assert {key for key, _, _ in limits} <= set(values)
        assert all(fold in oracle_module.FOLDS for _, fold, _ in limits)
        # a None bound reads the row's tolerance, which a row without one cannot
        assert tol is not None or all(bound is not None for _, _, bound in limits)
        detail.format(**values)

    def test_ideal_rows_refuse_a_leaky_machine(self):
        for measure in (oracle_module.ideal_cycle, oracle_module.cop_accuracy):
            with pytest.raises(TopologyError, match=r"couples \[\(1, 2\), \(1, 3\)\]"):
                measure(preset("C", 0.3, 0.6))

    def test_exchange_symmetry_refuses_other_bath_counts(self):
        for n_baths in (1, 3):
            model = random_connected_model(np.random.default_rng(4), n_baths=n_baths)
            with pytest.raises(TopologyError, match="exactly 2 baths"):
                oracle_module.exchange_symmetry(model)
