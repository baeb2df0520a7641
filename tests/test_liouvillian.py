import dataclasses

import numpy as np
import pytest

from qarfcs.liouvillian import bath_generator, build_counting_family, build_generator
from qarfcs.model import preset, rate
from qarfcs.oracle import random_connected_model
from tests.conftest import make_spin_boson


class TestBareGenerator:
    def test_columns_sum_to_zero(self, rng):
        for _ in range(50):
            m = random_connected_model(rng)
            l0 = build_generator(m)
            scale = np.max(np.abs(l0))
            assert np.max(np.abs(l0.sum(axis=0))) <= 1e-14 * scale

    def test_offdiagonals_nonnegative(self, rng):
        for _ in range(20):
            l0 = build_generator(random_connected_model(rng))
            off = l0 - np.diag(np.diag(l0))
            assert np.all(off >= 0.0)

    def test_two_level_two_bath_structure(self, spin_boson):
        # entries assembled by hand from the four rate constants
        k = {
            (f, t, b): rate(spin_boson, f, t, b)
            for f in range(2)
            for t in range(2)
            for b in range(2)
            if f != t
        }
        expected = np.array(
            [
                [-(k[0, 1, 0] + k[0, 1, 1]), k[1, 0, 0] + k[1, 0, 1]],
                [k[0, 1, 0] + k[0, 1, 1], -(k[1, 0, 0] + k[1, 0, 1])],
            ]
        )
        assert np.array_equal(build_generator(spin_boson), expected)

    def test_ideal_three_level_structure(self):
        m = preset("A", 0.5, 0.9)
        kc_u, kc_d = rate(m, 0, 1, 0), rate(m, 1, 0, 0)
        kh_u, kh_d = rate(m, 0, 2, 1), rate(m, 2, 0, 1)
        kw_u, kw_d = rate(m, 1, 2, 2), rate(m, 2, 1, 2)
        expected = np.array(
            [
                [-(kc_u + kh_u), kc_d, kh_d],
                [kc_u, -(kc_d + kw_u), kw_d],
                [kh_u, kw_u, -(kh_d + kw_d)],
            ]
        )
        assert np.allclose(build_generator(m), expected, rtol=0, atol=0)

    def test_additivity_over_baths(self, rng):
        for _ in range(20):
            m = random_connected_model(rng)
            total = sum(bath_generator(m, b) for b in range(m.n_baths))
            assert np.array_equal(build_generator(m), total)


class TestCountingFamily:
    def test_evaluator_at_zero_is_base(self):
        m = preset("B", 0.4, 0.8)
        fam = build_counting_family(m, 0)
        assert np.array_equal(fam.evaluator(0.0), fam.base)
        assert np.array_equal(fam.base, build_generator(m))

    def test_spin_boson_dressed_entry(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        kc_d = rate(spin_boson, 1, 0, 0)
        kh_d = rate(spin_boson, 1, 0, 1)
        s = 0.3
        expected_01 = kc_d * np.exp(-s * 1.0) + kh_d
        assert fam.evaluator(s)[0, 1] == pytest.approx(expected_01, rel=1e-14)

    def test_trace_invariance(self):
        m = preset("B", 0.4, 0.8)
        fam = build_counting_family(m, 0)
        tr0 = np.trace(fam.base)
        for s in np.linspace(-2.0, 2.0, 9):
            assert abs(np.trace(fam.evaluator(s)) - tr0) <= 1e-14 * abs(tr0)

    def test_column_sums_break_for_nonzero_s(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        ls = fam.evaluator(0.5)
        # column 0 carries the dressed cold transition
        assert abs(ls[:, 0].sum()) > 1e-8 * np.max(np.abs(ls))

    def test_d1_sparsity_ideal(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        kc_u, kc_d = rate(m, 0, 1, 0), rate(m, 1, 0, 0)
        expected = np.zeros((3, 3))
        expected[1, 0] = 0.5 * kc_u
        expected[0, 1] = -0.5 * kc_d
        assert np.array_equal(fam.d1, expected)
        assert np.count_nonzero(fam.d1) == 2

    def test_d2_signs_positive(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        assert np.all(fam.d2 >= 0.0)
        assert fam.d2[1, 0] == pytest.approx(0.25 * rate(m, 0, 1, 0), rel=1e-14)
        assert fam.d2[0, 1] == pytest.approx(0.25 * rate(m, 1, 0, 0), rel=1e-14)

    def test_spin_boson_d1(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        assert fam.d1[1, 0] == pytest.approx(rate(spin_boson, 0, 1, 0), rel=1e-14)
        assert fam.d1[0, 1] == pytest.approx(-rate(spin_boson, 1, 0, 0), rel=1e-14)

    def test_d1_d2_match_finite_differences(self, rng):
        # the second difference divides by h^2 = 1e-10, which no machine
        # precision survives, so the step oracle runs in mpmath
        from mpmath import mp, mpf

        mp.dps = 40
        h = mpf(1) / 10**5
        for _ in range(20):
            m = random_connected_model(rng)
            for bath in range(m.n_baths):
                fam = build_counting_family(m, bath)
                n = fam.n
                d1_fd = np.zeros((n, n))
                d2_fd = np.zeros((n, n))
                for row, col, kk, de in fam.dressed:
                    up = mpf(float(kk)) * mp.expm1(h * mpf(float(de)))
                    dn = mpf(float(kk)) * mp.expm1(-h * mpf(float(de)))
                    d1_fd[row, col] += float((up - dn) / (2 * h))
                    d2_fd[row, col] += float((up + dn) / h**2)
                scale1 = max(np.max(np.abs(fam.d1)), 1e-300)
                scale2 = max(np.max(np.abs(fam.d2)), 1e-300)
                assert np.max(np.abs(d1_fd - fam.d1)) <= 1e-8 * scale1
                assert np.max(np.abs(d2_fd - fam.d2)) <= 1e-8 * scale2

    def test_extended_evaluator_matches_double(self):
        m = preset("C", 0.3, 0.7)
        fam = build_counting_family(m, 0)
        for s in (-0.7, 0.2, 1.1):
            a = fam.evaluator(s)
            b = np.asarray(fam.evaluate_extended(s), dtype=float)
            assert np.allclose(a, b, rtol=1e-15, atol=0)

    def test_extended_evaluator_stack_is_bitwise_per_s(self):
        m = preset("C", 0.3, 0.7)
        fam = build_counting_family(m, 0)
        hand = dataclasses.replace(fam, dressed=())
        grid = np.array([-0.7, 0.0, 0.2, 1.1])
        for f in (fam, hand):
            stack = f.evaluate_extended(grid)
            assert stack.shape == (grid.size, m.n_levels, m.n_levels)
            assert stack.dtype == np.longdouble
            for sk, mat in zip(grid.tolist(), stack):
                assert np.array_equal(mat, f.evaluate_extended(sk))
        assert np.array_equal(fam.evaluate_extended(0.0), fam.base)

    def test_uncoupled_counted_bath_gives_zero_d1(self):
        m = make_spin_boson()
        from qarfcs.model import BathSpec, OhmicSpectralDensity, QarModel, SystemSpec

        sd = OhmicSpectralDensity()
        m3 = QarModel(
            system=m.system,
            baths=m.baths + (BathSpec("X", 0.7, {}, sd),),
            cold_index=0,
        )
        fam = build_counting_family(m3, 2)
        assert np.count_nonzero(fam.d1) == 0
        assert np.count_nonzero(fam.d2) == 0
