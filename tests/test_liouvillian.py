import dataclasses
import math

import numpy as np
import pytest

from qarfcs import model as model_module
from qarfcs.errors import ValidationError
from qarfcs.fcs import _trace_product, adjugate_derivative, charpoly, heat_current
from qarfcs.liouvillian import (
    _counted_transitions,
    build_counting_family,
    build_generator,
    generator_from_tables,
)
from qarfcs.model import preset, rate, rate_table
from qarfcs.oracle import random_connected_model
from tests.conftest import make_spin_boson


def derivative_entries(family, order):
    """{(row, col): d^order L/ds^order at s = 0} over the family's transitions, zeros dropped."""
    d = {(row, col): de * k if order == 1 else de * de * k for row, col, k, de in family.dressed}
    return {key: x for key, x in d.items() if x}


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
        models = [random_connected_model(rng) for _ in range(20)]
        models += [preset(pid, e21, bh) for pid in "ABCD" for e21, bh in ((0.3, 0.9), (0.5, 0.5))]
        for m in models:
            total = sum(generator_from_tables(rate_table(m, b)[None]) for b in range(m.n_baths))
            # bitwise, signed zeros included
            assert build_generator(m).tobytes() == total.tobytes()


class TestGeneratorFromTables:
    @staticmethod
    def _tables(rng, shape):
        # positive rates with an empty diagonal and some absent couplings
        k = rng.lognormal(sigma=3.0, size=shape)
        k[rng.random(shape) < 0.3] = 0.0
        n = shape[-1]
        k[..., range(n), range(n)] = 0.0
        return k

    def test_stack_is_bitwise_per_set(self, rng):
        for n in (2, 3, 4, 5):
            for n_baths in (1, 2, 4):
                stack = self._tables(rng, (2, 3, n_baths, n, n))
                got = generator_from_tables(stack)
                assert got.shape == (2, 3, n, n)
                for idx in np.ndindex(2, 3):
                    assert got[idx].tobytes() == generator_from_tables(stack[idx]).tobytes()

    def test_list_and_array_agree(self, rng):
        models = [random_connected_model(rng) for _ in range(20)]
        models += [preset(pid, 0.3, 0.9) for pid in "ABCD"]
        for m in models:
            tables = [rate_table(m, b) for b in range(m.n_baths)]
            listed = generator_from_tables(tables)
            assert listed.tobytes() == generator_from_tables(np.array(tables)).tobytes()
            assert listed.tobytes() == build_generator(m).tobytes()

    def test_one_bath_is_its_generator(self, rng):
        models = [random_connected_model(rng) for _ in range(20)]
        models += [preset(pid, e21, bh) for pid in "ABCD" for e21, bh in ((0.3, 0.9), (0.5, 0.5))]
        for m in models:
            for b in range(m.n_baths):
                k = rate_table(m, b)
                reference = k.T - np.diag(k.sum(axis=1))
                got = generator_from_tables([k])
                assert got.tobytes() == reference.tobytes()
                assert got.tobytes() == generator_from_tables(k[None]).tobytes()


class TestCountingFamily:
    def test_evaluator_at_zero_is_base(self):
        m = preset("B", 0.4, 0.8)
        fam = build_counting_family(m, 0)
        stack, _ = fam.dressed_stack(np.zeros(1))
        assert stack.shape == (1, 3, 3)
        assert np.array_equal(stack[0].astype(float), fam.base)
        assert np.array_equal(fam.base, build_generator(m))

    def test_spin_boson_dressed_entry(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        kc_d = rate(spin_boson, 1, 0, 0)
        kh_d = rate(spin_boson, 1, 0, 1)
        s = 0.3
        expected_01 = kc_d * np.exp(-s * 1.0) + kh_d
        l_s = fam.dressed_stack(np.array([s]))[0][0].astype(float)
        assert l_s[0, 1] == pytest.approx(expected_01, rel=1e-14)

    def test_trace_invariance(self):
        m = preset("B", 0.4, 0.8)
        fam = build_counting_family(m, 0)
        tr0 = np.trace(fam.base)
        for l_s in fam.dressed_stack(np.linspace(-2.0, 2.0, 9))[0].astype(float):
            assert abs(np.trace(l_s) - tr0) <= 1e-14 * abs(tr0)

    def test_column_sums_break_for_nonzero_s(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        ls = fam.dressed_stack(np.array([0.5]))[0][0].astype(float)
        # column 0 carries the dressed cold transition
        assert abs(ls[:, 0].sum()) > 1e-8 * np.max(np.abs(ls))

    def test_d1_sparsity_ideal(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        kc_u, kc_d = rate(m, 0, 1, 0), rate(m, 1, 0, 0)
        assert derivative_entries(fam, 1) == {(1, 0): 0.5 * kc_u, (0, 1): -0.5 * kc_d}

    def test_d2_signs_positive(self):
        m = preset("A", 0.5, 0.9)
        fam = build_counting_family(m, 0)
        d2 = derivative_entries(fam, 2)
        assert sorted(d2) == [(0, 1), (1, 0)] and all(x > 0.0 for x in d2.values())
        assert d2[1, 0] == pytest.approx(0.25 * rate(m, 0, 1, 0), rel=1e-14)
        assert d2[0, 1] == pytest.approx(0.25 * rate(m, 1, 0, 0), rel=1e-14)

    def test_spin_boson_d1(self, spin_boson):
        fam = build_counting_family(spin_boson, 0)
        d1 = derivative_entries(fam, 1)
        assert sorted(d1) == [(0, 1), (1, 0)]
        assert d1[1, 0] == pytest.approx(rate(spin_boson, 0, 1, 0), rel=1e-14)
        assert d1[0, 1] == pytest.approx(-rate(spin_boson, 1, 0, 0), rel=1e-14)

    def test_d1_d2_match_finite_differences(self, rng):
        # the traces over the transitions against traces of central differences of the
        # dressed_stack corrections, which carry no rounding of the base generator
        h = 1e-4
        for _ in range(20):
            m = random_connected_model(rng)
            for bath in range(m.n_baths):
                fam = build_counting_family(m, bath)
                _, (up, zero, dn) = fam.dressed_stack(np.array([h, 0.0, -h]))
                diffs = {1: (up - dn) / (2 * h), 2: (up - 2 * zero + dn) / (h * h)}
                adj = charpoly(fam.base).adjugate
                for a in (adj, adjugate_derivative(fam)):
                    for order, fd in diffs.items():
                        terms = [a[col, row] * float(x)
                                 for (row, col, _, _), x in zip(fam.dressed, fd)]
                        gross = max(math.fsum(map(abs, terms)), 1e-300)
                        got = _trace_product(a, fam.dressed, order)
                        assert abs(got - math.fsum(terms)) <= 1e-8 * gross

    def test_extended_evaluator_matches_double(self):
        m = preset("C", 0.3, 0.7)
        fam = build_counting_family(m, 0)
        for s in (-0.7, 0.2, 1.1):
            ref = fam.base.copy()
            for row, col, kk, de in fam.dressed:
                ref[row, col] += kk * math.expm1(s * de)
            got = fam.dressed_stack(np.array([s]))[0][0].astype(float)
            assert np.allclose(got, ref, rtol=1e-15, atol=0)

    def test_extended_evaluator_stack_is_bitwise_per_s(self):
        m = preset("C", 0.3, 0.7)
        fam = build_counting_family(m, 0)
        hand = dataclasses.replace(fam, dressed=())
        grid = np.array([-0.7, 0.0, 0.2, 1.1])
        for f in (fam, hand):
            stack, corrections = f.dressed_stack(grid)
            assert stack.shape == (grid.size, m.n_levels, m.n_levels)
            assert stack.dtype == np.longdouble
            for k, sk in enumerate(grid.tolist()):
                one, one_corr = f.dressed_stack(np.array([sk]))
                assert np.array_equal(one[0], stack[k])
                assert np.array_equal(one_corr[0], corrections[k])
        # bit for bit, not just equal: the size-1 stack at s = 0 is the base
        zero = fam.dressed_stack(np.zeros(1))[0][0]
        assert zero.astype(float).tobytes() == fam.base.tobytes()

    def test_extended_evaluator_skips_column_sums(self):
        # the stack comes with its corrections, one per dressed entry; only
        # cgf sums them by column, for a_N(s) and its Newton start
        fam = build_counting_family(preset("B", 0.3, 0.7), 1)
        grid = np.array([-0.7, 0.0, 0.2, 1.1])
        stack, corrections = fam.dressed_stack(grid)
        assert corrections.shape == (4, len(fam.dressed)) == (4, 6)
        assert corrections.dtype == np.longdouble
        summed = np.repeat(fam.base.astype(np.longdouble)[None], grid.size, axis=0)
        for m, (row, col, _, _) in enumerate(fam.dressed):
            summed[:, row, col] += corrections[:, m]
        assert np.array_equal(summed, stack)

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
        assert fam.dressed == ()
        assert derivative_entries(fam, 1) == derivative_entries(fam, 2) == {}


class TestOneAssembly:
    """``build_counting_family`` is the size-1 case of the stack behind every s = 0 current."""

    @staticmethod
    def _models():
        models = [preset(pid, 0.3, 0.9) for pid in "ABCD"]
        rng = np.random.default_rng(3737)
        for n in range(2, 6):
            for nb in range(2, 5):
                for topology in ("tree", "any"):
                    models += [
                        random_connected_model(rng, n_levels=n, n_baths=nb, topology=topology)
                        for _ in range(9)
                    ]
        return models

    def test_family_is_bitwise_the_per_bath_assembly(self):
        # the assembly the family had of its own: L(0) from build_generator and the counted
        # transitions from the counted bath's rate table
        def bits(transitions):
            return [(type(r), r, type(c), c, k.hex(), de.hex()) for r, c, k, de in transitions]

        models = self._models()
        assert len(models) >= 204
        for m in models:
            energies = m.system.energies
            l0 = build_generator(m)
            for bath in range(m.n_baths):
                fam = build_counting_family(m, bath)
                assert fam.base.dtype == l0.dtype and fam.base.shape == l0.shape
                assert fam.base.tobytes() == l0.tobytes()
                expected = tuple(_counted_transitions(rate_table(m, bath).tolist(), energies))
                assert bits(fam.dressed) == bits(expected)
                assert fam.energies == tuple(energies)
                assert fam.betas == tuple(b.beta for b in m.baths)

    @pytest.mark.parametrize("bath", [3, -1, 1.0, True])
    def test_bad_bath_is_refused_before_any_rate(self, monkeypatch, bath):
        calls = []
        monkeypatch.setattr(model_module, "rate", lambda *args: calls.append(args))
        m = preset("A", 0.3, 0.9)
        with pytest.raises(ValidationError, match="counted bath index"):
            build_counting_family(m, bath)
        with pytest.raises(ValidationError, match="counted bath index"):
            heat_current(m, bath)
        assert calls == []

    @pytest.mark.parametrize("counted", [0, 1, 2])
    def test_failing_rate_raises_in_bath_order(self, monkeypatch, counted):
        # bath H's first rate fails: bath C's table is complete, and the failure itself comes
        # back, whichever bath is counted
        failure, calls = RuntimeError("rate failed"), []

        def failing(m, frm, to, bath):
            calls.append(bath)
            if bath == 1:
                raise failure
            return rate(m, frm, to, bath)

        monkeypatch.setattr(model_module, "rate", failing)
        m = preset("B", 0.3, 0.9)
        for build in (build_counting_family, heat_current):
            calls.clear()
            with pytest.raises(RuntimeError) as info:
                build(m, counted)
            assert info.value is failure
            assert calls == [0] * 6 + [1]

    def test_overflowing_rate_is_the_first_bath_s_refusal(self):
        # bath C (beta_C * E21 = 900) and bath H (beta_H * E31 = 2000) both leave double range
        m = preset("A", 0.3, 2000.0, beta_c=3000.0)
        for bath in range(3):
            with pytest.raises(ValidationError, match=r"overflows at beta \* omega = 900$"):
                build_counting_family(m, bath)
