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
from qarfcs.fcs import (
    CharPoly,
    _constant_coefficient,
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
from qarfcs.oracle import random_connected_model
from tests.conftest import make_spin_boson


def cofactor_adjugate(m):
    """Independent adjugate: transpose of the signed-minor matrix."""
    n = m.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            out[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return out


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
            evaluator=lambda s: np.diag([1.0, 2.0]),
            d1=np.zeros((2, 2)),
            d2=np.zeros((2, 2)),
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
