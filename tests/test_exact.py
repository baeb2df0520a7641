"""The fast path against the exact rational references of ``tests.exact``."""

import functools
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from qarfcs.analytic import decompose, sb_current
from qarfcs.errors import ContinuationError, NoiseNotApplicableError
from qarfcs.fcs import (
    _target_polynomials,
    adjugate_derivative,
    cgf,
    charpoly,
    heat_current,
    noise,
    numeric_cumulants,
)
from qarfcs.liouvillian import build_counting_family
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    preset,
    spectral_value,
)
from qarfcs.oracle import random_connected_model
from tests.conftest import make_spin_boson
from tests.exact import (
    exact_cumulants,
    exact_current,
    exact_family,
    exact_matrix,
    exact_parts,
    faddeev_leverrier,
    perron_bracket,
)

# unit roundoff of a double, and the multiple of it that bounds the error of
# heat_current (times the gross flux at the counted bath), of noise (times the
# larger of |S| and the gross flux times the level energy span), of decompose
# (its parts and total times its magnitude, its normalization relative), of
# charpoly and adjugate_derivative (each output times the same recursion's sum
# of magnitudes) and of cgf (times the largest |entry| of L(s))
U = Fraction(2) ** -53
C = 8
# the finite-difference floor of numeric_cumulants' S, relative
NUMERIC_S_RTOL = Fraction(1, 10**8)
# the bound on cgf far from s = 0 on cold families, relative to |G|
COLD_CGF_RTOL = Fraction(1, 10**7)


def _pairs():
    """(model, bath): A-D on a 7x7 (E21, beta_H) grid, then 60 random models of N = 2..5."""
    for pid in "ABCD":
        for e21 in np.linspace(0.05, 0.95, 7).tolist():
            for beta_h in np.linspace(0.15, 0.95, 7).tolist():
                model = preset(pid, e21, beta_h)
                yield from ((model, b) for b in range(model.n_baths))
    rng = np.random.default_rng(20261019)
    for k in range(60):
        model = random_connected_model(rng, n_levels=2 + k % 4)
        yield from ((model, b) for b in range(model.n_baths))


def test_heat_current_within_c_u_of_the_gross_flux():
    t0 = time.perf_counter()
    worst, count, sizes = Fraction(0), 0, set()
    for model, bath in _pairs():
        j, gross = exact_current(model, bath)
        worst = max(worst, abs(Fraction(heat_current(model, bath)) - j) / (U * gross))
        count += 1
        sizes.add(model.n_levels)
    elapsed = time.perf_counter() - t0
    assert count >= 500 and sizes == {2, 3, 4, 5}
    print(
        f"heat_current vs exact J: worst {float(worst):.2f} u of the gross flux over "
        f"{count} (model, bath) pairs ({elapsed:.2f}s)"
    )
    assert worst <= C


def test_exact_currents_conserve_energy_exactly():
    # L(0) p = 0 holds exactly, so the bath currents cancel with no residual
    rng = np.random.default_rng(7)
    for model in [preset("B", 0.3, 0.9)] + [random_connected_model(rng) for _ in range(20)]:
        assert sum(exact_current(model, b)[0] for b in range(model.n_baths)) == 0


def test_exact_current_matches_the_spin_boson_closed_form():
    model = make_spin_boson()
    gam = [spectral_value(b.spectral, b.couplings[(0, 1)], 1.0) for b in model.baths]
    j, gross = exact_current(model, 0)
    ref = sb_current(1.0, gam[0], gam[1], 1.0, 0.5)
    assert abs(float(j) - ref) <= 1e-14 * abs(ref)
    assert gross >= abs(j) > 0


def _three_level_models():
    """A-D on the 7x7 grid of ``_pairs``, then 300 random 3-level, 3-bath models of any graph."""
    for pid in "ABCD":
        for e21 in np.linspace(0.05, 0.95, 7).tolist():
            for beta_h in np.linspace(0.15, 0.95, 7).tolist():
                yield preset(pid, e21, beta_h)
    rng = np.random.default_rng(20261020)
    for _ in range(300):
        yield random_connected_model(rng, n_levels=3, n_baths=3, topology="any")


def test_decompose_within_c_u_of_its_magnitude():
    t0 = time.perf_counter()
    worst_part = worst_total = worst_norm = Fraction(0)
    count = 0
    for model in _three_level_models():
        dec = decompose(model)
        cycles, leaks, total, norm = exact_parts(model)
        assert dec.cycles.keys() == cycles.keys() and dec.leaks.keys() == leaks.keys()
        scale = U * Fraction(dec.magnitude)
        for got, want in [(dec.cycles, cycles), (dec.leaks, leaks)]:
            errors = (abs(Fraction(got[key]) - v) / scale for key, v in want.items())
            worst_part = max(worst_part, *errors)
        worst_total = max(worst_total, abs(Fraction(dec.total) - total) / scale)
        worst_norm = max(worst_norm, abs(Fraction(dec.normalization) - norm) / (U * norm))
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 4 * 49 + 300
    print(
        f"decompose vs exact parts: worst part {float(worst_part):.2f} u and total "
        f"{float(worst_total):.2f} u of the magnitude, normalization {float(worst_norm):.2f} u "
        f"relative, over {count} models ({elapsed:.2f}s)"
    )
    assert max(worst_part, worst_total, worst_norm) <= C


def test_decompose_any_bath_count_within_c_u_of_its_magnitude():
    # 1, 2 and 4 baths: the filing rule of the three-bath models, with no branch of its own
    t0 = time.perf_counter()
    worst, counts = Fraction(0), {}
    rng = np.random.default_rng(20261022)
    for k in range(180):
        model = random_connected_model(rng, n_levels=3, n_baths=(1, 2, 4)[k % 3], topology="any")
        dec = decompose(model)
        cycles, leaks, total, _ = exact_parts(model)
        assert dec.cycles.keys() == cycles.keys() and dec.leaks.keys() == leaks.keys()
        scale = U * Fraction(dec.magnitude)
        errors = [abs(Fraction(dec.total) - total) / scale]
        for got, want in [(dec.cycles, cycles), (dec.leaks, leaks)]:
            errors += [abs(Fraction(got[key]) - v) / scale for key, v in want.items()]
        worst = max(worst, *errors)
        counts[model.n_baths] = counts.get(model.n_baths, 0) + 1
    elapsed = time.perf_counter() - t0
    assert counts == {1: 60, 2: 60, 4: 60}
    print(
        f"decompose vs exact parts at 1, 2 and 4 baths: worst {float(worst):.2f} u of the "
        f"magnitude (parts and total) over {sum(counts.values())} models ({elapsed:.2f}s)"
    )
    assert worst <= C


def test_exact_parts_agree_with_the_exact_current():
    # total is a_(N-1)(0) J_C, from a solve that shares nothing with the tree sums; the
    # parts miss only the pure-cold triangles, which vanish up to the rounding of the rates
    rng = np.random.default_rng(3)
    models = [preset(pid, 0.3, 0.9) for pid in "ABCD"]
    models += [
        random_connected_model(rng, n_levels=3, n_baths=3, topology="any") for _ in range(20)
    ]
    for model in models:
        cycles, leaks, total, norm = exact_parts(model)
        assert total == exact_current(model, model.cold_index)[0] * norm
        parts = sum([*cycles.values(), *leaks.values()], Fraction(0))
        assert abs(parts - total) <= C * U * Fraction(decompose(model).magnitude)


def _abs(m):
    return [[abs(x) for x in row] for row in m]


def test_charpoly_and_adjugate_derivative_within_c_u_of_the_exact_recursion():
    # each output against the exact recursion on the same double L(0) and d1, scaled
    # entrywise by the recursion on |L(0)| and |d1|: where that sum is 0, so is the output
    t0 = time.perf_counter()
    worst = dict.fromkeys(("coefficients", "adjugate", "adjugate derivative"), Fraction(0))
    count, sizes = 0, set()
    for model, bath in _pairs():
        family = build_counting_family(model, bath)
        n = family.base.shape[0]
        d1 = np.zeros(family.base.shape)  # dL/ds at s = 0: the double dE * k per transition
        for row, col, k, de in family.dressed:
            d1[row, col] += de * k
        m, dm = exact_matrix(family.base), exact_matrix(d1)
        coeffs, adj, dadj = faddeev_leverrier(m, dm)
        scale_coeffs, scale_adj, scale_dadj = faddeev_leverrier(_abs(m), _abs(dm), sign=1)
        cp = charpoly(family.base)
        sign = (-1) ** (n - 1)
        checks = [
            ("coefficients", [cp.coefficient(j) for j in range(1, n + 1)], coeffs[1:],
             scale_coeffs[1:]),
            ("adjugate", cp.adjugate.ravel().tolist(), [sign * x for r in adj for x in r],
             [x for r in scale_adj for x in r]),
            ("adjugate derivative", adjugate_derivative(family).ravel().tolist(),
             [sign * x for r in dadj for x in r], [x for r in scale_dadj for x in r]),
        ]
        for name, got, want, scale in checks:
            for g, w, sc in zip(got, want, scale):
                err = abs(Fraction(g) - w)
                if err:
                    assert sc, (name, model, bath)
                    worst[name] = max(worst[name], err / (U * sc))
        count += 1
        sizes.add(n)
    elapsed = time.perf_counter() - t0
    assert count >= 500 and sizes == {2, 3, 4, 5}
    print(
        "charpoly and adjugate_derivative vs the exact recursion: worst "
        + ", ".join(f"{name} {float(w):.2f} u" for name, w in worst.items())
        + f" of the recursion on |L(0)|, |d1| over {count} (model, bath) pairs ({elapsed:.2f}s)"
    )
    assert max(worst.values()) <= C


def test_second_cumulant_from_the_recursion_is_the_exact_noise():
    # second order of P(G(s), s) = 0 at s = 0, with a'_(N-1) = (-1)^(N-1) tr(d adj):
    # S = [(-1)^(N+1) (tr(d adj d1) + tr(adj d2)) - 2 a'_(N-1) J - 2 a_(N-2) J^2] / a_(N-1)
    # (_pairs holds presets A-D, where noise answers only on A). adj = (-1)^(N-1) B_(N-1)
    # and d adj = (-1)^(N-1) dB_(N-1), so every sign (-1)^(N+1) cancels against theirs
    t0 = time.perf_counter()
    count = 0
    for model, bath, j, _, s, _ in _exact_noise_pairs():
        gen, d1, d2 = exact_family(model, bath)
        coeffs, b, db = faddeev_leverrier(gen, d1)
        n = len(gen)
        tr = [sum(x[i][r] * y[r][i] for i in range(n) for r in range(n))
              for x, y in ((b, d1), (db, d1), (b, d2))]
        assert tr[0] == coeffs[n - 1] * j
        da_pen = sum(db[i][i] for i in range(n))
        assert (tr[1] + tr[2] - 2 * da_pen * j - 2 * coeffs[n - 2] * j * j) / coeffs[n - 1] == s
        count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 300
    print(f"second-order S equals the exact S on all {count} (model, bath) pairs ({elapsed:.2f}s)")


def _leaf_model():
    """The cold bath alone drives the leaf pair (1, 2): its heat never accumulates, so S = 0."""
    sd = OhmicSpectralDensity(omega_c=10.0)
    return QarModel(
        system=SystemSpec((0.0, 0.3, 1.0)),
        baths=(
            BathSpec("C", 1.5, {(0, 1): 0.004}, sd),
            BathSpec("H", 0.4, {(1, 2): 0.002}, sd),
            BathSpec("W", 0.9, {(1, 2): 0.003}, sd),
        ),
        cold_index=0,
    )


@functools.cache
def _exact_noise_pairs():
    """(model, bath, J, gross, S, energy span) over ``_pairs`` and the counted leaf pair."""
    return [
        (m, b, *exact_cumulants(m, b), Fraction(m.system.energies[-1] - m.system.energies[0]))
        for m, b in [*_pairs(), (_leaf_model(), 0)]
    ]


def test_exact_noise_vanishes_on_a_counted_leaf_pair():
    j, gross, s = exact_cumulants(_leaf_model(), 0)
    assert j == 0 and s == 0 and gross > 0


def test_noise_within_c_u_of_the_exact_noise():
    t0 = time.perf_counter()
    worst = worst_rel = Fraction(0)
    count = 0
    for model, bath, _, gross, s, span in _exact_noise_pairs():
        try:
            got = Fraction(noise(model, bath))
        except NoiseNotApplicableError:
            continue
        # relative to |S| alone the error is not bounded: where the diffusive
        # 1^T d2 p and the correlation term cancel most, S is a few % of each
        worst = max(worst, abs(got - s) / (U * max(abs(s), gross * span)))
        if s:
            worst_rel = max(worst_rel, abs(got - s) / (U * abs(s)))
        count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 250
    print(
        f"noise vs exact S: worst {float(worst):.2f} u of max(|S|, gross * span), "
        f"{float(worst_rel):.2f} u relative, over {count} (model, bath) pairs ({elapsed:.2f}s)"
    )
    assert worst <= C


def test_numeric_cumulants_s_within_its_finite_difference_floor():
    t0 = time.perf_counter()
    worst, count, sizes = Fraction(0), 0, set()
    for model, bath, _, gross, s, span in _exact_noise_pairs():
        got = Fraction(numeric_cumulants(build_counting_family(model, bath))[1])
        # absolute against the gross flux times the span where S is exactly 0
        worst = max(worst, abs(got - s) / (abs(s) or gross * span))
        count += 1
        sizes.add(model.n_levels)
    elapsed = time.perf_counter() - t0
    assert count >= 500 and sizes == {2, 3, 4, 5}
    print(
        f"numeric_cumulants S vs exact S: worst {float(worst):.3g} relative over "
        f"{count} (model, bath) pairs ({elapsed:.2f}s)"
    )
    assert worst <= NUMERIC_S_RTOL


def _cgf_families():
    """(family, s targets): A-D at three points and 32 random models of N = 2..5, each at
    +-window, +-window / 2, +-window / 10 and +-1e-4."""
    models = [
        (preset(pid, e21, beta_h), 0)
        for pid in "ABCD"
        for e21, beta_h in ((0.3, 0.9), (0.5, 0.5), (0.7, 0.2))
    ]
    rng = np.random.default_rng(20261021)
    for k in range(32):
        model = random_connected_model(rng, n_levels=2 + k % 4, topology=("tree", "any")[k % 2])
        models.append((model, k % model.n_baths))
    for model, bath in models:
        family = build_counting_family(model, bath)
        window = 4.0 * max(family.betas)
        scaled = [window * f for f in (1.0, 0.5, 0.1)] + [1e-4]
        yield family, np.array(scaled + [-x for x in scaled])


def test_cgf_is_the_perron_root_within_c_u():
    # the smallest multiple c <= C of u * max|L(s)| whose bracket holds, per (family, s)
    ladder = [C * Fraction(2) ** -e for e in range(6, -1, -1)]
    t0 = time.perf_counter()
    worst, count = Fraction(0), 0
    for family, s in _cgf_families():
        stack = family.dressed_stack(s)[0]
        for g, l_s in zip(cgf(family, s).tolist(), stack):
            m = exact_matrix(l_s)
            coeffs = faddeev_leverrier(m)[0]
            scale = U * max(abs(x) for row in m for x in row)
            c = next((c for c in ladder if perron_bracket(coeffs, Fraction(g), c * scale)), None)
            assert c is not None, (family, g)
            worst = max(worst, c)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count >= 300
    print(
        f"cgf vs the exact Perron root: every value within {float(worst):g} u * max|L(s)| "
        f"over {count} (family, s) pairs ({elapsed:.2f}s)"
    )


def _near_families():
    """A-D at three points counted at every bath, then 200 random models of N = 2..5."""
    for pid in "ABCD":
        for e21, beta_h in ((0.3, 0.9), (0.5, 0.5), (0.7, 0.2)):
            model = preset(pid, e21, beta_h)
            yield from (build_counting_family(model, b) for b in range(model.n_baths))
    rng = np.random.default_rng(20261028)
    for k in range(200):
        model = random_connected_model(rng, n_levels=2 + k % 4, topology=("tree", "any")[k % 2])
        yield build_counting_family(model, k % model.n_baths)


def test_near_a_n_within_c_u_of_the_exact_row_replaced_determinant():
    # near s = 0 a_N is (-1)^N det of L(s) with its last row replaced by the column sums
    # of the corrections, taken as a cofactor expansion along that row. Against the exact
    # det of that long-double matrix, scaled by u * sum_j |colsum_j adj_(j, N-1)|: the
    # rounding of the expansion's terms and of the adjugate they use
    reach = np.array([1e-8, 1e-4, 0.01, 0.5, 2.0, 4.0])
    t0 = time.perf_counter()
    worst, count = Fraction(0), 0
    for family in _near_families():
        s = np.concatenate([reach, -reach]) / max(abs(de) for *_, de in family.dressed)
        a_n = _target_polynomials(family, s)[0][:, -1].tolist()
        stack, corrections = family.dressed_stack(s)
        cols = [col for _, col, _, _ in family.dressed]
        for got, l_s, corr in zip(a_n, stack, corrections):
            col_sums = np.zeros(family.base.shape[0], dtype=corr.dtype)
            np.add.at(col_sums, cols, corr)
            m = exact_matrix([*l_s[:-1], col_sums])
            coeffs, adj, _ = faddeev_leverrier(m)
            scale = sum(abs(x * row[-1]) for x, row in zip(m[-1], adj))
            err = abs(Fraction(got) - coeffs[-1])
            assert scale or not err
            if err:
                worst = max(worst, err / (U * scale))
            count += 1
    elapsed = time.perf_counter() - t0
    assert count == 12 * (4 * 3 * 3 + 200)
    print(
        f"near-target a_N vs the exact row-replaced determinant: worst {float(worst):.2f} u "
        f"of sum_j |colsum_j adj_(j, N-1)| over {count} (family, s) pairs ({elapsed:.2f}s)"
    )
    assert worst <= C


def _ladder(n, hot_pair, beta_c):
    """Unit-gap ladder of n levels: C on every rung, H (beta 0.5) on ``hot_pair``,
    W (beta 0.1) on every other rung from (2, 3)."""
    sd = OhmicSpectralDensity()
    rungs = [(i, i + 1) for i in range(n - 1)]
    return QarModel(
        system=SystemSpec(tuple(float(e) for e in range(n))),
        baths=(
            BathSpec("C", beta_c, dict.fromkeys(rungs, 1e-3), sd),
            BathSpec("H", 0.5, {hot_pair: 1e-3}, sd),
            BathSpec("W", 0.1, dict.fromkeys(rungs[1::2], 1e-3), sd),
        ),
        cold_index=0,
    )


def _cold_cgf_families():
    """(family, s targets): unit ladders of N = 3..5 with H on (1, 2) or (1, N), and A-D at
    (0.5, 0.9), each at beta_C = 10, 40, 100 and counted at every bath, at +-window,
    +-window / 2 and +-window / 10."""
    for beta_c in (10.0, 40.0, 100.0):
        models = [_ladder(n, hot, beta_c) for n in (3, 4, 5) for hot in ((0, 1), (0, n - 1))]
        models += [preset(pid, 0.5, 0.9, beta_c=beta_c) for pid in "ABCD"]
        for model in models:
            for bath in range(model.n_baths):
                family = build_counting_family(model, bath)
                window = 4.0 * max(family.betas)
                scaled = [window * f for f in (1.0, 0.5, 0.1)]
                yield family, np.array(scaled + [-x for x in scaled])


def test_cgf_on_cold_families_within_its_bound_or_refused():
    # far from s = 0 the entries of L(s) span many decades; each answered value must lie
    # in a proved bracket of COLD_CGF_RTOL * |G| around the exact Perron root of the same
    # long-double L(s). The bracket's proof is conservative, so the width stated has
    # margin; the smallest width proved is printed
    widths = [COLD_CGF_RTOL * Fraction(2) ** -e for e in range(10, -1, -1)]
    t0 = time.perf_counter()
    worst, answered, refused = Fraction(0), 0, 0
    for family, s in _cold_cgf_families():
        for s_k, l_s in zip(s.tolist(), family.dressed_stack(s)[0]):
            try:
                g = Fraction(cgf(family, s_k))
            except ContinuationError:
                refused += 1
                continue
            coeffs = faddeev_leverrier(exact_matrix(l_s))[0]
            c = next((c for c in widths if perron_bracket(coeffs, g, c * abs(g))), None)
            assert c is not None, (family, s_k, float(g))
            worst = max(worst, c)
            answered += 1
    elapsed = time.perf_counter() - t0
    # 31 refused when this bound was set: 20 out of double range before any solve, 11 by Newton
    assert answered + refused == 540 and refused <= 31
    print(
        f"cgf on cold families: {answered} values within {float(worst):.3g} |G| of the exact "
        f"Perron root, {refused} refused ({elapsed:.2f}s)"
    )


@pytest.mark.parametrize(
    ("bath", "what"),
    [(1, "an entry of L(s) is"), (0, "the coefficients of L(s) are")],
    ids=["entry", "coefficients"],
)
def test_cgf_refuses_a_target_beyond_double_range(bath, what):
    # the 3-level unit ladder with H on (1, 3) at beta_C = 100, s = -400: counted at H
    # (dE = 2) an entry of L(s) grows like exp(800) and overflows a double; counted at C
    # (dE = 1) every entry fits, but a coefficient, a product of two of them, does not
    family = build_counting_family(_ladder(3, (0, 2), 100.0), bath)
    with pytest.raises(ContinuationError, match=rf"^{re.escape(what)} beyond double range at s = -400$"):
        cgf(family, -400.0)


def test_cgf_refuses_out_of_range_targets_before_any_solve():
    # on the 5-level unit ladder with H on (1, 5) at beta_C = 100, counted at W, s = 40
    # stalls Newton and s = 400 has coefficients beyond double range: the range refusal
    # comes first although its target comes second
    family = build_counting_family(_ladder(5, (0, 4), 100.0), 2)
    with pytest.raises(ContinuationError, match=r"^Newton did not converge at s = 40 "):
        cgf(family, 40.0)
    with pytest.raises(
        ContinuationError, match=r"^the coefficients of L\(s\) are beyond double range at s = 400$"
    ):
        cgf(family, np.array([40.0, 400.0]))


def test_cgf_near_s_zero_keeps_the_row_replaced_determinant():
    # a target with |s| max|dE| <= 4 takes the row-replaced a_N also in a call whose other
    # targets take the recursion's: the bits of its lone call, where every target is near
    mixed = 0
    for family, s in _cold_cgf_families():
        near = np.array([1e-4, 0.5, 4.0, -1e-4, -0.5, -4.0]) / max(
            abs(de) for *_, de in family.dressed
        )
        try:
            got = cgf(family, np.concatenate([s, near]))
        except ContinuationError:
            continue
        assert got[s.size:].tolist() == [cgf(family, x) for x in near.tolist()]
        mixed += 1
    assert mixed >= 40
