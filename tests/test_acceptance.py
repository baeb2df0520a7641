"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line with the measured figure of merit
(visible with `pytest -s` or in the captured output); a failed assertion is
the FAIL signal. Seeds are fixed so every run is reproducible.
"""

import time

import numpy as np
import pytest

from qarfcs.analytic import decompose, ideal_cooling, sb_current, sb_noise
from qarfcs.fcs import cgf, heat_current, noise, numeric_cumulants
from qarfcs.liouvillian import build_counting_family
from qarfcs.model import (
    BathSpec,
    OhmicSpectralDensity,
    QarModel,
    SystemSpec,
    preset,
    spectral_value,
)
from qarfcs.oracle import (
    cop_accuracy,
    current_agreement,
    exchange_symmetry,
    ideal_cycle,
    random_connected_model,
    sign_agreement,
    spectral_structure,
    steady_state,
)
from qarfcs.scan import grid_scan, line_scan

SEED = 20260810


@pytest.fixture(scope="module")
def ensemble():
    """The 1000 seeded random connected models shared by criteria 4-6."""
    rng = np.random.default_rng(SEED)
    return [random_connected_model(rng) for _ in range(1000)]


_GRID_CACHE: dict = {}


def preset_grid(pid):
    """101x101 default-axis grids shared by criteria 3 and 9 (build time kept)."""
    if pid not in _GRID_CACHE:
        t0 = time.perf_counter()
        _GRID_CACHE[pid] = grid_scan(pid, 101, 101)
        _GRID_CACHE.setdefault("_time", 0.0)
        _GRID_CACHE["_time"] += time.perf_counter() - t0
    return _GRID_CACHE[pid]


def make_two_level(omega0, beta_0, beta_1, gamma_0, gamma_1):
    sd = OhmicSpectralDensity(omega_c=10.0)
    return QarModel(
        system=SystemSpec((0.0, omega0)),
        baths=(
            BathSpec("C", beta_0, {(0, 1): gamma_0}, sd),
            BathSpec("H", beta_1, {(0, 1): gamma_1}, sd),
        ),
        cold_index=0 if beta_0 >= beta_1 else 1,
    )


def test_criterion_01_spin_boson_closed_forms():
    rng = np.random.default_rng(SEED + 1)
    sd = OhmicSpectralDensity(omega_c=10.0)
    t0 = time.perf_counter()
    worst_j = worst_s = 0.0
    for _ in range(100):
        omega0 = float(rng.uniform(0.2, 2.0))
        beta_0 = float(rng.uniform(0.1, 2.0))
        beta_1 = float(rng.uniform(0.1, 2.0))
        gamma_0 = float(10.0 ** rng.uniform(-4.0, -2.0))
        gamma_1 = float(10.0 ** rng.uniform(-4.0, -2.0))
        model = make_two_level(omega0, beta_0, beta_1, gamma_0, gamma_1)
        gam_0 = spectral_value(sd, gamma_0, omega0)
        gam_1 = spectral_value(sd, gamma_1, omega0)
        j_ref = sb_current(omega0, gam_0, gam_1, beta_0, beta_1)
        s_ref = sb_noise(omega0, gam_0, gam_1, beta_0, beta_1)
        worst_j = max(worst_j, abs(heat_current(model, 0) - j_ref) / abs(j_ref))
        worst_s = max(worst_s, abs(noise(model, 0) - s_ref) / abs(s_ref))
    elapsed = time.perf_counter() - t0
    assert worst_j <= 1e-10
    assert worst_s <= 1e-10
    assert elapsed <= 1.0
    print(
        f"ACCEPTANCE 01 PASS - spin-boson closed forms: worst current dev "
        f"{worst_j:.2e}, worst noise dev {worst_s:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_02_truncation_exactness():
    t0 = time.perf_counter()
    worst_j = worst_s = 0.0
    for model in (make_two_level(1.0, 1.0, 0.5, 0.01, 0.01), preset("A", 0.5, 0.9)):
        bath = model.cold_index
        family = build_counting_family(model, bath)
        j_ref = heat_current(model, bath)
        s_ref = noise(model, bath)
        j_num, s_num = numeric_cumulants(family)
        worst_j = max(worst_j, abs(j_num - j_ref) / abs(j_ref))
        worst_s = max(worst_s, abs(s_num - s_ref) / abs(s_ref))
    elapsed = time.perf_counter() - t0
    assert worst_j <= 1e-6
    assert worst_s <= 1e-6
    assert elapsed <= 5.0
    print(
        f"ACCEPTANCE 02 PASS - finite-difference cumulants of G match the "
        f"truncated formulas: current {worst_j:.2e}, noise {worst_s:.2e} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_03_cooling_boundary():
    t0 = time.perf_counter()
    threshold = 8.0 / 9.0
    line = line_scan(["A"], 0.9, 1001)
    axis = line.e21_axis
    cell = axis[1] - axis[0]
    currents = line.currents["A"]
    positive = np.nonzero(currents > 0)[0]
    last_pos = positive.max()
    assert currents[last_pos + 1] <= 0  # a single sign change at the window edge
    assert axis[last_pos] <= threshold + cell
    assert axis[last_pos + 1] >= threshold - cell

    grid = preset_grid("A")
    cell_e21 = grid.e21_axis[1] - grid.e21_axis[0]
    checked = 0
    for i, e21 in enumerate(grid.e21_axis):
        for j, bh in enumerate(grid.betaH_axis):
            thr = (bh - 0.1) / 0.9
            if abs(e21 - thr) <= cell_e21:
                continue  # cell touches the boundary curve
            assert grid.cooling_mask[i, j] == (e21 < thr)
            checked += 1
    elapsed = time.perf_counter() - t0 + _GRID_CACHE.get("_time", 0.0)
    assert elapsed <= 10.0
    print(
        f"ACCEPTANCE 03 PASS - sign change at E21 = {axis[last_pos]:.5f} "
        f"(threshold {threshold:.5f}, cell {cell:.2e}); mask matches the "
        f"analytic window at {checked} off-boundary cells ({elapsed:.2f}s)"
    )


def test_criterion_04_sign_equivalence(ensemble):
    t0 = time.perf_counter()
    violations = 0
    for model in ensemble:
        # counts a cooling verdict that is not the sign of the direct cold current
        violations += sign_agreement(model)["violations"]
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed <= 10.0
    print(
        f"ACCEPTANCE 04 PASS - cooling-condition sign equals current sign on "
        f"{len(ensemble)} random models, 0 violations ({elapsed:.2f}s)"
    )


def test_criterion_05_oracle_equivalence(ensemble):
    t0 = time.perf_counter()
    worst_eq = worst_cons = 0.0
    for model in ensemble:
        agreement = current_agreement(model)
        assert agreement["scale"] > 0.0
        worst_eq = max(worst_eq, agreement["dev"])
        worst_cons = max(worst_cons, agreement["residual"])
    elapsed = time.perf_counter() - t0
    assert worst_eq <= 1e-10
    assert worst_cons <= 1e-12
    assert elapsed <= 10.0
    print(
        f"ACCEPTANCE 05 PASS - adjugate pipeline vs steady-state currents: "
        f"worst dev {worst_eq:.2e}, conservation residual {worst_cons:.2e} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_06_spectral_structure(ensemble):
    t0 = time.perf_counter()
    worst_im = worst_zero = worst_an = 0.0
    for model in ensemble:
        spectrum = spectral_structure(model)
        worst_im = max(worst_im, spectrum["im"])
        worst_zero = max(worst_zero, spectrum["zero"])
        assert spectrum["second"] > 1e-10  # exactly one root at zero
        assert spectrum["gap"] > 0.0  # every other root has a negative real part
        assert spectrum["coeff"] > 0.0  # a_1 .. a_(N-1)
        worst_an = max(worst_an, spectrum["an"])
    elapsed = time.perf_counter() - t0
    assert worst_im <= 1e-8
    assert worst_zero <= 1e-10
    assert worst_an <= 1e-12
    print(
        f"ACCEPTANCE 06 PASS - real nonpositive spectra with one zero mode: "
        f"worst Im/scale {worst_im:.2e}, zero root {worst_zero:.2e}, "
        f"|a_N|/scale {worst_an:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_07_cop_bound():
    t0 = time.perf_counter()
    beta_w, beta_c, e31 = 0.1, 1.0, 1.0
    edge_offset = 2e-4
    worst_ratio = worst_exceed = -np.inf
    worst_boundary = 0.0
    for beta_h in np.linspace(0.15, 0.55, 50):
        thr = (beta_h - beta_w) / (beta_c - beta_w) * e31
        e21_row = np.linspace(0.02 * thr, thr - edge_offset, 50)
        for col, e21 in enumerate(e21_row):
            # rel: eta against E21/E32; excess: eta - eta_c, the Carnot bound of cop
            accuracy = cop_accuracy(preset("A", float(e21), float(beta_h)))
            worst_ratio = max(worst_ratio, accuracy["rel"])
            worst_exceed = max(worst_exceed, accuracy["excess"])
            if col == len(e21_row) - 1:
                worst_boundary = max(worst_boundary, abs(accuracy["excess"]))
    elapsed = time.perf_counter() - t0
    assert worst_ratio <= 1e-10
    assert worst_exceed <= 1e-10
    assert worst_boundary <= 1e-3
    print(
        f"ACCEPTANCE 07 PASS - COP: currents ratio vs E21/E32 dev "
        f"{worst_ratio:.2e}, eta - eta_c <= {worst_exceed:.2e}, boundary cells "
        f"within {worst_boundary:.2e} of Carnot ({elapsed:.2f}s)"
    )


def test_criterion_08_decomposition():
    # grid drawn inside the secular domain; the paper's per-transition
    # leak-sign statement breaks down in the quasidegenerate strip E21 < 0.04
    t0 = time.perf_counter()
    e21_axis = np.linspace(0.05, 0.95, 21)
    bh_axis = np.linspace(0.15, 0.95, 21)
    worst_resid = worst_leak = worst_cyc31 = -np.inf
    worst_a_cycle = worst_a_rest = -np.inf
    for pid in ("A", "B", "C", "D"):
        for e21 in e21_axis:
            for bh in bh_axis:
                model = preset(pid, float(e21), float(bh))
                dec = decompose(model)
                worst_resid = max(
                    worst_resid, dec.reconstruction_residual / dec.magnitude
                )
                worst_leak = max(
                    worst_leak, max(v / dec.magnitude for v in dec.leaks.values())
                )
                if pid == "B":
                    worst_cyc31 = max(worst_cyc31, dec.cycles[(0, 2)] / dec.magnitude)
                if pid == "A":
                    # against the closed form over max(|closed|, 1e-10 * magnitude)
                    worst_a_cycle = max(worst_a_cycle, ideal_cycle(model)["rel"])
                    worst_a_rest = max(
                        worst_a_rest,
                        max(abs(v) for v in dec.leaks.values()) / dec.magnitude,
                    )
    elapsed = time.perf_counter() - t0
    assert worst_resid <= 1e-10
    assert worst_leak <= 1e-12
    assert worst_cyc31 <= 0.0
    assert worst_a_cycle <= 1e-10
    assert worst_a_rest <= 1e-12
    print(
        f"ACCEPTANCE 08 PASS - decomposition: reconstruction {worst_resid:.2e}, "
        f"leaks <= {worst_leak:.2e}, B cycle(3,1) <= {worst_cyc31:.2e}, ideal "
        f"cycle termwise {worst_a_cycle:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_09_figure_level_reproduction():
    t0 = time.perf_counter()
    grids = {pid: preset_grid(pid) for pid in ("A", "B", "C", "D")}
    mask_a = grids["A"].cooling_mask
    # (a) strict pointwise containment of the lossy windows in the ideal one
    for pid in ("B", "C", "D"):
        mask = grids[pid].cooling_mask
        assert not np.any(mask & ~mask_a), f"{pid} cools where A does not"
        assert np.any(mask_a & ~mask), f"{pid} window is not strictly smaller"

    # (b) maximal current ordering and D's window confined to small spacing
    line = line_scan(["A", "B", "C", "D"], 0.9, 1001)
    peak_a = line.currents["A"].max()
    for pid in ("B", "C", "D"):
        assert peak_a > line.currents[pid].max()
    d_cooling = line.e21_axis[line.currents["D"] > 0]
    assert d_cooling.size > 0 and d_cooling.max() < 0.3

    # (c), upper band: B never cools past the cycle-1 threshold (one-cell margin)
    grid_b = grids["B"]
    cell = grid_b.e21_axis[1] - grid_b.e21_axis[0]
    beta_c, beta_w = 1.0, 0.1
    for j, bh in enumerate(grid_b.betaH_axis):
        upper = (bh - beta_w) / (beta_c - beta_w)
        cools = grid_b.cooling_mask[:, j]
        assert not np.any(cools & (grid_b.e21_axis > upper + cell))
    elapsed = time.perf_counter() - t0 + _GRID_CACHE.get("_time", 0.0)
    assert elapsed <= 60.0
    print(
        f"ACCEPTANCE 09 PASS - figure-level windows: A contains B/C/D strictly, "
        f"peak ordering holds, D confined to E21 < {d_cooling.max():.3f}, B "
        f"respects the upper cycle band ({elapsed:.2f}s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated lower-band exclusion does not hold for the caption parameters: "
        "with the weak couplings at gamma/50, the competing cycle enters only "
        "at order (gamma_weak/gamma)^2 = 4e-4 of the dominant one, so the "
        "small-spacing edge of B's window is set by the heat leaks (E21 about "
        "0.073 at betaH = 0.9, exact-arithmetic J_C(E21=0.08) = +6.6e-7 > 0), "
        "below the two-cycle threshold (beta_C-beta_H)/(beta_C-beta_W) = 1/9"
    ),
)
def test_criterion_09c_lower_band_exclusion():
    grid_b = preset_grid("B")
    cell = grid_b.e21_axis[1] - grid_b.e21_axis[0]
    beta_c, beta_w = 1.0, 0.1
    for j, bh in enumerate(grid_b.betaH_axis):
        lower = (beta_c - bh) / (beta_c - beta_w)
        cools = grid_b.cooling_mask[:, j]
        assert not np.any(cools & (grid_b.e21_axis < lower - cell))


def test_criterion_10_fluctuation_symmetry():
    rng = np.random.default_rng(SEED + 10)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model = random_connected_model(rng, n_baths=2)
        worst = max(worst, exchange_symmetry(model, 20)["dev"])
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    print(
        f"ACCEPTANCE 10 PASS - two-bath exchange symmetry of G: worst "
        f"|G(s) - G(s* - s)| = {worst:.2e} over 100 models x 20 points "
        f"({elapsed:.2f}s)"
    )
