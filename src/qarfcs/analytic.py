"""Closed-form reference results and the cycle/leak current decomposition.

Covers the two-level (spin-boson) current and noise, the ideal three-level
cooling condition and coefficient of performance, the per-cycle cooling
inequalities, the leaky-model condition, and an exact decomposition of the
cold current numerator into cycle and leak parts by multilinear extraction
in per-bath rate scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, CopUndefinedError, TopologyError, ValidationError
from .fcs import charpoly, heat_current
from .liouvillian import generator_from_tables
from .model import IDEAL_PAIRS, Pair, QarModel, bose_occupation, rate, rate_table


def sb_current(
    omega0: float, gamma_c: float, gamma_h: float, beta_c: float, beta_h: float
) -> float:
    """Two-level two-bath heat current into the system from the cold side.

    gamma_c / gamma_h are the spectra already evaluated on resonance.
    """
    n_c = bose_occupation(omega0, beta_c)
    n_h = bose_occupation(omega0, beta_h)
    den = gamma_c * (1.0 + 2.0 * n_c) + gamma_h * (1.0 + 2.0 * n_h)
    return omega0 * gamma_c * gamma_h * (n_c - n_h) / den


def sb_noise(
    omega0: float, gamma_c: float, gamma_h: float, beta_c: float, beta_h: float
) -> float:
    """Zero-frequency noise of the two-level cold-bath current."""
    n_c = bose_occupation(omega0, beta_c)
    n_h = bose_occupation(omega0, beta_h)
    den = gamma_c * (1.0 + 2.0 * n_c) + gamma_h * (1.0 + 2.0 * n_h)
    j = omega0 * gamma_c * gamma_h * (n_c - n_h) / den
    num = omega0**2 * gamma_c * gamma_h * ((1.0 + n_c) * n_h + (1.0 + n_h) * n_c)
    return (num - 2.0 * j * j) / den


def _check_ordering(e21: float, e31: float, beta_c: float, beta_h: float, beta_w: float) -> None:
    if not 0.0 < e21 < e31:
        raise ValidationError(f"need 0 < E21 < E31, got E21={e21}, E31={e31}")
    if not beta_w < beta_h < beta_c:
        raise ValidationError(
            f"need beta_w < beta_h < beta_c, got {beta_w}, {beta_h}, {beta_c}"
        )


def ideal_cooling(
    e21: float, e31: float, beta_c: float, beta_h: float, beta_w: float
) -> bool:
    """Ideal three-level machine cools iff E21/E31 < (bH - bW)/(bC - bW)."""
    _check_ordering(e21, e31, beta_c, beta_h, beta_w)
    return e21 / e31 < (beta_h - beta_w) / (beta_c - beta_w)


def cycle_conditions(
    e21: float, e31: float, beta_c: float, beta_h: float, beta_w: float
) -> tuple[bool, bool]:
    """Cooling conditions of the two competing cycles.

    The cycle pumping at the lower transition cools for small enough E21,
    the one pumping at the upper transition for large enough E21; the two
    bounds conflict, closing the window at both ends.
    """
    _check_ordering(e21, e31, beta_c, beta_h, beta_w)
    ratio = e21 / e31
    cond21 = ratio <= (beta_h - beta_w) / (beta_c - beta_w)
    cond32 = ratio >= (beta_c - beta_h) / (beta_c - beta_w)
    return cond21, cond32


def _ideal_roles(model: QarModel) -> tuple[int, int, int]:
    """(cold, hot, work) bath indices for the dominant A-type topology."""
    if model.n_levels != 3 or model.n_baths != 3:
        raise TopologyError("expected a three-level, three-bath model")
    cold = model.cold_index
    others = [b for b in range(3) if b != cold]
    hot = max(others, key=lambda b: model.baths[b].beta)
    work = min(others, key=lambda b: model.baths[b].beta)
    return cold, hot, work


def _ideal_machine(model: QarModel, leaky: bool = False):
    """((cold, hot, work), E21, E31, (beta_C, beta_H, beta_W), leaking bath) of an ideal machine.

    Each role's bath couples exactly its pair of ``IDEAL_PAIRS``; with ``leaky``, the
    hot or else the work bath also couples the cold pair and is the leaking bath (else None).
    """
    roles = _ideal_roles(model)
    coupled = [{p for p, g in model.baths[b].couplings.items() if g > 0.0} for b in roles]
    expected = [{pair} for pair in IDEAL_PAIRS]
    leak = None
    if leaky:  # the hot bath leaks if it couples the cold pair, else the work bath must
        r = 1 if IDEAL_PAIRS[0] in coupled[1] else 2
        expected[r].add(IDEAL_PAIRS[0])
        leak = roles[r]
    for b, got, want in zip(roles, coupled, expected):
        if got != want:
            got, want = ([(i + 1, j + 1) for i, j in sorted(pairs)] for pairs in (got, want))
            raise TopologyError(  # levels 1-based, as in all user-facing output
                f"{'leaky' if leaky else 'ideal'} refrigerator: bath {model.baths[b].label!r} "
                f"couples {got}, expected {want}"
            )
    energies = model.system.energies
    e21, e31 = [energies[j] - energies[i] for i, j in IDEAL_PAIRS[:2]]
    return roles, e21, e31, [model.baths[b].beta for b in roles], leak


def cop(model: QarModel) -> tuple[float, float]:
    """Coefficient of performance of the ideal machine, with its Carnot bound.

    eta is the ratio of the cold to the work heat current (both from the
    counting pipeline); for the ideal topology it equals E21/E32. Undefined
    outside the cooling window.
    """
    (cold, _, work), e21, e31, (beta_c, beta_h, beta_w), _ = _ideal_machine(model)
    if not ideal_cooling(e21, e31, beta_c, beta_h, beta_w):
        raise CopUndefinedError(
            f"E21/E31 = {e21 / e31:.6g} is outside the cooling window "
            f"(threshold {(beta_h - beta_w) / (beta_c - beta_w):.6g})"
        )
    eta_carnot = (beta_h - beta_w) / (beta_c - beta_h)
    return heat_current(model, cold) / heat_current(model, work), eta_carnot


def leaky_cooling(model: QarModel) -> tuple[float, float, bool]:
    """Cooling condition split of the leaky three-level machine.

    For a dominant A-type machine whose hot or work bath additionally loads
    the cold (1-2) transition, the cooling condition reads ideal_term +
    leak_term > 0 with the leak part never positive. Returns both terms and
    the verdict.
    """
    (_, hot, work), e21, e31, (beta_c, beta_h, beta_w), leak = _ideal_machine(model, leaky=True)
    # downward rates: the leaking bath's on the cold pair, the hot and work baths' on their own
    k_leak_down, k_hot_down, k_work_down = (
        rate(model, j, i, b) for b, (i, j) in zip((leak, hot, work), IDEAL_PAIRS)
    )
    ideal_term = math.exp(-beta_c * e21 - beta_w * (e31 - e21)) - math.exp(-beta_h * e31)
    leak_term = (
        k_leak_down
        * (1.0 / k_hot_down + 1.0 / k_work_down)
        * (math.exp(-beta_c * e21) - math.exp(-model.baths[leak].beta * e21))
    )
    return ideal_term, leak_term, ideal_term + leak_term > 0.0


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Cold-current numerator split into cycle and leak parts.

    Keys are 0-based level pairs; leak keys also carry the leaking bath's
    label. Parts sum to a_{N-1}(0) * J_C; dividing them by ``normalization``
    expresses them as currents.
    """

    cycles: dict[Pair, float]
    leaks: dict[tuple[str, Pair], float]
    total: float
    normalization: float
    reconstruction_residual: float
    magnitude: float

    def part_sum(self) -> float:
        return math.fsum(list(self.cycles.values()) + list(self.leaks.values()))


# (cold, hot, work) rate scalings: six points fix the six monomial coefficients
# of a homogeneous quadratic
_EXTRACTION_POINTS = np.array(
    [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2)], dtype=float
)
_VANDERMONDE = np.array(
    [(c * c, h * h, w * w, c * h, c * w, h * w) for c, h, w in _EXTRACTION_POINTS]
)


def decompose(model: QarModel) -> Decomposition:
    """Exact cycle/leak decomposition of the cold current (three baths).

    For each cold-coupled transition, the counted-numerator contribution is a
    homogeneous quadratic in per-bath rate scalings (the adjugate supplies two
    rate factors), so its six monomial coefficients follow exactly from
    evaluations at small-integer scaling points. Classification: a hot- or
    work-bath rate acting on the counted transition itself marks a leak of
    that bath (its terms carry the exp(-beta_C dE) - exp(-beta_mu dE) factor);
    with those rates removed, a mixed hot/work monomial is the genuine
    three-bath cycle, a single-other-bath monomial is a composite two-bath
    leak, and the pure-cold coefficient must vanish (one bath alone drives no
    current). Because the on-transition rates enter the numerator linearly,
    the on/off split is exact.

    Per transition, the six scaling points with both other baths off the
    transition and the unscaled set with only the work bath off are the
    extraction generators; L(0), also every transition's full-rate point, goes
    last, and all of them go through one stacked ``charpoly`` pass. Parts and
    total are in numerator units.
    """
    cold, hot, work = _ideal_roles(model)
    tables = np.array([rate_table(model, b) for b in range(3)])
    energies = model.system.energies
    labels = {hot: model.baths[hot].label, work: model.baths[work].label}

    k_cold = tables[cold].tolist()
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3) if k_cold[i][j] or k_cold[j][i]]
    # the scalings are 1 or 2, so scaling the tables scales each bath's generator exactly
    scales = _EXTRACTION_POINTS[:, [(cold, hot, work).index(b) for b in range(3)], None, None]
    sets = []
    for i, j in pairs:
        no_work = tables.copy()
        no_work[work, [i, j], [j, i]] = 0.0
        bare = no_work.copy()
        bare[hot, [i, j], [j, i]] = 0.0
        sets += [*(scales * bare), no_work]
    cp = charpoly(generator_from_tables(np.array([*sets, tables])))
    adj = cp.adjugate.tolist()

    # each trace against d1 takes its signed fsum and its absolute fsum (the
    # cancellation-free magnitude, finite where the signed numerator vanishes
    # at the cooling boundary) from one list of products: |a x| = |a| |x|
    vals, full_products = [], []
    scale_ref = 0.0
    for q, (i, j) in enumerate(pairs):
        de = energies[j] - energies[i]
        # d1 holds dE k[i, j] at (j, i) and -dE k[j, i] at (i, j)
        d1 = [(de * k_cold[i][j], j, i), (-de * k_cold[j][i], i, j)]
        d1 = [(x, r, c) for x, r, c in d1 if x]
        products = [[a[c][r] * x for x, r, c in d1] for a in adj[7 * q : 7 * q + 7] + adj[-1:]]
        scale_ref = max(scale_ref, *(math.fsum(map(abs, p)) for p in products))
        vals.append([math.fsum(p) for p in products])
        full_products += products[-1]
    # one LAPACK solve per transition (the 6 bare points), bitwise that of a
    # lone 6-vector solve
    coef = np.linalg.solve(_VANDERMONDE, np.array(vals).reshape(-1, 8)[:, :6, None])[..., 0]

    cycles: dict[Pair, float] = {}
    leaks: dict[tuple[str, Pair], float] = {}
    pure_cold_worst = 0.0
    for pair, (c_cc, c_hh, c_ww, c_ch, c_cw, c_hw), (*_, t_no_work, t_full) in zip(
        pairs, coef.tolist(), vals
    ):
        t_bare = math.fsum([c_cc, c_hh, c_ww, c_ch, c_cw, c_hw])
        pure_cold_worst = max(pure_cold_worst, abs(c_cc))
        cycles[pair] = c_hw
        leaks[(labels[hot], pair)] = (c_ch + c_hh) + (t_no_work - t_bare)
        leaks[(labels[work], pair)] = (c_cw + c_ww) + (t_full - t_no_work)

    if pure_cold_worst > 1e-12 * max(scale_ref, 1e-300):
        raise ConsistencyError(
            f"pure cold-bath part {pure_cold_worst:.3g} exceeds 1e-12 of the "
            f"extraction scale {scale_ref:.3g}; a single bath cannot drive a "
            "steady current"
        )

    a_pen = float(cp.coeffs[-1, 1])  # a_(N-1)(0) of L(0), N = 3
    # the d1 of distinct transitions have disjoint entries, and fsum is exactly
    # rounded, so this is the trace of adj(L(0)) against their sum
    numerator = math.fsum(full_products)
    parts = math.fsum(list(cycles.values()) + list(leaks.values()))
    return Decomposition(
        cycles=cycles,
        leaks=leaks,
        total=numerator,
        normalization=a_pen,
        reconstruction_residual=abs(parts - numerator),
        magnitude=scale_ref,
    )
