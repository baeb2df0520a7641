"""Closed-form reference results and the cycle/leak current decomposition.

Covers the two-level (spin-boson) current and noise, the ideal three-level
cooling condition and coefficient of performance, the per-cycle cooling
inequalities, the leaky-model condition, and the closed-form split of the
three-level cold current numerator: Kirchhoff tree sums give the total, and
Hill cycle fluxes, each a rate product times expm1(-affinity), give the parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CopUndefinedError, TopologyError
# charpoly is unused here; perfbench/test_perfbench.py asserts analytic.charpoly is fcs.charpoly
from .fcs import _checked_fsum, charpoly, heat_current  # noqa: F401
from .model import IDEAL_PAIRS, Pair, QarModel, _check_ordering, bose_occupation, rate, rate_table


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
    j = sb_current(omega0, gamma_c, gamma_h, beta_c, beta_h)
    num = omega0**2 * gamma_c * gamma_h * ((1.0 + n_c) * n_h + (1.0 + n_h) * n_c)
    return (num - 2.0 * j * j) / den


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


def _ideal_machine(model: QarModel, leaky: bool = False):
    """((cold, hot, work), E21, E31, (beta_C, beta_H, beta_W), leaking bath) of an ideal machine.

    Of the baths besides the cold one, the colder is hot and the hotter work; two at one beta
    fail ``_check_ordering``. Each role's bath couples exactly its pair of ``IDEAL_PAIRS``;
    with ``leaky``, the hot or else the work bath also couples the cold pair and is the
    leaking bath (else None).
    """
    if model.n_levels != 3 or model.n_baths != 3:
        raise TopologyError("expected a three-level, three-bath model")
    beta, others = [b.beta for b in model.baths], [b for b in range(3) if b != model.cold_index]
    roles = (model.cold_index, max(others, key=beta.__getitem__), min(others, key=beta.__getitem__))
    energies = model.system.energies
    e21, e31 = [energies[j] - energies[i] for i, j in IDEAL_PAIRS[:2]]
    if roles[1] == roles[2]:  # tied betas: max and min pick one bath for both roles
        _check_ordering(e21, e31, *[beta[b] for b in roles])
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
    return roles, e21, e31, [beta[b] for b in roles], leak


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
    expresses them as currents. ``magnitude`` is the largest gross flux
    dE (k^C_ij tau_i + k^C_ji tau_j) of one cold pair, the cancellation-free
    scale of the roundoff in every part and in ``total``.
    """

    cycles: dict[Pair, float]
    leaks: dict[tuple[str, Pair], float]
    total: float
    normalization: float
    reconstruction_residual: float
    magnitude: float


def decompose(model: QarModel) -> Decomposition:
    """Cycle/leak decomposition of the cold current of a three-level model, in closed form.

    tau_i sums the rate products of the spanning trees directed into level i,
    so p = tau / sum(tau) and sum(tau) = a_(N-1)(0) (matrix-tree theorem). A
    cold pair (i, j), third level m, dE = E_j - E_i, adds dE (k^C_ij tau_i -
    k^C_ji tau_j) to the numerator, which splits into Hill cycle fluxes (Hill,
    J. Theor. Biol. 10, 442 (1966); Schnakenberg, Rev. Mod. Phys. 48, 571
    (1976)), each forward minus reverse rate product:
    - two-cycles (K_mi + K_mj) (k^C_ij k^mu_ji - k^C_ji k^mu_ij), K the total
      rates, affinity (beta_C - beta_mu) dE;
    - triangles k^C_ij k^nu_jm k^rho_mi - k^C_ji k^nu_mj k^rho_im, affinity
      beta_C dE + beta_nu (E_m - E_j) + beta_rho (E_i - E_m).
    By detailed balance forward = reverse exp(-affinity), so each flux is the
    larger product times an expm1 bracket, never a cancelling difference.
    With any number of baths, a flux through two baths besides C is a cycle,
    through one it is that bath's leak, and through C alone it is zero up to
    the rounding of its affinity, so it belongs to no part and
    ``reconstruction_residual`` holds it. ``magnitude`` is the largest per-pair
    gross flux dE (k^C_ij tau_i + k^C_ji tau_j); all fields but normalization
    are in numerator units.
    """
    if model.n_levels != 3:
        raise TopologyError(f"decompose needs a three-level model, got {model.n_levels} levels")
    cold, baths = model.cold_index, range(model.n_baths)
    k = [rate_table(model, b).tolist() for b in baths]
    kc, e, beta = k[cold], model.system.energies, [b.beta for b in model.baths]
    big_k = [[_checked_fsum([t[x][y] for t in k], "a total rate", floor=False) for y in range(3)]
             for x in range(3)]
    # only the numerator takes the floor: every part errs on the scale of its pair's gross flux
    tau = [
        _checked_fsum([big_k[j][i] * big_k[m][i], big_k[j][m] * big_k[m][i],
                       big_k[m][j] * big_k[j][i]], "a tree sum", floor=False)
        for i, j, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    pairs = [(i, j, e[j] - e[i]) for i in range(3) for j in range(i + 1, 3) if kc[i][j] or kc[j][i]]
    flows = [(de * kc[i][j] * tau[i], de * kc[j][i] * tau[j]) for i, j, de in pairs]
    total = _checked_fsum([x for up, down in flows for x in (up, -down)], "the decomposition")
    cycles, leaks, magnitude = {}, {}, max([0.0] + [up + down for up, down in flows])
    for i, j, de in pairs:
        m = 3 - i - j
        w = big_k[m][i] + big_k[m][j]
        # (baths besides C, forward product, reverse product, affinity)
        fluxes = [({mu}, w * kc[i][j] * k[mu][j][i], w * kc[j][i] * k[mu][i][j],
                   (beta[cold] - beta[mu]) * de) for mu in baths if mu != cold]
        fluxes += [({nu, rho} - {cold}, kc[i][j] * k[nu][j][m] * k[rho][m][i],
                    kc[j][i] * k[nu][m][j] * k[rho][i][m],
                    beta[cold] * de + beta[nu] * (e[m] - e[j]) + beta[rho] * (e[i] - e[m]))
                   for nu in baths for rho in baths if (nu, rho) != (cold, cold)]
        cycle, share = [], {b: [] for b in baths if b != cold}
        for through, fwd, rev, a in fluxes:
            flux = rev * math.expm1(-a) if a >= 0.0 else -fwd * math.expm1(a)
            (cycle if len(through) == 2 else share[min(through)]).append(flux)
        # + 0.0: a vanishing affinity gives 0.0, not -0.0
        cycles[(i, j)] = de * _checked_fsum(cycle, "a cycle part", floor=False) + 0.0
        leaks.update({(model.baths[b].label, (i, j)): de * _checked_fsum(ts, "a leak", floor=False)
                      + 0.0 for b, ts in share.items()})
    parts = math.fsum([*cycles.values(), *leaks.values()])
    return Decomposition(cycles, leaks, total, math.fsum(tau), abs(parts - total), magnitude)
