"""Brute-force validators independent of the counting-statistics pipeline.

These recompute currents from the steady state directly, check energy
conservation, verify the two-bath fluctuation symmetry of the generating
function, and provide the seeded random-model generator used by the
property and acceptance suites. ``INVARIANTS`` states each invariant of
``qarfcs check`` once; acceptance criteria 04-08 and 10 call its measures.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .analytic import _ideal_machine, cop, decompose
from .errors import TopologyError, ValidationError
from .fcs import _check_finite_generator, _real_s, cgf, charpoly, cooling_condition, heat_current
from .liouvillian import build_counting_family, build_generator, generator_from_tables
from .model import (
    IDEAL_PAIRS, BathSpec, OhmicSpectralDensity, QarModel, SystemSpec, _bath_index, _is_integer,
    _unreached, rate_table,
)


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Normalized kernel vector of L(0) plus the residual max|L p|."""

    populations: np.ndarray
    residual: float


def steady_state(l0: np.ndarray) -> SteadyState:
    """Unique steady state from a row-replacement solve.

    The first row of L(0) is swapped for the normalization constraint sum(p) = 1;
    a single iterative-refinement step with a compensated residual brings the
    solution to working precision. Disconnected generators (rank < N-1) fail, and an
    L(0) with an entry out of double range is refused before the solve.
    """
    l0 = np.asarray(l0, dtype=float)
    _check_finite_generator(l0)
    a = l0.copy()
    a[0, :] = 1.0
    b = [1.0] + [0.0] * (l0.shape[0] - 1)
    try:
        p = np.linalg.solve(a, b)
        p_list = p.tolist()
        r = [bi - math.fsum(x * y for x, y in zip(row, p_list)) for bi, row in zip(b, a.tolist())]
        p = p + np.linalg.solve(a, r)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            "steady state is degenerate (rank < N-1); the transition graph "
            "must be connected"
        ) from exc
    l0p = (l0 @ p).tolist()
    residual = max(map(abs, l0p))
    scale = max(map(abs, l0.ravel().tolist())) or 1.0
    if not all(map(math.isfinite, p.tolist() + l0p)) or residual > 1e-8 * scale:
        raise ValidationError(
            f"steady-state solve residual {residual:.3g} is too large; the "
            "generator is numerically rank-deficient beyond the zero mode"
        )
    return SteadyState(populations=p, residual=residual)


def direct_current(model: QarModel, bath: int) -> float:
    """Heat current from the steady state: sum of dE * k * p over transitions.

    This is the textbook route (solve for p, then weigh each bath-induced jump
    by the energy it moves); it shares no code with the adjugate pipeline. It
    reads the model's one solve, ``_solved``.
    """
    bath = _bath_index(bath, model.baths, "counted bath index")
    return _solved(model)[bath]


def _solved(model: QarModel) -> tuple[float, ...]:
    """The direct current of every bath of ``model``, a tuple of floats kept on the object.

    Bath mu's current is one ``math.fsum`` of (E_j - E_i) k_ij p_i over the nonzero entries
    k_ij of its rate table, p the steady state. The first oracle query of a model object
    computes them into its instance dict, as ``functools.cached_property`` does on a frozen
    dataclass: not a field, so not in ``==``, ``repr`` or ``model_to_dict``. A new object
    (``dataclasses.replace`` included) solves again, to the same bits, as do racing threads.
    Changing a ``BathSpec.couplings`` mapping in place is unsupported. ``heat_current``
    still builds its tables on every call, because the benchmark pins its rate counts.
    """
    solved = vars(model).get("_oracle_solution")
    if solved is None:
        tables = [rate_table(model, b) for b in range(model.n_baths)]
        p = steady_state(generator_from_tables(tables)).populations.tolist()
        e = model.system.energies
        solved = vars(model)["_oracle_solution"] = tuple(
            math.fsum((e[j] - e[i]) * kij * p[i] for i, row in enumerate(k.tolist())
                      for j, kij in enumerate(row) if kij != 0.0)
            for k in tables
        )
    return solved


def conservation_residual(model: QarModel) -> float:
    """|sum over baths of the direct currents| (steady-state first law).

    It reads the model's one solve, ``_solved``, which it shares with ``direct_current``.
    """
    return abs(math.fsum(_solved(model)))


def fluctuation_symmetry_check(model: QarModel, s_samples) -> float:
    """Max |G(s) - G(s* - s)| over the largest |G| of the call (0.0 if every G is 0).

    Two-bath models only: s* = beta_cold - beta_other follows from the similarity L(s* - s)
    ~ L(s)^T under the diagonal conjugation exp(beta_other * E); it holds for any two-bath
    coupling pattern but has no single-field analog for three or more baths, so those are
    refused. Both sides of every pair come from one ``cgf`` call, which solves each alone.
    """
    if model.n_baths != 2:
        raise TopologyError(
            f"fluctuation symmetry check applies to exactly 2 baths, "
            f"got {model.n_baths}"
        )
    cold = model.cold_index
    s_star = model.baths[cold].beta - model.baths[1 - cold].beta
    family = build_counting_family(model, cold)
    s = _real_s(s_samples).ravel()
    g = cgf(family, np.concatenate([s, s_star - s]))
    dev, scale = (float(np.max(np.abs(x), initial=0.0)) for x in (g[: s.size] - g[s.size :], g))
    return dev / scale if scale else 0.0


def _random_tree(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    pruefer = list(rng.integers(0, n, size=n - 2))
    degree = [1] * n
    for v in pruefer:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in pruefer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_connected_model(
    rng: np.random.Generator,
    *,
    n_levels: int | None = None,
    n_baths: int | None = None,
    topology: str = "tree",
) -> QarModel:
    """Seeded random connected model for property tests.

    N in 2..5 and 2..4 baths unless pinned; a pinned bath count must lie in
    1..4. The ensemble is drawn at desk scale (total level span 0.25..0.4,
    inverse temperatures in 0.1..2 separated by at least 0.3, couplings
    clustered within 0.15 decades of a per-model centre inside 1e-4..1e-2,
    an ohmic cutoff of 10, and the hottest and coldest baths sharing at least
    one transition) so that every model carries a well-resolved current and
    the generator stays comfortably inside the real-spectrum regime.

    topology="tree" keeps the union coupling graph a spanning tree (heat
    still flows through shared edges, and the total-rate matrix is then
    always similar to a symmetric one); topology="any" also produces cyclic
    coupling graphs, whose spectra may acquire small imaginary parts at
    strong thermal driving.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"field 'rng' must be a numpy Generator, got {rng!r}")
    if topology not in ("tree", "any"):
        raise ValidationError(f"unknown topology {topology!r}")
    if not all(count is None or _is_integer(count) for count in (n_levels, n_baths)):
        raise ValidationError(f"pinned counts must be integers, got {n_levels=}, {n_baths=}")
    # three accepted betas block at most 1.8 of the 1.9-wide range, so a
    # fourth always fits; a fifth may never
    if n_baths is not None and not 1 <= n_baths <= 4:
        raise ValidationError(f"need 1 to 4 baths, got {n_baths}")
    if n_levels is not None and n_levels < 2:
        raise ValidationError(f"need at least 2 levels, got {n_levels}")
    n = int(rng.integers(2, 6)) if n_levels is None else int(n_levels)
    nb = int(rng.choice((2, 3, 4))) if n_baths is None else int(n_baths)
    span = rng.uniform(0.25, 0.4)
    raw = rng.uniform(0.7, 1.0, size=n - 1)
    gaps = raw / raw.sum() * span
    energies = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))

    betas: list[float] = []
    while len(betas) < nb:
        b = float(rng.uniform(0.1, 2.0))
        if all(abs(b - x) >= 0.3 for x in betas):
            betas.append(b)
    hot = int(np.argmin(betas))
    cold = int(np.argmax(betas))

    if topology == "tree":
        pairs = _random_tree(rng, n)
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    center = rng.uniform(-4.0 + 0.15, -2.0 - 0.15)

    def draw_gamma() -> float:
        lg = rng.uniform(center - 0.15, center + 0.15)
        return float(10.0 ** np.clip(lg, -4.0, -2.0))

    while True:
        coup: list[dict[tuple[int, int], float]] = []
        for _ in range(nb):
            size = int(rng.integers(1, len(pairs) + 1))
            idx = rng.choice(len(pairs), size=size, replace=False)
            coup.append({pairs[i]: draw_gamma() for i in idx})
        # on a tree this means every edge is driven
        if _unreached(n, set(e for g in coup for e in g)):
            continue
        if nb >= 2 and not (set(coup[hot]) & set(coup[cold])):
            shared = pairs[int(rng.integers(0, len(pairs)))]
            coup[hot][shared] = draw_gamma()
            coup[cold][shared] = draw_gamma()
        break

    sd = OhmicSpectralDensity()
    baths = tuple(
        BathSpec(label=f"B{k}", beta=betas[k], couplings=coup[k], spectral=sd)
        for k in range(nb)
    )
    return QarModel(system=SystemSpec(energies=energies), baths=baths, cold_index=cold)


def detailed_balance(model: QarModel) -> dict[str, float]:
    """dev: worst relative deviation of k_up / k_down from exp(-beta dE) over coupled pairs."""
    energies, dev = model.system.energies, 0.0
    for b, bath in enumerate(model.baths):
        k = rate_table(model, b).tolist()
        for i, j in (pair for pair, g in bath.couplings.items() if g > 0.0):
            expected = math.exp(-bath.beta * (energies[j] - energies[i]))
            dev = max(dev, abs(k[i][j] / k[j][i] - expected) / expected)
    return {"dev": dev}


def spectral_structure(model: QarModel) -> dict[str, float]:
    """Roots of L(0)'s characteristic polynomial. im: largest |Im| / largest |root|; zero,
    second: the two smallest |root|; gap: minus the largest real part but the zero root's;
    coeff: min of a_1..a_(N-1); an: |a_N| / ||L(0)||_F^N."""
    l0 = build_generator(model)
    cp = charpoly(l0)
    n, roots = cp.n, np.roots(cp.monic())
    mags = np.sort(np.abs(roots))
    return {
        "im": float(np.max(np.abs(roots.imag))) / float(mags[-1]), "zero": float(mags[0]),
        "second": float(mags[1]), "gap": -float(np.sort(roots.real)[n - 2]),
        "coeff": min(cp.coefficient(j) for j in range(1, n)),
        "an": abs(cp.coefficient(n)) / float(np.linalg.norm(l0)) ** n,
    }


def current_agreement(model: QarModel) -> dict[str, float]:
    """scale: largest |J| by ``heat_current`` or ``direct_current``; dev: their worst gap, and
    residual: ``conservation_residual``, over scale (NaN if it is 0)."""
    pairs = [(heat_current(model, b), direct_current(model, b)) for b in range(model.n_baths)]
    scale = max(max(abs(x), abs(y)) for x, y in pairs)
    over = scale or math.nan
    dev = max(abs(x - y) for x, y in pairs) / over
    return {"scale": scale, "dev": dev, "residual": conservation_residual(model) / over}


def sign_agreement(model: QarModel) -> dict[str, int]:
    """violations (0 or 1): the verdict is not J_C > 0, where |J_C| > 1e-10 max|J|, J direct."""
    currents = _solved(model)
    j_cold = currents[model.cold_index]
    decided = abs(j_cold) > 1e-10 * max(map(abs, currents))
    return {"violations": int(decided and cooling_condition(model)[1] != (j_cold > 0.0))}


def exchange_symmetry(model: QarModel, n_samples: int = 8) -> dict[str, float]:
    """dev: ``fluctuation_symmetry_check`` at n_samples points spanning both centres 0 and s*."""
    pad = 0.3 * max(b.beta for b in model.baths)
    # the other of two baths; the check refuses any other bath count
    s_star = model.baths[model.cold_index].beta - model.baths[-1 - model.cold_index].beta
    samples = np.linspace(min(0.0, s_star) - pad, max(0.0, s_star) + pad, n_samples)
    return {"dev": fluctuation_symmetry_check(model, samples)}


def ideal_cycle(model: QarModel) -> dict[str, float]:
    """rel: ``decompose``'s cold-pair cycle against E21 kH kW kC (exp(-beta_W E32 - beta_C E21)
    - exp(-beta_H E31)), downward rates, over |that| floored at 1e-10 of its magnitude."""
    roles, e21, e31, (beta_c, beta_h, beta_w), _ = _ideal_machine(model)
    kc, kh, kw = (rate_table(model, b).item(j, i) for b, (i, j) in zip(roles, IDEAL_PAIRS))
    bracket = math.exp(-beta_w * (e31 - e21) - beta_c * e21) - math.exp(-beta_h * e31)
    closed, dec = e21 * kh * kw * kc * bracket, decompose(model)
    return {"rel": abs(dec.cycles[(0, 1)] - closed) / max(abs(closed), dec.magnitude * 1e-10)}


def cop_accuracy(model: QarModel) -> dict[str, float]:
    """rel: ``cop`` against E21/E32; excess: ``cop`` above its Carnot bound."""
    (eta, eta_c), (e1, e2, e3) = cop(model), model.system.energies
    spacing = (e2 - e1) / (e3 - e2)
    return {"rel": abs(eta - spacing) / spacing, "excess": eta - eta_c}


# One row per ``qarfcs check`` result, in output order: name, a measure above, (--tol name,
# default) or None, limits, detail format. A limit (key, fold, bound) folds the key over the
# models, and ``FOLDS`` tests the worst value against bound; a None bound is the --tol.
INVARIANTS = (
    ("detailed-balance", detailed_balance, ("detailed_balance", 1e-12),
     (("dev", "max", None),), "worst rel dev {dev:.3e}"),
    ("eigen-structure", spectral_structure, None,
     (("im", "max", 1e-8), ("zero", "max", 1e-10), ("an", "max", 1e-12),
      ("second", "min", 1e-10), ("gap", "min", 0.0), ("coeff", "min", 0.0)),
     "worst Im/scale {im:.3e}, zero root {zero:.3e}, a_N/scale {an:.3e}"),
    ("oracle-equivalence", current_agreement, ("oracle_equivalence", 1e-10),
     (("dev", "max", None), ("scale", "min", 0.0)), "worst {dev:.3e}"),
    ("conservation", current_agreement, ("conservation", 1e-12),
     (("residual", "max", None),), "worst {residual:.3e}"),
    ("sign-equivalence", sign_agreement, None,
     (("violations", "sum", 0),), "{violations} violations"),
    ("fluctuation-symmetry", exchange_symmetry, ("symmetry", 1e-10),
     (("dev", "max", None),), "worst {dev:.3e}"),
    ("ideal-cycle-term", ideal_cycle, ("decomposition", 1e-10),
     (("rel", "max", None),), "worst rel {rel:.3e}"),
    ("cop-bound", cop_accuracy, ("cop", 1e-10),
     (("rel", "max", None), ("excess", "max", None)), "worst rel {rel:.3e}"),
)

# each fold: how it gathers a key over the models, and the test the worst value must pass
FOLDS = {"max": (np.max, np.less_equal), "sum": (sum, np.less_equal), "min": (np.min, np.greater)}
