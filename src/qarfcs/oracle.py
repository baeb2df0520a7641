"""Brute-force validators independent of the counting-statistics pipeline.

These recompute currents from the steady state directly, check energy
conservation, verify the two-bath fluctuation symmetry of the generating
function, and provide the seeded random-model generator used by the
property and acceptance suites.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError, ValidationError
from .fcs import cgf
from .liouvillian import build_counting_family, generator_from_tables
from .model import BathSpec, OhmicSpectralDensity, QarModel, SystemSpec, _unreached, rate_table


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Normalized kernel vector of L(0) plus the residual max|L p|."""

    populations: np.ndarray
    residual: float


def steady_state(l0: np.ndarray, *, replace_row: int = 0) -> SteadyState:
    """Unique steady state from a row-replacement solve.

    One row of L(0) is swapped for the normalization constraint sum(p) = 1;
    a single iterative-refinement step with a compensated residual brings the
    solution to working precision. Disconnected generators (rank < N-1) fail.
    """
    l0 = np.asarray(l0, dtype=float)
    n = l0.shape[0]
    if not 0 <= replace_row < n:
        raise ValidationError(f"replace_row {replace_row} out of range")
    a = l0.copy()
    a[replace_row, :] = 1.0
    b = [0.0] * n
    b[replace_row] = 1.0
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
    by the energy it moves); it shares no code with the adjugate pipeline.
    """
    tables = [rate_table(model, b) for b in range(model.n_baths)]
    ss = steady_state(generator_from_tables(tables))
    return _direct_current_from_populations(model, tables[bath], ss.populations)


def _direct_current_from_populations(model: QarModel, k: np.ndarray, p: np.ndarray) -> float:
    k, p = k.tolist(), p.tolist()
    energies = model.system.energies
    n = model.n_levels
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            de = energies[j] - energies[i]
            if k[i][j] != 0.0:
                terms.append(de * k[i][j] * p[i])
            if k[j][i] != 0.0:
                terms.append(-de * k[j][i] * p[j])
    return math.fsum(terms)


def conservation_residual(model: QarModel) -> float:
    """|sum over baths of the direct currents| (steady-state first law)."""
    tables = [rate_table(model, b) for b in range(model.n_baths)]
    p = steady_state(generator_from_tables(tables)).populations
    return abs(math.fsum(_direct_current_from_populations(model, k, p) for k in tables))


def fluctuation_symmetry_check(model: QarModel, s_samples) -> float:
    """Max deviation of G(s) from G((beta_C - beta_H) - s) for two-bath models.

    The symmetry point beta_cold - beta_other follows from the similarity
    L(s*) - s) ~ L(s)^T under the diagonal conjugation exp(beta_other * E);
    it holds for any two-bath coupling pattern but has no single-field analog
    for three or more baths, so those are refused. Both sides of every pair
    come from one ``cgf`` call, which shares a continuation per sign of s.
    """
    if model.n_baths != 2:
        raise TopologyError(
            f"fluctuation symmetry check applies to exactly 2 baths, "
            f"got {model.n_baths}"
        )
    cold = model.cold_index
    s_star = model.baths[cold].beta - model.baths[1 - cold].beta
    family = build_counting_family(model, cold)
    s = np.asarray(s_samples, dtype=float).ravel()
    g = cgf(family, np.concatenate([s, s_star - s]))
    return float(np.max(np.abs(g[: s.size] - g[s.size :]), initial=0.0))


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
    beta_range: tuple[float, float] = (0.1, 2.0),
    beta_separation: float = 0.3,
    gamma_decades: tuple[float, float] = (-4.0, -2.0),
    gamma_cluster: float = 0.15,
    span_range: tuple[float, float] = (0.25, 0.4),
    omega_c: float = 10.0,
) -> QarModel:
    """Seeded random connected model for property tests.

    N in 2..5 and 2..4 baths unless pinned. The ensemble is drawn at desk
    scale (total level span <= 0.4, inverse temperatures separated by at
    least ``beta_separation``, per-model clustered couplings, and the hottest
    and coldest baths sharing at least one transition) so that every model
    carries a well-resolved current and the generator stays comfortably
    inside the real-spectrum regime.

    topology="tree" keeps the union coupling graph a spanning tree (heat
    still flows through shared edges, and the total-rate matrix is then
    always similar to a symmetric one); topology="any" also produces cyclic
    coupling graphs, whose spectra may acquire small imaginary parts at
    strong thermal driving.
    """
    if topology not in ("tree", "any"):
        raise ValidationError(f"unknown topology {topology!r}")
    n = int(rng.integers(2, 6)) if n_levels is None else int(n_levels)
    nb = int(rng.choice((2, 3, 4))) if n_baths is None else int(n_baths)
    if n < 2:
        raise ValidationError("need at least 2 levels")
    span = rng.uniform(*span_range)
    raw = rng.uniform(0.7, 1.0, size=n - 1)
    gaps = raw / raw.sum() * span
    energies = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))

    betas: list[float] = []
    while len(betas) < nb:
        b = float(rng.uniform(*beta_range))
        if all(abs(b - x) >= beta_separation for x in betas):
            betas.append(b)
    hot = int(np.argmin(betas))
    cold = int(np.argmax(betas))

    if topology == "tree":
        pairs = _random_tree(rng, n)
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    center = rng.uniform(gamma_decades[0] + gamma_cluster, gamma_decades[1] - gamma_cluster)

    def draw_gamma() -> float:
        lg = rng.uniform(center - gamma_cluster, center + gamma_cluster)
        return float(10.0 ** np.clip(lg, *gamma_decades))

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

    sd = OhmicSpectralDensity(omega_c=omega_c)
    baths = tuple(
        BathSpec(label=f"B{k}", beta=betas[k], couplings=coup[k], spectral=sd)
        for k in range(nb)
    )
    return QarModel(system=SystemSpec(energies=energies), baths=baths, cold_index=cold)
