"""Characteristic-polynomial machinery and the counting-statistics pipeline.

The heat current out of the counted bath is

    J = (-1)^(N+1) / a_{N-1}(0) * tr(adj(L(0)) @ dL/ds|_0),

with a_j the characteristic-polynomial coefficients of the generator and
adj the adjugate. The zero-frequency noise follows from the second-order
truncation of the polynomial and additionally needs the derivative of the
adjugate in the counting variable. Both come out of one Faddeev-LeVerrier
recursion, run in extended precision: the recursion's last coefficients are
small differences of large products, and 80-bit arithmetic keeps the
cancellation noise far below every tolerance used here.

The recursion also takes a stack of matrices. The generating function G(s)
uses that: ``cgf`` plans its whole step grid first, takes the polynomials
of every step from one stacked pass, and leaves only the Newton polish of
the continued root sequential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    ContinuationError,
    NoiseNotApplicableError,
    ValidationError,
)
from .liouvillian import CountingFamily, build_counting_family
from .model import QarModel

_LD = np.longdouble


@dataclass(frozen=True, eq=False)
class CharPoly:
    """Coefficients a_1..a_N of det(lambda I - M) = lambda^N + a_1 lambda^(N-1) + ...

    Also carries the adjugate assembled from the penultimate recursion step,
    adj(M) = (-1)^(N-1) (M^(N-1) + a_1 M^(N-2) + ... + a_{N-1} I).
    For a stack of matrices ``coeffs`` is (..., N) and ``adjugate`` is
    (..., N, N); ``coefficient`` reads a single polynomial.
    """

    coeffs: np.ndarray
    adjugate: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    def coefficient(self, j: int) -> float:
        """a_j with the monic convention a_0 = 1."""
        if j == 0:
            return 1.0
        return float(self.coeffs[j - 1])

    def monic(self) -> np.ndarray:
        """[1, a_1, ..., a_N] along the last axis, the np.polyval coefficient order."""
        return np.concatenate([np.ones_like(self.coeffs[..., :1]), self.coeffs], axis=-1)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only long-double identity of size n, shared by every recursion."""
    ident = np.eye(n, dtype=_LD)
    ident.flags.writeable = False
    return ident


def charpoly(m: np.ndarray) -> CharPoly:
    """Faddeev-LeVerrier coefficients and adjugate of a square matrix or a stack.

    ``m`` is (N, N) or (..., N, N); every matrix of a stack gets the same
    operations in the same order as a lone call, so the results are bitwise
    those of one call per matrix.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"charpoly needs a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    if n == 1:
        return CharPoly(coeffs=np.negative(m[..., 0]).astype(float), adjugate=np.ones(m.shape))
    ml = m.astype(_LD)
    a = np.zeros(m.shape[:-1], dtype=_LD)
    # M_1 = M, M_(k+1) = M (M_k + a_k I); adj(M) is (-1)^(N-1) (M_(N-1) + a_(N-1) I)
    mk = ml
    for k in range(1, n + 1):
        ak = mk.trace(axis1=-2, axis2=-1) / -k
        a[..., k - 1] = ak
        if k == n:
            break
        adj = mk + ak[..., None, None] * _identity(n)
        mk = ml @ adj
    return CharPoly(coeffs=a.astype(float), adjugate=(adj if n % 2 else -adj).astype(float))


def adjugate(m: np.ndarray) -> np.ndarray:
    """adj(M), satisfying M @ adj(M) = det(M) I (defined for singular M too)."""
    return charpoly(m).adjugate


def adjugate_derivative(family: CountingFamily) -> np.ndarray:
    """Exact d/ds adj(L(s)) at s = 0.

    Forward-mode differentiation of the Faddeev-LeVerrier recursion: the
    tangent of each step is propagated alongside the primal, seeded with the
    family's exact d1 matrix, so no step size enters.
    """
    m = family.base.astype(_LD)
    dm = family.d1.astype(_LD)
    n = m.shape[0]
    if n == 1:
        return np.zeros((1, 1))
    ident = _identity(n)
    mk = ident
    dmk = np.zeros_like(m)
    for k in range(1, n + 1):
        dmk = dm @ mk + m @ dmk
        mk = m @ mk
        ak = mk.trace() / -k
        dak = dmk.trace() / -k
        if k == n - 1:
            dadj = (-1.0) ** (n - 1) * (dmk + dak * ident)
        mk = mk + ak * ident
        dmk = dmk + dak * ident
    return np.asarray(dadj, dtype=float)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """tr(a @ b) by compensated summation over the products at b's nonzero entries.

    ``a`` may be a stack (..., N, N); each of its matrices gets its own exactly
    rounded ``fsum`` over Python-float products, and a 2-D ``a`` returns a float.
    The products where a is zero are +-0.0 and leave every sum unchanged.
    """
    nonzero = [
        (i, j, x) for i, row in enumerate(b.tolist()) for j, x in enumerate(row) if x != 0.0
    ]
    stack = a.reshape(-1, *b.shape).tolist()
    sums = [math.fsum(m[j][i] * x for i, j, x in nonzero) for m in stack]
    return sums[0] if a.ndim == 2 else np.array(sums).reshape(a.shape[:-2])


def _current_from_family(family: CountingFamily) -> tuple[float, float, CharPoly]:
    """(current, its sign-certificate numerator, charpoly of L(0)) at the counted bath."""
    cp = charpoly(family.base)
    n = cp.n
    a_pen = cp.coefficient(n - 1)
    if a_pen <= 0.0:
        raise ConsistencyError(
            f"a_(N-1)(0) = {a_pen:.3g} is not positive; the generator does not "
            "describe a relaxing connected model"
        )
    # + 0.0 turns the -0.0 of a model without current into +0.0
    value = (-1.0) ** (n + 1) * _trace_product(cp.adjugate, family.d1) + 0.0
    return value / a_pen, value, cp


def heat_current(model: QarModel, bath: int) -> float:
    """Mean heat current from one bath into the system (positive = absorbed)."""
    family = build_counting_family(model, bath)
    current, _, _ = _current_from_family(family)
    return current


def cooling_condition(model: QarModel) -> tuple[float, bool]:
    """Sign certificate for refrigeration of the cold bath.

    Returns the trace expression (-1)^(N+1) tr(adj(L(0)) dL/ds) counted at the
    cold bath; it shares its sign with the cold current because a_{N-1}(0) > 0.
    """
    family = build_counting_family(model, model.cold_index)
    _, value, _ = _current_from_family(family)
    return value, value > 0.0


_NOISE_PRECOND_SAMPLES = (0.5, -0.5, 1.0, -1.0)


def _check_noise_precondition(family: CountingFamily, cp0: CharPoly, rtol: float) -> None:
    """The truncated noise formula needs a_{N-1}(s), a_{N-2}(s) constant in s.

    ``cp0`` is the characteristic polynomial of L(0).
    """
    n = cp0.n
    samples = np.array(_NOISE_PRECOND_SAMPLES) / family.energy_span
    stack = family.evaluate_extended(samples)
    for j in (n - 1, n - 2):
        ref = cp0.coefficient(j)
        if j == 0:
            continue  # monic coefficient, constant by definition
        for s, l_s in zip(samples.tolist(), stack):
            dev = abs(charpoly(l_s).coefficient(j) - ref)
            if dev > rtol * abs(ref):
                raise NoiseNotApplicableError(
                    f"coefficient a_{j}(s) varies with the counting variable "
                    f"(relative deviation {dev / abs(ref):.3g} at s = {s:.3g}); "
                    "the truncated noise formula needs the counted bath to own "
                    "its transitions exclusively"
                )


def noise(model: QarModel, bath: int, *, precondition_rtol: float = 1e-10) -> float:
    """Zero-frequency noise of the heat current at one bath.

    Raises NoiseNotApplicableError when other baths share the counted bath's
    transitions (the truncation is then uncontrolled).
    """
    family = build_counting_family(model, bath)
    current, _, cp = _current_from_family(family)
    _check_noise_precondition(family, cp, precondition_rtol)
    n = cp.n
    a_pen = cp.coefficient(n - 1)
    dadj = adjugate_derivative(family)
    traces = _trace_product(dadj, family.d1) + _trace_product(cp.adjugate, family.d2)
    # + 0.0 as in _current_from_family
    return (-1.0) ** (n + 1) / a_pen * traces - 2.0 * (
        cp.coefficient(n - 2) / a_pen
    ) * current**2 + 0.0


def _constant_coefficient(family: CountingFamily, s: float | np.ndarray) -> float | np.ndarray:
    """a_N(s) = (-1)^N det(L(s)) with det(L(0)) dropped analytically.

    L(s) differs from L(0) only by the k * expm1(s * dE) corrections of the
    counted transitions. Adding every row of L(s) to its last row leaves the
    determinant unchanged and turns that row into 1^T L(s) = 1^T L(0) plus the
    column sums of the corrections, where 1^T L(0) = 0 exactly (columns of a
    generator sum to zero). So the last row is replaced by the correction
    column sums alone and one determinant remains. This removes the O(1)
    cancellation that otherwise buries the small-s behaviour of the constant
    coefficient in roundoff. A family with nothing counted gives a zero row,
    so a_N = 0.

    ``s`` is a scalar (a float comes back) or a 1-D array, whose determinants
    are taken as one stack.
    """
    grid = np.atleast_1d(np.asarray(s, dtype=float))
    a_n = _row_replaced_det(*family._dressed_stack(grid))
    return float(a_n[0]) if np.ndim(s) == 0 else a_n


def _row_replaced_det(stack: np.ndarray, col_sums: np.ndarray) -> np.ndarray:
    """(-1)^N det of every matrix of ``stack`` with its last row set to ``col_sums``."""
    m = stack.astype(float)
    m[:, -1] = col_sums
    return (-1.0) ** m.shape[-1] * np.linalg.det(m)


def _step_polynomials(family: CountingFamily, grid: list[float]) -> np.ndarray:
    """Monic coefficients [1, a_1(s_k), ..., a_N(s_k)] of every step, shape (K, N + 1).

    One long-double stack of L(s_k) and one stacked recursion give a_1..a_(N-1);
    a_N comes from one stacked row-replaced determinant of the same stack.
    """
    stack, col_sums = family._dressed_stack(np.asarray(grid, dtype=float))
    coeffs = charpoly(stack).monic()
    coeffs[:, -1] = _row_replaced_det(stack, col_sums)
    return coeffs


def _first_collision(
    coeffs: np.ndarray, lams: list[float], collision_rtol: float
) -> tuple[int, float, float] | None:
    """First step whose root has another root within ``collision_rtol`` of the scale.

    The roots are the eigenvalues of the steps' companion matrices, taken in
    one stacked ``eigvals`` (``cgf`` passes the steps that p'(G) left undecided).
    A zero a_N (a counted bath without couplings) leaves a zero last column,
    whose eigenvalue 0 comes out within roundoff of the spectral scale.
    Returns (step, distance to the nearest other root, spectral scale) or None.
    """
    k, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n < 2 or k == 0:
        return None
    comp = np.zeros((k, n, n))
    comp[:, 0, :] = np.negative(coeffs[:, 1:])
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    scale = np.max(np.abs(roots), axis=1)
    gap = np.sort(np.abs(roots - np.asarray(lams)[:, None]), axis=1)[:, 1]
    hit = np.flatnonzero(gap < collision_rtol * scale)
    if not hit.size:
        return None
    return int(hit[0]), float(gap[hit[0]]), float(scale[hit[0]])


def _certified_separation(poly: list[float], deriv: list[float], lam: float, rtol: float) -> bool:
    """Whether p'(lam) proves every other root at least ``rtol`` of the scale away.

    p'(lam) = prod(lam - r_i) over the other roots, each factor at most 2F with F
    the Fujiwara bound on the spectral radius, so the nearest one lies at least
    |p'(lam)| / (2F)^(N-2) away. The factor 4 on rtol * F absorbs the roundoff of
    the root and of the companion eigenvalues; a non-finite bound decides nothing.
    """
    n = len(deriv)
    dp = 0.0
    for c in deriv:
        dp = dp * lam + c
    radii = [abs(c) ** (1.0 / j) for j, c in enumerate(poly[1:-1], start=1)]
    f = 2.0 * max(radii + [abs(poly[-1] / 2.0) ** (1.0 / n)])
    try:
        bound = 4.0 * rtol * f * (2.0 * f) ** (n - 2)
    except OverflowError:
        return False
    return math.isfinite(bound) and abs(dp) >= bound


def _plan_steps(
    flat: np.ndarray, ds_max: float
) -> tuple[list[float], set[int], list[tuple[int, int]]]:
    """The continuation grid for the targets ``flat``, planned before any step.

    The positive targets come first, then the negative ones, each side in
    order of |s| from s = 0; between consecutive targets the path takes
    n = ceil(|s_to - s_prev| / ds_max) equal steps. Returns the steps in
    visiting order, the steps where a side starts again from G(0) = 0, and
    (target index, step index) for every nonzero target.
    """
    grid: list[float] = []
    side_starts = set()
    reached = []
    values = flat.tolist()
    for sign in (1.0, -1.0):
        side_starts.add(len(grid))
        s_prev = 0.0
        # (|s|, index) pairs sort by |s| and keep ties in input order
        for _, i in sorted((abs(v), i) for i, v in enumerate(values) if v * sign > 0.0):
            s_to = values[i]
            if s_to != s_prev:
                n_steps = max(1, int(math.ceil(abs(s_to - s_prev) / ds_max)))
                grid.extend(
                    s_prev + (s_to - s_prev) * k / n_steps for k in range(1, n_steps + 1)
                )
            reached.append((i, len(grid) - 1))
            s_prev = s_to
    return grid, side_starts, reached


def _continue_root(
    family: CountingFamily,
    grid: list[float],
    side_starts: set[int],
    newton_rtol: float,
    max_newton_iter: int,
    collision_rtol: float,
) -> list[float]:
    """The continued root at every step of ``grid``.

    Newton in Python floats, seeded from the previous step's root (or from 0
    where a side starts), is the only sequential part. A failure is reported
    at the earliest failing step; within one step a Newton failure comes
    before a collision.
    """
    coeffs = _step_polynomials(family, grid)
    n = coeffs.shape[1] - 1
    lams: list[float] = []
    undecided: list[int] = []
    newton_error = None
    lam = 0.0
    for k, poly in enumerate(coeffs.tolist()):
        if k in side_starts:
            lam = 0.0
        deriv = [c * (n - j) for j, c in enumerate(poly[:-1])]
        converged = False
        step = math.nan
        for _ in range(max_newton_iter):
            p = 0.0
            for c in poly:
                p = p * lam + c
            dp = 0.0
            for c in deriv:
                dp = dp * lam + c
            if dp == 0.0:
                break
            step = p / dp
            lam -= step
            if abs(step) <= newton_rtol * abs(lam) + 1e-300:
                converged = True
                break
        if not converged:
            newton_error = ContinuationError(
                f"Newton did not converge at s = {grid[k]:.6g} "
                f"(last step {step:.3g}, root estimate {lam:.3g})"
            )
            break
        lams.append(lam)
        if n > 1 and not _certified_separation(poly, deriv, lam, collision_rtol):
            undecided.append(k)
    collision = _first_collision(coeffs[undecided], [lams[k] for k in undecided], collision_rtol)
    if collision is not None:
        first, gap, scale = collision
        k = undecided[first]
        raise ContinuationError(
            f"root collision at s = {grid[k]:.6g}: nearest other root within "
            f"{gap:.3g} (< {collision_rtol:.1g} of scale {scale:.3g})"
        )
    if newton_error is not None:
        raise newton_error
    return lams


def cgf(
    family: CountingFamily,
    s: float | np.ndarray,
    *,
    window_factor: float = 4.0,
    step_factor: float = 0.05,
    newton_rtol: float = 1e-12,
    max_newton_iter: int = 100,
    collision_rtol: float = 1e-8,
) -> float | np.ndarray:
    """Scaled cumulant generating function G(s) of the counted heat.

    G is the root of the characteristic polynomial of L(s) continued from
    G(0) = 0 by stepping s and Newton-polishing at each step, which pins the
    physical branch without ranking eigenvalues. Root collisions along the
    path (closer than ``collision_rtol`` of the spectral scale) abort.

    ``s`` is a scalar (a float comes back) or an array (an array of the same
    shape comes back, in input order; targets equal to 0 give 0.0). Every
    target is checked against the window before any step. On each side of
    s = 0 the targets share one continuation, visited in order of |s|:
    between consecutive targets the path takes n = ceil(|s_to - s_prev| /
    ds_max) equal steps, so a lone target is reached on the grid s * k / n
    from the origin.

    The whole step grid is planned first, so the polynomials of every step
    come from one stacked pass (one long-double stack of L(s_k), one stacked
    ``charpoly``, one stacked determinant for a_N). Newton is the only
    sequential part; p'(G) certifies each step's root separation, and only the
    steps it cannot decide get one stacked companion ``eigvals``.
    """
    targets = np.asarray(s, dtype=float)
    flat = targets.ravel()
    window = window_factor * max(family.betas)
    if not np.all(np.abs(flat) <= window):
        raise ValidationError(
            f"|s| = {np.max(np.abs(flat)):.3g} outside the continuation window "
            f"{window:.3g} (= {window_factor} * max beta)"
        )
    grid, side_starts, reached = _plan_steps(flat, step_factor / family.energy_span)
    out = np.zeros(flat.shape)
    if grid:
        lams = _continue_root(
            family, grid, side_starts, newton_rtol, max_newton_iter, collision_rtol
        )
        for i, k in reached:
            out[i] = lams[k]
    if targets.ndim == 0:
        return float(out[0])
    return out.reshape(targets.shape)


def numeric_cumulants(family: CountingFamily, h: float = 1e-4) -> tuple[float, float]:
    """Finite-difference first and second cumulants of G at s = 0."""
    if not 0.0 < h <= 1e-3:
        raise ValidationError(f"step must satisfy 0 < h <= 1e-3, got {h}")
    g_plus, g_minus = cgf(family, np.array([h, -h])).tolist()
    return (g_plus - g_minus) / (2.0 * h), (g_plus + g_minus) / (h * h)


@dataclass(frozen=True, eq=False)
class FcsReport:
    """Single-contact summary: current, optional noise, cooling certificate."""

    bath_label: str
    current: float
    cooling_value: float
    cooling: bool
    charpoly_coeffs: tuple[float, ...]
    noise: float | None = None
    cop: float | None = None
    cop_carnot: float | None = None

    def to_dict(self) -> dict:
        return {
            "bath": self.bath_label,
            "current": self.current,
            "noise": self.noise,
            "cooling_value": self.cooling_value,
            "cooling": self.cooling,
            "charpoly": list(self.charpoly_coeffs),
            "cop": self.cop,
            "cop_carnot": self.cop_carnot,
        }


def fcs_report(
    model: QarModel,
    bath: int | None = None,
    *,
    with_noise: bool = False,
) -> FcsReport:
    """Assemble the per-contact report; noise only on request (it may refuse)."""
    if bath is None:
        bath = model.cold_index
    family = build_counting_family(model, bath)
    current, value, cp = _current_from_family(family)
    if bath == model.cold_index:
        cooling = value > 0.0
    else:
        value, cooling = cooling_condition(model)
    return FcsReport(
        bath_label=model.baths[bath].label,
        current=current,
        cooling_value=value,
        cooling=cooling,
        charpoly_coeffs=tuple(float(c) for c in cp.coeffs),
        noise=noise(model, bath) if with_noise else None,
    )
