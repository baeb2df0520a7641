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
"""

from __future__ import annotations

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
    """

    coeffs: np.ndarray
    adjugate: np.ndarray

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def coefficient(self, j: int) -> float:
        """a_j with the monic convention a_0 = 1."""
        if j == 0:
            return 1.0
        return float(self.coeffs[j - 1])

    def monic(self) -> np.ndarray:
        """[1, a_1, ..., a_N], the np.polyval coefficient order."""
        return np.concatenate([[1.0], self.coeffs])


def charpoly(m: np.ndarray) -> CharPoly:
    """Faddeev-LeVerrier coefficients and adjugate of a square matrix."""
    m = np.asarray(m)
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValidationError(f"charpoly needs a square matrix, got shape {m.shape}")
    if n == 1:
        return CharPoly(coeffs=np.array([-float(m[0, 0])]), adjugate=np.eye(1))
    ml = m.astype(_LD)
    ident = np.eye(n, dtype=_LD)
    a = np.zeros(n, dtype=_LD)
    mk = ident
    adj = None
    for k in range(1, n + 1):
        mk = ml @ mk
        a[k - 1] = -np.trace(mk) / k
        if k == n - 1:
            adj = (-1.0) ** (n - 1) * (mk + a[k - 1] * ident)
        mk = mk + a[k - 1] * ident
    return CharPoly(
        coeffs=np.asarray(a, dtype=float),
        adjugate=np.asarray(adj, dtype=float),
    )


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
    ident = np.eye(n, dtype=_LD)
    mk = ident
    dmk = np.zeros_like(m)
    dadj = None
    for k in range(1, n + 1):
        dmk = dm @ mk + m @ dmk
        mk = m @ mk
        ak = -np.trace(mk) / k
        dak = -np.trace(dmk) / k
        if k == n - 1:
            dadj = (-1.0) ** (n - 1) * (dmk + dak * ident)
        mk = mk + ak * ident
        dmk = dmk + dak * ident
    return np.asarray(dadj, dtype=float)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a @ b) by compensated summation over the nonzero products."""
    n = a.shape[0]
    return math.fsum(
        a[i, j] * b[j, i]
        for i in range(n)
        for j in range(n)
        if a[i, j] != 0.0 and b[j, i] != 0.0
    )


def _current_from_family(family: CountingFamily) -> tuple[float, float, CharPoly]:
    cp = charpoly(family.base)
    n = cp.n
    a_pen = cp.coefficient(n - 1)
    if a_pen <= 0.0:
        raise ConsistencyError(
            f"a_(N-1)(0) = {a_pen:.3g} is not positive; the generator does not "
            "describe a relaxing connected model"
        )
    value = (-1.0) ** (n + 1) * _trace_product(cp.adjugate, family.d1)
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


def _check_noise_precondition(family: CountingFamily, rtol: float) -> CharPoly:
    """The truncated noise formula needs a_{N-1}(s), a_{N-2}(s) constant in s."""
    cp0 = charpoly(family.base)
    n = cp0.n
    span = family.energy_span
    for j in (n - 1, n - 2):
        ref = cp0.coefficient(j)
        if j == 0:
            continue  # monic coefficient, constant by definition
        for f in _NOISE_PRECOND_SAMPLES:
            s = f / span
            dev = abs(charpoly(family.evaluator(s)).coefficient(j) - ref)
            if dev > rtol * abs(ref):
                raise NoiseNotApplicableError(
                    f"coefficient a_{j}(s) varies with the counting variable "
                    f"(relative deviation {dev / abs(ref):.3g} at s = {s:.3g}); "
                    "the truncated noise formula needs the counted bath to own "
                    "its transitions exclusively"
                )
    return cp0


def noise(model: QarModel, bath: int, *, precondition_rtol: float = 1e-10) -> float:
    """Zero-frequency noise of the heat current at one bath.

    Raises NoiseNotApplicableError when other baths share the counted bath's
    transitions (the truncation is then uncontrolled).
    """
    family = build_counting_family(model, bath)
    cp = _check_noise_precondition(family, precondition_rtol)
    n = cp.n
    a_pen = cp.coefficient(n - 1)
    if a_pen <= 0.0:
        raise ConsistencyError("a_(N-1)(0) must be positive")
    current = (-1.0) ** (n + 1) * _trace_product(cp.adjugate, family.d1) / a_pen
    dadj = adjugate_derivative(family)
    traces = _trace_product(dadj, family.d1) + _trace_product(cp.adjugate, family.d2)
    return (-1.0) ** (n + 1) / a_pen * traces - 2.0 * (
        cp.coefficient(n - 2) / a_pen
    ) * current**2


def _constant_coefficient(family: CountingFamily, s: float) -> float:
    """a_N(s) = (-1)^N det(L(s)) with det(L(0)) dropped analytically.

    L(s) differs from L(0) only by the k * expm1(s * dE) corrections of the
    counted transitions. Adding every row of L(s) to its last row leaves the
    determinant unchanged and turns that row into 1^T L(s) = 1^T L(0) plus the
    column sums of the corrections, where 1^T L(0) = 0 exactly (columns of a
    generator sum to zero). So the last row is replaced by the correction
    column sums alone and one determinant remains. This removes the O(1)
    cancellation that otherwise buries the small-s behaviour of the constant
    coefficient in roundoff.
    """
    n = family.n
    if not family.dressed:
        if np.count_nonzero(family.d1):
            # hand-built family without dressed data: fall back to the
            # recursion's own constant coefficient (generic precision)
            return float(charpoly(family.evaluate_extended(s)).coefficient(n))
        return 0.0
    m = family.base.copy()
    col_sums = np.zeros(n)
    for row, col, kk, de in family.dressed:
        delta = kk * math.expm1(s * de)
        m[row, col] += delta
        col_sums[col] += delta
    m[-1] = col_sums
    return (-1.0) ** n * float(np.linalg.det(m))


def _roots(coeffs: list[float]) -> np.ndarray:
    """Roots of a monic polynomial, as np.roots finds them.

    Trailing zero coefficients are split off as roots at 0 and the rest goes
    through the companion-matrix eigenvalues.
    """
    n_zero = 0
    while n_zero < len(coeffs) - 1 and coeffs[-1 - n_zero] == 0.0:
        n_zero += 1
    p = coeffs[: len(coeffs) - n_zero]
    if len(p) > 1:
        comp = np.diag(np.ones(len(p) - 2), -1)
        comp[0, :] = np.negative(p[1:])
        roots = np.linalg.eigvals(comp)
    else:
        roots = np.zeros(0)
    return np.concatenate([roots, np.zeros(n_zero, roots.dtype)])


def _polish_root(
    family: CountingFamily,
    sk: float,
    lam: float,
    newton_rtol: float,
    max_newton_iter: int,
    collision_rtol: float,
) -> float:
    """Newton-polish the continued root at s = sk and check it stays isolated."""
    coeffs = charpoly(family.evaluate_extended(sk)).monic().tolist()
    coeffs[-1] = _constant_coefficient(family, sk)
    n = len(coeffs) - 1
    deriv = [c * (n - j) for j, c in enumerate(coeffs[:-1])]
    converged = False
    step = math.nan
    for _ in range(max_newton_iter):
        p = 0.0
        for c in coeffs:
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
        raise ContinuationError(
            f"Newton did not converge at s = {sk:.6g} "
            f"(last step {step:.3g}, root estimate {lam:.3g})"
        )
    roots = _roots(coeffs)
    scale = float(np.max(np.abs(roots)))
    others = np.sort(np.abs(roots - lam))
    if len(others) > 1 and others[1] < collision_rtol * scale:
        raise ContinuationError(
            f"root collision at s = {sk:.6g}: nearest other root within "
            f"{others[1]:.3g} (< {collision_rtol:.1g} of scale {scale:.3g})"
        )
    return lam


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
    """
    targets = np.asarray(s, dtype=float)
    flat = targets.ravel()
    window = window_factor * max(family.betas)
    if not np.all(np.abs(flat) <= window):
        raise ValidationError(
            f"|s| = {np.max(np.abs(flat)):.3g} outside the continuation window "
            f"{window:.3g} (= {window_factor} * max beta)"
        )
    ds_max = step_factor / family.energy_span
    out = np.zeros(flat.shape)
    for side in (np.flatnonzero(flat > 0.0), np.flatnonzero(flat < 0.0)):
        lam = 0.0
        s_prev = 0.0
        for i in side[np.argsort(np.abs(flat[side]), kind="stable")]:
            s_to = float(flat[i])
            n_steps = 0
            if s_to != s_prev:
                n_steps = max(1, int(math.ceil(abs(s_to - s_prev) / ds_max)))
            for k in range(1, n_steps + 1):
                sk = s_prev + (s_to - s_prev) * k / n_steps
                lam = _polish_root(
                    family, sk, lam, newton_rtol, max_newton_iter, collision_rtol
                )
            out[i] = lam
            s_prev = s_to
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
