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
uses that: ``cgf`` takes the polynomials of all its targets from one stacked
pass, then finds each target's Perron root by its own Newton solve.
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
from .liouvillian import WORKING_DTYPE, CountingFamily, _identity, build_counting_family
from .model import QarModel


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


def _faddeev_leverrier(m: np.ndarray, dm: np.ndarray | None = None):
    """([a_1, ..., a_N], adj(M)) of a long-double (..., N, N) ``m``; d adj(M) with ``dm``.

    M_1 = M, M_(k+1) = M (M_k + a_k I), a_k = -tr(M_k) / k, and adj(M) is
    (-1)^(N-1) (M_(N-1) + a_(N-1) I). A tangent ``dm`` is carried alongside,
    dM_(k+1) = dM (M_k + a_k I) + M (dM_k + da_k I), up to step N-1. N = 1 has
    no step: a_1 = -M, adj(M) = I and d adj(M) = 0.
    """
    n = m.shape[-1]
    if n == 1:
        return np.zeros_like(dm) if dm is not None else ([m[..., 0, 0] / -1], np.ones_like(m))
    ident = _identity(n, WORKING_DTYPE)
    coeffs = []
    mk, dmk = m, dm
    for k in range(1, n):
        ak = mk.trace(axis1=-2, axis2=-1) / -k
        coeffs.append(ak)
        adj = mk + ak[..., None, None] * ident
        if dm is not None:
            dadj = dmk + (dmk.trace(axis1=-2, axis2=-1) / -k)[..., None, None] * ident
            if k == n - 1:
                return dadj if n % 2 else -dadj
            dmk = dm @ adj + m @ dadj
        mk = m @ adj
    coeffs.append(mk.trace(axis1=-2, axis2=-1) / -n)
    return coeffs, adj if n % 2 else -adj


def charpoly(m: np.ndarray) -> CharPoly:
    """Faddeev-LeVerrier coefficients and adjugate of a square matrix or a stack.

    ``m`` is (N, N) or (..., N, N); every matrix of a stack gets the same
    operations in the same order as a lone call, so the results are bitwise
    those of one call per matrix.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValidationError(f"charpoly needs a nonempty square matrix, got shape {m.shape}")
    if m.dtype.kind not in "biuf":
        raise ValidationError(f"charpoly needs a real matrix, got dtype {m.dtype}")
    coeffs, adj = _faddeev_leverrier(m.astype(WORKING_DTYPE))
    coeffs = np.array(coeffs, dtype=float)  # (N, ...): move the coefficient axis last
    return CharPoly(coeffs.transpose((*range(1, coeffs.ndim), 0)), adj.astype(float))


def adjugate_derivative(family: CountingFamily) -> np.ndarray:
    """Exact d/ds adj(L(s)) at s = 0.

    Forward-mode differentiation of the Faddeev-LeVerrier recursion: the
    tangent of each step is propagated alongside the primal, seeded with the
    exact dL/ds at s = 0 (dE * k at each dressed entry), so no step size enters.
    """
    ld = WORKING_DTYPE
    d1 = np.zeros(family.base.shape, dtype=ld)
    for row, col, k, de in family.dressed:
        d1[row, col] += de * k
    return _faddeev_leverrier(family.base.astype(ld), d1).astype(float)


def _checked_fsum(terms: list[float], what: str, floor: bool = True) -> float:
    """Exactly rounded sum of M rate products, each of nonzero factors, refused unless their
    gross sum of |products| is finite and, with ``floor``, at least M 2^-1022: a product below
    2^-1022 errs by up to 2^-1075, which may then exceed u of the gross."""
    gross = sum(map(abs, terms))
    if not gross < math.inf:
        raise ConsistencyError(f"{what}'s {len(terms)} rate products overflow (gross {gross})")
    if floor and gross < len(terms) * 2.0**-1022:
        raise ConsistencyError(
            f"{what}'s {len(terms)} rate products underflow (gross {gross:.3g} < "
            f"{len(terms)} * 2^-1022), so their rounding may exceed u of the gross flux"
        )
    return math.fsum(terms)


def _trace_product(a: np.ndarray, transitions, order: int) -> float:
    """tr(a @ d^order L/ds^order) at s = 0: the ``_checked_fsum`` of a[col, row] dE^order k over
    the counted transitions (row, col, k, dE), where both factors are nonzero."""
    rows = a.tolist()
    terms = [y * x for row, col, k, de in transitions
             if (x := de * k if order == 1 else de * de * k) and (y := rows[col][row])]
    return _checked_fsum(terms, "the trace")


def _check_finite_generator(l0: np.ndarray) -> None:
    if not np.isfinite(l0).all():
        raise ConsistencyError(
            "L(0) has an entry that is not finite: the rates or their sums leave double range"
        )


@np.errstate(over="ignore", invalid="ignore")  # a_N may leave double range
def _base_charpoly(l0: np.ndarray) -> CharPoly:
    """charpoly of L(0), refused unless L(0) is finite and a_(N-1)(0) positive and finite.

    From N = 3 on, a non-finite entry of L(0) reaches the diagonal of M_2 and, through a_k I,
    of every later M_k, so a_(N-1) is not finite either: L(0) itself is read only where
    a_(N-1) fails, or below N = 3."""
    cp = charpoly(l0)
    a_pen = cp.coefficient(cp.n - 1)
    if cp.n < 3 or not 0.0 < a_pen < math.inf:
        _check_finite_generator(l0)
    if not 0.0 < a_pen < math.inf:
        raise ConsistencyError(
            f"a_(N-1)(0) = {a_pen:.3g} is not positive and finite; the generator does not "
            "describe a relaxing connected model in double range"
        )
    return cp


def _current_from_family(transitions, cp: CharPoly) -> tuple[float, float]:
    """(current, its sign-certificate numerator) from L(0)'s ``cp`` and the counted transitions
    (row, col, k, dE): the one place every s = 0 current and certificate is formed."""
    n = cp.n
    # + 0.0 turns the -0.0 of a model without current into +0.0
    value = (-1.0) ** (n + 1) * _trace_product(cp.adjugate, transitions, 1) + 0.0
    return value / cp.coefficient(n - 1), value


def heat_current(model: QarModel, bath: int) -> float:
    """Mean heat current from one bath into the system (positive = absorbed)."""
    family = build_counting_family(model, bath)
    return _current_from_family(family.dressed, _base_charpoly(family.base))[0]


def cooling_condition(model: QarModel) -> tuple[float, bool]:
    """Sign certificate for refrigeration of the cold bath.

    Returns the trace expression (-1)^(N+1) tr(adj(L(0)) dL/ds) counted at the
    cold bath; it shares its sign with the cold current because a_{N-1}(0) > 0.
    """
    family = build_counting_family(model, model.cold_index)
    _, value = _current_from_family(family.dressed, _base_charpoly(family.base))
    return value, value > 0.0


# s * energy span at each sample of the precondition, and its fixed relative tolerance
_NOISE_PRECOND_SAMPLES = (0.5, -0.5, 1.0, -1.0)
_NOISE_PRECOND_RTOL = 1e-10


def _check_noise_precondition(family: CountingFamily, cp0: CharPoly) -> None:
    """The truncated noise formula needs a_{N-1}(s), a_{N-2}(s) constant in s; ``cp0`` is L(0)'s."""
    n = cp0.n
    samples = np.array(_NOISE_PRECOND_SAMPLES) / family.energy_span
    stack, _ = family.dressed_stack(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _base_charpoly
        for j in (n - 1, n - 2)[: n - 1]:  # a_0 = 1 is constant by definition
            ref = cp0.coefficient(j)
            for s, l_s in zip(samples.tolist(), stack):
                dev = abs(charpoly(l_s).coefficient(j) - ref)
                if dev > _NOISE_PRECOND_RTOL * abs(ref):
                    raise NoiseNotApplicableError(
                        f"coefficient a_{j}(s) varies with the counting variable "
                        f"(relative deviation {dev / abs(ref):.3g} at s = {s:.3g}); "
                        "the truncated noise formula needs the counted bath to own "
                        "its transitions exclusively"
                    )


def noise(model: QarModel, bath: int) -> float:
    """Zero-frequency noise of the heat current at one bath.

    Raises NoiseNotApplicableError when other baths share the counted bath's
    transitions (the truncation is then uncontrolled).
    """
    return _current_and_noise(build_counting_family(model, bath))[1]


def _current_and_noise(family: CountingFamily) -> tuple[float, float]:
    """(current, noise) of one counting family; ``noise`` and ``qarfcs noise`` share it."""
    cp = _base_charpoly(family.base)
    _check_noise_precondition(family, cp)
    current, _ = _current_from_family(family.dressed, cp)
    n = cp.n
    a_pen = cp.coefficient(n - 1)
    dadj, dressed = adjugate_derivative(family), family.dressed
    traces = _trace_product(dadj, dressed, 1) + _trace_product(cp.adjugate, dressed, 2)
    # + 0.0 as in _current_from_family
    return current, (-1.0) ** (n + 1) / a_pen * traces - 2.0 * (
        cp.coefficient(n - 2) / a_pen
    ) * current**2 + 0.0


def _target_polynomials(family: CountingFamily, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[1, a_1(s_k), ..., a_N(s_k)] of every L(s_k), shape (K, N + 1), and an upper bound on G(s_k).

    One long-double stack of L(s_k) and one stacked recursion give every
    coefficient and the adjugate. Where |s_k| max|dE| <= ``_ROW_REPLACED_REACH``
    over the dressed entries, a_N is instead (-1)^N det of L(s_k) with its last
    row replaced by the column sums 1^T L(s_k), which leaves the determinant
    unchanged; 1^T L(0) = 0 exactly, so these are the column sums of the
    corrections alone and carry no roundoff of the base generator. The
    cofactors of a last row do not depend on it, so this is the expansion
    (-1)^N sum_j colsum_j adj(L(s_k))_(j, N-1) with the recursion's adjugate,
    within 2^-50 sum_j |colsum_j adj_(j, N-1)| of the exact determinant: near
    s = 0 it keeps the digits that the recursion's a_N loses to cancellation,
    and a family with nothing counted gives a_N = 0. Farther out the replaced
    row outgrows the determinant by orders of magnitude and the expansion has
    no digit left, while the recursion's a_N has all of them. A target whose
    L(s_k) has an entry beyond double range, or whose coefficients are not
    finite, raises ContinuationError, the first such target in input order.

    The bound, shape (K,), is the smaller of two bounds on every real root:
    the largest column sum of L(s_k) (Collatz-Wielandt) and the Fujiwara bound
    2 max(|a_1|, |a_2|^(1/2), ..., |a_N / 2|^(1/N)) on every root's modulus.
    The column sum is close to G near s = 0 but grows like k * exp(|s dE|);
    the Fujiwara bound stays within 2N of the spectral radius.
    """
    s = np.asarray(s, dtype=float)
    stack, corrections = family.dressed_stack(s)
    cols = np.array([col for _, col, _, _ in family.dressed], dtype=int)
    col_sums = np.zeros(stack.shape[:-1], dtype=stack.dtype)
    np.add.at(col_sums, (slice(None), cols), corrections)
    max_de = max((abs(de) for *_, de in family.dressed), default=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cp = charpoly(stack)
        coeffs = cp.monic()
        row_replaced = (-1.0) ** cp.n * (col_sums * cp.adjugate[..., -1]).sum(axis=-1)
    double_max = np.finfo(float).max
    if not (np.abs(stack).max() <= double_max and np.isfinite(coeffs).all()):
        inside = np.all(np.abs(stack) <= double_max, axis=(-2, -1))
        k = np.argmin(inside & np.all(np.isfinite(coeffs), axis=-1))
        what = "the coefficients of L(s) are" if inside[k] else "an entry of L(s) is"
        raise ContinuationError(f"{what} beyond double range at s = {s[k]:.6g}")
    np.copyto(coeffs[:, -1], row_replaced, where=np.abs(s) * max_de <= _ROW_REPLACED_REACH)
    n = coeffs.shape[1] - 1
    scaled = np.abs(coeffs[:, 1:])
    scaled[:, -1] /= 2.0
    fujiwara = 2.0 * np.max(scaled ** (1.0 / np.arange(1, n + 1)), axis=-1)
    return coeffs, np.minimum(col_sums.max(axis=-1).astype(float), fujiwara)


# the fixed settings of G(s); ``cgf`` says where each enters
_WINDOW_FACTOR = 4.0
_ROW_REPLACED_REACH = 4.0
_NEWTON_RTOL = 1e-12
_MAX_NEWTON_ITER = 100


def cgf(family: CountingFamily, s: float | np.ndarray) -> float | np.ndarray:
    """Scaled cumulant generating function G(s) of the counted heat.

    For real s, L(s) is a Metzler matrix on the model's connected graph, so
    G(s), its eigenvalue of largest real part, is its Perron root: real and
    simple. Every root of the characteristic polynomial p, and by Gauss-Lucas
    every root of p' and p'', has real part <= G, so p is increasing and
    convex to the right of G. Newton started at ``_target_polynomials``'s
    upper bound therefore descends monotonically onto G, with no seed from
    another target and no other root to pass. It stops at a relative step of
    ``_NEWTON_RTOL``; a target not reached within ``_MAX_NEWTON_ITER``
    iterations, or whose p overflows on the way, raises ContinuationError,
    the first such target in input order.

    ``s`` is a scalar (a float comes back) or an array (an array of the same
    shape comes back, in input order; targets equal to 0 give 0.0). Every
    target is checked against the window |s| <= ``_WINDOW_FACTOR`` * max beta
    first. The polynomials of all targets come from one stacked pass (one
    long-double stack of L(s) and one stacked ``charpoly``, whose adjugate
    gives a_N where |s dE| <= ``_ROW_REPLACED_REACH``); a target that pass
    cannot put in double range is refused before any solve. Each target is
    then solved alone.
    """
    targets = np.asarray(s, dtype=float)
    flat = targets.ravel()
    window = _WINDOW_FACTOR * max(family.betas)
    if not np.all(np.abs(flat) <= window):
        raise ValidationError(
            f"|s| = {np.max(np.abs(flat)):.3g} outside the continuation window "
            f"{window:.3g} (= {_WINDOW_FACTOR} * max beta)"
        )
    out = np.zeros(flat.shape)
    solve = np.flatnonzero(flat)
    if solve.size:
        coeffs, bounds = _target_polynomials(family, flat[solve])
        n = coeffs.shape[1] - 1
        for i, poly, lam in zip(solve.tolist(), coeffs.tolist(), bounds.tolist()):
            deriv = [c * (n - j) for j, c in enumerate(poly[:-1])]
            converged = False
            step = math.nan
            for _ in range(_MAX_NEWTON_ITER):
                p = dp = 0.0
                for c in poly:
                    p = p * lam + c
                for c in deriv:
                    dp = dp * lam + c
                if dp == 0.0:
                    break
                step = p / dp
                lam -= step
                if abs(step) <= _NEWTON_RTOL * abs(lam) + 1e-300:
                    # p(lam) overflows far above the root: a step to -inf stops here
                    converged = math.isfinite(lam)
                    break
            if not converged:
                raise ContinuationError(
                    f"Newton did not converge at s = {flat[i]:.6g} "
                    f"(last step {step:.3g}, root estimate {lam:.3g})"
                )
            out[i] = lam
    if targets.ndim == 0:
        return float(out[0])
    return out.reshape(targets.shape)


def numeric_cumulants(family: CountingFamily) -> tuple[float, float]:
    """Central-difference first and second cumulants of G at s = 0, step 1e-4."""
    h = 1e-4
    g_plus, g_minus = cgf(family, np.array([h, -h])).tolist()
    return (g_plus - g_minus) / (2.0 * h), (g_plus + g_minus) / (h * h)
