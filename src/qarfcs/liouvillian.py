"""Rate-equation generators and their counting-field dressed families.

Convention: the population column vector p obeys dp/dt = L p, so entry
L[j, i] is the total rate from level i into level j and every column of
L(0) sums to zero. Dressing the rates of one counted bath with exp(s * dE)
factors (s real, s = i*chi) tracks the heat that bath exchanges; heat flowing
into the system counts positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .model import QarModel, rate_table


def bath_generator(model: QarModel, bath: int) -> np.ndarray:
    """Single-bath generator L_mu (off-diagonal rates, zero column sums)."""
    k = rate_table(model, bath)
    return k.T - np.diag(k.sum(axis=1))


def build_generator(model: QarModel) -> np.ndarray:
    """Full generator L(0) = sum over baths of the single-bath generators."""
    return sum(bath_generator(model, b) for b in range(model.n_baths))


@dataclass(frozen=True, eq=False)
class CountingFamily:
    """Counting-dressed generator family for one counted bath.

    ``evaluator`` maps the real counting variable s to the dense matrix L(s);
    ``d1`` and ``d2`` are the exact first and second derivative matrices of
    L(s) at s = 0, built from the rate table (never by differencing). They are
    sparse: only entries of transitions coupled to the counted bath are
    nonzero, with the upward (absorbing) entry +dE*k and the downward entry
    -dE*k in d1, and both entries +dE^2*k in d2.
    """

    base: np.ndarray
    counted_bath: int
    evaluator: Callable[[float], np.ndarray]
    d1: np.ndarray
    d2: np.ndarray
    energies: tuple[float, ...]
    betas: tuple[float, ...]
    dressed: tuple[tuple[int, int, float, float], ...] = ()

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def energy_span(self) -> float:
        return max(self.energies) - min(self.energies)

    def evaluate_extended(self, s: float | np.ndarray) -> np.ndarray:
        """L(s) in extended precision, for one s or a stack over a 1-D array of s.

        The cumulant continuation resolves root shifts far below the double
        rounding of the dressed entries, so the base + k*expm1(s*dE) sums are
        formed in long double there. Families assembled without dressed
        transition data (hand-built evaluators) fall back to the evaluator.
        A scalar gives (N, N) and an array (K, N, N); the scalar call is the
        size-1 case, so every matrix of a stack is bitwise its own call's.
        """
        grid = np.atleast_1d(np.asarray(s, dtype=float))
        if self.dressed:
            rows, cols, kk, de = map(np.array, zip(*self.dressed))
            corrections = kk.astype(np.longdouble) * np.expm1(
                np.multiply.outer(grid.astype(np.longdouble), de.astype(np.longdouble))
            )
            out = np.repeat(self.base.astype(np.longdouble)[None], grid.size, axis=0)
            np.add.at(out, (slice(None), rows, cols), corrections)
        else:
            out = np.stack(
                [np.asarray(self.evaluator(sk), dtype=np.longdouble) for sk in grid.tolist()]
            )
        return out[0] if np.ndim(s) == 0 else out


def build_counting_family(model: QarModel, counted_bath: int) -> CountingFamily:
    """Dress the counted bath's rates with exp(s * dE) factors.

    L(s) is assembled as L(0) plus k * expm1(s * dE) corrections, which makes
    evaluator(0.0) bitwise equal to the bare generator.
    """
    if not 0 <= counted_bath < model.n_baths:
        raise ValidationError(f"counted bath index {counted_bath} out of range")
    base = build_generator(model)
    energies = model.system.energies
    k = rate_table(model, counted_bath)
    n = model.n_levels

    # (row, col, rate, signed energy) per directed counted transition
    dressed: list[tuple[int, int, float, float]] = []
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j or k[i, j] == 0.0:
                continue
            de = energies[j] - energies[i]  # heat absorbed on i -> j
            dressed.append((j, i, k[i, j], de))
            d1[j, i] += de * k[i, j]
            d2[j, i] += de * de * k[i, j]

    def evaluator(s: float) -> np.ndarray:
        out = base.copy()
        if s != 0.0:
            for row, col, kk, de in dressed:
                out[row, col] += kk * np.expm1(s * de)
        return out

    return CountingFamily(
        base=base,
        counted_bath=counted_bath,
        evaluator=evaluator,
        d1=d1,
        d2=d2,
        energies=tuple(energies),
        betas=tuple(b.beta for b in model.baths),
        dressed=tuple(dressed),
    )
