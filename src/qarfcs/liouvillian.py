"""Rate-equation generators and their counting-field dressed families.

Convention: the population column vector p obeys dp/dt = L p, so entry
L[j, i] is the total rate from level i into level j and every column of
L(0) sums to zero. Dressing the rates of one counted bath with exp(s * dE)
factors (s real, s = i*chi) tracks the heat that bath exchanges; heat flowing
into the system counts positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import QarModel, rate_table


def bath_generator(model: QarModel, bath: int) -> np.ndarray:
    """Single-bath generator L_mu (off-diagonal rates, zero column sums)."""
    k = rate_table(model, bath)
    return k.T - np.diag(k.sum(axis=1))


def build_generator(model: QarModel) -> np.ndarray:
    """Full generator L(0), bitwise the sum of ``bath_generator`` over the baths."""
    return generator_from_tables([rate_table(model, b) for b in range(model.n_baths)])


def generator_from_tables(tables: list[np.ndarray]) -> np.ndarray:
    """L(0) from all rate tables: one (B, N, N) stack, summed as ``bath_generator`` sums."""
    stack = np.array(tables)
    return stack.sum(axis=0).T - np.diag(stack.sum(axis=2).sum(axis=0))


@dataclass(frozen=True, eq=False)
class CountingFamily:
    """Counting-dressed generator family for one counted bath.

    ``dressed`` lists every directed transition the counted bath drives as
    (row, col, rate k, signed energy dE) and is the only counted data: L(s)
    is ``base`` plus k * expm1(s * dE) at each (row, col). ``d1`` and ``d2``
    are derived from it once: the exact first and second derivative matrices
    of L(s) at s = 0, dE*k and dE^2*k at each dressed entry (never by
    differencing). An empty ``dressed`` is a family with only its base
    generator, so L(s) = base for every s.
    """

    base: np.ndarray
    counted_bath: int
    energies: tuple[float, ...]
    betas: tuple[float, ...]
    dressed: tuple[tuple[int, int, float, float], ...] = ()
    d1: np.ndarray = field(init=False, repr=False)
    d2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d1 = np.zeros(self.base.shape)
        d2 = np.zeros(self.base.shape)
        for row, col, k, de in self.dressed:
            d1[row, col] += de * k
            d2[row, col] += de * de * k
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def energy_span(self) -> float:
        return max(self.energies) - min(self.energies)

    def _dressed_stack(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L(s_k) and the column sums of L(s_k) - L(0) for a 1-D array of s.

        Both are long double, (K, N, N) and (K, N), and come from one set of
        k * expm1(s * dE) corrections. The column sums are formed from the
        corrections alone, so they carry no roundoff of the base generator.
        """
        rows, cols, k, de = np.array(self.dressed, dtype=float).reshape(-1, 4).T
        rows, cols = rows.astype(int), cols.astype(int)
        ld = np.longdouble
        corrections = k.astype(ld) * np.expm1(np.multiply.outer(s.astype(ld), de.astype(ld)))
        out = np.repeat(self.base.astype(ld)[None], s.size, axis=0)
        np.add.at(out, (slice(None), rows, cols), corrections)
        col_sums = np.zeros(out.shape[:-1], dtype=ld)
        np.add.at(col_sums, (slice(None), cols), corrections)
        return out, col_sums

    def evaluate_extended(self, s: float | np.ndarray) -> np.ndarray:
        """L(s) in extended precision, for one s or a stack over a 1-D array of s.

        The cumulant continuation resolves root shifts far below the double
        rounding of the dressed entries, so the base + k*expm1(s*dE) sums are
        formed in long double. A scalar gives (N, N) and an array (K, N, N);
        the scalar call is the size-1 case, so every matrix of a stack is
        bitwise its own call's.
        """
        out, _ = self._dressed_stack(np.atleast_1d(np.asarray(s, dtype=float)))
        return out[0] if np.ndim(s) == 0 else out

    def evaluator(self, s: float) -> np.ndarray:
        """L(s) rounded to double."""
        return np.asarray(self.evaluate_extended(s), dtype=float)


def build_counting_family(model: QarModel, counted_bath: int) -> CountingFamily:
    """Dress the counted bath's rates with exp(s * dE) factors.

    L(s) is assembled as L(0) plus k * expm1(s * dE) corrections, which makes
    L(0) bitwise equal to the bare generator.
    """
    if not 0 <= counted_bath < model.n_baths:
        raise ValidationError(f"counted bath index {counted_bath} out of range")
    base = build_generator(model)
    energies = model.system.energies
    k = rate_table(model, counted_bath).tolist()
    n = model.n_levels
    # (row, col, rate, signed energy) per directed counted transition; the
    # heat absorbed on i -> j is energies[j] - energies[i]
    dressed = [
        (j, i, k[i][j], energies[j] - energies[i])
        for i in range(n)
        for j in range(n)
        if i != j and k[i][j] != 0.0
    ]
    return CountingFamily(
        base=base,
        counted_bath=counted_bath,
        energies=tuple(energies),
        betas=tuple(b.beta for b in model.baths),
        dressed=tuple(dressed),
    )
