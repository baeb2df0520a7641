"""Rate-equation generators and their counting-field dressed families.

Convention: the population column vector p obeys dp/dt = L p, so entry
L[j, i] is the total rate from level i into level j and every column of
L(0) sums to zero. Dressing the rates of one counted bath with exp(s * dE)
factors (s real, s = i*chi) tracks the heat that bath exchanges; heat flowing
into the system counts positive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import QarModel, _bath_index, rate_table

# the extended precision of the Faddeev-LeVerrier recursion and of L(s)
WORKING_DTYPE = np.longdouble


@functools.cache
def _identity(n: int, dtype: type = float) -> np.ndarray:
    """Read-only identity of size n and ``dtype``, shared by every caller."""
    ident = np.eye(n, dtype=dtype)
    ident.flags.writeable = False
    return ident


def build_generator(model: QarModel) -> np.ndarray:
    """Full generator L(0) from the rate tables of every bath."""
    return generator_from_tables([rate_table(model, b) for b in range(model.n_baths)])


def generator_from_tables(tables: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """L(0) = sum_mu (K_mu^T - diag(K_mu 1)) from rate tables stacked on axis -3.

    A (..., B, N, N) stack gives (..., N, N), each matrix bitwise its own call's;
    a (1, N, N) stack gives one bath's generator L_mu.
    """
    stack = np.asarray(tables)
    diag = stack.sum(axis=-1).sum(axis=-2)
    return stack.sum(axis=-3).swapaxes(-1, -2) - diag[..., None] * _identity(stack.shape[-1])


@dataclass(frozen=True, eq=False)
class CountingFamily:
    """Counting-dressed generator family for one counted bath.

    ``dressed`` lists every directed transition the counted bath drives as
    (row, col, rate k, signed energy dE) and is the only counted data: L(s)
    is ``base`` plus k * expm1(s * dE) at each (row, col), so d^n L/ds^n at
    s = 0 is dE^n * k there and zero elsewhere. An empty ``dressed`` is a
    family with only its base generator, so L(s) = base for every s.
    """

    base: np.ndarray
    energies: tuple[float, ...]
    betas: tuple[float, ...]
    dressed: tuple[tuple[int, int, float, float], ...] = ()

    @property
    def energy_span(self) -> float:
        return max(self.energies) - min(self.energies)

    def dressed_stack(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L(s_k) and its k * expm1(s_k * dE) corrections for a 1-D array of s.

        Both are ``WORKING_DTYPE``, since G(s) resolves root shifts far
        below the double rounding of the dressed entries: the stack is (K, N, N)
        and the corrections (K, M), one column per entry of ``dressed``. Each
        matrix is bitwise that of a size-1 call at its s.
        """
        rows, cols, k, de = np.array(self.dressed, dtype=float).reshape(-1, 4).T
        rows, cols = rows.astype(int), cols.astype(int)
        ld = WORKING_DTYPE
        corrections = k.astype(ld) * np.expm1(np.multiply.outer(s.astype(ld), de.astype(ld)))
        out = np.repeat(self.base.astype(ld)[None], s.size, axis=0)
        np.add.at(out, (slice(None), rows, cols), corrections)
        return out, corrections


def build_counting_family(model: QarModel, counted_bath: int) -> CountingFamily:
    """Dress the counted bath's rates with exp(s * dE) factors.

    L(s) is assembled as L(0) plus k * expm1(s * dE) corrections, which makes
    L(0) bitwise equal to the bare generator.
    """
    counted_bath = _bath_index(counted_bath, model.baths, "counted bath index")
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
        energies=tuple(energies),
        betas=tuple(b.beta for b in model.baths),
        dressed=tuple(dressed),
    )
