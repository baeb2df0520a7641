"""Exact reference for the heat current: rational arithmetic on the double rates.

Given the double rate tables and level energies, the steady state p and the
current J are rational functions of those inputs, so ``fractions.Fraction``
evaluates them with no rounding. Their difference to ``heat_current`` is the
fast path's own arithmetic error. The rounding of each rate (one exp or expm1)
happens before either route and is a separate term this reference does not see.
"""

from fractions import Fraction

from qarfcs.model import QarModel, rate_table


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """x with a x = b, by Gauss-Jordan elimination in exact arithmetic (a nonsingular)."""
    n = len(a)
    m = [row + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] / m[r][r] for r in range(n)]


def exact_current(model: QarModel, bath: int) -> tuple[Fraction, Fraction]:
    """(J, gross) at ``bath``: the sum of dE k p over its jumps, and the sum of |dE k p|.

    Every rate_table entry and level energy is taken exactly, and p is the one
    exact solve of L(0) p = 0 with row 0 replaced by sum(p) = 1.
    """
    n = model.n_levels
    tables = [
        [[Fraction(x) for x in row] for row in rate_table(model, b).tolist()]
        for b in range(model.n_baths)
    ]
    energies = [Fraction(e) for e in model.system.energies]
    # gen[j][i] is the total rate i -> j; every column of L(0) sums to zero
    gen = [[sum(k[i][j] for k in tables) if i != j else 0 for i in range(n)] for j in range(n)]
    for i in range(n):
        gen[i][i] = -sum(gen[j][i] for j in range(n) if j != i)
    gen[0] = [Fraction(1)] * n
    p = _solve(gen, [Fraction(1)] + [Fraction(0)] * (n - 1))
    k = tables[bath]
    # the jump i -> j takes E_j - E_i from the bath that drives it
    terms = [
        (energies[j] - energies[i]) * k[i][j] * p[i]
        for i in range(n)
        for j in range(n)
        if i != j and k[i][j] != 0
    ]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))
