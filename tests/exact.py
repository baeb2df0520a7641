"""Exact references for the heat current and its split: rational arithmetic on the double rates.

Given the double rate tables and level energies, the steady state p, the
current J and every cycle and leak part are rational functions of those
inputs, so ``fractions.Fraction`` evaluates them with no rounding. Their
difference to ``heat_current`` and ``decompose`` is the fast path's own
arithmetic error. The rounding of each rate (one exp or expm1) happens before
either route and is a separate term this reference does not see.
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


def _exact_tables(model: QarModel) -> tuple[list[list[list[Fraction]]], list[Fraction]]:
    """Every bath's rate_table and the level energies, each entry taken exactly."""
    tables = [
        [[Fraction(x) for x in row] for row in rate_table(model, b).tolist()]
        for b in range(model.n_baths)
    ]
    return tables, [Fraction(e) for e in model.system.energies]


def exact_current(model: QarModel, bath: int) -> tuple[Fraction, Fraction]:
    """(J, gross) at ``bath``: the sum of dE k p over its jumps, and the sum of |dE k p|.

    Every rate_table entry and level energy is taken exactly, and p is the one
    exact solve of L(0) p = 0 with row 0 replaced by sum(p) = 1.
    """
    n = model.n_levels
    tables, energies = _exact_tables(model)
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


def exact_parts(model: QarModel):
    """(cycles, leaks, total, normalization) of a 3-level, 3-bath model, keyed as ``decompose``'s.

    tau_i sums the rate products of the spanning trees into level i (K the
    total rates), and normalization = sum(tau). A cold pair (i, j) with third
    level m adds dE (k^C_ij tau_i - k^C_ji tau_j) to total. Each part sums
    unfactored forward-minus-reverse products, each times dE:
    - two-cycles (K_mi + K_mj) (k^C_ij k^mu_ji - k^C_ji k^mu_ij) go to the
      leak of bath mu;
    - triangles k^C_ij k^nu_jm k^rho_mi - k^C_ji k^nu_mj k^rho_im go to the
      cycle when nu and rho are the two other baths, to a bath's leak when it
      is the only other one, and nowhere when only the cold bath takes part.
    """
    cold = model.cold_index
    k, e = _exact_tables(model)
    kc, others = k[cold], [b for b in range(3) if b != cold]
    big_k = [[sum(t[x][y] for t in k) for y in range(3)] for x in range(3)]
    tau = [
        big_k[j][i] * big_k[m][i] + big_k[j][m] * big_k[m][i] + big_k[m][j] * big_k[j][i]
        for i, j, m in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    cycles, leaks, total = {}, {}, Fraction(0)
    for i, j in [(i, j) for i in range(3) for j in range(i + 1, 3) if kc[i][j] or kc[j][i]]:
        m, de = 3 - i - j, e[j] - e[i]
        total += de * (kc[i][j] * tau[i] - kc[j][i] * tau[j])
        w = big_k[m][i] + big_k[m][j]
        share = {b: de * w * (kc[i][j] * k[b][j][i] - kc[j][i] * k[b][i][j]) for b in others}
        cycles[(i, j)] = Fraction(0)
        for nu in range(3):
            for rho in range(3):
                forward = kc[i][j] * k[nu][j][m] * k[rho][m][i]
                flux = de * (forward - kc[j][i] * k[nu][m][j] * k[rho][i][m])
                through = {nu, rho} - {cold}
                if len(through) == 2:
                    cycles[(i, j)] += flux
                elif through:
                    share[through.pop()] += flux
        leaks.update({(model.baths[b].label, (i, j)): v for b, v in share.items()})
    return cycles, leaks, total, sum(tau)
