"""Exact references for the currents, the noise, the split and G(s): rational arithmetic.

Given the double rate tables and level energies, the steady state p, the
current J, the noise S and every cycle and leak part are rational functions of
those inputs, so ``fractions.Fraction`` evaluates them with no rounding. Their
difference to ``heat_current``, ``noise`` and ``decompose`` is the fast path's
own arithmetic error. The rounding of each rate (one exp or expm1) happens
before either route and is a separate term this reference does not see.
``faddeev_leverrier`` runs the recursion of ``fcs`` exactly on the matrices the
fast path sees, which checks ``charpoly`` and ``adjugate_derivative``, and on the
exact generator, where its coefficients and adjugates give S a second way. G(s)
is irrational in general; ``perron_bracket`` proves an interval around it from
the exact characteristic polynomial of the long-double L(s) that ``cgf`` uses.
"""

import math
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


def _generator(model: QarModel):
    """(tables, energies, L(0)): exact rates and energies, and the generator they build."""
    n = model.n_levels
    tables, energies = _exact_tables(model)
    # gen[j][i] is the total rate i -> j; every column of L(0) sums to zero
    gen = [[sum(k[i][j] for k in tables) if i != j else 0 for i in range(n)] for j in range(n)]
    for i in range(n):
        gen[i][i] = -sum(gen[j][i] for j in range(n) if j != i)
    return tables, energies, gen


def _steady_state(model: QarModel):
    """(tables, energies, L(0), p): ``_generator``'s, and the one exact solve of
    L(0) p = 0 with row 0 replaced by sum(p) = 1."""
    n = model.n_levels
    tables, energies, gen = _generator(model)
    p = _solve([[Fraction(1)] * n] + gen[1:], [Fraction(1)] + [Fraction(0)] * (n - 1))
    return tables, energies, gen, p


def _jumps(k, energies):
    """(i, j, dE) of every jump i -> j the rate table ``k`` drives; it takes E_j - E_i."""
    n = len(k)
    return [
        (i, j, energies[j] - energies[i]) for i in range(n) for j in range(n) if i != j and k[i][j]
    ]


def exact_current(model: QarModel, bath: int) -> tuple[Fraction, Fraction]:
    """(J, gross) at ``bath``: the sum of dE k p over its jumps, and the sum of |dE k p|.

    Every rate_table entry and level energy is taken exactly.
    """
    tables, energies, _, p = _steady_state(model)
    k = tables[bath]
    terms = [de * k[i][j] * p[i] for i, j, de in _jumps(k, energies)]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def exact_cumulants(model: QarModel, bath: int) -> tuple[Fraction, Fraction, Fraction]:
    """(J, gross, S) at ``bath``, S the zero-frequency noise G''(0).

    With d1 and d2 the exact first and second s-derivatives of L(s) at 0 (dE k
    and dE^2 k at each counted jump), S = 1^T d2 p + 2 1^T d1 x, where
    L(0) x = -(d1 p - J p) and 1^T x = 0; the right side sums to zero, so row 0
    of L(0) gives way to the normalization, as in the solve for p.
    """
    n = model.n_levels
    tables, energies, gen, p = _steady_state(model)
    k = tables[bath]
    jumps = _jumps(k, energies)
    d1p = [Fraction(0)] * n
    for i, j, de in jumps:
        d1p[j] += de * k[i][j] * p[i]
    current = sum(d1p, Fraction(0))
    gross = sum((abs(de * k[i][j] * p[i]) for i, j, de in jumps), Fraction(0))
    rhs = [current * pi - d for pi, d in zip(p, d1p)]
    x = _solve([[Fraction(1)] * n] + gen[1:], [Fraction(0)] + rhs[1:])
    terms = (de * k[i][j] * (de * p[i] + 2 * x[i]) for i, j, de in jumps)
    return current, gross, sum(terms, Fraction(0))


def exact_parts(model: QarModel):
    """(cycles, leaks, total, normalization) of a 3-level model, keyed as ``decompose``'s.

    tau_i sums the rate products of the spanning trees into level i (K the
    total rates), and normalization = sum(tau). A cold pair (i, j) with third
    level m adds dE (k^C_ij tau_i - k^C_ji tau_j) to total. Each part sums
    unfactored forward-minus-reverse products, each times dE:
    - two-cycles (K_mi + K_mj) (k^C_ij k^mu_ji - k^C_ji k^mu_ij) go to the
      leak of bath mu;
    - triangles k^C_ij k^nu_jm k^rho_mi - k^C_ji k^nu_mj k^rho_im go to the
      cycle when nu and rho are two baths besides the cold one, to a bath's
      leak when it is the only other one, and nowhere when only the cold bath
      takes part. Any number of baths takes the same sums.
    """
    cold = model.cold_index
    k, e = _exact_tables(model)
    baths = range(len(k))
    kc, others = k[cold], [b for b in baths if b != cold]
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
        for nu in baths:
            for rho in baths:
                forward = kc[i][j] * k[nu][j][m] * k[rho][m][i]
                flux = de * (forward - kc[j][i] * k[nu][m][j] * k[rho][i][m])
                through = {nu, rho} - {cold}
                if len(through) == 2:
                    cycles[(i, j)] += flux
                elif through:
                    share[through.pop()] += flux
        leaks.update({(model.baths[b].label, (i, j)): v for b, v in share.items()})
    return cycles, leaks, total, sum(tau)


def exact_family(model: QarModel, bath: int):
    """(L(0), d1, d2) counted at ``bath``, exact: ``_generator``'s L(0) and the first and
    second s-derivatives dE k and dE^2 k of L(s) at each counted jump."""
    n = model.n_levels
    tables, energies, gen = _generator(model)
    d1, d2 = ([[Fraction(0)] * n for _ in range(n)] for _ in range(2))
    for i, j, de in _jumps(tables[bath], energies):
        d1[j][i] += de * tables[bath][i][j]
        d2[j][i] += de * de * tables[bath][i][j]
    return gen, d1, d2


def exact_matrix(m) -> list[list[Fraction]]:
    """Every entry of a (long-)double matrix, taken exactly."""
    return [[Fraction(*x.as_integer_ratio()) for x in row] for row in m]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][r] * b[r][j] for r in range(n)) for j in range(n)] for i in range(n)]


def _shift(m, c):
    """m + c I."""
    return [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


def faddeev_leverrier(m, dm=None, sign: int = -1):
    """([1, a_1, ..., a_N], B_(N-1), dB_(N-1)) of the recursion ``fcs`` runs, exact in rationals.

    M_1 = M, a_k = sign tr(M_k) / k, B_k = M_k + a_k I, M_(k+1) = M B_k, so with
    sign = -1 adj(M) = (-1)^(N-1) B_(N-1). A tangent ``dm`` is carried alongside,
    dB_k = dM_k + da_k I, dM_(k+1) = dM B_k + M dB_k, and gives d adj(M) =
    (-1)^(N-1) dB_(N-1); without one dB_(N-1) is None. Run with sign = +1 on |M|
    and |dM| it adds up every product's magnitude instead: the scale of the
    rounding of each output of the signed recursion. N >= 2.

    The Fractions enter once: with D a common denominator of M and dM, M_k =
    X_k / d_k and B_k = Y_k / (k d_k) for integer matrices Y_k = k X_k +
    sign tr(X_k) I and X_(k+1) = (D M) Y_k, with d_1 = D and d_(k+1) = D k d_k,
    so every matrix product is an integer one (the tangent likewise).
    """
    n = len(m)
    den = math.lcm(*(x.denominator for rows in (m, dm or []) for row in rows for x in row))
    mi, dmi = ([[int(x * den) for x in row] for row in a] for a in (m, dm or []))
    coeffs, x, dx, d, dy = [Fraction(1)], mi, dmi, den, None
    for k in range(1, n):
        t, bd = sign * sum(x[i][i] for i in range(n)), k * d  # B_k = Y_k / bd
        coeffs.append(Fraction(t, bd))
        y = _shift([[k * v for v in row] for row in x], t)
        if dm is not None:
            dt = sign * sum(dx[i][i] for i in range(n))
            dy = _shift([[k * v for v in row] for row in dx], dt)
            if k < n - 1:
                dx = [[u + v for u, v in zip(*r)] for r in zip(_matmul(dmi, y), _matmul(mi, dy))]
        x, d = _matmul(mi, y), den * bd
    coeffs.append(Fraction(sign * sum(x[i][i] for i in range(n)), n * d))
    adj = [[Fraction(v, bd) for v in row] for row in y]
    return coeffs, adj, None if dy is None else [[Fraction(v, bd) for v in row] for row in dy]


def _sturm_count(coeffs: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] of the monic ``coeffs`` (highest power first), by
    Sturm's theorem; neither a nor b may be a root."""
    n = len(coeffs) - 1
    chain = [list(coeffs), [c * (n - k) for k, c in enumerate(coeffs[:-1])]]
    while len(chain[-1]) > 1:
        rem, div = list(chain[-2]), chain[-1]
        while len(rem) >= len(div):  # polynomial long division; keep the remainder
            q = rem[0] / div[0]
            for i, d in enumerate(div):
                rem[i] -= q * d
            rem.pop(0)
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        chain.append([-r for r in rem])

    def changes(x):
        signs = []
        for poly in chain:
            v = Fraction(0)
            for c in poly:
                v = v * x + c
            if v:
                signs.append(v > 0)
        return sum(u != w for u, w in zip(signs, signs[1:]))

    return changes(a) - changes(b)


def perron_bracket(coeffs: list[Fraction], g: Fraction, delta: Fraction) -> bool:
    """Whether the largest real root of the monic ``coeffs`` provably lies within ``delta`` of g.

    Every Taylor coefficient of p at g + delta positive makes p(g + delta + t) > 0
    for t >= 0, so no real root lies at or above g + delta. p(g - delta) < 0 then
    puts a real root above g - delta; where p(g - delta) > 0, two roots closer
    than delta (as from two decoupled, equal blocks of L(s)) may still lie
    inside, and Sturm's theorem counts them.
    """
    below = Fraction(0)
    for c in coeffs:
        below = below * (g - delta) + c
    # Taylor shift by repeated synthetic division: p(x0 + t), highest power first
    shifted, x0, n = list(coeffs), g + delta, len(coeffs) - 1
    for k in range(n):
        for i in range(1, n + 1 - k):
            shifted[i] += shifted[i - 1] * x0
    if not all(c > 0 for c in shifted):
        return False
    return below <= 0 or _sturm_count(coeffs, g - delta, x0) > 0
