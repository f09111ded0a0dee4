"""Exact rational oracle for the margin program (ROADMAP item 16), for tests only.

Every float is a rational, so each program  max delta  s.t.  u . d >= delta for every row d of
D, |u|_inf <= 1  has an exact optimum delta*. ``exact_margin`` finds it with a dense Bland's-rule
simplex over ``fractions.Fraction``, on the tableau ``lp.margin_directions`` builds: variables
u+ (n), u- (n) and delta >= 0, rows -D u+ + D u- + delta <= 0 and u+, u- <= 1. The origin is
feasible, so one phase suffices, and Bland's rule cannot cycle.
"""

from fractions import Fraction


def exact_margin(D):
    """Exact delta* (a Fraction) of the margin program of the float rows D (m, n)."""
    rows = [[Fraction(x) for x in d] for d in D.tolist()]
    m, n = len(rows), len(rows[0])
    nv, ns = 2 * n + 1, m + 2 * n
    # tableau rows: [A | I | b]; objective row: reduced costs of max delta, then its value
    T = []
    for i, d in enumerate(rows):
        slack = [Fraction(i == j) for j in range(ns)]
        T.append([-x for x in d] + d + [Fraction(1)] + slack + [Fraction(0)])
    for i in range(2 * n):
        unit = [Fraction(i == j) for j in range(2 * n)]
        slack = [Fraction(m + i == j) for j in range(ns)]
        T.append(unit + [Fraction(0)] + slack + [Fraction(1)])
    z = [Fraction(0)] * (nv + ns + 1)
    z[2 * n] = Fraction(1)
    basis = [nv + i for i in range(ns)]
    while True:
        col = next((j for j in range(nv + ns) if z[j] > 0), None)
        if col is None:
            return -z[-1]
        ratios = [(T[i][-1] / T[i][col], basis[i], i) for i in range(ns) if T[i][col] > 0]
        if not ratios:
            raise ArithmeticError("margin program unbounded")
        _, _, r = min(ratios)
        pivot = T[r][col]
        T[r] = [x / pivot if x else x for x in T[r]]
        for i in range(ns):
            if i != r and T[i][col] != 0:
                f = T[i][col]
                T[i] = [x - f * y if y else x for x, y in zip(T[i], T[r])]
        f = z[col]
        z = [x - f * y if y else x for x, y in zip(z, T[r])]
        basis[r] = col
