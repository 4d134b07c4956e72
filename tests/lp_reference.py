"""A frozen reference for `mpcjoin.lp`: the exact simplex as it stood
before the artificials of ">=" rows lost their stored columns.

Every artificial has a column here, each phase's objective is priced by
one elimination per basic row, and the optimum is summed from x in
Fractions.  tests/test_lp.py checks that `lp_solve_exact` returns what
this solver returns, with the same pivots and the same integer rows.
Do not change it to follow the package: it is the baseline the package
is held to.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from mpcjoin.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, LPResult

_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}  # relation after negating a row


def _exact(v):
    """An int or Fraction as it is; anything else (a float, a str) as a Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _reduced(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _int_row(values):
    """Ints and Fractions -> integer numerators, then their least common denominator."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values] + [d]


def _support(row):
    """The columns, right-hand side included, where a row is non-zero."""
    return [j for j, v in enumerate(row[:-1]) if v]


def _eliminate(trow, prow, col, support):
    """trow - trow[col] * prow, where prow's entry at col is 1 and
    `support` lists prow's non-zero columns.

    trow is scaled by prow's denominator over its gcd with trow[col]
    (no scaling when that is 1), and then only the columns of `support`
    are subtracted.
    """
    d = prow[-1]
    g = gcd(trow[col], d)
    f, q = trow[col] // g, d // g
    new = [a * q for a in trow] if q != 1 else trow[:]
    for j in support:
        new[j] -= f * prow[j]
    new[-1] = trow[-1] * q
    return _reduced(new)


def _pivot(T, basis, row, col):
    """Divide the pivot row by its entry at col, then clear col elsewhere.

    The entry may be negative (an artificial driven out of the basis), so
    the row's new denominator, the entry's numerator, takes its sign.
    """
    prow = T[row][:-1] + [T[row][col]]
    if prow[-1] < 0:
        prow = [-v for v in prow]
    T[row] = prow = _reduced(prow)
    support = _support(prow)
    for r, trow in enumerate(T):
        if r != row and trow[col]:
            T[r] = _eliminate(trow, prow, col, support)
    basis[row] = col


def _simplex(T, basis, ncols):
    """Maximize; objective is the last row with reduced costs negated.

    T rows: m constraint rows then objective row; the entry before the
    denominator is the RHS.  Returns OPTIMAL or UNBOUNDED.  Bland's rule:
    entering column is the lowest-index column with positive reduced cost,
    leaving row is the lowest-index basic variable among the minimum-ratio
    rows.  A row's ratio rhs/a is the ratio of its numerators, and two
    ratios are compared by cross-multiplying (both a are positive).
    """
    m = len(T) - 1
    while True:
        obj = T[m]
        col = next((j for j in range(ncols) if obj[j] > 0), -1)
        if col < 0:
            return OPTIMAL
        row = -1
        for r in range(m):
            a = T[r][col]
            if a > 0:
                d = -1 if row < 0 else T[r][-2] * best_a - best_rhs * a
                if d < 0 or (d == 0 and basis[r] < basis[row]):
                    row, best_rhs, best_a = r, T[r][-2], a
        if row < 0:
            return UNBOUNDED
        _pivot(T, basis, row, col)


def lp_solve_exact(c: Sequence, A: Sequence[Sequence], rel: Sequence[str],
                   b: Sequence, maximize: bool = True) -> LPResult:
    """Solve max/min c.x  s.t.  A_i.x (rel_i) b_i,  x >= 0, exactly.

    rel entries are "<=", ">=", or "==".  Returns an exactly optimal basic
    feasible solution, or status infeasible/unbounded.  Raises LPError on
    malformed input: rel or b of another length than A, a row of another
    width than c, or an unknown relation.
    """
    n = len(c)
    m = len(A)
    if len(rel) != m or len(b) != m:
        raise LPError("constraint %d: %d rows, %d relations, %d right-hand sides"
                      % (min(m, len(rel), len(b)), m, len(rel), len(b)))
    rows = []
    rels = []
    for i in range(m):
        if len(A[i]) != n:
            raise LPError("constraint %d has wrong width" % i)
        r = rel[i]
        if r not in _FLIP:
            raise LPError("constraint %d has unknown relation %r" % (i, r))
        row = _int_row([_exact(v) for v in A[i]] + [_exact(b[i])])
        if row[-2] < 0:
            row = [-v for v in row[:-1]] + row[-1:]
            r = _FLIP[r]
        rows.append(row)
        rels.append(r)
    c = [_exact(v) for v in c]
    if not maximize:
        c = [-v for v in c]

    # Column layout: original vars, slack/surplus, artificials, RHS,
    # denominator.  A slack or artificial coefficient of +-1 is +-den.
    nslack = sum(1 for r in rels if r in ("<=", ">="))
    nart = sum(1 for r in rels if r in (">=", "=="))
    ncols = n + nslack + nart
    T = []
    basis = []
    si = n
    ai = n + nslack
    art_cols = []
    for num, r in zip(rows, rels):
        row = num[:n] + [0] * (nslack + nart) + num[n:]
        if r == "<=":
            row[si] = row[-1]
            basis.append(si)
            si += 1
        else:
            if r == ">=":
                row[si] = -row[-1]
                si += 1
            row[ai] = row[-1]
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        T.append(row)

    if art_cols:
        # Phase 1: maximize -(sum of artificials), priced out by the rows
        # where an artificial is basic.
        obj = [0] * (ncols + 2)
        obj[-1] = 1
        for j in art_cols:
            obj[j] = -1
        for r in range(m):
            if basis[r] in art_cols:
                obj = _eliminate(obj, T[r], basis[r], _support(T[r]))
        T.append(obj)
        status = _simplex(T, basis, ncols)
        if status != OPTIMAL or T[m][-2] != 0:
            return LPResult(INFEASIBLE, [Fraction(0)] * n, Fraction(0))
        # Drive any artificial still basic (at zero) out of the basis.
        for r in range(m):
            if basis[r] in art_cols:
                for j in range(n + nslack):
                    if T[r][j] != 0:
                        _pivot(T, basis, r, j)
                        break
        T.pop()

    # Phase 2 objective in terms of the current basis.
    obj = _int_row(c)
    obj[n:n] = [0] * (nslack + nart + 1)
    for r in range(m):
        if obj[basis[r]]:
            obj = _eliminate(obj, T[r], basis[r], _support(T[r]))
    T.append(obj)
    # Artificials never re-enter: the scan stops before their columns.
    status = _simplex(T, basis, n + nslack)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, [Fraction(0)] * n, Fraction(0))

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(T[r][-2], T[r][-1])
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    if not maximize:
        value = -value
    return LPResult(OPTIMAL, x, value)
