"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling pivot rule on an
integer tableau.  All problems solved here are tiny (hypergraph
packing/cover polytopes and share LPs), so a dense tableau is the right
tool; the point is exactness and determinism.  Coefficients go in and
solutions come out as Fractions.  Inside, a tableau row is a list of
integers: the numerators of its columns and its right-hand side, then one
positive denominator they share.  Every update divides the row by the gcd
of its entries, so a row is the unique integer form of its rationals with
coprime entries and a positive denominator.

A variable's id is its place in the textbook layout: original variables,
one slack or surplus per "<=" or ">=" row, then one artificial per ">="
or "==" row, in row order.  Bland's rule scans and compares ids, and
`basis` holds them.  A row stores the original variables, the slacks and
surpluses, and the artificials of "==" rows only.  A ">=" row's
artificial needs no column: it starts as +1 where its surplus twin is -1,
and row operations keep the pair opposite in every constraint row.  In
the phase-1 objective, -(sum of artificials) priced out, the pair starts
at (0, -1) and each row operation adds a multiple of an opposite pair, so
the artificial's reduced cost stays -1 minus the twin's.  The twin holds
the same magnitudes, so no gcd, and no stored row, changes.  Entering the
artificial is the twin's pivot with the pivot row negated and the
objective cleared by the artificial's reduced cost.

A pivot lists the pivot row's non-zero columns once, and a row's update
subtracts only at those columns, after scaling the row by the pivot
row's denominator over its gcd with the row's multiplier.  Each phase
prices its objective in one pass, as the costs minus each basic row
times its column's cost: basic columns are unit columns, so no cost
changes along the way, and the sum, reduced once, is the unique reduced
row that one elimination per basic row leaves.  The optimum is read off
the final objective row's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}  # relation after negating a row
_positive = (0).__lt__  # v -> v > 0, without a Python call


class LPError(Exception):
    pass


@dataclass
class LPResult:
    status: str
    x: list            # values of the original variables (Fractions)
    value: Fraction    # objective value in the caller's sense


def _exact(v):
    """An int or Fraction as it is; anything else (a float, a str) as a Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _reduced(row):
    """row divided by the gcd of its entries; over 1, it is reduced."""
    if row[-1] == 1:
        return row
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _int_row(values):
    """Ints and Fractions -> integer numerators, then their least common denominator."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values] + [d]


def _support(row):
    """The columns, right-hand side included, where a row is non-zero."""
    return list(compress(range(len(row) - 1), row))


def _eliminate(trow, prow, t, support):
    """trow - t * prow, where t is trow's entry at a column where prow is 1
    and `support` lists prow's non-zero columns; trow may change in place.

    trow is scaled by prow's denominator over its gcd with t (no scaling
    when that is 1); only the columns of `support` are then subtracted.
    """
    d = prow[-1]
    if d == 1:  # most pivot rows: no gcd and no scaling
        new, f = trow, t
    else:
        g = gcd(t, d)
        f, q = t // g, d // g
        new = [a * q for a in trow] if q != 1 else trow
    for j in support:
        new[j] -= f * prow[j]
    return _reduced(new)


def _pivot(T, basis, row, col, basic=None, twin=False):
    """Make `basic` (col by default) basic in `row`: divide the row by its
    entry, then clear that entry in every other row.

    With `twin`, basic is the artificial of the ">=" row whose surplus is
    col: its entries are minus col's, and its reduced cost in the objective
    row, T's last, is -1 minus col's.  The entry may be negative (an
    artificial driven out of the basis), so the row's new denominator, the
    entry's numerator, takes its sign.
    """
    sign = -1 if twin else 1
    prow = T[row][:-1] + [sign * T[row][col]]
    if prow[-1] < 0:
        prow = [-v for v in prow]
    T[row] = prow = _reduced(prow)
    support = _support(prow)
    ts = [trow[col] for trow in T]
    if twin:
        ts = [-t for t in ts]
        ts[-1] = -T[-1][-1] - T[-1][col]
    ts[row] = 0
    for r in compress(range(len(T)), ts):
        T[r] = _eliminate(T[r], prow, ts[r], support)
    basis[row] = col if basic is None else basic


def _simplex(T, basis, ncols, arts=()):
    """Maximize; objective is the last row with reduced costs negated.

    T rows: m constraint rows then objective row; the entry before the
    denominator is the RHS.  Columns 0..ncols-1 may enter, then the
    artificials `arts`, (column, twin) per id ncols, ncols + 1, ... as
    `_pivot` takes them.  Returns OPTIMAL or UNBOUNDED.  Bland's rule:
    entering variable is the lowest id with positive reduced cost,
    leaving row is the lowest basic id among the minimum-ratio rows.  A
    row's ratio rhs/a is the ratio of its numerators, and two ratios are
    compared by cross-multiplying (both a are positive).
    """
    m = len(T) - 1
    while True:
        obj = T[m]
        col = next(compress(range(ncols), map(_positive, obj)), -1)
        basic, twin = col, False
        if col < 0:
            for k, (j, tw) in enumerate(arts):
                if (-obj[-1] - obj[j] if tw else obj[j]) > 0:
                    col, basic, twin = j, ncols + k, tw
                    break
            else:
                return OPTIMAL
        sign = -1 if twin else 1
        row = -1
        a_col = [sign * T[r][col] for r in range(m)]
        for r in compress(range(m), map(_positive, a_col)):
            a = a_col[r]
            d = -1 if row < 0 else T[r][-2] * best_a - best_rhs * a
            if d < 0 or (d == 0 and basis[r] < basis[row]):
                row, best_rhs, best_a = r, T[r][-2], a
        if row < 0:
            return UNBOUNDED
        _pivot(T, basis, row, col, basic, twin)


def _priced(cost, T, weights):
    """The reduced row of cost - sum of w * T[r] over (r, w) in `weights`,
    where cost and each T[r] are integer rows, T[r] is 1 at its basic
    column, and each w is an int or Fraction."""
    terms = [(-w, T[r]) for r, w in weights] + [(1, cost)]
    d = lcm(*[w.denominator * row[-1] for w, row in terms])
    out = [0] * len(cost)
    for w, row in terms:
        f = w.numerator * (d // (w.denominator * row[-1]))
        for j in _support(row):
            out[j] += f * row[j]
    out[-1] = d
    return _reduced(out)


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
    # Stored columns: original vars, one slack/surplus per row that is not
    # "==", one artificial per "==" row, RHS, denominator; a slack or
    # artificial coefficient of +-1 is +-den.  `arts` lists the
    # artificials in id order as `_simplex` takes them.
    nstored = n + sum(r != "==" for r in rel)
    T = []
    basis = []
    arts = []
    si, ei = n, nstored
    for i in range(m):
        if len(A[i]) != n:
            raise LPError("constraint %d has wrong width" % i)
        r = rel[i]
        if r not in _FLIP:
            raise LPError("constraint %d has unknown relation %r" % (i, r))
        num = [*A[i], b[i]]
        if set(map(type, num)) == {int}:
            num.append(1)
        else:
            num = _int_row([_exact(v) for v in num])
        if num[-2] < 0:
            num = [-v for v in num[:-1]] + num[-1:]
            r = _FLIP[r]
        row = num[:n] + [0] * m + num[n:]
        if r == "<=":
            row[si] = row[-1]
            basis.append(si)
            si += 1
        else:
            if r == ">=":
                row[si] = -row[-1]
                arts.append((si, True))
                si += 1
            else:
                row[ei] = row[-1]
                arts.append((ei, False))
                ei += 1
            basis.append(nstored + len(arts) - 1)
        T.append(row)
    c = [_exact(v) for v in c]
    if not maximize:
        c = [-v for v in c]

    if arts:
        # Phase 1: maximize -(sum of artificials), priced out by the rows
        # where an artificial is basic.
        cost = [0] * nstored + [-1] * (n + m - nstored) + [0, 1]
        T.append(_priced(cost, T, [(r, -1) for r in range(m) if basis[r] >= nstored]))
        status = _simplex(T, basis, nstored, arts)
        if status != OPTIMAL or T[m][-2] != 0:
            return LPResult(INFEASIBLE, [Fraction(0)] * n, Fraction(0))
        # Drive any artificial still basic (at zero) out of the basis.
        for r in range(m):
            if basis[r] >= nstored:
                for j in range(nstored):
                    if T[r][j] != 0:
                        _pivot(T, basis, r, j)
                        break
        T.pop()

    # Phase 2 objective in terms of the current basis; a basic slack or
    # artificial costs 0.
    cost = _int_row(c)
    cost[n:n] = [0] * (m + 1)
    T.append(_priced(cost, T, [(r, c[basis[r]]) for r in range(m)
                               if basis[r] < n and c[basis[r]]]))
    # Artificials never re-enter: the scan stops before their columns.
    status = _simplex(T, basis, nstored)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, [Fraction(0)] * n, Fraction(0))

    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(T[r][-2], T[r][-1])
    value = Fraction(-T[m][-2], T[m][-1])
    return LPResult(OPTIMAL, x, value if maximize else -value)
