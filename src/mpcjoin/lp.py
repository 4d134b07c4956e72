"""Exact linear programming over rationals.

Two-phase primal simplex on Fraction tableaus with Bland's anti-cycling
pivot rule.  All problems solved here are tiny (hypergraph packing/cover
polytopes and share LPs), so a dense tableau is the right tool; the point
is exactness and determinism.  A pivot touches only the columns where the
pivot row is nonzero, which skips most of the Fraction arithmetic of the
sparse incidence tableaus and changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPError(Exception):
    pass


@dataclass
class LPResult:
    status: str
    x: list            # values of the original variables (Fractions)
    value: Fraction    # objective value in the caller's sense


def _pivot(T, basis, row, col):
    """Pivot in place; a column where the pivot row is 0 keeps a - f*0 == a."""
    prow = T[row]
    inv = Fraction(1) / prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] = prow[j] * inv
    for r, trow in enumerate(T):
        if r == row:
            continue
        f = trow[col]
        if f:
            for j in nz:
                trow[j] = trow[j] - f * prow[j]
    basis[row] = col


def _simplex(T, basis, ncols):
    """Maximize; objective is the last row with reduced costs negated.

    T rows: m constraint rows then objective row; last column is RHS.
    Returns OPTIMAL or UNBOUNDED.  Bland's rule: entering column is the
    lowest-index column with positive reduced cost, leaving row is the
    lowest-index basic variable among the minimum-ratio rows.
    """
    m = len(T) - 1
    obj = T[m]
    while True:
        col = -1
        for j in range(ncols):
            if obj[j] > 0:
                col = j
                break
        if col < 0:
            return OPTIMAL
        best = None
        row = -1
        for r in range(m):
            a = T[r][col]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row < 0:
            return UNBOUNDED
        _pivot(T, basis, row, col)
        obj = T[m]


def lp_solve_exact(c: Sequence, A: Sequence[Sequence], rel: Sequence[str],
                   b: Sequence, maximize: bool = True) -> LPResult:
    """Solve max/min c.x  s.t.  A_i.x (rel_i) b_i,  x >= 0, exactly.

    rel entries are "<=", ">=", or "==".  Returns an exactly optimal basic
    feasible solution, or status infeasible/unbounded.
    """
    n = len(c)
    m = len(A)
    c = [Fraction(v) for v in c]
    if not maximize:
        c = [-v for v in c]
    rows = []
    rels = []
    for i in range(m):
        if len(A[i]) != n:
            raise LPError("constraint %d has wrong width" % i)
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        r = rel[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            r = {"<=": ">=", ">=": "<=", "==": "=="}[r]
        rows.append((row, rhs))
        rels.append(r)

    # Column layout: original vars, slack/surplus, artificials, RHS.
    nslack = sum(1 for r in rels if r in ("<=", ">="))
    nart = sum(1 for r in rels if r in (">=", "=="))
    ncols = n + nslack + nart
    T = []
    basis = []
    si = n
    ai = n + nslack
    art_cols = []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        coeffs, rhs = rows[i]
        row[:n] = coeffs
        row[-1] = rhs
        if rels[i] == "<=":
            row[si] = Fraction(1)
            basis.append(si)
            si += 1
        elif rels[i] == ">=":
            row[si] = Fraction(-1)
            si += 1
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        else:
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        T.append(row)

    if art_cols:
        # Phase 1: maximize -(sum of artificials).
        obj = [Fraction(0)] * (ncols + 1)
        for j in art_cols:
            obj[j] = Fraction(-1)
        T.append(obj)
        for r in range(m):
            if basis[r] in art_cols:
                T[m] = [a + b_ for a, b_ in zip(T[m], T[r])]
        status = _simplex(T, basis, ncols)
        if status != OPTIMAL or T[m][-1] != 0:
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
    obj = [Fraction(0)] * (ncols + 1)
    obj[:n] = c
    T.append(obj)
    for r in range(m):
        f = T[m][basis[r]]
        if f:
            T[m] = [a - f * b_ for a, b_ in zip(T[m], T[r])]
    # Artificials never re-enter: the scan stops before their columns.
    status = _simplex(T, basis, n + nslack)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, [Fraction(0)] * n, Fraction(0))

    x = [Fraction(0)] * n
    for r in range(len(T) - 1):
        if basis[r] < n:
            x[basis[r]] = T[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    if not maximize:
        value = -value
    return LPResult(OPTIMAL, x, value)
