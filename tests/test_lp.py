from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import mpcjoin.analyzer as analyzer
import mpcjoin.lp as lp
from mpcjoin.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPError, lp_solve_exact
from mpcjoin.query import canonical_query

import lp_reference as ref

F = Fraction


def test_simple_maximize():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    res = lp_solve_exact([1, 1],
                         [[1, 0], [0, 1], [1, 1]],
                         ["<=", "<=", "<="],
                         [2, 3, 4], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 4


def test_simple_minimize():
    # min x + y st x + y >= 3, x >= 1
    res = lp_solve_exact([1, 1],
                         [[1, 1], [1, 0]],
                         [">=", ">="],
                         [3, 1], maximize=False)
    assert res.status == OPTIMAL
    assert res.value == 3


def test_exact_rational_result():
    # max x st 3x <= 1  ->  x = 1/3 exactly
    res = lp_solve_exact([1], [[3]], ["<="], [1], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == F(1, 3)
    assert isinstance(res.value, Fraction)


def test_equality_constraints():
    # max x + 2y st x + y == 1
    res = lp_solve_exact([1, 2], [[1, 1]], ["=="], [1], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.x == [F(0), F(1)]


def test_infeasible():
    res = lp_solve_exact([1], [[1], [1]], ["<=", ">="], [1, 2], maximize=True)
    assert res.status == INFEASIBLE


def test_unbounded():
    res = lp_solve_exact([1], [[-1]], ["<="], [0], maximize=True)
    assert res.status == UNBOUNDED


def test_triangle_packing_value():
    # pairwise-overlapping structure: optimum is the half-weights point
    A = [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
    res = lp_solve_exact([1, 1, 1], A, ["<="] * 3, [1, 1, 1], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == F(3, 2)
    assert res.x == [F(1, 2)] * 3


def test_deterministic():
    args = ([1, 2, 3],
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
            ["<="] * 3, [2, 2, 2])
    a = lp_solve_exact(*args, maximize=True)
    b = lp_solve_exact(*args, maximize=True)
    assert a.status == b.status and a.x == b.x and a.value == b.value


def test_solution_satisfies_constraints():
    res = lp_solve_exact([2, 1],
                         [[1, 3], [3, 1]],
                         ["<=", "<="],
                         [6, 6], maximize=True)
    assert res.status == OPTIMAL
    x, y = res.x
    assert x + 3 * y <= 6 and 3 * x + y <= 6
    assert x >= 0 and y >= 0


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_random_feasible_bounded_lps(data):
    """Box-constrained random LPs: optimum matches direct vertex evaluation."""
    n = data.draw(st.integers(1, 3))
    c = [data.draw(st.integers(-4, 4)) for _ in range(n)]
    ub = [data.draw(st.integers(0, 5)) for _ in range(n)]
    A = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    res = lp_solve_exact(c, A, ["<="] * n, ub, maximize=True)
    assert res.status == OPTIMAL
    # with nonnegativity the maximizer picks ub_i when c_i > 0, else 0
    expect = sum(ci * ui for ci, ui in zip(c, ub) if ci > 0)
    assert res.value == expect


def test_negative_rhs_row_is_flipped():
    # min x + 2y st -x - y <= -1, i.e. x + y >= 1
    res = lp_solve_exact([1, 2], [[-1, -1]], ["<="], [-1], maximize=False)
    assert res.status == OPTIMAL
    assert res.x == [F(1), F(0)] and res.value == 1


def test_artificial_left_basic_at_zero_is_pivoted_out():
    # -x == 0: phase 1 ends with the artificial basic at zero, and x enters
    res = lp_solve_exact([1], [[-1]], ["=="], [0])
    assert res.status == OPTIMAL
    assert res.x == [F(0)] and res.value == 0


@pytest.mark.parametrize("A, rel, b, match", [
    ([[1]], ["<"], [1], "constraint 0 has unknown relation '<'"),
    ([[1], [1]], ["<=", "=<"], [1, -1], "constraint 1 has unknown relation '=<'"),
    ([[1], [1]], ["<="], [1, 1], "constraint 1: 2 rows, 1 relations"),
    ([[1], [1]], ["<=", "<="], [1], "constraint 1: 2 rows, 2 relations, 1 right"),
    ([[1]], ["<=", "<="], [1, 1], "constraint 1: 1 rows, 2 relations"),
    ([[1, 1]], ["<="], [1], "constraint 0 has wrong width"),
])
def test_malformed_input_is_rejected(A, rel, b, match):
    with pytest.raises(LPError, match=match):
        lp_solve_exact([1], A, rel, b)


def _coef():
    return st.one_of(st.integers(-4, 4),
                     st.builds(F, st.integers(-999983, 999983), st.just(999983)))


def _dual(c, A, rel, b):
    """The dual of max c.x st A x (rel) b, x >= 0, in non-negative variables.

    y_i >= 0 for "<=", y_i <= 0 for ">=" and y_i free for "==", each y_i
    split into non-negative parts; minimize b.y st A^T y >= c.
    """
    signs = [{"<=": (1,), ">=": (-1,), "==": (1, -1)}[r] for r in rel]
    cols = [(i, s) for i, ss in enumerate(signs) for s in ss]
    dc = [s * b[i] for i, s in cols]
    dA = [[s * A[i][j] for i, s in cols] for j in range(len(c))]
    return lp_solve_exact(dc, dA, [">="] * len(c), c, maximize=False)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_optimality_certificate_by_duality(data):
    """Mixed relations, negative right-hand sides and large denominators:
    an optimum is feasible, its value is c.x and the dual's optimum, an
    unbounded primal has an infeasible dual, and an infeasible primal has
    an infeasible or unbounded dual."""
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    c = [data.draw(_coef()) for _ in range(n)]
    A = [[data.draw(_coef()) for _ in range(n)] for _ in range(m)]
    rel = [data.draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    b = [data.draw(_coef()) for _ in range(m)]
    res = lp_solve_exact(c, A, rel, b, maximize=True)
    dual = _dual(c, A, rel, b)
    if res.status == OPTIMAL:
        x = res.x
        assert all(isinstance(v, Fraction) and v >= 0 for v in x)
        for row, r, rhs in zip(A, rel, b):
            lhs = sum(a * v for a, v in zip(row, x))
            assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[r]
        assert sum(ci * v for ci, v in zip(c, x)) == res.value
        assert dual.status == OPTIMAL and dual.value == res.value
    elif res.status == UNBOUNDED:
        assert dual.status == INFEASIBLE
    else:
        assert dual.status in (INFEASIBLE, UNBOUNDED)


# -- the solver against its frozen reference -------------------------------
#
# tests/lp_reference.py holds the solver as it stood while every
# artificial had a stored column.  The package must make the same pivots
# on the same integer rows, less the columns of ">=" rows' artificials.

def _dense_eliminate(trow, prow, col, support=None):
    """The dense reference update: every entry of trow is rewritten."""
    g = gcd(trow[col], prow[-1])
    f, q = trow[col] // g, prow[-1] // g
    new = [a * q - f * b for a, b in zip(trow, prow)]
    new[-1] = trow[-1] * q
    return ref._reduced(new)


def _dense_pivot(T, basis, row, col):
    prow = T[row][:-1] + [T[row][col]]
    if prow[-1] < 0:
        prow = [-v for v in prow]
    T[row] = prow = ref._reduced(prow)
    for r, trow in enumerate(T):
        if r != row and trow[col]:
            T[r] = _dense_eliminate(trow, prow, col)
    basis[row] = col


def _dense_solve(*args, **kw):
    """The reference solver on the dense kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ref, "_eliminate", _dense_eliminate)
        mp.setattr(ref, "_pivot", _dense_pivot)
        return ref.lp_solve_exact(*args, **kw)


def _same_as_dense(c, A, rel, b, maximize=True):
    got = lp_solve_exact(c, A, rel, b, maximize=maximize)
    want = _dense_solve(c, A, rel, b, maximize=maximize)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
    return got


def _traced(mod, c, A, rel, b, maximize=True):
    """mod.lp_solve_exact's result and trace: the tableau as each simplex
    phase starts, and per pivot (row, entering id, leaving id, tableau)."""
    trace = []
    pivot, simplex = mod._pivot, mod._simplex

    def traced_pivot(T, basis, row, *args):
        leaving = basis[row]
        pivot(T, basis, row, *args)
        trace.append((row, basis[row], leaving, [r[:] for r in T]))

    def traced_simplex(T, *args):
        trace.append([r[:] for r in T])
        return simplex(T, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mod, "_pivot", traced_pivot)
        mp.setattr(mod, "_simplex", traced_simplex)
        res = mod.lp_solve_exact(c, A, rel, b, maximize=maximize)
    return (res.status, res.x, res.value), trace


def _twin_ids(n, rel, b):
    """The reference's column ids of the artificials of ">=" rows."""
    rels = [ref._FLIP[r] if ref._exact(v) < 0 else r for r, v in zip(rel, b)]
    first = n + sum(r != "==" for r in rels)
    arts = [r for r in rels if r != "<="]
    return {first + k for k, r in enumerate(arts) if r == ">="}


def _same_as_reference(c, A, rel, b, maximize=True):
    """Assert that the package returns the reference's result with the
    same pivots and rows; returns the entering ids."""
    got, trace = _traced(lp, c, A, rel, b, maximize)
    want, want_trace = _traced(ref, c, A, rel, b, maximize)
    twins = _twin_ids(len(c), rel, b)

    def stored(T):
        return [[v for j, v in enumerate(row) if j not in twins] for row in T]
    want_trace = [(*e[:3], stored(e[3])) if isinstance(e, tuple) else stored(e)
                  for e in want_trace]
    assert got == want
    assert trace == want_trace
    return [e[1] for e in trace if isinstance(e, tuple)], twins


@st.composite
def _lps(draw):
    """Mixed relations, negative right-hand sides, zero rows, repeated
    rows and scaled copies (ties in the ratio test), small and large
    denominators."""
    n = draw(st.integers(1, 4))
    coef = st.one_of(st.integers(-3, 3), st.just(0), _coef())
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["new", "zero", "copy"]))
        if kind == "zero":
            row = [0] * n
        elif kind == "copy" and rows:
            row, rhs = draw(st.sampled_from(rows))
            k = draw(st.sampled_from([1, 2, F(1, 3)]))
            rows.append(([k * v for v in row], k * rhs))
            continue
        else:
            row = [draw(coef) for _ in range(n)]
        rows.append((row, draw(coef)))
    A = [r for r, _ in rows]
    b = [rhs for _, rhs in rows]
    rel = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in A]
    c = [draw(coef) for _ in range(n)]
    return c, A, rel, b, draw(st.booleans())


@settings(deadline=None, max_examples=300)
@given(_lps())
def test_random_lps_match_the_frozen_reference(lp_args):
    c, A, rel, b, maximize = lp_args
    _same_as_reference(c, A, rel, b, maximize)


@pytest.mark.parametrize("c, A, rel, b, status, twin_enters", [
    # infeasible, unbounded, and artificials left basic at zero
    ([1], [[1], [1]], ["<=", ">="], [1, 2], INFEASIBLE, False),
    ([1, 0], [[1, -1]], [">="], [1], UNBOUNDED, False),
    ([1], [[-1]], ["=="], [0], OPTIMAL, False),
    ([1, 1], [[1, 1], [2, 2]], ["==", "=="], [1, 2], OPTIMAL, False),
    ([1, 1], [[1, 1], [-2, -2]], ["==", "<="], [1, -2], OPTIMAL, False),
    # a ">=" row's artificial enters in phase 1
    ([-2, -3], [[-2, -2], [-1, -3], [-2, 2]], ["<=", "==", "=="], [-1, -1, 0],
     OPTIMAL, True),
    ([-3, 1, 1], [[1, 0, 0], [1, -3, 3], [1, 3, -3]], [">=", "==", "<="],
     [0, 3, -3], UNBOUNDED, True),
    ([-3, 3], [[2, 0], [2, 2], [-3, 0]], [">=", "==", ">="], [2, 2, 0],
     INFEASIBLE, True),
])
def test_edge_lps_match_the_frozen_reference(c, A, rel, b, status, twin_enters):
    entered, twins = _same_as_reference(c, A, rel, b)
    assert lp_solve_exact(c, A, rel, b).status == status
    assert bool(twins & set(entered)) == twin_enters


@settings(deadline=None, max_examples=300)
@given(_lps())
def test_sparse_pivots_match_the_dense_kernel(lp_args):
    """The package returns what the reference does on a dense kernel."""
    c, A, rel, b, maximize = lp_args
    _same_as_dense(c, A, rel, b, maximize=maximize)


_EXACT_ANALYSIS = [("SP", 5), ("SP", 6), ("L", 10), ("C", 10), ("K", 8), ("Ldagger", 8)]


def _analysis_lps(family, k):
    """(args, kw) of every LP that `analyze` solves for a query at p = 1024,
    M = 10^6: tau*, rho*, psi*'s witness and the share LP."""
    calls = []
    real = analyzer.lp_solve_exact

    def recorded(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, "lp_solve_exact", recorded)
        q = canonical_query(family, k)
        analyzer.tau_star(q)
        analyzer.rho_star(q)
        analyzer.psi_star(q)
        analyzer.share_lp(q, {a.relation: 10 ** 6 for a in q.atoms}, 1024)
    return calls


@pytest.mark.parametrize("family, k", _EXACT_ANALYSIS)
def test_share_lps_match_the_dense_kernel(family, k):
    args, kw = _analysis_lps(family, k)[-1]
    assert _same_as_dense(*args, **kw).status == OPTIMAL


@pytest.mark.parametrize("family, k", _EXACT_ANALYSIS)
def test_analysis_lps_match_the_frozen_reference(family, k):
    for args, kw in _analysis_lps(family, k):
        _same_as_reference(*args, **kw)


# Per LP of each query's analysis (tau*, rho*, psi*'s witness, then the
# share LP): the pivots, which are the reference solver's, and the width
# of a stored row, n + m + 2, with no column for a ">=" row's artificial.
_WORK = {
    ("SP", 5): ([10, 16, 6, 12], [23, 23, 22, 25]),
    ("SP", 6): ([12, 19, 7, 14], [27, 27, 26, 29]),
    ("L", 10): ([10, 15, 7, 20], [23, 23, 20, 25]),
    ("C", 10): ([9, 11, 8, 8, 11], [22, 22, 21, 20, 24]),
    ("K", 8): ([20, 20, 7, 59], [38, 38, 37, 40]),
    ("Ldagger", 8): ([9, 17, 8, 15], [21, 21, 20, 23]),
}


@pytest.mark.parametrize("family, k", _EXACT_ANALYSIS)
def test_analysis_lp_work_is_pinned(family, k):
    pivots, widths = [], []
    for args, kw in _analysis_lps(family, k):
        (status, _, _), trace = _traced(lp, *args, **kw)
        assert status == OPTIMAL
        pivots.append(sum(isinstance(e, tuple) for e in trace))
        widths.append(len(trace[0][0]))
    assert (pivots, widths) == _WORK[family, k]
