from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mpcjoin.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve_exact

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
