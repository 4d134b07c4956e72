import pytest
from hypothesis import given, strategies as st

from mpcjoin.query import (Atom, FAMILIES, Query, QueryError, canonical_query,
                           parse_query, residual_query)


def triangle():
    return parse_query("C3(x,y,z) :- R(x,y), S(y,z), T(z,x)")


def test_parse_basic():
    q = triangle()
    assert q.name == "C3"
    assert q.variables == ("x", "y", "z")
    assert q.k == 3 and q.num_atoms == 3
    assert q.atoms[0] == Atom("R", ("x", "y"))


def test_parse_whitespace_tolerant():
    a = parse_query("q(x,y):-S(x,y)")
    b = parse_query("  q ( x , y )  :-  S ( x , y ) ")
    assert a == b


def test_render_round_trip():
    q = triangle()
    assert parse_query(q.render()) == q


def test_not_full_rejected():
    with pytest.raises(QueryError, match="full"):
        parse_query("q(x) :- S(x,y)")
    with pytest.raises(QueryError, match="full"):
        parse_query("q(x,y) :- S(x)")


def test_self_join_rejected():
    with pytest.raises(QueryError, match="self-join"):
        parse_query("q(x,y,z) :- S(x,y), S(y,z)")


def test_repeated_variable_in_atom_rejected():
    with pytest.raises(QueryError, match="repeated"):
        parse_query("q(x) :- S(x,x)")


def test_syntax_error_reports_position():
    with pytest.raises(QueryError, match="position"):
        parse_query("q(x,y) :- S(x,y")


@pytest.mark.parametrize("text, msg", [
    ("q(x) :- S(x) $", "position 12: ' \\$'"),
    ("q(x) S(x)", "position 5: expected ':-', got 'S'"),
    ("q(x) :- S(,)", "position 10: expected identifier, got ','"),
    ("q(x) :- S(x) T(x)", "position 13: trailing input"),
])
def test_syntax_errors_name_the_position(text, msg):
    with pytest.raises(QueryError, match=msg):
        parse_query(text)


def test_residual_drops_variables_and_empty_atoms():
    q = triangle()
    r = residual_query(q, {"x"})
    assert r.variables == ("y", "z")
    assert [(a.relation, a.vars) for a in r.atoms] == \
        [("R", ("y",)), ("S", ("y", "z")), ("T", ("z",))]

    r2 = residual_query(q, {"x", "y"})
    assert [(a.relation, a.vars) for a in r2.atoms] == \
        [("S", ("z",)), ("T", ("z",))]


def test_residual_empty_set_is_identity():
    q = triangle()
    assert residual_query(q, set()) == q


def test_residual_all_variables_signals_empty():
    q = triangle()
    assert residual_query(q, {"x", "y", "z"}) is None


def test_residual_unknown_variable():
    with pytest.raises(QueryError, match="unknown"):
        residual_query(triangle(), {"w"})


def test_residual_composes():
    q = canonical_query("L", 4)
    a = residual_query(residual_query(q, {"x1"}), {"x3"})
    b = residual_query(q, {"x1", "x3"})
    assert a.variables == b.variables
    assert a.atoms == b.atoms


def test_canonical_cycle_3_shape():
    q = canonical_query("C", 3)
    assert [(a.relation, a.vars) for a in q.atoms] == \
        [("S1", ("x1", "x2")), ("S2", ("x2", "x3")), ("S3", ("x3", "x1"))]


def test_clique_3_triangle_shaped():
    k3 = canonical_query("K", 3)
    c3 = canonical_query("C", 3)
    assert {frozenset(a.vars) for a in k3.atoms} == \
        {frozenset(a.vars) for a in c3.atoms}


def test_lw_3_triangle_shaped():
    lw = canonical_query("LW", 3)
    assert sorted(tuple(sorted(a.vars)) for a in lw.atoms) == \
        [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]


def test_invalid_k_rejected():
    for fam, k in [("C", 2), ("LW", 2), ("K", 1), ("T", 0)]:
        with pytest.raises(QueryError, match="invalid k|family"):
            canonical_query(fam, k)


def test_all_families_construct_and_round_trip():
    for fam in FAMILIES:
        lo = 3 if fam in ("C", "LW") else (2 if fam == "K" else 1)
        for k in range(lo, 7):
            q = canonical_query(fam, k)
            assert parse_query(q.render()) == q


# -- property tests --------------------------------------------------------

_names = st.integers(0, 5).map(lambda i: "v%d" % i)


@st.composite
def queries(draw):
    k = draw(st.integers(1, 5))
    vs = ["v%d" % i for i in range(k)]
    n_atoms = draw(st.integers(1, 6))
    atoms = []
    covered = set()
    for j in range(n_atoms):
        arity = draw(st.integers(1, min(3, k)))
        sel = draw(st.permutations(vs))[:arity]
        atoms.append(Atom("S%d" % j, tuple(sel)))
        covered.update(sel)
    used = [v for v in vs if v in covered]
    return Query("q", tuple(used), tuple(atoms))


@given(queries())
def test_round_trip_random(q):
    assert parse_query(q.render()) == q


@given(queries(), st.data())
def test_residual_monotone_random(q, data):
    xs = data.draw(st.sets(st.sampled_from(list(q.variables)),
                           max_size=len(q.variables)))
    r = residual_query(q, xs)
    if xs == set(q.variables):
        assert r is None
    else:
        assert set(r.variables) == set(q.variables) - xs
        for a in r.atoms:
            assert a.arity >= 1
            assert not (set(a.vars) & xs)
