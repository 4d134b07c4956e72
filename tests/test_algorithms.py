import hashlib
import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mpcjoin import algorithms
from mpcjoin.algorithms import (ALGORITHMS, InsufficientServers, _active_profiles,
                                _balanced_hashes, _Ctx, _Grid, _heavy_at,
                                _heavy_profiles, _least, _ranked, _shaped,
                                hc_grid, pick_algorithm, run_algorithm)
from mpcjoin.datagen import (DatabaseInstance, RelationInstance, gen_agm_worst,
                             gen_coin_flip, gen_matching, gen_single_heavy)
from mpcjoin.em import DryRuns
from mpcjoin.query import Atom, Query, QueryError, canonical_query, parse_query
from mpcjoin.rng import _CHUNK, hash_column
from mpcjoin.sim import Engine, Route, oracle_join

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from conftest import rebuilt, recorded_runs  # noqa: E402
from hash_reference import hash_family  # noqa: E402
from ledger_matrix import GRIDS, two_heavy  # noqa: E402


def all_ones(q):
    """One tuple of all-1 values per relation: maximally skewed everywhere."""
    rels = {a.relation: RelationInstance(a.relation, a.arity,
                                         (tuple(1 for _ in a.vars),), 1)
            for a in q.atoms}
    return DatabaseInstance(q, rels, 0, {"generator": "all_ones"})


def check(db, alg, p=27, seed=3):
    res = run_algorithm(alg, db, p, seed)
    assert res.output == oracle_join(db), (alg, db.meta)
    return res


# -- correctness spot checks (the acceptance suite runs the full matrix) ---

def test_hc_on_matchings():
    for fam, k in [("C", 3), ("L", 4), ("T", 3)]:
        q = canonical_query(fam, k)
        check(gen_matching(q, 40, 1), "hc")


def test_one_round_skew_handles_heavy_values():
    q = canonical_query("C", 3)
    check(gen_single_heavy(q, 60, "x2", 2), "one_round_skew")
    check(gen_coin_flip(q, 64, 5), "one_round_skew")


def test_one_sided_skew_join():
    q = parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)")
    check(gen_single_heavy(q, 80, "z", 2), "join_one_sided_skew")


def test_one_sided_skew_server_budget():
    q = parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)")
    p = 16
    res = run_algorithm("join_one_sided_skew",
                        gen_single_heavy(q, 80, "z", 2), p, 3)
    assert res.extras["heavy_servers"] <= 2 * p


def test_semi_join_filters_wide_side():
    q = parse_query("Q(z,y) :- R(z), S(z,y)")
    rels = {
        "R": RelationInstance("R", 1, ((1,), (3,), (5,)), 8),
        "S": RelationInstance("S", 2, tuple((z, y) for z in range(1, 7)
                                            for y in range(1, 4)), 8),
    }
    db = DatabaseInstance(q, rels, 0, {})
    res = check(db, "semi_join", p=8)
    assert res.output == {(z, y) for z in (1, 3, 5) for y in range(1, 4)}
    assert res.rounds == 1


def test_semi_join_empty_key_set():
    q = parse_query("Q(z,y) :- R(z), S(z,y)")
    rels = {
        "R": RelationInstance("R", 1, ((9,),), 9),
        "S": RelationInstance("S", 2, ((1, 2), (3, 4)), 9),
    }
    res = check(DatabaseInstance(q, rels, 0, {}), "semi_join", p=4)
    assert res.output == set()


def _hash_calls(monkeypatch):
    """A Counter of (hash path, value) over every value passed to every
    column hash that `algorithms` draws from `hash_column` from now on."""
    calls = Counter()
    real = algorithms.hash_column

    def counting(seed, *path):
        column = real(seed, *path)

        def counted(values):
            calls.update((path, v) for v in values)
            return column(values)
        return counted
    monkeypatch.setattr(algorithms, "hash_column", counting)
    return calls


@pytest.mark.parametrize("alg,text,heavy_var", [
    ("semi_join", "Q(z,y) :- R(z), S(z,y)", None),
    ("join_one_sided_skew", "Q(x,z,y) :- S1(x,z), S2(z,y)", None),
    ("join_one_sided_skew", "Q(x,z,y) :- S1(x,z), S2(z,y)", "z"),
])
def test_join_hashes_each_light_key_once(monkeypatch, alg, text, heavy_var):
    # A's side and B's light side share one server map, so the join's h
    # runs once per distinct light key over both sides; heavy keys are
    # preset to their blocks and never hashed.
    q = parse_query(text)
    db = gen_matching(q, 300, 4) if heavy_var is None \
        else gen_single_heavy(q, 300, heavy_var, 4)
    plain = run_algorithm(alg, db, 8, 5)
    calls = _hash_calls(monkeypatch)
    res = run_algorithm(alg, db, 8, 5)
    assert res.report.by_relation == plain.report.by_relation
    assert res.output == plain.output
    keys = set().union(*({t[a.vars.index("z")] for t in db.relations[a.relation].tuples}
                         for a in q.atoms))
    assert (heavy_var is None) == (res.extras["heavy_keys"] == 0)
    assert sum(n for (path, _), n in calls.items() if path == ("j1s", "h")) \
        == len(keys) - res.extras["heavy_keys"]


def test_intersection_hashes_each_tuple_once(monkeypatch):
    # covering's semi-join results share one server map when they are
    # intersected, so its h runs once per distinct tuple over all of them.
    q = canonical_query("W", 3)
    db = gen_matching(q, 300, 4)
    plain = run_algorithm("covering", db, 8, 5)
    calls = _hash_calls(monkeypatch)
    res = run_algorithm("covering", db, 8, 5)
    assert res.report.by_relation == plain.report.by_relation
    assert res.output == plain.output
    cover = q.atom("R")
    results = []
    for a in q.atoms:
        if a is not cover:
            keys = set(db.relations[a.relation].tuples)
            pos = cover.vars.index(a.vars[0])
            results.append({t for t in db.relations[cover.relation].tuples
                            if (t[pos],) in keys})
    shipped = set().union(*results)
    assert sum(map(len, results)) > len(shipped)    # some tuple ships twice
    assert {v: n for (path, v), n in calls.items() if path == ("Vi", "ix")} \
        == dict.fromkeys(shipped, 1)


def _wrap_ship(monkeypatch, around):
    """Engine.ship calls around(ship, engine, rnd, rel, tuples, route) from
    now on, where ship is the real one."""
    real = Engine.ship

    def ship(self, rnd, rel, tuples, route):
        return around(real, self, rnd, rel, tuples, route)
    monkeypatch.setattr(Engine, "ship", ship)


def _route_key_counts(monkeypatch, alg, db, p):
    """(relation, tuples, distinct route keys, destination sets) of each
    shipment of alg on db at p, whose output must be the oracle's."""
    counts = []

    def count(ship, eng, rnd, rel, tuples, route):
        keys = set(route.keys(tuples))
        counts.append((rel, len(tuples), len(keys),
                       len({frozenset(route.dests(k)) for k in keys})))
        return ship(eng, rnd, rel, tuples, route)
    _wrap_ship(monkeypatch, count)
    assert run_algorithm(alg, db, p, 5).output == oracle_join(db)
    return counts


@pytest.mark.parametrize("alg,q", [
    ("semi_join", parse_query("Q(z,y) :- R(z), S(z,y)")),
    ("join_one_sided_skew", parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)")),
    ("covering", canonical_query("W", 3)),
])
def test_hashed_shipments_key_by_destination(monkeypatch, alg, q):
    # A hashed route's key is its destination's index, not the join key or
    # tuple it hashes: with 2,000 distinct keys per side and p = 8, every
    # shipment has at most one route key per destination set.
    counts = _route_key_counts(monkeypatch, alg, gen_matching(q, 2000, 4), 8)
    assert sum(n for _, n, _, _ in counts) >= 2 * 2000
    assert [c for c in counts if c[2] > c[3]] == []


@pytest.mark.parametrize("alg,q,m", [
    ("semi_join", parse_query("Q(z,y) :- R(z), S(z,y)"), 2000),
    ("join_one_sided_skew", parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)"), 200),
])
def test_heavy_side_keys_by_destination(monkeypatch, alg, q, m):
    # Every tuple has z = 1, so the skew join's B side is all heavy and is
    # split over the key's block of 8 servers, each tuple keyed by the
    # index of its server, not by itself: at most one route key per
    # destination set.
    counts = _route_key_counts(monkeypatch, alg, gen_single_heavy(q, m, "z", 4), 8)
    assert any(n == m and sets > 1 for _, n, _, sets in counts), counts
    assert [c for c in counts if c[2] > c[3]] == []


def _semi_join_ship_peaks(monkeypatch, db):
    """(relation, tuples, tracemalloc peak above its start) of each storing
    ship of semi_join on db at p = 64, in call order."""
    peaks = []

    def traced(ship, eng, rnd, rel, tuples, route):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ship(eng, rnd, rel, tuples, route)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((rel, len(tuples), peak - start))
    _wrap_ship(monkeypatch, traced)
    run_algorithm("semi_join", db, 64, 5)
    return peaks


def test_semi_join_ship_memory(monkeypatch):
    # One storing ship of a 50,000-tuple semi-join side at p = 64 keeps its
    # route keys (small ints, one per destination) and groups, not a
    # distinct-key dict and a key -> group map as large as the shipment:
    # the tracemalloc peak of each ship above its start stays within
    # 2.5 MiB (about 1.3 MiB measured, 4.9 MiB with join-key route keys).
    peaks = _semi_join_ship_peaks(
        monkeypatch, gen_matching(parse_query("Q(z,y) :- R(z), S(z,y)"), 50000, 0))
    assert sorted((rel, n) for rel, n, _ in peaks) == [("R", 50000), ("S", 50000)]
    assert all(peak <= 2.5 * 2 ** 20 for _, _, peak in peaks), peaks


def test_skewed_semi_join_ship_memory(monkeypatch):
    # All 50,000 tuples of S have z = 1 and ship through the heavy block's
    # route at p = 64, keyed by the index of their server: the tracemalloc
    # peak of each ship above its start stays within 3.5 MiB (about 2.9 MiB
    # measured, most of it hpart's hash list; 4.9 MiB with one route key
    # per tuple).
    peaks = _semi_join_ship_peaks(
        monkeypatch, gen_single_heavy(parse_query("Q(z,y) :- R(z), S(z,y)"), 50000, "z", 0))
    assert sorted((rel, n) for rel, n, _ in peaks) == [("R", 1), ("S", 0), ("S", 50000)]
    assert all(peak <= 3.5 * 2 ** 20 for _, _, peak in peaks), peaks


def test_hc_grid_bound_and_unbound():
    shares = {"x": 2, "y": 3, "z": 1}
    order = ["x", "y", "z"]
    # fully bound: one cell; z (share 1) is not split, y varies fastest
    assert hc_grid(("x", "y", "z"), order, shares) == \
        ([(0, "x", 3), (1, "y", 1)], [0])
    # one unbound variable of share 3: three consecutive cells
    assert hc_grid(("x",), order, shares) == ([(0, "x", 3)], [0, 1, 2])


def test_hc_grid_cell_order():
    shares = {"x": 2, "y": 3, "z": 2}
    bound, free = hc_grid(("y",), ("x", "y", "z"), shares)
    assert (bound, free) == ([(0, "y", 2)], [0, 1, 6, 7])
    # y in bucket 2 (coordinate 1, stride 2); x and z range over their shares
    c0 = sum((2 - 1) * st for _, _, st in bound)
    assert [c0 + f for f in free] == [2, 3, 8, 9]


def _reference_offsets(seed, q, rels, shares, tag):
    """`_balanced_hashes` as it was: each variable's values sorted, then
    sorted by h (the sort is stable), dealt round-robin over the buckets."""
    bound, _ = hc_grid(q.variables, q.variables, shares)
    maps = {}
    for _, v, stride in bound:
        vals = {t[a.vars.index(v)] for a in q.atoms if v in a.vars
                for t in rels[a.relation]}
        ordered = sorted(sorted(vals), key=hash_family(seed, tag, "bal", v))
        maps[v] = dict(zip(ordered, cycle(range(0, shares[v] * stride, stride))))
    return maps


_BAL_Q = parse_query("Q(x,y) :- R(x,y), S(y)")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32),
       st.sampled_from((1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)),
       st.sampled_from((4, 2 ** 64)), st.integers(2, 8), st.integers(2, 8))
def test_balanced_hashes_match_the_sorted_reference(seed, data_seed, n, top, sx, sy):
    # value sets on both sides of a chunk edge, dense or spread over the
    # whole 64-bit range
    r = random.Random(data_seed)
    hi = min(top * n, 2 ** 64)

    def distinct(count):
        vals = set()
        while len(vals) < count:
            vals.add(r.randrange(hi))
        return list(vals)
    xs, ys = distinct(n), distinct(n)
    rels = {"R": list(zip(xs, ys)),
            "S": [(y,) for y in r.sample(ys, n // 2) + distinct(1)]}
    shares = {"x": sx, "y": sy}
    got = _balanced_hashes(_Ctx(Engine({}), seed, 8), _BAL_Q, rels, shares, "t")
    assert got == _reference_offsets(seed, _BAL_Q, rels, shares, "t")
    for v, offsets in got.items():
        sizes = Counter(offsets.values())
        assert max(sizes.values()) - min(sizes.values()) <= 1
        assert len(sizes) == min(shares[v], len(offsets))


@pytest.mark.parametrize("bad", [2 ** 64, 2 ** 70, -1])
def test_balanced_hashes_reject_values_outside_the_word(bad):
    # such a value could tie with one inside [0, 2^64) on rank
    rels = {"R": [(1, 2), (bad, 3)], "S": [(2,)]}
    with pytest.raises(ValueError, match="outside"):
        _balanced_hashes(_Ctx(Engine({}), 0, 8), _BAL_Q, rels, {"x": 2, "y": 2}, "t")


def test_semi_join_rejects_non_nested_atoms():
    q = parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)")
    with pytest.raises(QueryError):
        run_algorithm("semi_join", gen_matching(q, 10, 1), 4, 0)


def test_multiround_strategies_match_oracle():
    for fam, k, alg in [("C", 4, "cycle"), ("C", 5, "cycle"),
                        ("L", 5, "line"), ("L", 6, "line"),
                        ("LW", 4, "lw"), ("K", 4, "clique"),
                        ("W", 3, "covering"), ("C", 3, "triangle")]:
        q = canonical_query(fam, k)
        check(gen_single_heavy(q, 36, "x1", 2), alg)
        check(gen_coin_flip(q, 3 ** min(k, 4), 5), alg)


def test_shape_validation():
    tri = gen_matching(canonical_query("C", 3), 10, 1)
    with pytest.raises(QueryError):
        run_algorithm("lw", gen_matching(canonical_query("L", 3), 10, 1), 8, 0)
    with pytest.raises(QueryError):
        run_algorithm("line", tri, 8, 0)
    with pytest.raises(QueryError):
        run_algorithm("covering", tri, 8, 0)
    with pytest.raises(KeyError):
        run_algorithm("nope", tri, 8, 0)


# -- round counts ----------------------------------------------------------

def test_round_contracts_on_skewed_instances():
    cases = [("C", 3, "cycle", 2), ("C", 4, "cycle", 2), ("C", 5, "cycle", 2),
             ("C", 6, "cycle", 2), ("L", 5, "line", 2), ("L", 7, "line", 3),
             ("LW", 4, "lw", 2), ("K", 4, "clique", 3), ("K", 5, "clique", 4),
             ("W", 3, "covering", 2)]
    for fam, k, alg, rounds in cases:
        q = canonical_query(fam, k)
        res = check(all_ones(q), alg, p=16)
        assert res.rounds == rounds, (fam, k)
        assert res.rounds <= ALGORITHMS[alg].rounds(q)


def test_light_instances_finish_in_one_round():
    for fam, k, alg in [("C", 3, "triangle"), ("C", 5, "cycle"),
                        ("LW", 4, "lw"), ("K", 3, "clique")]:
        q = canonical_query(fam, k)
        res = check(gen_matching(q, 30, 1), alg, p=8)
        assert res.rounds == 1


def test_declared_round_bounds():
    assert ALGORITHMS["hc"].rounds(canonical_query("C", 3)) == 1
    assert ALGORITHMS["triangle"].rounds(canonical_query("C", 3)) == 2
    assert ALGORITHMS["cycle"].rounds(canonical_query("C", 6)) == 3
    assert ALGORITHMS["line"].rounds(canonical_query("L", 6)) == 3
    assert ALGORITHMS["clique"].rounds(canonical_query("K", 4)) == 3
    assert ALGORITHMS["lw"].rounds(canonical_query("LW", 5)) == 2


# -- bookkeeping -----------------------------------------------------------

def test_physical_server_budget_reported():
    q = canonical_query("C", 3)
    res = check(gen_single_heavy(q, 60, "x1", 2), "triangle", p=27)
    phys = res.extras["physical_servers"]
    assert res.extras["nominal_p"] == 27
    assert 0 < phys <= 8 * 27


DISCONNECTED = ("Q(a,b,c,d,e) :- R(a,b), S(b,c), T(c,a), U(d,e)",
                "Q(a,b,c,d,e,f) :- R(a,b), S(b,c), T(c,a), U(d,e), V(e,f), W(f,d)")


def test_auto_dispatch():
    assert pick_algorithm(canonical_query("C", 4)) == "cycle"
    assert pick_algorithm(canonical_query("K", 4)) == "clique"
    assert pick_algorithm(canonical_query("LW", 4)) == "lw"
    assert pick_algorithm(canonical_query("L", 4)) == "line"
    assert pick_algorithm(canonical_query("W", 3)) == "covering"
    assert pick_algorithm(canonical_query("T", 3)) == "one_round_skew"
    db = gen_matching(canonical_query("C", 4), 12, 1)
    res = run_algorithm("auto", db, 8, 0)
    assert res.name == "cycle"
    # Degrees and atom counts of a line or a cycle, but disconnected: the
    # line and cycle shapes reject them, so auto falls back.
    for text in DISCONNECTED:
        q = parse_query(text)
        assert pick_algorithm(q) == "one_round_skew", text
        db = gen_single_heavy(q, 20, "a", 1)
        res = run_algorithm("auto", db, 8, 0)
        assert res.name == "one_round_skew"
        assert res.output == oracle_join(db), text


# Atom variable lists of the lines, cycles, cliques and LW joins that fit
# in 6 variables, 6 atoms and arity 3; random bodies rarely have these shapes.
SHAPED_BODIES = [[list(a.vars) for a in canonical_query(fam, k).atoms]
                 for fam, ks in (("L", range(2, 7)), ("C", range(3, 7)),
                                 ("K", (3, 4)), ("LW", (3, 4))) for k in ks]


@st.composite
def small_databases(draw):
    """A query on at most 6 variables and 6 atoms of arity at most 3,
    possibly disconnected, with at most 10 tuples per relation over a
    domain of at most 4 values (so outputs stay below 4^6 rows).  Half of
    the bodies are shaped ones with each atom's variables in random order.
    Every relation holds at least min(fill, its domain) tuples, for one
    fill in [0, 10] per database, so that most outputs are not empty while
    a fill of 0 still allows empty relations."""
    names = ["x%d" % i for i in range(draw(st.integers(1, 6)))]
    random_body = st.lists(st.lists(st.sampled_from(names), min_size=1,
                                    max_size=3, unique=True),
                           min_size=1, max_size=6)
    bodies = draw(st.sampled_from(SHAPED_BODIES) if draw(st.booleans())
                  else random_body)
    bodies = [draw(st.permutations(b)) for b in bodies]
    head = draw(st.permutations(sorted({v for b in bodies for v in b})))
    q = Query("Q", tuple(head),
              tuple(Atom("R%d" % i, tuple(b)) for i, b in enumerate(bodies)))
    n = draw(st.integers(1, 4))
    fill = draw(st.integers(0, 10))
    rels = {}
    for a in q.atoms:
        ts = draw(st.sets(st.tuples(*[st.integers(1, n)] * a.arity),
                          min_size=min(fill, n ** a.arity), max_size=10))
        rels[a.relation] = RelationInstance(a.relation, a.arity, tuple(sorted(ts)), n)
    return DatabaseInstance(q, rels, 0, {"generator": "hypothesis"})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 4, 8, 27)), small_databases())
def test_shapes_decide_dispatch(p, db):
    # Every output is also rebuilt from what the servers hold, so a route
    # that misplaces tuples fails even when the central output is right.
    q = db.query
    want = oracle_join(db)
    with recorded_runs() as runs:
        for name, strategy in ALGORITHMS.items():
            try:
                res = run_algorithm(name, db, p, 3)
            except QueryError:
                assert strategy.shape(q) is None, (name, q.render())
                continue
            assert strategy.shape(q) is not None, (name, q.render())
            assert res.rounds <= ALGORITHMS[name].rounds(q), (name, q.render())
            assert res.output == want, (name, q.render())
            assert rebuilt(res, runs[-1]) == want, (name, q.render())
    res = run_algorithm("auto", db, p, 3)
    assert res.name == pick_algorithm(q)
    assert res.output == want


def _wrong_key_hc(monkeypatch, db):
    """hc's first atom places its first hashed variable by a rotated
    offset map: each value takes the next value's cell offset."""
    real, first = algorithms._hc_route, db.query.atoms[0]

    def route(a, order, shares, offsets, cells, column):
        if a == first:
            _, v, _ = hc_grid(a.vars, order, shares)[0][0]
            vals = list(offsets[v])
            offsets = {**offsets, v: dict(zip(vals, map(offsets[v].get,
                                                        vals[1:] + vals[:1])))}
        return real(a, order, shares, offsets, cells, column)
    monkeypatch.setattr(algorithms, "_hc_route", route)


def _misplaced_intersection(monkeypatch, db):
    """An intersection that places its last semi-join result by a map
    hashed under another tag, so co-located tuples no longer meet."""
    def intersect(ctx, rnd, atoms, rels, P, fresh, tag):
        block = [fresh() for _ in range(P)]
        for i, a in enumerate(atoms):
            col = hash_column(ctx.seed, tag + ("" if i < len(atoms) - 1 else "x"), "ix")
            ctx.eng.ship(rnd, a.relation, rels[a.relation],
                         algorithms._hashed(col, block, rels[a.relation])())
        return algorithms._part(block, atoms, rels)
    monkeypatch.setattr(algorithms, "_intersect_ship", intersect)


@pytest.mark.parametrize("mutant,alg,db", [
    (_wrong_key_hc, "hc", gen_agm_worst(canonical_query("C", 3), 300, 1)),
    (_misplaced_intersection, "lw", gen_single_heavy(canonical_query("LW", 3), 300, "x1", 1)),
])
def test_rebuild_kills_misplacing_mutants(monkeypatch, mutant, alg, db):
    # Each mutant ships tuples to the wrong servers and leaves the central
    # join alone: the central output still equals the oracle, and only the
    # output rebuilt from server holdings tells.
    want = oracle_join(db)
    with recorded_runs() as runs:
        res = run_algorithm(alg, db, 27, 3)
    assert rebuilt(res, runs[-1]) == want
    mutant(monkeypatch, db)
    with recorded_runs() as runs:
        res = run_algorithm(alg, db, 27, 3)
    assert res.rounds == ALGORITHMS[alg].rounds(db.query)
    assert res.output == want
    assert rebuilt(res, runs[-1]) != want


def test_runs_read_the_instance_tuples_uncopied(monkeypatch):
    # A plan's input for an atom whose column order the shape keeps is the
    # instance's own tuple of tuples; a reoriented atom gets a new tuple.
    # C3 and L4 are already oriented along the walk: the six strategies
    # that accept C3 (hc, one_round_skew, cycle, triangle, lw, clique) and
    # the three that accept L4 (hc, one_round_skew, line) keep all 18 + 12
    # atoms.  Q(x,y,z) :- R(y,x), S(y,z) is accepted by hc, one_round_skew
    # and join_one_sided_skew as it is, and line enters R by x, reversed.
    inputs = []

    def capturing(plan):
        def run(ctx, q, rels, p):
            inputs.append((q, rels))
            return plan(ctx, q, rels, p)
        return run
    for name, s in list(ALGORITHMS.items()):
        monkeypatch.setitem(ALGORITHMS, name, s._replace(plan=capturing(s.plan)))
    kept, reoriented = Counter(), Counter()
    for q in (canonical_query("C", 3), canonical_query("L", 4),
              parse_query("Q(x,y,z) :- R(y,x), S(y,z)")):
        db = gen_matching(q, 30, 1)
        for name in ALGORITHMS:
            if ALGORITHMS[name].shape(q) is None:
                continue
            inputs.clear()
            run_algorithm(name, db, 8, 1)
            (shaped, rels), = inputs
            for a in shaped.atoms:
                ts = db.relations[a.relation].tuples
                if a.vars == q.atom(a.relation).vars:
                    assert rels[a.relation] is ts, (name, q.name, a)
                    kept[q.name] += 1
                else:
                    assert type(rels[a.relation]) is tuple, (name, q.name, a)
                    assert rels[a.relation] == tuple(t[::-1] for t in ts)
                    reoriented[q.name, name] += 1
    assert kept == {"C3": 18, "L4": 12, "Q": 7}
    assert reoriented == {("Q", "line"): 1}


def test_lw_and_covering_join_once_per_part(monkeypatch):
    # The only local join of a storing run is run_algorithm's, one per
    # output part: lw's semi-join keys (on LW4 single_heavy, whose heavy
    # x1 values make residuals) and covering's (on W3) are reordered
    # without a join.
    calls = []
    join_atoms = algorithms.join_atoms

    def counted(*args, **kw):
        calls.append(args[0])
        return join_atoms(*args, **kw)
    monkeypatch.setattr(algorithms, "join_atoms", counted)
    for alg, db in [("lw", gen_single_heavy(canonical_query("LW", 4), 200, "x1", 1)),
                    ("covering", gen_matching(canonical_query("W", 3), 200, 1))]:
        calls.clear()
        with recorded_runs() as runs:
            res = run_algorithm(alg, db, 64, 1)
        (_, parts), = runs
        assert res.output == oracle_join(db), alg
        assert len(calls) == len(parts) >= 1, (alg, len(calls), len(parts))


def test_grid_column_block_runs_out():
    ids = iter(range(100))
    grid = _Grid(lambda: (next(ids),), 2)
    grid.fresh_row()
    grid.fresh_row()
    assert [grid.fresh_col(), grid.fresh_col()] == [(0, 2), (1, 3)]
    with pytest.raises(InsufficientServers, match="2 columns"):
        grid.fresh_col()


def test_counting_mode_same_loads_no_output():
    # Counting mode ships through the same routes without keeping what
    # servers hold, and evaluates no output part; storing mode raises on a
    # repeated delivery.  L5, C5 and C6 reach line's odd k >= 5 branch, odd
    # cycles' chains and even cycles' heavy pairs.  The one-atom query
    # reaches line at k == 1 and covering without semi-joins; p = 1 reaches
    # even cycles' P == 1.
    queries = [canonical_query("C", 3), canonical_query("C", 4),
               canonical_query("L", 4), canonical_query("LW", 4),
               canonical_query("K", 4), canonical_query("W", 3),
               canonical_query("L", 5), canonical_query("C", 5),
               canonical_query("C", 6), canonical_query("L", 2),
               parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)"),
               parse_query("Q(z,y) :- R(z), S(z,y)"),
               parse_query("Q(x,y) :- R(x,y)")]
    # The counting runs of one DryRuns share their input columns' counts;
    # p descends, so the largest p fills them and the others reuse them.
    compared = set()
    for q in queries:
        dbs = [gen_matching(q, 40, 1), gen_single_heavy(q, 40, q.variables[0], 2),
               gen_agm_worst(q, 40, 1), two_heavy(q, 40, 1)]
        for db in dbs:
            want = oracle_join(db)
            for name in ALGORITHMS:
                shared = DryRuns(name, db, 3)
                for p in (1024, 64, 27, 8, 1):
                    try:
                        full = run_algorithm(name, db, p, 3)
                    except QueryError:
                        break               # shape check rejects the query
                    dry = run_algorithm(name, db, p, 3, counting=True)
                    where = (name, q.name, db.meta["generator"], p)
                    assert dry.report.by_relation == full.report.by_relation, where
                    assert dry.rounds == full.rounds, where
                    run, load = shared[p]
                    assert run.report.by_relation == full.report.by_relation, where
                    assert run.rounds == full.rounds, where
                    assert load == full.report.max_tuples(), where
                    assert run.extras == full.extras, where
                    assert dry.output == set(), where
                    assert full.output == want, where
                    compared.add(name)
    assert compared == set(ALGORITHMS)


def test_dry_runs_rank_and_list_each_input_column_once(monkeypatch):
    # On the AGM-worst triangle at m = 900 every value has degree 30, below
    # the light threshold 900/p^(1/3) for every p up to 2048, so each run
    # is the light hypercube alone, tagged "Cl".  Pinned from the design
    # before the test ran: the sweep ranks each of the 3 light-round
    # variables once (a run that shares nothing ranks every split variable
    # again, 30 rankings over these p), and its route keys read one value
    # list per input column, at most 6 for 3 binary atoms.
    rankings = Counter()
    real = algorithms.hash_column

    def counting(seed, *path):
        column = real(seed, *path)

        def counted(values):
            if path[1] == "bal":
                rankings[path] += 1
            return column(values)
        return counted
    monkeypatch.setattr(algorithms, "hash_column", counting)
    runs = DryRuns("triangle", gen_agm_worst(canonical_query("C", 3), 900, 1), 1)
    for i in range(12):
        runs[1 << i]
    assert rankings == {("Cl", "bal", v): 1 for v in ("x1", "x2", "x3")}
    assert len(runs.shared.columns) <= 6


def test_dry_runs_leave_shared_inputs_as_they_were():
    # A plan that mutated a shared input list, count, value list or rank
    # order would silently change every later p of a sweep.  After a sweep
    # over the p of tools/ledger_matrix.py, db's relations must be as
    # before, the shared input lists as shaped afresh from db, and every
    # shared product as computed afresh from those lists.
    checked = Counter()
    for q in (canonical_query("C", 3), canonical_query("L", 4),
              canonical_query("LW", 4)):
        db = two_heavy(q, 40, 1)
        before = {r: ri.tuples for r, ri in db.relations.items()}
        for name, strategy in ALGORITHMS.items():
            if strategy.shape(q) is None:
                continue
            runs = DryRuns(name, db, 1)
            for p in GRIDS["full"].ps:
                runs[p]
            shared, where = runs.shared, (name, q.name)
            assert {r: ri.tuples for r, ri in db.relations.items()} == before, where
            inputs = shared.rels
            assert (shared.query, inputs) == _shaped(name, strategy, db), where
            checked.update(counts=len(shared.counts), columns=len(shared.columns),
                           orders=len(shared.orders))
            for (r, i), count in shared.counts.items():
                assert count == Counter(t[i] for t in inputs[r]), where
            for (r, i), column in shared.columns.items():
                assert column == [t[i] for t in inputs[r]], where
            for (tag, v, cols), order in shared.orders.items():
                fresh = [[t[i] for t in inputs[r]] for r, i in cols]
                assert order == _ranked(1, tag, v, fresh), where
    assert min(checked.values()) > 0 and len(checked) == 3


def _ledger_digest(res):
    parts = [sorted(res.output), res.rounds, sorted(res.extras.items(), key=repr),
             [sorted(r.items()) for r in res.report.by_relation]]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# (strategy, query, instance, p, relation-name pattern of the heavy path,
# sha256 of output, rounds, extras and by_relation of the storing run).
# The instance is two_heavy, or single_heavy on the named variable.
# The patterns are the key relations of clique's and LW's semi-joins
# (Kkq, Wkw), odd cycles' (Cka), the arcs of even cycles' heavy pairs,
# adjacent and not (Cp...A, Cp...xA), line's odd branch (Lk) and
# covering's semi-joins (Vkc).  The last clique lists a pair out of head
# order, so its k == 2 residual must reorder its rows.  The last two rows
# ship only their inputs (S1...): C4 skewed on x2 gives the odd positions
# the least smallest bound in the even cycle's one-round exponents (p = 27),
# and on one server every share is 1 (p = 1).
_PINNED = [
    ("clique", canonical_query("K", 4), "two_heavy", 1024, r"Kkq#",
     "c126ade7237ee9f9c4405862f337b35ba9c933514ef67c7c932b6c13b5bd08de"),
    ("clique", canonical_query("K", 5), "x1", 64, r"Kkq#",
     "fc87a80cb6081bb0c2ce1032528d05ed368e6cc41b49968af552b1ac23bf4363"),
    ("lw", canonical_query("LW", 4), "two_heavy", 1024, r"Wkw#",
     "d117aef815327e76581b46dea78784815303e65a865232ad07418a1b485e8ba7"),
    ("lw", canonical_query("LW", 3), "two_heavy", 216, r"Wkw#",
     "a85a2f061c43f0b88aeb805c2f2c5f572e816cf1338402da87a220182c7272a8"),
    ("triangle", canonical_query("C", 3), "two_heavy", 216, r"Cka#",
     "47983f4150255f9bf6ef27c2404b95c91cff7f02517993f975a28f1558519e5b"),
    ("cycle", canonical_query("C", 5), "x1", 27, r"Cka#",
     "bd39d47d11839d025fc55daa6e7f24bc773be5ced0b991a2f8b35bec445d57bc"),
    ("cycle", canonical_query("C", 4), "two_heavy", 1024, r"Cp[\d_]+A#",
     "27581dc1e478a6b447af1881082cb0461fd8b5cc0a00cfee6f2d64e37bd3e9c8"),
    ("cycle", canonical_query("C", 6), "two_heavy", 16384, r"Cp[\d_]+xA#",
     "d41cbbed7a352ff95d8d9bdd42a37130face8df3f34ec467ef5f35cf550b4c15"),
    ("line", canonical_query("L", 5), "x1", 64, r"Lk#",
     "4eda4605e5f467b4933be86b1975fd19e554dc05806a7a9eddb4ff80b95a8727"),
    ("covering", canonical_query("W", 3), "two_heavy", 8, r"Vkc#",
     "e65cdd50dc8c32f979e5380d93d997a633f2d60132396bbbdcbbd8be594dc6b3"),
    ("clique", parse_query("Q(a,b,c) :- R(b,a), S(b,c), T(a,c)"), "c", 27, r"Kkq#",
     "98ec6e9713ff9e9b7fefcf071143905b0a1787205bddc68c9fb86d541a0e1055"),
    ("cycle", canonical_query("C", 4), "x2", 27, r"S\d$",
     "005307012251a8dc14238ae24d04158d7cc34c3e0c0d1ca5cfa4adf69f0aa800"),
    ("cycle", canonical_query("C", 4), "x2", 1, r"S\d$",
     "d03283ac3bc6913c78137e11ce0c799d92d7b46837358fc5856205e464d6615d"),
]


def test_heavy_residual_ledgers_pinned():
    # The heavy-residual paths keep storing equal to counting and match the
    # oracle under many re-routings, so their ledgers are pinned by digest.
    for alg, q, inst, p, pattern, digest in _PINNED:
        db = two_heavy(q, 40, 1) if inst == "two_heavy" \
            else gen_single_heavy(q, 40, inst, 1)
        res = run_algorithm(alg, db, p, 1)
        where = (alg, q.name, inst, p)
        assert any(re.match(pattern, rel) for rnd in res.report.by_relation
                   for _, rel in rnd), where
        dry = run_algorithm(alg, db, p, 1, counting=True)
        assert dry.report.by_relation == res.report.by_relation, where
        assert _ledger_digest(res) == digest, where


def test_renaming_wrappers_only_rename():
    tri = gen_single_heavy(canonical_query("C", 3), 30, "x1", 2)
    sj = gen_single_heavy(parse_query("Q(z,y) :- R(z), S(z,y)"), 30, "z", 2)
    for name, body, db in (("triangle", "cycle", tri),
                           ("semi_join", "join_one_sided_skew", sj)):
        res, ref = run_algorithm(name, db, 27, 3), run_algorithm(body, db, 27, 3)
        assert res.name == name
        assert (res.query, res.p, res.output, res.rounds, res.extras) == \
            (ref.query, ref.p, ref.output, ref.rounds, ref.extras)
        assert res.report.by_relation == ref.report.by_relation
    with pytest.raises(QueryError):
        run_algorithm("triangle", gen_matching(canonical_query("C", 4), 10, 1), 8, 0)


def test_every_registered_algorithm_has_contract():
    for name in ALGORITHMS:
        assert ALGORITHMS[name].rounds(canonical_query("C", 3)) >= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 4), st.integers(1, 10 ** 4), st.data())
def test_least_heavy_frequency_matches_brute_force(m, P, data):
    # every heavy threshold m/P^(num/den): _one_round_skew (1/1),
    # _skew_join_ship (strict, 1/1), _heavy_residuals' light round
    # (strict, 1/k), _line (1/n), _cycle_even's candidates (2/k) and its
    # pairs (m^2 at 2/k)
    if data.draw(st.booleans(), label="pair"):
        m = data.draw(st.integers(1, 100), label="pair m") ** 2
        num, den, strict = 2, data.draw(st.integers(2, 10), label="k"), False
    else:
        den = data.draw(st.integers(1, 10), label="den")
        num = data.draw(st.integers(1, den), label="num")
        strict = data.draw(st.booleans(), label="strict")
    rhs, Pn = m ** den, P ** num
    want = next(f for f in range(1, m + 2)
                if (f ** den * Pn > rhs if strict else f ** den * Pn >= rhs))
    assert _least(m, P, num, den, strict) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_heavy_profiles_match_per_tuple_definition(data):
    # Zero, one or several of the atom's positions have heavy values; the
    # classifier must give the groups, and so the light rows, of testing
    # every value of every tuple.
    arity = data.draw(st.integers(1, 4))
    vs = tuple("v%d" % i for i in range(arity))
    hot = data.draw(st.sets(st.sampled_from(vs)))
    heavy = {v: data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))
             if v in hot else set() for v in vs}
    ts = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * arity), max_size=40))
    a = Atom("R", vs)
    want = {}
    for t in ts:
        prof = frozenset(v for v, val in zip(vs, t) if val in heavy[v])
        want.setdefault(prof, []).append(t)
    got = _heavy_profiles(a, ts, heavy)
    assert got == want
    assert got.get(frozenset(), []) == [
        t for t in ts if all(val not in heavy[v] for v, val in zip(vs, t))]
    assert _heavy_profiles(a, [], heavy) == {}


def _active_by_scan(q, groups):
    """The reference for `_active_profiles`: every one of the 2^k subsets X
    of q.variables in bitmask order, kept when every atom has a group under
    its profile X & vars(a)."""
    out = []
    for mask in range(1 << len(q.variables)):
        X = frozenset(v for i, v in enumerate(q.variables) if mask >> i & 1)
        profs = [X & frozenset(a.vars) for a in q.atoms]
        if all(groups[a.relation].get(pr) for a, pr in zip(q.atoms, profs)):
            out.append((X, profs))
    return out


# At p = 4 the x-heavy and the y-heavy tuples form two active profiles,
# which the join finds as {y} before {x}: the opposite of bitmask order.
_CROSSED = DatabaseInstance(
    parse_query("Q(x,y) :- R(x,y)"),
    {"R": RelationInstance("R", 2, ((1, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 4)), 4)},
    0, {"generator": "crossed"})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 4, 8, 27)), small_databases())
@example(4, _CROSSED)
def test_active_profiles_match_the_subset_scan(p, db):
    # The groups are built as `_one_round_skew` builds them at P = p.
    q = db.query
    rels = {r: list(ri.tuples) for r, ri in db.relations.items()}
    ctx = _Ctx(Engine(db.widths_bits()), 3, 1)
    heavy = _heavy_at(ctx, q.atoms, rels, q.variables,
                      {a.relation: _least(max(1, len(rels[a.relation])), p, 1, 1)
                       for a in q.atoms})
    groups = {a.relation: _heavy_profiles(a, rels[a.relation], heavy)
              for a in q.atoms}
    assert _active_profiles(q, groups) == _active_by_scan(q, groups)


class _CountingGroups(dict):
    """Profile groups that count their lookups and the keys they yield."""
    uses = 0

    def __getitem__(self, key):
        _CountingGroups.uses += 1
        return super().__getitem__(key)

    def get(self, *args):
        _CountingGroups.uses += 1
        return super().get(*args)

    def __contains__(self, key):
        _CountingGroups.uses += 1
        return super().__contains__(key)

    def __iter__(self):
        for key in super().__iter__():
            _CountingGroups.uses += 1
            yield key

    def keys(self):
        return list(self)

    def values(self):
        return [self[key] for key in self]

    def items(self):
        return [(key, self[key]) for key in self]


def test_one_round_skew_profile_work_on_sp9(monkeypatch):
    # SP9 has 19 variables and 18 atoms.  Under matching at m = 200 and
    # p = 64 no value is heavy, so every atom has one group and X = {} is
    # the only active profile.  The join yields each atom's one group once
    # and looks each group up twice (its filtered relation and its
    # shipment): 3 uses per atom, 54 in all, which is the bound.  A walk
    # over the 2^19 subsets makes at least one lookup per subset.
    q = canonical_query("SP", 9)
    heavy_profiles = algorithms._heavy_profiles
    monkeypatch.setattr(algorithms, "_heavy_profiles",
                        lambda *args: _CountingGroups(heavy_profiles(*args)))
    monkeypatch.setattr(_CountingGroups, "uses", 0)
    run_algorithm("one_round_skew", gen_matching(q, 200, 1), 64, 3, counting=True)
    assert _CountingGroups.uses <= 3 * len(q.atoms) == 54
