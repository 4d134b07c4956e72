import pytest

from mpcjoin.datagen import gen_coin_flip, gen_matching
from mpcjoin.query import canonical_query, parse_query
from mpcjoin.sim import (Engine, RoutingError, hash_family, hc_destinations,
                         join_atoms, local_join, oracle_join)


def test_hash_family_range_and_determinism():
    h = hash_family(1, "a")
    for v in range(1000):
        b = h(v, 7)
        assert 1 <= b <= 7
        assert b == h(v, 7)
    assert h(5, 1) == 1


def test_hash_family_independent_members():
    h1, h2 = hash_family(1, "a"), hash_family(1, "b")
    vals = [h1(v, 64) == h2(v, 64) for v in range(512)]
    assert 0 < sum(vals) < 128     # agree rarely, not never


def test_hash_family_roughly_uniform():
    h = hash_family(3, "u")
    counts = [0] * 16
    for v in range(16000):
        counts[h(v, 16) - 1] += 1
    assert max(counts) < 1500 and min(counts) > 600


def test_hash_family_tuple_keys():
    h = hash_family(2, "t")
    assert h((1, 2), 9) == h((1, 2), 9)
    assert 1 <= h((1, 2, 3), 9) <= 9


def test_hc_destinations_bound_and_unbound():
    shares = {"x": 2, "y": 3, "z": 1}
    hashes = {v: hash_family(0, v) for v in shares}
    order = ["x", "y", "z"]
    # fully bound: exactly one cell
    cells = hc_destinations({"x", "y", "z"}, {"x": 4, "y": 5, "z": 6},
                            shares, order, hashes)
    assert len(cells) == 1 and 0 <= cells[0] < 6
    # one unbound variable of share 3: three cells
    cells = hc_destinations({"x"}, {"x": 4}, shares, order, hashes)
    assert len(cells) == 3 and len(set(cells)) == 3


def test_engine_counts_and_rejects_repeats():
    eng = Engine({"R": 10, "S": 3})
    eng.ship(0, "R", [(1, 2)], lambda t: [1, 2])
    eng.ship(0, "S", [(1, 2)], lambda t: [1])   # same tuple, other relation
    with pytest.raises(RoutingError):
        eng.ship(0, "R", [(1, 2)], lambda t: [1])   # repeat in the same round
    with pytest.raises(RoutingError):
        eng.ship(0, "R", [(3, 4)], lambda t: [5, 5])
    eng.ship(1, "R", [(1, 2), (5, 6)], lambda t: [1])   # new round: counted again
    rep = eng.report
    assert rep.rounds == 2
    assert rep.by_relation[0] == {(1, "R"): 1, (2, "R"): 1, (1, "S"): 1}
    assert rep.server_tuples(0) == {1: 2, 2: 1}
    assert rep.max_tuples() == 2 and rep.round_max_bits(0) == 13
    assert rep.round_total_tuples(0) == 3
    assert rep.server_total_tuples(1) == 4
    assert eng.holdings(1, "R") == {(1, 2), (5, 6)}    # union over rounds
    assert eng.holdings(2, "R") == {(1, 2)}


def test_engine_unknown_relation():
    eng = Engine({"R": 4})
    with pytest.raises(KeyError):
        eng.ship(0, "Q", [(1,)], lambda t: [0])


def test_ship_detects_impure_route():
    eng = Engine({"R": 4})
    state = {"n": 0}

    def flaky(t):
        state["n"] += 1
        return [state["n"] % 3]

    with pytest.raises(RoutingError):
        eng.ship(0, "R", [(1,), (2,), (3,)], flaky)


def test_counting_mode_matches_storing_mode():
    tuples = [(i, i % 5) for i in range(200)]
    reports = []
    for store in (True, False):
        eng = Engine({"R": 8}, store_tuples=store)
        eng.ship(0, "R", tuples, lambda t: {t[1], (t[0] * 7) % 13})
        reports.append(eng.report)
    assert reports[0] == reports[1]


def test_add_counts_equals_distinct_sends():
    sent = Engine({"R": 8, "S": 3}, store_tuples=False)
    sent.ship(1, "R", [(t,) for t in range(5)], lambda t: [0, 4] if t[0] < 2 else [0])
    sent.ship(1, "S", [(9,)], lambda t: [4])
    bulk = Engine({"R": 8, "S": 3}, store_tuples=False)
    bulk.add_counts(1, "R", {0: 5, 4: 2})
    bulk.add_counts(1, "S", {4: 1})
    bulk.add_counts(2, "S", {})          # no deliveries: no round opened
    assert bulk.report == sent.report
    with pytest.raises(KeyError):
        bulk.add_counts(0, "Q", {0: 1})
    with pytest.raises(ValueError):
        bulk.add_counts(0, "R", {-1: 1})
    with pytest.raises(RuntimeError):
        Engine({"R": 8}).add_counts(0, "R", {0: 1})


def test_counting_mode_has_no_holdings():
    eng = Engine({"R": 8}, store_tuples=False)
    eng.ship(0, "R", [(1,), (1,)], lambda t: [0])   # no repeat check either
    assert eng.report.by_relation == [{(0, "R"): 2}]
    with pytest.raises(RuntimeError):
        eng.holdings(0, "R")


def test_load_report_csv(tmp_path):
    eng = Engine({"R": 10})
    eng.ship(0, "R", [(1,)], lambda t: [3])
    path = str(tmp_path / "load.csv")
    eng.report.write_csv(path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "round,server,relation,tuples,bits_per_tuple"
    assert lines[1] == "1,3,R,1,10"


def test_join_atoms_matches_brute_force():
    q = parse_query("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
    rels = {
        "R": [(1, 2), (1, 3), (2, 3)],
        "S": [(2, 4), (3, 4), (3, 1)],
        "T": [(4, 1), (1, 2), (4, 2)],
    }
    brute = {(x, y, z)
             for (x, y) in rels["R"]
             for (y2, z) in rels["S"] if y2 == y
             for (z2, x2) in rels["T"] if z2 == z and x2 == x}
    assert join_atoms(q.atoms, rels, q.variables) == brute


def test_join_atoms_guard_trips():
    q = parse_query("q(x,y) :- R(x), S(y)")
    rels = {"R": [(i,) for i in range(100)], "S": [(i,) for i in range(100)]}
    with pytest.raises(MemoryError):
        join_atoms(q.atoms, rels, q.variables, guard=50)


def test_oracle_join_matching_is_diagonalish():
    q = canonical_query("C", 3)
    db = gen_matching(q, 25, 1)
    out = oracle_join(db)
    # three random permutation matchings rarely close many triangles,
    # but whatever closes must be consistent with all three relations
    s1 = set(db.relations["S1"].tuples)
    s2 = set(db.relations["S2"].tuples)
    s3 = set(db.relations["S3"].tuples)
    for (a, b, c) in out:
        assert (a, b) in s1 and (b, c) in s2 and (c, a) in s3


def test_local_join_equals_oracle():
    q = canonical_query("L", 3)
    db = gen_coin_flip(q, 27, 2)
    rels = {r: ri.tuples for r, ri in db.relations.items()}
    assert local_join(q, rels) == oracle_join(db)
