import ast
import itertools
import math
import re
import tracemalloc
from collections import Counter
from functools import partial
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from mpcjoin.datagen import (gen_matching, gen_single_heavy, read_instance,
                             write_instance)
from mpcjoin.query import Atom, canonical_query, parse_query
from mpcjoin.sim import Engine, Route, RoutingError, join_atoms, oracle_join

from conftest import star_triangle

_by_tuple = partial(Route, iter)        # the route whose key is the tuple itself


def test_engine_counts_and_rejects_repeats():
    eng = Engine({"R": 10, "S": 3})
    eng.ship(0, "R", [(1, 2)], _by_tuple(lambda t: (1, 2)))
    eng.ship(0, "S", [(1, 2)], _by_tuple(lambda t: (1,)))   # same tuple, other relation
    with pytest.raises(RoutingError):
        eng.ship(0, "R", [(1, 2)], _by_tuple(lambda t: (1,)))   # repeat in the same round
    with pytest.raises(RoutingError):
        eng.ship(0, "R", [(3, 4)], _by_tuple(lambda t: (5, 5)))
    eng.ship(1, "R", [(1, 2), (5, 6)], _by_tuple(lambda t: (1,)))   # new round: counted again
    rep = eng.report
    assert rep.rounds == 2
    assert rep.by_relation[0] == {(1, "R"): 1, (2, "R"): 1, (1, "S"): 1}
    assert rep.server_tuples(0) == {1: 2, 2: 1}
    assert rep.max_tuples() == 2 and rep.round_max_bits(0) == 13
    assert rep.round_total_tuples(0) == 3
    assert sum(n for rnd in rep.by_relation for (s, _), n in rnd.items() if s == 1) == 4
    assert eng.holdings(1, "R") == {(1, 2), (5, 6)}    # union over rounds
    assert eng.holdings(2, "R") == {(1, 2)}


def test_repeat_message_names_the_tuple():
    eng = Engine({"R": 4})
    eng.ship(0, "R", [(3, 4)], _by_tuple(lambda t: (1,)))
    with pytest.raises(RoutingError, match=r"R/\(3, 4\) delivered twice to server 1 "):
        eng.ship(0, "R", [(7, 8), (3, 4), (9, 9)], _by_tuple(lambda t: (1, 2)))
    with pytest.raises(RoutingError, match=r"R/\(5, 5\) delivered twice to server 2 "):
        eng.ship(1, "R", [(5, 5), (6, 6), (5, 5), (7, 7)], _by_tuple(lambda t: (2,)))
    # against an earlier held group of 1,000 tuples: a small group after a
    # large one, and a large group after a small one
    large = [(i, i) for i in range(1000, 0, -1)]
    eng.ship(2, "R", large, _by_tuple(lambda t: (3,)))
    with pytest.raises(RoutingError, match=r"R/\(500, 500\) delivered twice to server 3 in round 2"):
        eng.ship(2, "R", [(2000, 2000), (500, 500)], _by_tuple(lambda t: (3, 4)))
    eng.ship(3, "R", [(7, 7)], _by_tuple(lambda t: (4,)))
    with pytest.raises(RoutingError, match=r"R/\(7, 7\) delivered twice to server 4 in round 3"):
        eng.ship(3, "R", large, _by_tuple(lambda t: (4, 5)))
    # the failed shipments delivered nothing
    assert eng.holdings(3, "R") == set(large) and eng.holdings(4, "R") == {(7, 7)}
    assert eng.holdings(5, "R") == set()


def test_storing_mode_retains_one_reference_per_tuple():
    # 20,000 tuples in 64 single-server groups and one 4-server group: the
    # engine keeps each group once, without a hash table per group
    tuples = [(i, i % 65) for i in range(20000)]
    dests = [(s,) for s in range(64)] + [(64, 65, 66, 67)]
    eng = Engine({"R": 8})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eng.ship(0, "R", tuples, _by_tuple(lambda t: dests[t[1]]))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(eng.report.by_relation[0].values()) == 20000 + 3 * 307
    assert retained < 20 * len(tuples)


def test_engine_unknown_relation():
    eng = Engine({"R": 4})
    with pytest.raises(KeyError):
        eng.ship(0, "Q", [(1,)], _by_tuple(lambda t: (0,)))


def test_ship_detects_impure_route():
    eng = Engine({"R": 4})
    state = {"n": 0}

    def flaky(t):
        state["n"] += 1
        return frozenset({state["n"] % 3})

    with pytest.raises(RoutingError, match="not tuple-determined"):
        eng.ship(0, "R", [(1,), (2,), (3,)], _by_tuple(flaky))

    # a fresh tuple on every call is compared, not taken on identity
    def fresh_tuples(t):
        state["n"] += 1
        return (state["n"] % 3,)

    with pytest.raises(RoutingError, match="not tuple-determined"):
        eng.ship(0, "R", [(1,)], _by_tuple(fresh_tuples))


def test_counting_mode_matches_storing_mode():
    tuples = [(i, i % 5) for i in range(200)]
    reports = []
    for store in (True, False):
        eng = Engine({"R": 8}, store_tuples=store)
        eng.ship(0, "R", tuples, _by_tuple(lambda t: frozenset({t[1], (t[0] * 7) % 13})))
        reports.append(eng.report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("store", [True, False])
def test_ship_empty_and_negative_server(store):
    eng = Engine({"R": 8}, store_tuples=store)
    eng.ship(2, "R", [], _by_tuple(lambda t: (0,)))     # no deliveries: no round opened
    assert eng.report.by_relation == []
    with pytest.raises(ValueError):
        eng.ship(0, "R", [(1,)], _by_tuple(lambda t: (0, -1)))
    with pytest.raises(ValueError):
        eng.ship(-1, "R", [(1,)], _by_tuple(lambda t: (0,)))


def test_counting_mode_has_no_holdings():
    eng = Engine({"R": 8}, store_tuples=False)
    eng.ship(0, "R", [(1,), (1,)], _by_tuple(lambda t: (0,)))   # no repeat check either
    assert eng.report.by_relation == [{(0, "R"): 2}]
    with pytest.raises(RuntimeError):
        eng.holdings(0, "R")


@pytest.mark.parametrize("store", [True, False])
@pytest.mark.parametrize("shipped,route,error", [
    ([(1, 0)], lambda t: (0,), TypeError),                     # a plain callable
    ([(1, 0)], _by_tuple(lambda t: [0]), RoutingError),        # dests a list
    ([(1, 0)], _by_tuple(lambda t: (s for s in (0,))), RoutingError),  # a generator
    ((t for t in [(1, 0)]), _by_tuple(lambda t: (0,)), TypeError),    # a generator
], ids=["callable-route", "list-dests", "generator-dests", "generator-shipment"])
def test_ship_takes_one_form_of_each_argument(store, shipped, route, error):
    # a route is a Route whose dests are a tuple or frozenset, and a
    # shipment is a list, tuple, set or frozenset; anything else raises
    # and delivers nothing
    eng = Engine({"R": 8}, store_tuples=store)
    eng.ship(0, "R", [(2, 0)], _by_tuple(lambda t: (0,)))
    with pytest.raises(error, match=r"(for|of) R "):
        eng.ship(0, "R", shipped, route)
    assert eng.report.by_relation == [{(0, "R"): 1}]
    if store:
        assert eng.holdings(0, "R") == {(2, 0)}


def test_load_report_csv(tmp_path):
    eng = Engine({"R": 10})
    eng.ship(0, "R", [(1,)], _by_tuple(lambda t: (3,)))
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


class _ReferenceEngine:
    """Engine.ship as one delivery at a time, with its own ledger and
    holdings: the semantics the grouped shipment must keep."""

    def __init__(self, store_tuples):
        self.store_tuples = store_tuples
        self.by_relation = []
        self.held = {}

    def ship(self, rnd, rel, tuples, route):
        counts = Counter()
        held = self.held.setdefault(rnd, {}) if self.store_tuples else None
        for i, tup in enumerate(tuples):
            dests = list(route(tup))
            if i < 64 and sorted(route(tup)) != sorted(dests):
                raise RoutingError("route for %s/%s is not tuple-determined" % (rel, tup))
            for s in dests:
                counts[s] += 1
                if held is None:
                    continue
                got = held.setdefault((s, rel), set())
                n = len(got)
                got.add(tup)
                if len(got) == n:
                    raise RoutingError("%s/%s delivered twice to server %d in round %d"
                                       % (rel, tup, s, rnd))
        if counts:
            while len(self.by_relation) <= rnd:
                self.by_relation.append({})
            for s, n in counts.items():
                key = (s, rel)
                self.by_relation[rnd][key] = self.by_relation[rnd].get(key, 0) + n

    def holdings(self, server, rel):
        return set().union(*(h.get((server, rel), ()) for h in self.held.values()))


_ROUTE_KINDS = {"tuple": tuple, "frozenset": frozenset}


def _repeats_at(held, rnd, rel, tuples, route, tup, server):
    """Whether delivering `tuples` makes `tup` reach `server` twice in
    round rnd, given the holdings `held` before the call."""
    before = held.get(rnd, {}).get((server, rel), set())
    copies = sum(list(route(t)).count(server) for t in tuples if t == tup)
    return copies + (tup in before) >= 2


def _routing_error(ship, *args):
    try:
        ship(*args)
    except RoutingError as e:
        return str(e)
    return None


def _matches_per_delivery_reference(data, pool, key_of, keys):
    """Draw servers per key and a few shipments of `pool`, routed by
    Route(keys, dests): the grouped shipment and one delivery at a time
    must agree on the ledger, the holdings and the repeats reported."""
    dests = data.draw(st.fixed_dictionaries(
        {k: st.lists(st.integers(0, 5), max_size=4) for k in sorted(set(key_of.values()))}))
    calls = data.draw(st.lists(st.tuples(
        st.integers(0, 1), st.sampled_from(["R", "S"]),
        st.lists(st.sampled_from(pool), max_size=12),
        st.sampled_from(sorted(_ROUTE_KINDS))), min_size=1, max_size=4))
    for store in (True, False):
        eng = Engine({"R": 8, "S": 3}, store_tuples=store)
        ref = _ReferenceEngine(store)
        for rnd, rel, tuples, kind in calls:
            def route(t, kind=kind):
                return _ROUTE_KINDS[kind](dests[key_of[t]])
            keyed = Route(keys, lambda k, kind=kind: _ROUTE_KINDS[kind](dests[k]))
            held = {r: {k: set(v) for k, v in h.items()} for r, h in ref.held.items()}
            want = _routing_error(ref.ship, rnd, rel, tuples, route)
            got = _routing_error(eng.ship, rnd, rel, tuples, keyed)
            assert (want is None) == (got is None), (calls, want, got)
            assert eng.report.by_relation == ref.by_relation
            if got is not None:
                m = re.match(r"%s/(\(.*\)) delivered twice to server (\d+) in round %d$"
                             % (rel, rnd), got)
                assert m, got
                tup, server = ast.literal_eval(m.group(1)), int(m.group(2))
                assert tup in tuples and server in dests[key_of[tup]]
                assert _repeats_at(held, rnd, rel, tuples, route, tup, server)
                break
        else:
            if store:
                for s, rel in itertools.product(range(6), "RS"):
                    assert eng.holdings(s, rel) == ref.holdings(s, rel)


_POOL = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)),
                 min_size=1, max_size=6, unique=True)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_ship_matches_per_delivery_reference(data):
    # the route keyed by the tuple itself, with random servers per tuple
    pool = data.draw(_POOL)
    _matches_per_delivery_reference(data, pool, dict(zip(pool, pool)), iter)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_keyed_route_matches_per_delivery_reference(data):
    # a random key per tuple and random servers per key
    pool = data.draw(_POOL)
    key_of = data.draw(st.fixed_dictionaries({t: st.integers(0, 3) for t in pool}))
    _matches_per_delivery_reference(data, pool, key_of, partial(map, key_of.__getitem__))


@pytest.mark.parametrize("store", [True, False])
def test_keys_must_depend_on_the_tuple_alone(store):
    tuples = [(i, i % 3) for i in range(100)]
    calls = itertools.count()
    for keys in (lambda ts: range(len(ts)),                  # by position
                 lambda ts: [next(calls) % 2 for _ in ts],   # by call
                 lambda ts: itertools.islice(ts, 64)):       # keys run short
        eng = Engine({"R": 8}, store_tuples=store)
        with pytest.raises(RoutingError, match="keys for R"):
            eng.ship(0, "R", tuples, Route(keys, lambda k: (0,)))
        assert eng.report.by_relation == []
    # the same tuples with keys that read only the tuple pass
    eng = Engine({"R": 8}, store_tuples=store)
    eng.ship(0, "R", tuples, Route(lambda ts: map(itemgetter(1), ts), lambda k: (k,)))
    assert eng.report.by_relation == [{(0, "R"): 34, (1, "R"): 33, (2, "R"): 33}]


@pytest.mark.parametrize("missing", ["R", "S", "T"])
def test_join_atoms_rejects_a_missing_relation(missing):
    # a part that leaves out one of its atoms' relations is an error, not
    # an empty relation that makes the join empty
    q = parse_query("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
    rels = {"R": [(1, 2)], "S": [(2, 3)], "T": [(3, 1)]}
    assert join_atoms(q.atoms, rels, q.variables) == {(1, 2, 3)}
    del rels[missing]
    with pytest.raises(KeyError):
        join_atoms(q.atoms, rels, q.variables)


def test_join_atoms_guard_trips():
    q = parse_query("q(x,y) :- R(x), S(y)")
    rels = {"R": [(i,) for i in range(100)], "S": [(i,) for i in range(100)]}
    with pytest.raises(MemoryError):
        join_atoms(q.atoms, rels, q.variables, guard=50)


_VARS = "abcde"


@st.composite
def _join_cases(draw):
    """At most 4 atoms of arity <= 3 over <= 5 variables, atom variable
    orders independent of the head order, and data over domain <= 4."""
    atoms = draw(st.lists(st.lists(st.sampled_from(_VARS), min_size=1, max_size=3,
                                   unique=True), min_size=1, max_size=4))
    used = sorted({v for a in atoms for v in a})
    head = draw(st.permutations(used))
    domain = draw(st.integers(1, 4))
    rels = {"R%d" % i: draw(st.lists(st.tuples(*[st.integers(1, domain)] * len(a)),
                                     max_size=8))
            for i, a in enumerate(atoms)}
    return [tuple(a) for a in atoms], tuple(head), domain, rels


@settings(deadline=None, max_examples=300)
@given(_join_cases())
@example(([("a", "b"), ("c",), ("b", "a")], ("c", "b", "a"), 2,
          {"R0": [(1, 2), (2, 2)], "R1": [(1,), (2,)], "R2": [(2, 1), (1, 1)]}))
# a key-unique step that extends every row by one tail
@example(([("a",), ("a", "b"), ("b", "c")], ("a", "b", "c"), 3,
          {"R0": [(1,), (2,)], "R1": [(1, 2), (2, 3), (3, 1)],
           "R2": [(2, 1), (3, 3), (1, 2)]}))
# a key-unique step whose input already exceeds guard = len(full) - 1
@example(([("a",), ("a", "b")], ("b", "a"), 3,
          {"R0": [(1,), (2,), (3,)], "R1": [(1, 1), (2, 1), (3, 2)]}))
# key-unique steps whose rows are a prefix of the atom: the rows over (a)
# and then (a, b) become the hit tuples of R1 and then of R2
@example(([("a",), ("a", "b"), ("a", "b", "c")], ("a", "b", "c"), 3,
          {"R0": [(1,), (2,)], "R1": [(1, 2), (2, 2), (3, 1)],
           "R2": [(1, 2, 3), (2, 2, 1), (3, 1, 1), (1, 1, 2)]}))
# a repeated key: the step lists each key's tails
@example(([("a",), ("a", "b")], ("a", "b"), 2,
          {"R0": [(1,)], "R1": [(1, 1), (1, 2), (2, 2)]}))
def test_join_atoms_matches_nested_loop(case):
    atoms_vars, head, domain, rels = case
    atoms = [Atom("R%d" % i, vs) for i, vs in enumerate(atoms_vars)]
    variables = sorted(set(head))
    full = set()
    for values in itertools.product(range(1, domain + 1), repeat=len(variables)):
        asg = dict(zip(variables, values))
        if all(tuple(asg[v] for v in a.vars) in rels[a.relation] for a in atoms):
            full.add(values)
    want = {tuple(dict(zip(variables, f))[v] for v in head) for f in full}
    assert join_atoms(atoms, rels, head) == want
    # every intermediate is at most the product of the relation sizes, and
    # the last one holds every full assignment (guard 0 means no guard)
    bound = math.prod(max(1, len(ts)) for ts in rels.values())
    assert join_atoms(atoms, rels, head, guard=bound) == want
    if len(atoms) > 1 and len(full) > 1:
        with pytest.raises(MemoryError):
            join_atoms(atoms, rels, head, guard=len(full) - 1)


def test_oracle_join_joins_most_connected_atom_next():
    # K5 with x1 heavy: joining S1_2..S1_5 first (all share only x1 = 1)
    # would build more than 2,000,000 rows for an empty result
    db = gen_single_heavy(canonical_query("K", 5), 40, "x1", 1)
    assert oracle_join(db, guard=2 * 10 ** 6) == set()


def test_binding_steps_stay_within_the_bound():
    # K4 single_heavy: some atom binding each new variable is a matching,
    # so no step makes more rows than the first atom's m tuples
    db = gen_single_heavy(canonical_query("K", 4), 2000, "x1", 3)
    assert len(oracle_join(db, guard=2000)) <= 2000
    # the star triangle: no step makes more rows than the output has
    assert len(oracle_join(star_triangle(500), guard=3 * 500 - 2)) == 3 * 500 - 2


# (family, k, generator, c): the bound on oracle_join's traced peak above
# its start, as a multiple of the traced size of the set it returns
@pytest.mark.parametrize("fam,k,gen,c", [("C", 3, "single_heavy", 1.8),
                                         ("L", 4, "matching", 1.4)])
def test_oracle_join_transient_memory(tmp_path, fam, k, gen, c):
    q = canonical_query(fam, k)
    db = (gen_single_heavy(q, 20000, "x1", 12) if gen == "single_heavy"
          else gen_matching(q, 20000, 12))
    write_instance(db, str(tmp_path))
    db = read_instance(q, str(tmp_path))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = oracle_join(db)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 20000
    assert peak - start <= c * (held - start)


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
