import hashlib
import json
import os
from collections import Counter
from operator import itemgetter

import pytest

from mpcjoin.datagen import (DatabaseInstance, RelationInstance,
                             agm_domain_sizes, gen_agm_worst, gen_coin_flip,
                             gen_lowerbound_matching, gen_matching,
                             gen_single_heavy, read_instance, write_instance)
from mpcjoin.query import canonical_query, parse_query
from mpcjoin.rng import Stream


def triangle():
    return canonical_query("C", 3)


def _freq(ri, pos):
    return Counter(map(itemgetter(pos), ri.tuples))


def test_matching_every_value_once_per_column():
    db = gen_matching(triangle(), 50, 7)
    for ri in db.relations.values():
        assert ri.m == 50
        for pos in range(ri.arity):
            freq = _freq(ri, pos)
            assert set(freq) == set(range(1, 51))
            assert set(freq.values()) == {1}


def test_matching_deterministic():
    a = gen_matching(triangle(), 40, 3)
    b = gen_matching(triangle(), 40, 3)
    assert a.relations["S1"].tuples == b.relations["S1"].tuples
    c = gen_matching(triangle(), 40, 4)
    assert c.relations["S1"].tuples != a.relations["S1"].tuples


def test_single_heavy_monopolizes_variable():
    db = gen_single_heavy(triangle(), 30, "x1", 5)
    # x1 appears in S1 (position 0) and S3 (position 1)
    assert _freq(db.relations["S1"], 0) == {1: 30}
    assert _freq(db.relations["S3"], 1) == {1: 30}
    # the other attribute of each relation stays a matching
    assert set(_freq(db.relations["S1"], 1).values()) == {1}
    assert set(_freq(db.relations["S2"], 0).values()) == {1}


def test_single_heavy_warns_when_var_in_one_atom():
    q = parse_query("q(x,y,z) :- S(x,y), T(y,z)")
    db = gen_single_heavy(q, 10, "x", 1)
    assert "warning" in db.meta


def test_agm_domain_sizes_triangle():
    n = agm_domain_sizes(triangle(), 10000)
    assert n == {"x1": 100, "x2": 100, "x3": 100}


def test_agm_worst_full_products():
    db = gen_agm_worst(triangle(), 400, 1)
    for ri in db.relations.values():
        assert ri.m == 400
        vals = {t[0] for t in ri.tuples} | {t[1] for t in ri.tuples}
        assert vals == set(range(1, 21))


def test_agm_sizes_respect_budget():
    for fam, k in [("L", 3), ("T", 3), ("LW", 3), ("K", 4)]:
        q = canonical_query(fam, k)
        n = agm_domain_sizes(q, 500)
        for a in q.atoms:
            prod = 1
            for v in a.vars:
                prod *= n[v]
            assert prod <= 500


def test_coin_flip_within_5_sigma():
    db = gen_coin_flip(triangle(), 10000, 9)
    for ri in db.relations.values():
        n = 10000          # candidate tuples per relation
        mean, sigma = n / 2, (n / 4) ** 0.5
        assert abs(ri.m - mean) <= 5 * sigma


def test_lowerbound_matching_structure():
    q = triangle()
    sizes = {"S1": 30, "S2": 30, "S3": 30}
    db = gen_lowerbound_matching(q, sizes, frozenset({"x1"}), 3)
    assert _freq(db.relations["S1"], 0) == {1: 30}
    assert set(_freq(db.relations["S2"], 0).values()) == {1}
    n = db.relations["S1"].n
    assert n == 30 * 30


def test_lowerbound_matching_at_two_tuples_is_a_matching():
    # the largest relation has 2 tuples, so n = 4 and every free column is
    # drawn by Stream.sample_distinct's shuffle branch (2 * count >= n)
    q = triangle()
    db = gen_lowerbound_matching(q, {"S1": 2, "S2": 2, "S3": 1},
                                 frozenset({"x1"}), 3)
    assert db.relations["S1"].n == 4
    for name, pos in (("S1", 1), ("S2", 0), ("S2", 1), ("S3", 0)):
        freq = _freq(db.relations[name], pos)
        assert set(freq.values()) == {1}
        assert set(freq) <= {1, 2, 3, 4}
    assert _freq(db.relations["S1"], 0) == {1: 2}


def test_lowerbound_all_heavy_atom_padded():
    q = parse_query("q(x,y) :- S(x,y), T(x), U(y)")
    db = gen_lowerbound_matching(q, {"S": 5, "T": 5, "U": 5},
                                 frozenset({"x", "y"}), 1)
    ri = db.relations["S"]
    assert ri.m == 5
    assert (1, 1) in ri.tuples


def test_duplicate_tuples_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RelationInstance("S", 1, ((1,), (1,)), 2)


def test_unsorted_tuples_rejected():
    for ts in (((1, 2), (1, 1)), ((1, 1), (2, 1), (1, 1))):
        with pytest.raises(ValueError, match="tuples of S are not sorted"):
            RelationInstance("S", 2, ts, 2)


def test_relations_must_match_query():
    q = triangle()
    with pytest.raises(ValueError, match="match"):
        DatabaseInstance(q, {}, 0, {})


def test_bit_accounting():
    db = gen_matching(triangle(), 16, 1)
    ri = db.relations["S1"]
    assert ri.value_bits == 4
    assert ri.width_bits == 8
    assert ri.size_bits == 16 * 8
    assert db.total_tuples() == 48


def test_write_read_round_trip(tmp_path):
    q = triangle()
    db = gen_coin_flip(q, 100, 4)
    out = str(tmp_path / "inst")
    write_instance(db, out)
    back = read_instance(q, out)
    for r in db.relations:
        assert back.relations[r].tuples == db.relations[r].tuples
        assert back.relations[r].n == db.relations[r].n
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["query"] == q.render()
    assert manifest["relations"]["S1"]["m"] == db.relations["S1"].m


@pytest.mark.parametrize("read", [False, True])
@pytest.mark.parametrize("gen", ["matching", "single_heavy"])
@pytest.mark.parametrize("query", ["C3", "LW4"])
def test_instances_hold_one_object_per_value(tmp_path, query, gen, read):
    db = _pinned_instance(gen, query, 1000)
    if read:
        write_instance(db, str(tmp_path))
        db = read_instance(db.query, str(tmp_path))
    values = [v for ri in db.relations.values() for t in ri.tuples for v in t]
    assert len(set(map(id, values))) == len(set(values))


def test_read_rejects_bad_manifest_and_values(tmp_path):
    q = triangle()
    out = str(tmp_path / "inst")
    write_instance(gen_matching(q, 20, 1), out)
    mpath = os.path.join(out, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    del manifest["relations"]["S2"]
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    with pytest.raises(ValueError, match="S2"):
        read_instance(q, out)

    # no seed, not an object, and relations that are not an object
    for bad in ({k: v for k, v in manifest.items() if k != "seed"},
                [manifest], dict(manifest, relations=[1, 2, 3])):
        with open(mpath, "w") as f:
            json.dump(bad, f)
        with pytest.raises(ValueError, match="manifest.json: not a JSON object"):
            read_instance(q, out)

    for bad in (0, 21):                 # the domain is [1, 20]
        write_instance(gen_matching(q, 20, 1), out)
        with open(os.path.join(out, "S3.tsv"), "a") as f:
            f.write("%d\t5\n" % bad)
        with pytest.raises(ValueError, match="outside the domain"):
            read_instance(q, out)


def test_written_files_byte_identical(tmp_path):
    q = triangle()
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    write_instance(gen_matching(q, 64, 9), p1)
    write_instance(gen_matching(q, 64, 9), p2)
    for name in ("S1.tsv", "S2.tsv", "S3.tsv", "manifest.json"):
        with open(os.path.join(p1, name), "rb") as f1, \
                open(os.path.join(p2, name), "rb") as f2:
            assert f1.read() == f2.read()


# The sha256 of every .tsv that `write_instance` writes, per generator.
# A change to the draws that moved every run's output the same way would
# still pass `test_written_files_byte_identical`; it fails here.  On the
# unary query each generator makes columns of m values, and 2,047 and
# 4,097 sit on both sides of `Stream.draws`' 2,048-value chunk.  W3 and
# LW4 pin three-column rows: W3's R(x1,x2,x3) beside three unary atoms,
# and LW4's atoms with two free columns beside the heavy x1 and one with
# three.
_UNARY = "Q(z,y) :- R(z), S(z,y)"
_PINNED_TSV = {
    ("matching", _UNARY, 2047):
        "e13078273bf3e4ff38001b6cc0300d008e7877378d0464d096ef3f552c6f88d0",
    ("matching", _UNARY, 4097):
        "d4fe6246d4e8dfa0eb47124e0362261b826604a7b2015227f60c4fbfa98d9166",
    ("matching", "C3", 2049):
        "d49438715f5ad9a7961cdf00451472acadedaa1123836d2a219027374822d545",
    ("single_heavy", _UNARY, 2047):
        "83e4407543d7185b32c4e82494c16639370a492d45e9bb532d4302b9207ffd5c",
    ("single_heavy", _UNARY, 4097):
        "e889dbe4eb310cb05a0001d01c3b53a3054332fe8435c54e63b5b7c485aa9958",
    ("matching", "W3", 2049):
        "9079ef739871bc28f6bab443203c6c3227a2f8d2f4f4e5d627880e06dfcd992b",
    ("single_heavy", "C3", 2049):
        "5ce2f9dfc479bcc03f83968a400f536d41f50f22e7e792e182a6714d8c72e4a9",
    ("single_heavy", "LW4", 2049):
        "c11bb777040ee0a238f05fcfadddf05eeba7fb32aa77341a2ce8ea7b355cb6a4",
    ("agm_worst", _UNARY, 2047):
        "574ade2a01b781c39c585ba3c67099f70b8af4af5b738012ea800544c3dcc109",
    ("agm_worst", "C3", 4097):
        "4f4335bfb23adb5fc6a0780f906ee4b26c785d17b3138396c77f0f027873a0e0",
    ("coin_flip", _UNARY, 2047):
        "e0d4edabe118a8933668adfc10e8de145b93f9bf56b26ef03a80e3f69ed505ab",
    ("coin_flip", _UNARY, 4097):
        "cc1fe77ad3c65aee801ed02923f402e7a22f5dfa83d0bd85e5645564450be0e4",
    ("coin_flip", "C3", 4097):
        "c38373f8cb819193f42bb950a67a04b6f0cb2e1b90d288f4ec969963b257cdfd",
    ("lb_matching", _UNARY, 2047):
        "3d2b3fc9f6558f0e137eda52cbe7547e1bf01ca31892491138cc3396d3e40f02",
    ("lb_matching", _UNARY, 4097):
        "abc167daed907310ff67213ab1b7e6ab94919a43942fe38c2ecae71e9b3eff2f",
    ("lb_matching", "C3", 2):
        "e9fa9f7003646d0d7dc41c2af9fdfce8072b4f525bc814ba2e8fe0dfeb798e8b",
}


_CANONICAL = {"C3": ("C", 3), "W3": ("W", 3), "LW4": ("LW", 4)}


def _pinned_instance(gen, query, m):
    q = (canonical_query(*_CANONICAL[query]) if query in _CANONICAL
         else parse_query(query))
    first = q.variables[0]
    if gen == "matching":
        return gen_matching(q, m, 12)
    if gen == "single_heavy":
        return gen_single_heavy(q, m, first, 12)
    if gen == "agm_worst":
        return gen_agm_worst(q, m, 12)
    if gen == "coin_flip":
        return gen_coin_flip(q, m, 12)
    sizes = {a.relation: m - i % 2 for i, a in enumerate(q.atoms)}
    return gen_lowerbound_matching(q, sizes, frozenset({first}), 12)


@pytest.mark.parametrize("gen,query,m", sorted(_PINNED_TSV))
def test_written_files_pinned(gen, query, m, tmp_path):
    out = str(tmp_path / "inst")
    write_instance(_pinned_instance(gen, query, m), out)
    lines = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".tsv"):
            with open(os.path.join(out, name), "rb") as f:
                lines.append("%s %s\n" % (name, hashlib.sha256(f.read()).hexdigest()))
    got = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert got == _PINNED_TSV[gen, query, m], "".join(lines)


# (values shuffled, values positioned) at m = 100; each id ends with their sum
@pytest.mark.parametrize("gen,query,shuffled,positioned", [
    pytest.param("matching", "W3", 200, 100, id="matching-W3-300"),
    pytest.param("single_heavy", "C3", 100, 100, id="single_heavy-C3-200"),
    pytest.param("matching", _UNARY, 100, 100, id="matching-%s-200" % _UNARY),
    pytest.param("single_heavy", "LW4", 500, 400, id="single_heavy-LW4-900"),
])
def test_generators_shuffle_only_columns_the_sort_keeps(monkeypatch, gen, query,
                                                        shuffled, positioned):
    # A unary matching atom, and a single_heavy atom with one free column,
    # are 1..m in sorted order whatever the shuffle, so they draw nothing;
    # an atom with two or more free columns takes the positions of its
    # first free column and shuffles each of the others.
    drawn = {"shuffle": [], "positions": []}
    for name, count in (("shuffle", len), ("positions", int)):
        method = getattr(Stream, name)
        monkeypatch.setattr(Stream, name,
                            lambda self, x, method=method, got=drawn[name], count=count:
                            got.append(count(x)) or method(self, x))
    _pinned_instance(gen, query, 100)
    assert (sum(drawn["shuffle"]), sum(drawn["positions"])) == (shuffled, positioned)


@pytest.mark.parametrize("n,seed", [(0, 1), (1, 1), (2, 3), (7, 5), (1000, 12)])
def test_positions_invert_the_shuffle(n, seed):
    shuffled = Stream(seed, "p").shuffle(list(range(1, n + 1)))
    positions = Stream(seed, "p").positions(n)
    assert [shuffled[i] for i in positions] == list(range(1, n + 1))
