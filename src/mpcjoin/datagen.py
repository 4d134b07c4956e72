"""Seeded instance generators for the upper- and lower-bound experiments.

Every generator is a pure function of (query, parameters, seed): relation
contents come from SplitMix64 streams split per relation and attribute, and
tuples are kept lexicographically sorted, so TSV output is byte-identical
across runs and platforms.

`gen_matching` and `gen_single_heavy` shuffle 1..m by
`Stream(seed, generator, relation, pos)` into each free column of an atom
(every column of a matching, every column but heavy_var's in single_heavy)
that has two or more free columns.  Sorted, the first free column reads
1..m whatever its shuffle, so it draws only the shuffle's inverse, which
orders the other columns, and an atom with one free column, a unary
matching atom among them, draws nothing and keeps its bytes.  Every free
column takes its values from one list of 1..m, so an instance holds one
int object per value.

Bit accounting follows the M_j = a_j * m_j * ceil(log2 n) convention.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain, compress, product, repeat
from operator import eq, lt

from .analyzer import pow_floor
from .lp import OPTIMAL, lp_solve_exact
from .query import Query, parse_query
from .rng import Stream


def _bits_per_value(n: int) -> int:
    return max(1, (n - 1).bit_length())


@dataclass
class RelationInstance:
    relation: str
    arity: int
    tuples: tuple            # sorted tuple of int-tuples, values in [1, n]
    n: int                   # domain size

    def __post_init__(self):
        ts = self.tuples
        if ts and set(map(len, ts)) != {self.arity}:
            raise ValueError("tuple arity mismatch in %s" % self.relation)
        if not all(map(lt, ts, ts[1:])):
            if any(map(eq, ts, ts[1:])):
                raise ValueError("duplicate tuples in %s" % self.relation)
            raise ValueError("tuples of %s are not sorted" % self.relation)

    @property
    def m(self) -> int:
        return len(self.tuples)

    @property
    def value_bits(self) -> int:
        return _bits_per_value(self.n)

    @property
    def width_bits(self) -> int:
        return self.arity * self.value_bits

    @property
    def size_bits(self) -> int:
        return self.m * self.width_bits


@dataclass
class DatabaseInstance:
    query: Query
    relations: dict          # relation name -> RelationInstance
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        want = {a.relation for a in self.query.atoms}
        if set(self.relations) != want:
            raise ValueError("relations %s do not match query atoms %s"
                             % (sorted(self.relations), sorted(want)))

    def sizes_tuples(self) -> dict:
        return {r: ri.m for r, ri in self.relations.items()}

    def widths_bits(self) -> dict:
        return {r: ri.width_bits for r, ri in self.relations.items()}

    def total_tuples(self) -> int:
        return sum(ri.m for ri in self.relations.values())


def _sorted(tuples) -> tuple:
    return tuple(sorted(set(tuples)))


def _free_rows(vals: list, arity: int, free, *path) -> tuple:
    """The sorted rows of a relation whose columns at positions `free` are
    the list vals = [1..m] shuffled by `Stream(*path, pos)` and whose other
    columns hold 1.  Sorted, the first free column reads vals whatever its
    shuffle, and the row whose first free value is v comes v-th: the
    stream's `positions`, the inverse of that shuffle, takes every other
    free column into that order.  So the first free column draws no
    shuffle, and with one free column nothing is shuffled.  Every column
    holds the objects of vals."""
    m = len(vals)
    if not free:
        return ((1,) * arity,)
    cols = [repeat(1, m)] * arity
    cols[free[0]] = vals
    if len(free) > 1:
        row = Stream(*path, free[0]).positions(m)
        for pos in free[1:]:
            cols[pos] = map(Stream(*path, pos).shuffle(vals.copy()).__getitem__, row)
    return tuple(zip(*cols))


def gen_matching(q: Query, m: int, seed: int) -> DatabaseInstance:
    """Matching database: every value appears exactly once per attribute."""
    if m < 1:
        raise ValueError("m must be >= 1")
    vals = list(range(1, m + 1))
    rels = {}
    for a in q.atoms:
        rels[a.relation] = RelationInstance(
            a.relation, a.arity,
            _free_rows(vals, a.arity, range(a.arity), seed, "matching", a.relation), m)
    return DatabaseInstance(q, rels, seed, {"generator": "matching", "m": m, "n": m})


def gen_single_heavy(q: Query, m: int, heavy_var: str, seed: int) -> DatabaseInstance:
    """One value (1) monopolizes heavy_var in every atom containing it; all
    other attributes, and all other atoms, are matchings."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if heavy_var not in q.variables:
        raise ValueError("unknown variable %r" % heavy_var)
    vals = list(range(1, m + 1))
    rels = {}
    for a in q.atoms:
        free = [pos for pos, v in enumerate(a.vars) if v != heavy_var]
        rels[a.relation] = RelationInstance(
            a.relation, a.arity,
            _free_rows(vals, a.arity, free, seed, "single_heavy", a.relation), m)
    meta = {"generator": "single_heavy", "m": m, "n": m, "heavy_var": heavy_var}
    if sum(heavy_var in a.vars for a in q.atoms) < 2:
        meta["warning"] = "heavy_var %s appears in fewer than 2 atoms" % heavy_var
    return DatabaseInstance(q, rels, seed, meta)


def agm_domain_sizes(q: Query, m: int) -> dict:
    """Per-variable domain sizes n_i = floor(m**v_i) from the cover dual,
    rebalanced upward while every atom keeps prod n_i <= m."""
    # Dual of the cover LP: maximize sum v_i s.t. per atom sum_{i in S_j} v_i <= 1.
    A = [[1 if v in a.vars else 0 for v in q.variables] for a in q.atoms]
    res = lp_solve_exact([1] * q.k, A, ["<="] * len(A), [1] * len(A), maximize=True)
    if res.status != OPTIMAL:
        raise RuntimeError("cover dual LP failed")
    n = {v: max(1, pow_floor(m, e)) for v, e in zip(q.variables, res.x)}
    changed = True
    while changed:
        changed = False
        for v in q.variables:
            trial = dict(n)
            trial[v] += 1
            ok = True
            for a in q.atoms:
                prod = 1
                for w in a.vars:
                    prod *= trial[w]
                if prod > m:
                    ok = False
                    break
            if ok:
                n[v] += 1
                changed = True
    return n


def _product_tuples(doms):
    """Cartesian product of [1..d] ranges, lexicographic."""
    return list(product(*(range(1, d + 1) for d in doms)))


def gen_agm_worst(q: Query, m: int, seed: int) -> DatabaseInstance:
    """AGM worst-case shape: each relation is the full cartesian product of
    its variables' domains, with domain sizes from the cover dual."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = agm_domain_sizes(q, m)
    rels = {}
    for a in q.atoms:
        doms = [n[v] for v in a.vars]
        rels[a.relation] = RelationInstance(
            a.relation, a.arity, tuple(_product_tuples(doms)), max(doms))
    return DatabaseInstance(q, rels, seed,
                            {"generator": "agm_worst", "m": m, "domain_sizes": dict(n)})


def gen_coin_flip(q: Query, m: int, seed: int) -> DatabaseInstance:
    """AGM domains, each candidate tuple kept independently with prob 1/2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = agm_domain_sizes(q, m)
    rels = {}
    for a in q.atoms:
        doms = [n[v] for v in a.vars]
        cands = _product_tuples(doms)
        coins = Stream(seed, "coin_flip", a.relation).draws(len(cands))
        kept = list(compress(cands, map((1).__and__, coins)))
        if not kept:
            kept = [tuple(1 for _ in doms)]
        rels[a.relation] = RelationInstance(a.relation, a.arity, tuple(kept), max(doms))
    return DatabaseInstance(q, rels, seed,
                            {"generator": "coin_flip", "m": m, "domain_sizes": dict(n)})


def gen_lowerbound_matching(q: Query, sizes: dict, heavy: frozenset, seed: int) -> DatabaseInstance:
    """Lower-bound family: variables in `heavy` pinned to the constant 1,
    all other attributes uniformly random matchings over [n], n = (max m)^2.

    Atoms fully inside `heavy` keep the constant tuple and are padded with
    tuples of fresh values up to their requested size.
    """
    heavy = frozenset(heavy)
    unknown = heavy - set(q.variables)
    if unknown:
        raise ValueError("unknown variable(s): %s" % sorted(unknown))
    mmax = max(sizes[a.relation] for a in q.atoms)
    n = mmax * mmax
    rels = {}
    fresh = n  # fresh pad values taken from the top of the domain, descending
    for a in q.atoms:
        mj = sizes[a.relation]
        free_pos = [i for i, v in enumerate(a.vars) if v not in heavy]
        if not free_pos:
            tuples = [tuple(1 for _ in a.vars)]
            while len(tuples) < mj:
                t = []
                for _ in a.vars:
                    t.append(fresh)
                    fresh -= 1
                tuples.append(tuple(t))
            rels[a.relation] = RelationInstance(a.relation, a.arity, _sorted(tuples), n)
            continue
        cols = [Stream(seed, "lb_matching", a.relation, pos).sample_distinct(mj, n)
                if pos in free_pos else repeat(1, mj) for pos in range(a.arity)]
        rels[a.relation] = RelationInstance(a.relation, a.arity,
                                            _sorted(zip(*cols)), n)
    return DatabaseInstance(q, rels, seed,
                            {"generator": "lb_matching", "n": n,
                             "heavy": sorted(heavy),
                             "sizes": {a.relation: sizes[a.relation] for a in q.atoms}})


# --- TSV + manifest I/O ---------------------------------------------------

_WRITE_ROWS = 1 << 14      # rows written by one `%`


def write_instance(db: DatabaseInstance, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, ri in sorted(db.relations.items()):
        path = os.path.join(outdir, "%s.tsv" % name)
        row = "\t".join(["%d"] * ri.arity) + "\n"
        with open(path, "w", encoding="ascii", newline="\n") as f:
            for k in range(0, ri.m, _WRITE_ROWS):
                part = ri.tuples[k:k + _WRITE_ROWS]
                f.write(row * len(part) % tuple(chain.from_iterable(part)))
    manifest = {
        "query": db.query.render(),
        "seed": db.seed,
        "meta": db.meta,
        "relations": {
            name: {"arity": ri.arity, "m": ri.m, "n": ri.n,
                   "M_bits": ri.size_bits}
            for name, ri in sorted(db.relations.items())
        },
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _fields(path: str, relation: str, arity: int) -> list:
    """The fields of the non-blank lines of one relation's file, in order;
    raises ValueError when a line has other than arity fields.  The lines
    die on return, before the fields are read as ints."""
    with open(path) as f:
        lines = list(filter(None, map(str.strip, f.read().split("\n"))))
    if lines and set(map(str.count, lines, repeat("\t"))) != {arity - 1}:
        raise ValueError("%s: tuple arity mismatch in %s (a line has other "
                         "than %d fields)" % (path, relation, arity))
    return "\t".join(lines).split("\t") if lines else []


def read_instance(q: Query, indir: str) -> DatabaseInstance:
    """Read an instance written by `write_instance`; raises ValueError when
    the manifest is not a JSON object with an integer seed and an object
    of relations, when its query has other atoms than q, when it gives no
    domain size n for one of q's relations, when a non-blank line of a
    relation has other than arity tab-separated integer fields, or when a
    value lies outside the relation's domain [1, n].

    Each file is read whole: its non-blank lines are split into fields
    once, every field is read with int, and the tuples are cut from the
    flat value list and sorted, so the lines may come in any order.  Values
    are shared: one dict over all of the instance's relations keeps the
    first int object read for each value, and every tuple holds that one."""
    mpath = os.path.join(indir, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("seed"), int) \
            or not isinstance(manifest.get("relations", {}), dict):
        raise ValueError("%s: not a JSON object with an integer seed and an "
                         "object of relations" % mpath)
    written = parse_query(str(manifest.get("query", "")))
    if {(a.relation, a.vars) for a in written.atoms} != \
            {(a.relation, a.vars) for a in q.atoms}:
        raise ValueError("%s: instance was written for %s, not for %s"
                         % (indir, written.render(), q.render()))
    rels = {}
    canon = {}                          # value -> its one int object
    for a in q.atoms:
        entry = manifest.get("relations", {}).get(a.relation)
        if not isinstance(entry, dict) or not isinstance(entry.get("n"), int):
            raise ValueError("%s: manifest has no domain size n for relation %s"
                             % (indir, a.relation))
        n = entry["n"]
        path = os.path.join(indir, "%s.tsv" % a.relation)
        vals = list(map(int, _fields(path, a.relation, a.arity)))
        if vals and (min(vals) < 1 or max(vals) > n):
            raise ValueError("%s: a value lies outside the domain [1, %d]"
                             % (path, n))
        vals = list(map(canon.setdefault, vals, vals))
        rels[a.relation] = RelationInstance(
            a.relation, a.arity, tuple(sorted(zip(*[iter(vals)] * a.arity))), n)
    return DatabaseInstance(q, rels, manifest["seed"], manifest.get("meta", {}))
