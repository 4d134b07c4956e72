"""Parallel join strategies with measured communication loads.

`ALGORITHMS` is the strategy table: each name maps to a `Strategy` of
shape(q), the query the plan runs on (line and cycle atoms oriented by one
walk) or None when the strategy does not accept q; plan(ctx, q, rels, p),
which simulates its shipment schedule round by round on the engine and
returns the output rows; and rounds(q), the declared round bound.
`run_algorithm` is the one run path: it checks p, applies the shape, builds
the engine and the oriented relations, runs the plan and returns the output
with the per-round load report.  `pick_algorithm` ("auto") takes the most
specific strategy whose shape accepts the query.

The plan protocol: a plan or sub-plan returns rows (a sub-plan whose
variables are not fixed by its caller returns (vars, rows)), a plan writes
any extras into ``ctx.extras``, and nothing counts rounds: the engine's
ledger is the only round count (`AlgorithmResult.rounds`), checked against
the declared bound `Strategy.rounds`.

Internally, plans hand out *logical* servers through allocator closures: a
logical server is a tuple of physical ids, so a sub-plan running inside a
cartesian-product grid transparently replicates its traffic to every grid
cell it spans.  The root allocator is ``ctx.root``; exclusive server blocks
(for heavy-hitter values) are drawn from it too, and the total number of
physical servers used, ``ctx.servers``, is a small constant multiple of p
and is reported in ``extras["physical_servers"]``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, compress, cycle, filterfalse, islice, repeat
from operator import add, getitem, itemgetter, mod, not_
from typing import Callable, NamedTuple

from .analyzer import _round_shares, iroot, log_base_p, pow_floor, share_lp
from .query import Atom, Query, QueryError
from .rng import _CHUNK, _MASK, hash_column
from .sim import Engine, LoadReport, Route, _columns, _key, hc_grid, join_atoms


class InsufficientServers(RuntimeError):
    """A sub-plan asked for more logical servers than its block provides."""


@dataclass
class _Ctx:
    eng: Engine
    seed: int
    vbits: int                 # bits per value for intermediate relations
    counts: dict | None = None  # (relation, position) -> Counter, shared by runs
    inputs: dict = field(default_factory=dict)      # relation -> input list
    servers: int = field(default=0, init=False)     # physical ids handed out
    extras: dict = field(default_factory=dict, init=False)
    _names: Counter = field(default_factory=Counter, init=False)

    def _shared(self, rels, name) -> bool:
        """Whether rels[name] is the run's input list for name while the
        run shares its column counts."""
        return self.counts is not None and self.inputs.get(name) is rels[name]

    def freqs(self, rels, name: str, pos: int) -> Counter:
        """The value counts of column pos of rels[name]: the shared count
        when rels[name] is the run's input list (counted on first use),
        else a fresh count.  Callers do not mutate the result."""
        if not self._shared(rels, name):
            return Counter(map(itemgetter(pos), rels[name]))
        c = self.counts.get((name, pos))
        if c is None:
            c = self.counts[name, pos] = Counter(map(itemgetter(pos), rels[name]))
        return c

    def values(self, rels, name: str, pos: int):
        """The values in column pos of rels[name], with repeats unless they
        come from the shared count."""
        if self._shared(rels, name):
            return self.freqs(rels, name, pos)
        return map(itemgetter(pos), rels[name])

    def root(self):
        """A fresh logical server of one new physical id."""
        self.servers += 1
        return (self.servers - 1,)

    def relation(self, prefix: str, arity: int) -> str:
        """A fresh relation "<prefix>#<n>" of arity * vbits bits, registered."""
        name = "%s#%d" % (prefix, self._names[prefix])
        self._names[prefix] += 1
        self.eng.register_relation(name, arity * self.vbits)
        return name


class _Grid:
    """A row x column split of logical servers for cartesian products.

    Rows are created lazily, each consuming `ncols` fresh logical servers
    from the parent allocator; a row's group is the union of its columns,
    so a row-side sub-plan is replicated across all columns.  Column c's
    group is the union of the c-th slot of every realized row, so the
    column side must ship only after the row side has finished allocating.
    """

    def __init__(self, fresh, ncols: int):
        self.fresh = fresh
        self.ncols = ncols
        self.rows = []
        self._next_col = 0

    def fresh_row(self):
        cols = [self.fresh() for _ in range(self.ncols)]
        self.rows.append(cols)
        return tuple(p for g in cols for p in g)

    def col_group(self, c: int):
        return tuple(p for cols in self.rows for p in cols[c])

    def cols(self):
        return [self.col_group(c) for c in range(self.ncols)]

    def fresh_col(self):
        if self._next_col >= self.ncols:
            raise InsufficientServers(
                "grid column block exhausted (%d columns)" % self.ncols)
        c = self._next_col
        self._next_col += 1
        return self.col_group(c)


# -- exact heavy thresholds ------------------------------------------------

def _least(m: int, P: int, num: int, den: int, strict: bool = False) -> int:
    """The least frequency at which a value is heavy under the rule
    f >= m / P**(num/den) (f > when strict), for m >= 1, exactly: the least
    integer f >= 1 whose f**den reaches t, the least integer at (above, when
    strict) m**den / P**num, which is iroot(t - 1, den) + 1."""
    t = m ** den // P ** num + 1 if strict else -(-m ** den // P ** num)
    return iroot(t - 1, den) + 1


def _heavy(freqs: Counter, least: int) -> list:
    """The values whose count in freqs reaches least, sorted."""
    return sorted(compress(freqs, map(least.__le__, freqs.values())))


# -- central rows ----------------------------------------------------------
#
# Plans also assemble their output centrally, in two functions.
# `_out_join` joins the relations a step shipped; it is the only reader of
# `store_tuples` and returns the empty set in counting mode, so dry runs
# materialize no output.  `_rows` reorders, plugs constants into and joins
# row sets.  No route reads output rows, but two central results do, so
# both modes compute them: the key sets that `_lw` and `_covering` reorder
# with `_rows` before a semi-join ships them, and `_semijoin_into`'s
# filter, whose result the next round ships.

def _out_join(ctx, atoms, rel_tuples, out_vars):
    if not ctx.eng.store_tuples:
        return set()
    return join_atoms(atoms, rel_tuples, out_vars)


def _rows(parts, out_vars):
    """The natural join of (vars, rows) parts, projected onto out_vars; a
    part of one row plugs constants."""
    atoms = [Atom(str(i), tuple(vs)) for i, (vs, _) in enumerate(parts)]
    return join_atoms(atoms, {a.relation: rows for a, (_, rows) in zip(atoms, parts)},
                      out_vars)


# -- heavy-hitter bookkeeping ---------------------------------------------

def _slice(tuples, pos: int, h):
    """The tuples whose value at pos is h, without that column, as a list:
    for duplicate-free tuples its rows are distinct."""
    rows = list(compress(tuples, map(h.__eq__, map(itemgetter(pos), tuples))))
    if not rows:
        return rows
    return list(map(_columns([i for i in range(len(rows[0])) if i != pos]), rows))


def _heavy_at(ctx, atoms, rels, var_list, least):
    """Per-variable heavy value sets: a value is heavy for v when its
    frequency in v's column of some atom a reaches least[a.relation]."""
    heavy = {v: set() for v in var_list}
    for a in atoms:
        for pos, v in enumerate(a.vars):
            heavy[v].update(_heavy(ctx.freqs(rels, a.relation, pos),
                                   least[a.relation]))
    return heavy


def _heavy_profiles(a, tuples, heavy):
    """a's tuples grouped by heavy profile: {X: the tuples t whose value
    t[i] is in heavy[v] for exactly the variables v in X}, over a.vars.

    Groups are non-empty and keep the input order.  Only the positions whose
    variable has heavy values are tested: each such position splits every
    group in two by one membership pass over its column.  An atom with no
    such position is one group under the empty profile, with no per-tuple
    test.
    """
    groups = {frozenset(): list(tuples)} if tuples else {}
    for i, v in enumerate(a.vars):
        if not heavy[v]:
            continue
        split = {}
        for X, ts in groups.items():
            hot = list(map(heavy[v].__contains__, map(itemgetter(i), ts)))
            for Y, part in ((X, compress(ts, map(not_, hot))),
                            (X | {v}, compress(ts, hot))):
                part = list(part)
                if part:
                    split[Y] = part
        groups = split
    return groups


def _active_profiles(q, groups):
    """The heavy profiles X over q.variables under which every atom has
    tuples, each with its atoms' profiles [X & vars(a)], as [(X, profs)]
    in bitmask order over q.variables.

    groups maps each relation to its non-empty profile groups, as
    `_heavy_profiles` returns them.  Every variable lies in an atom, so an
    active X is the union of one group profile per atom, where the profiles
    agree on the variables they share: a join of the atoms' profile sets,
    extended atom by atom like the generic join of Ngo, Porat, Re and Rudra
    (PODS 2012).  A profile pr of atom a extends a partial union X over the
    variables seen so far when X & vars(a) == pr & seen.  The partial
    unions after an atom are distinct subsets of the variables seen, so
    they number at most 2^|seen| <= 2^k, and each is tested against the
    atom's groups, of which there are at most one per tuple: the join never
    holds more sets than a walk over all 2^k subsets would test.
    """
    bit = {v: 1 << i for i, v in enumerate(q.variables)}
    partial, seen = [(frozenset(), [])], frozenset()
    for a in q.atoms:
        vs = frozenset(a.vars)
        partial = [(X | pr, profs + [pr]) for X, profs in partial
                   for pr in groups[a.relation] if X & vs == pr & seen]
        seen |= vs
    return sorted(partial, key=lambda xp: sum(map(bit.__getitem__, xp[0])))


# -- shipment primitives ---------------------------------------------------

def _balanced_hashes(ctx, q, rels, shares, tag):
    """Per-variable cell offsets from bucket maps with near-equal bucket
    sizes.

    Routing may depend on data statistics, so instead of hashing blindly we
    order each variable's observed values in rels by a seeded permutation
    and deal them round-robin over buckets 0..s-1, s its share: bucket
    counts differ by at most one, which keeps hypercube cells balanced even
    when the active domain is barely larger than the share.  Returns
    {v: {value: bucket * stride}} for the variables whose share
    exceeds 1, the only ones a hypercube route reads, with the strides of
    `hc_grid` over q.variables; a value missing from rels has no offset
    (looking it up raises KeyError).

    The permutation orders the values by their ranks h(value), from one
    `hash_column` call and one sort per variable, by rank alone.  No two
    values tie.  h(v) = mix64(v ^ key) is a bijection on [0, 2^64): the XOR
    with a fixed key is its own inverse, x -> x ^ (x >> r) is undone by
    repeating the shift-XOR until the shift passes 64 bits, and a product
    with an odd multiplier modulo 2^64 is undone by the multiplier's
    inverse modulo 2^64.  So distinct values in that range have distinct
    ranks, and the order of the values before the sort, which used to
    break ties, cannot matter.  A value outside the range is masked to 64
    bits and could share a rank with one inside, so it raises ValueError
    instead of taking an order of its own.
    """
    bound, _ = hc_grid(q.variables, q.variables, shares)
    maps = {}
    for _, v, stride in bound:
        s = shares[v]
        vals = set()
        for a in q.atoms:
            if v in a.vars:
                vals.update(ctx.values(rels, a.relation, a.vars.index(v)))
        vals = list(vals)
        if vals and (min(vals) < 0 or max(vals) > _MASK):
            raise ValueError("cannot rank values of %s outside [0, 2^64)" % v)
        ranks = hash_column(ctx.seed, tag, "bal", v)(vals)
        ordered = map(vals.__getitem__, sorted(range(len(vals)), key=ranks.__getitem__))
        maps[v] = dict(zip(ordered, cycle(range(0, s * stride, stride))))
    return maps


def _hypercube(ctx, rnd, q, rels, shares, fresh, tag, stats=None):
    """One hypercube round (Beame, Koutris and Suciu, PODS 2014): every
    atom's tuples in rels go to prod(shares) fresh logical cells, placed by
    the `_balanced_hashes` maps of the values in stats (rels by default),
    hashed under tag.  Returns the output rows over q.variables."""
    cells = [fresh() for _ in range(math.prod(shares.values()))]
    offsets = _balanced_hashes(ctx, q, rels if stats is None else stats,
                               shares, tag)
    for a in q.atoms:
        ctx.eng.ship(rnd, a.relation, rels[a.relation],
                     _hc_route(a, q.variables, shares, offsets, cells))
    return _out_join(ctx, q.atoms, rels, q.variables)


def _hc_route(a, order, shares, offsets, cells):
    """Route of a's tuples: every server of every cell they expand to.

    A tuple's key is its base cell c0, the sum of the offsets of the split
    variables a binds, computed a column at a time from the offset maps of
    `_balanced_hashes`; the servers of c0 are built once per c0.
    """
    bound, free = hc_grid(a.vars, order, shares)
    cols = [(itemgetter(i), offsets[v].__getitem__) for i, v, _ in bound]
    servers = {}

    def keys(ts):
        c0 = None
        for get, off in cols:
            col = map(off, map(get, ts))
            c0 = col if c0 is None else map(add, c0, col)
        return repeat(0, len(ts)) if c0 is None else c0

    def dests(c0):
        d = servers.get(c0)
        if d is None:
            d = servers[c0] = tuple(s for f in free for s in cells[c0 + f])
        return d
    return Route(keys, dests)


def _keyed(getter, dests):
    """The route whose key is getter(t), a C-level projection of t."""
    return Route(partial(map, getter), dests)


def _union(routes):
    """The route to the union of the servers the given routes name; its key
    is the tuple of their keys, and each key's union is built once."""
    union = {}

    def keys(ts):
        return zip(*[r.keys(ts) for r in routes])

    def dests(key):
        d = union.get(key)
        if d is None:
            d = union[key] = frozenset(s for r, k in zip(routes, key)
                                       for s in r.dests(k))
        return d
    return Route(keys, dests)


def _hashed(h, groups, keys, preset=()):
    """The dests key -> groups[h(key) % len(groups)] over the given keys,
    and key -> its preset servers over the preset keys, which are not
    hashed: the `__getitem__` of one map, shared by the shipments it routes.

    The map is filled before they ship, from all of their keys: keys is any
    iterable and may repeat a key.  h is a `hash_column` function, called
    on the keys not yet in the map a chunk at a time, so each distinct key
    is hashed once and no temporary list outgrows a chunk.  A key outside
    the map raises KeyError when a shipment looks it up.
    """
    servers = dict(preset)
    new = filterfalse(servers.__contains__, keys)
    n = len(groups)
    while part := list(dict.fromkeys(islice(new, _CHUNK))):
        servers.update(zip(part, map(groups.__getitem__, map(mod, h(part), repeat(n)))))
    return servers.__getitem__


def _distribute(ctx, rnd, name, tuples, groups, tag):
    """Partition a relation over the given logical groups by tuple hash."""
    ctx.eng.ship(rnd, name, tuples,
                 _hashed(hash_column(ctx.seed, tag, "dist"), groups, tuples))


def _intersect_ship(ctx, rnd, atoms, rels, P, fresh, tag):
    """Co-locate the atoms' relations, which share one variable tuple, by
    full-tuple hash through one `_hashed` map over a block of P servers,
    filled from all of their tuples, so a tuple in several of them is hashed
    once; returns their intersection."""
    servers = _hashed(hash_column(ctx.seed, tag, "ix"), [fresh() for _ in range(P)],
                      chain.from_iterable(rels[a.relation] for a in atoms))
    for a in atoms:
        ctx.eng.ship(rnd, a.relation, rels[a.relation], servers)
    return _out_join(ctx, atoms, rels, atoms[0].vars)


def _skew_join_ship(ctx, rnd, a_name, a_tuples, a_keypos, b_name, b_tuples,
                    b_keypos, freq, P, fresh, h, hpart):
    """One round of the skew-resilient binary join of A and B on a key.

    A key is a tuple's projection on its key positions by `sim._key`: a
    scalar for a one-column key.
    A plays the skew-free side: key values with frequency above m/P in B
    (freq counts B's keys) each get an exclusive block of ceil(P*f/m)
    logical servers, where A's tuples with that key are broadcast and B's
    are partitioned by hpart; everything else goes through a hash join on h
    over a block of P servers.  h and hpart are `hash_column` functions.
    A's tuples and B's light tuples are routed by key through one `_hashed`
    map with the heavy keys preset to their broadcast blocks.  It is filled
    before either side ships, from A's keys and B's distinct keys (freq),
    so h runs once per distinct light key over both sides and never on a
    heavy key.  B's heavy tuples are placed by one hpart column over their
    whole tuples.  Returns the heavy key -> block map.
    """
    m = max(len(a_tuples), len(b_tuples), 1)
    akey, bkey = _key(a_keypos), _key(b_keypos)
    block = [fresh() for _ in range(P)]
    heavy = _heavy(freq, _least(m, P, 1, 1, strict=True))
    hblocks = {kv: [fresh() for _ in range(-(-P * freq[kv] // m))]  # ceil
               for kv in heavy}
    servers = _hashed(h, block, chain(map(akey, a_tuples), freq),
                      {kv: tuple(s for g in gs for s in g)
                       for kv, gs in hblocks.items()})
    ctx.eng.ship(rnd, a_name, a_tuples, _keyed(akey, servers))
    if hblocks:
        # B's tuples with a heavy key are placed by their whole tuple
        hot = list(map(hblocks.__contains__, map(bkey, b_tuples)))
        ts = list(compress(b_tuples, hot))
        gs = list(map(hblocks.__getitem__, map(bkey, ts)))
        place = dict(zip(ts, map(getitem, gs, map(mod, hpart(ts), map(len, gs)))))
        ctx.eng.ship(rnd, b_name, ts, place.__getitem__)
        b_tuples = list(compress(b_tuples, map(not_, hot)))
    ctx.eng.ship(rnd, b_name, b_tuples, _keyed(bkey, servers))
    return hblocks


def _semijoin_into(ctx, rnd, prefix, kprefix, keys, target, keypos, rels,
                   P, fresh, tag):
    """One round of the semi-join of `target` against key set `keys`
    (shipped as a relation named after kprefix) into a fresh relation named
    after prefix; returns (Atom(name, target.vars), rows), the rows being
    the target tuples whose key projection is in `keys`, as a list: a
    filter of duplicate-free tuples has distinct rows.

    The keys are unique, so only the target can be skewed on the key: this
    is the one-sided skew join with the keys as the skew-free side.
    """
    name = ctx.relation(prefix, len(target.vars))
    kname = ctx.relation(kprefix, len(keypos))
    tuples = rels[target.relation]
    tkeys = list(map(_key(keypos), tuples))
    _skew_join_ship(ctx, rnd, kname, keys, range(len(keypos)), target.relation,
                    tuples, keypos, Counter(tkeys), P, fresh,
                    hash_column(ctx.seed, tag, "sjh"),
                    hash_column(ctx.seed, tag, "sjp"))
    kset = set(map(_key(range(len(keypos))), keys))
    return Atom(name, target.vars), list(compress(tuples, map(kset.__contains__, tkeys)))


# -- one-round algorithms --------------------------------------------------

def _one_round_skew(ctx, rnd, q, rels, P, fresh, tag):
    """Skew-resilient one-round hypercube: one share allocation per heavy
    profile, all shipped in the same round onto a shared block of P cells.

    The heavy profiles are those that occur in the data: `_active_profiles`
    joins the atoms' profile groups, holding at most 2^(variables seen)
    <= 2^k partial unions after each atom.  Returns the output rows over
    q.variables.
    """
    sizes = {a.relation: max(1, ctx.eng.widths[a.relation] * len(rels[a.relation]))
             for a in q.atoms}
    heavy = _heavy_at(ctx, q.atoms, rels, q.variables,
                      {a.relation: _least(max(1, len(rels[a.relation])), P, 1, 1)
                       for a in q.atoms})
    # group each relation's tuples by their heavy profile once
    groups = {a.relation: _heavy_profiles(a, rels[a.relation], heavy)
              for a in q.atoms}
    # heavy profiles X for which every atom has tuples, in bitmask order
    active = _active_profiles(q, groups)
    base = [fresh() for _ in range(P)] if active else None
    routes = {}    # (atom, profile) -> [hypercube route per X]
    out = set()
    for X, profs in active:
        filtered = {a.relation: groups[a.relation][pr]
                    for a, pr in zip(q.atoms, profs)}
        alloc = share_lp(q, sizes, P, X)
        xkey = "|".join(sorted(X))
        # collision-free placement of the share grid (at most P cells, as
        # _round_shares keeps the product of shares <= P) on the base block
        ncells = alloc.grid_size()
        ranks = hash_column(ctx.seed, tag, "map", xkey)(range(P))
        cellmap = sorted(range(P), key=ranks.__getitem__)[:ncells]
        offsets = _balanced_hashes(ctx, q, filtered, alloc.shares, tag + "v" + xkey)
        cells = [base[c] for c in cellmap]
        for a, pr in zip(q.atoms, profs):
            routes.setdefault((a, pr), []).append(
                _hc_route(a, q.variables, alloc.shares, offsets, cells))
        out |= _out_join(ctx, q.atoms, filtered, q.variables)
    # A group shipped under several profiles shares one base block, so it
    # goes once to the union of its cells under all of them.
    for (a, pr), rs in routes.items():
        ctx.eng.ship(rnd, a.relation, groups[a.relation][pr],
                     rs[0] if len(rs) == 1 else _union(rs))
    return out


# -- line queries ----------------------------------------------------------

def _line_vars(atoms):
    vs = [atoms[0].vars[0]]
    for a in atoms:
        vs.append(a.vars[1])
    return tuple(vs)


def _line(ctx, rnd, atoms, rels, P, fresh, tag):
    """Path join over the chained atoms; returns (vars, rows)."""
    vs = _line_vars(atoms)
    k = len(atoms)
    if k == 1:
        return atoms[0].vars, set(rels[atoms[0].relation])
    if k <= 4:
        q = Query("sub", vs, tuple(atoms))
        return vs, _one_round_skew(ctx, rnd, q, rels, P, fresh, tag + "b")
    if k % 2 == 0:
        n = k // 2
        p1 = max(1, pow_floor(P, Fraction(1, n + 1)))
        p0 = max(1, P // p1)
        grid = _Grid(fresh, p1)
        v0, out0 = _line(ctx, rnd, atoms[:-1], rels, p0, grid.fresh_row, tag + "e")
        last = atoms[-1]
        _distribute(ctx, rnd, last.relation, rels[last.relation], grid.cols(), tag + "ed")
        return vs, _rows([(v0, out0), (last.vars, rels[last.relation])], vs)

    # odd k >= 5
    n = (k + 1) // 2
    s1, s2 = atoms[0], atoms[1]
    x1 = s1.vars[1]
    m = max(max(len(rels[a.relation]) for a in atoms), 1)
    deg = ctx.freqs(rels, s1.relation, 1)
    heavy = _heavy(deg, _least(m, P, 1, n))
    hset = set(heavy)

    # light x1: cartesian grid of the tail line with the head join
    p1 = max(1, pow_floor(P, Fraction(1, n)))
    p0 = max(1, P // p1)
    grid = _Grid(fresh, p1)
    v0, out0 = _line(ctx, rnd, atoms[2:], rels, p0, grid.fresh_row, tag + "t")
    light1 = [t for t in rels[s1.relation] if t[1] not in hset]
    light2 = [t for t in rels[s2.relation] if t[0] not in hset]
    hcol = _hashed(hash_column(ctx.seed, tag, "lx1"), grid.cols(),
                   chain(map(itemgetter(1), light1), map(itemgetter(0), light2)))
    for name, ts, pos in ((s1.relation, light1, 1), (s2.relation, light2, 0)):
        ctx.eng.ship(rnd, name, ts, _keyed(itemgetter(pos), hcol))
    head = _out_join(ctx, [s1, s2], {s1.relation: light1, s2.relation: light2},
                     (s1.vars[0], x1, s2.vars[1]))
    out = _rows([((s1.vars[0], x1, s2.vars[1]), head), (v0, out0)], vs)

    # heavy x1: one exclusive grid per heavy value
    p1k = pow_floor(P, Fraction(1, n))
    s3 = atoms[2]
    for h in heavy:
        p0h = max(1, (deg[h] * p1k) // m)
        p1h = max(1, pow_floor(P, Fraction(n - 1, n)))
        left = _slice(rels[s1.relation], 1, h)
        keys = _slice(rels[s2.relation], 0, h)
        grid2 = _Grid(fresh, p0h)
        head3, res = _semijoin_into(ctx, rnd, tag + "s", tag + "k", keys, s3,
                                    (0,), rels, p1h, grid2.fresh_row,
                                    tag + "j" + str(h))
        tail = [head3] + list(atoms[3:])
        crels = dict(rels)
        crels[head3.relation] = res
        cv, crows = _line(ctx, rnd + 1, tail, crels, p1h,
                          grid2.fresh_row, tag + "h" + str(h))
        lname = ctx.relation(tag + "u", 1)
        _distribute(ctx, rnd, lname, left, grid2.cols(), tag + "d" + str(h))
        out |= _rows([(cv, crows), ((x1,), [(h,)]), ((s1.vars[0],), left)], vs)
    return vs, out


def _chain_eval(ctx, rnd, chain, rels, P, fresh, tag):
    """Evaluate a path of at least two atoms whose end atoms may coincide
    on one edge.

    Two atoms with the same variable tuple: co-locate and intersect
    (1 round).  Otherwise a line join.  Returns (vars, rows).
    """
    if len(chain) == 2 and chain[0].vars == chain[1].vars:
        return chain[0].vars, _intersect_ship(ctx, rnd, chain, rels, P, fresh,
                                              tag + "c2")
    return _line(ctx, rnd, chain, rels, P, fresh, tag)


# -- multi-round skeleton --------------------------------------------------

def _light_hypercube(ctx, rnd, q, rels, P, fresh, tag):
    """The light round of `_heavy_residuals` on k = q.k variables.

    A value is heavy for variable v when its degree in some atom exceeds
    m/P^(1/k).  Tuples whose values are all light go through one hypercube
    on shares P^(1/k) per variable.  Returns (per-variable heavy value
    sets, output rows over q.variables of the all-light tuples).
    """
    k = q.k
    m = max(max(len(rels[a.relation]) for a in q.atoms), 1)
    heavy = _heavy_at(ctx, q.atoms, rels, q.variables,
                      dict.fromkeys(rels, _least(m, P, 1, k, strict=True)))
    shares = _round_shares(q, {v: Fraction(1, k) for v in q.variables}, P)
    light = {a.relation: _heavy_profiles(a, rels[a.relation], heavy).get(frozenset(), [])
             for a in q.atoms}
    # buckets are balanced over the full relations, heavy tuples included
    return heavy, _hypercube(ctx, rnd, q, light, shares, fresh, tag + "l", rels)


def _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual):
    """The plan shared by odd cycles, Loomis-Whitney joins and cliques.

    The light round (`_light_hypercube`) covers the all-light output.  Then,
    for the i-th variable x of q and each heavy value h of x in sorted
    order, residual(i, x, h, P1) runs a semi-join round on
    P1 = P^((k-1)/k) servers and evaluates the residual q_x from round
    rnd + 1, returning (vars, rows); x = h is plugged back in.  Returns the
    output rows over q.variables.
    """
    heavy, out = _light_hypercube(ctx, rnd, q, rels, P, fresh, tag)
    P1 = max(1, pow_floor(P, Fraction(q.k - 1, q.k)))
    for i, x in enumerate(q.variables):
        for h in sorted(heavy[x]):
            out |= _rows([residual(i, x, h, P1), ((x,), [(h,)])], q.variables)
    return out


def _arc(ctx, rnd, path, keys_a, keys_b, rels, P, fresh, tag, sfx, names):
    """Semi-join both ends of a path of binary atoms, then evaluate it.

    keys_a filters the first atom's first variable and keys_b the last
    atom's second, into relations named after tag + names[0] and
    tag + names[1]; the path is then evaluated with `_chain_eval` from
    round rnd + 1.  Returns (vars, rows).
    """
    a, rows_a = _semijoin_into(ctx, rnd, tag + names[0], tag + "ka", keys_a,
                               path[0], (0,), rels, P, fresh, tag + "sa" + sfx)
    b, rows_b = _semijoin_into(ctx, rnd, tag + names[1], tag + "kb", keys_b,
                               path[-1], (1,), rels, P, fresh, tag + "sb" + sfx)
    crels = dict(rels)
    crels[a.relation] = rows_a
    crels[b.relation] = rows_b
    return _chain_eval(ctx, rnd + 1, [a] + path[1:-1] + [b], crels, P, fresh,
                       tag + "c" + sfx)


# -- cycle queries ---------------------------------------------------------

def _cycle_odd(ctx, rnd, q, rels, P, fresh, tag):
    atoms, k = q.atoms, q.k

    def residual(i, x, h, P1):
        # x joins atoms[i-1] (pos 1) and atoms[i] (pos 0); the rest of the
        # cycle is the path atoms[i+1] .. atoms[i-2]
        path = [atoms[(i + j) % k] for j in range(1, k - 1)]
        keys_a = _slice(rels[atoms[i].relation], 0, h)
        keys_b = _slice(rels[atoms[i - 1].relation], 1, h)
        return _arc(ctx, rnd, path, keys_a, keys_b, rels, P1, fresh, tag,
                    "%d_%s" % (i, h), ("a", "b"))

    return _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual)


def _cycle_even(ctx, rnd, q, rels, P, fresh, tag):
    atoms, k = q.atoms, q.k
    m = max(max(len(rels[a.relation]) for a in atoms), 1)
    var_at = [a.vars[0] for a in atoms]      # position i -> variable
    # per-position maximum degree of each value
    deg = [ctx.freqs(rels, atoms[i].relation, 0)
           | ctx.freqs(rels, atoms[(i - 1) % k].relation, 1) for i in range(k)]

    # Case 2: a single skew-aware hypercube round covering the whole output.
    if P == 1:
        exps = {v: Fraction(0) for v in q.variables}
    else:
        dmax = [max(deg[i].values(), default=1) for i in range(k)]
        lo = [max(Fraction(0), min(Fraction(1),
                                   log_base_p(m, P) - log_base_p(max(d, 1), P)))
              for d in dmax]
        d_odd = min(lo[0::2])
        d_even = min(lo[1::2])
        if d_odd > d_even:
            d_odd, d_even = d_even, d_odd
            first_odd = 1
        else:
            first_odd = 0
        if d_odd > Fraction(2, k):
            e_odd = e_even = Fraction(1, k)
        else:
            e_odd = d_odd
            e_even = Fraction(2, k) - d_odd
        exps = {}
        for i in range(k):
            exps[var_at[i]] = e_odd if i % 2 == first_odd else e_even
    out = _hypercube(ctx, rnd, q, rels, _round_shares(q, exps, P), fresh,
                     tag + "g")

    # Case 1: exclusive blocks for qualifying heavy pairs at odd distance.
    # a value is a candidate at degree m/P^(2/k), a pair qualifies at
    # deg_i * deg_j >= m^2/P^(2/k)
    least, pair = _least(m, P, 2, k), _least(m * m, P, 2, k)
    cand = [_heavy(dg, least) for dg in deg]
    P1 = max(1, pow_floor(P, Fraction(k - 2, k)))
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % 2 == 0:
                continue
            for h in cand[i]:
                for h2 in cand[j]:
                    if deg[i][h] * deg[j][h2] < pair:
                        continue
                    out |= _rows([_cycle_pair(ctx, rnd, q, rels, P, P1, fresh,
                                              i, h, j, h2, tag),
                                  ((var_at[i], var_at[j]), [(h, h2)])],
                                 q.variables)
    return out


def _cycle_pair(ctx, rnd, q, rels, P, P1, fresh, i, h, j, h2, tag):
    """Residual of an even cycle after fixing a qualifying heavy pair at
    positions i and j; returns (vars, rows) over the other variables."""
    atoms, k = q.atoms, q.k
    var_at = q.variables
    if (i - j) % k == 1:                    # normalize to j == i+1 (mod k)
        i, j, h, h2 = j, i, h2, h
    ptag = tag + "p%d_%d_%s_%s" % (i, j, h, h2)

    def unary_right(pos, val):
        # values following val through the atom at `pos`
        return _slice(rels[atoms[pos].relation], 0, val)

    def unary_left(pos, val):
        return _slice(rels[atoms[pos].relation], 1, val)

    def path(start, end):
        # atoms at positions start..end, i.e. variables var_at[start] ..
        # var_at[end+1]
        return [atoms[t % k] for t in range(start, end + 1)]

    if (j - i) % k == 1:
        arc = path(i + 2, i + k - 2)
        # adjacent: the pair must be an actual tuple of the shared atom
        if (h, h2) not in rels[atoms[i].relation]:
            return _line_vars(arc), set()
        ua = unary_right((i + 1) % k, h2)        # constrains var_at[i+2]
        ub = unary_left((i - 1) % k, h)          # constrains var_at[i-1]
        return _arc(ctx, rnd, arc, ua, ub, rels, P1, fresh, ptag, "", ("A", "B"))
    # non-adjacent: two arcs evaluated on a grid
    alpha = (j - i) - 2
    beta = k - (j - i) - 2
    g1 = max(1, pow_floor(P, Fraction(alpha + 1, k)))
    g2 = max(1, pow_floor(P, Fraction(beta + 1, k)))
    grid = _Grid(fresh, 8 * g2 + 16)
    u1a = unary_right(i, h)                  # var_at[i+1]
    u1b = unary_left((j - 1) % k, h2)        # var_at[j-1]
    v1, rows1 = _arc(ctx, rnd, path(i + 1, j - 2), u1a, u1b, rels,
                     g1, grid.fresh_row, ptag + "x", "", ("A", "B"))
    u2a = unary_right(j, h2)                 # var_at[j+1]
    u2b = unary_left((i - 1) % k, h)         # var_at[i-1]
    v2, rows2 = _arc(ctx, rnd, path(j + 1, i + k - 2), u2a, u2b, rels,
                     g2, grid.fresh_col, ptag + "y", "", ("A", "B"))
    # disjoint arcs: a product
    return v1 + v2, _rows([(v1, rows1), (v2, rows2)], v1 + v2)


# -- Loomis-Whitney joins --------------------------------------------------

def _lw(ctx, rnd, q, rels, P, fresh, tag):
    omit = {}
    for a in q.atoms:
        missing = [v for v in q.variables if v not in a.vars]
        omit[missing[0]] = a

    def residual(i, x, h, P1):
        base = omit[x]                      # the one atom without x
        semis, srels = [], {}
        for a in q.atoms:
            if a is base:
                continue
            pos = a.vars.index(x)
            keyvars = [v for v in a.vars if v != x]
            keys = _slice(rels[a.relation], pos, h)
            keypos = tuple(sorted(base.vars.index(v) for v in keyvars))
            # align projected keys to base's variable order
            keys = _rows([(keyvars, keys)], tuple(base.vars[kp] for kp in keypos))
            b, srels[b.relation] = _semijoin_into(
                ctx, rnd, tag + "w", tag + "kw", keys, base, keypos, rels, P1,
                fresh, tag + "s%s_%s_%s" % (x, a.relation, h))
            semis.append(b)
        return base.vars, _intersect_ship(ctx, rnd + 1, semis, srels, P1, fresh,
                                          tag + "i%s_%s" % (x, h))

    return _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual)


# -- clique queries --------------------------------------------------------

def _clique(ctx, rnd, q, rels, P, fresh, tag):
    """Clique join; atoms are binary, one per variable pair (two parallel
    atoms with the same `vars` allowed only at k == 2).  Returns the
    output rows over q.variables."""
    if q.k == 2:
        inter = _intersect_ship(ctx, rnd, q.atoms, rels, P, fresh, tag + "i")
        # a parsed clique may list the pair in the other order
        return _rows([(q.atoms[0].vars, inter)], q.variables)

    atom_for = {frozenset(a.vars): a for a in q.atoms}   # one per pair

    def residual(i, x, h, P1):
        others = [v for v in q.variables if v != x]
        replaced = {}
        for idx, y in enumerate(others):
            src = atom_for[frozenset((x, y))]
            pos = src.vars.index(x)
            keys = _slice(rels[src.relation], pos, h)
            target = atom_for[frozenset((y, others[(idx + 1) % len(others)]))]
            semi = _semijoin_into(ctx, rnd, tag + "q", tag + "kq", keys, target,
                                  (target.vars.index(y),), rels, P1, fresh,
                                  tag + "s%s_%s_%s" % (x, y, h))
            replaced.setdefault(target.relation, []).append(semi)
        sub_atoms = []
        sub_rels = dict(rels)
        for a in q.atoms:
            if x in a.vars:
                continue
            if a.relation in replaced:
                for b, res in replaced[a.relation]:
                    sub_atoms.append(b)
                    sub_rels[b.relation] = res
            else:
                sub_atoms.append(a)
        sub = Query("sub", tuple(others), tuple(sub_atoms))
        return sub.variables, _clique(ctx, rnd + 1, sub, sub_rels, P1, fresh,
                                      tag + "h%s_%s" % (x, h))

    return _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual)


# -- covering-atom queries -------------------------------------------------

def _covering(ctx, rnd, q, rels, P, fresh, tag):
    cover = covering_atom(q)
    others = [a for a in q.atoms if a is not cover]
    if not others:
        return _rows([(cover.vars, rels[cover.relation])], q.variables)
    semis, srels = [], {}
    for a in others:
        keypos = tuple(sorted(cover.vars.index(v) for v in a.vars))
        keys = _rows([(a.vars, rels[a.relation])],
                     tuple(cover.vars[i] for i in keypos))
        b, srels[b.relation] = _semijoin_into(
            ctx, rnd, tag + "c", tag + "kc", keys, cover, keypos, rels, P,
            fresh, tag + "s" + a.relation)
        semis.append(b)
    inter = srels[semis[0].relation] if len(semis) == 1 else \
        _intersect_ship(ctx, rnd + 1, semis, srels, P, fresh, tag + "i")
    return _rows([(cover.vars, inter)], q.variables)


# -- shapes ----------------------------------------------------------------

def _chain(q: Query, closed: bool):
    """q as a path (closed=False) or a cycle (closed=True) of binary atoms,
    or None.

    One walk orients every atom from the variable it is entered by: a path
    from its first end in head order, a cycle from its first head variable
    along its first atom.  The returned query lists the variables in walk
    order.
    """
    if any(a.arity != 2 for a in q.atoms) or (closed and q.k < 3) \
            or q.num_atoms != (q.k if closed else q.k - 1):
        return None
    # with k - 1 (k) binary atoms, two (no) variables of degree 1 leave
    # exactly degree 2 to every other variable
    degree = Counter(v for a in q.atoms for v in a.vars)
    ends = [v for v in q.variables if degree[v] == 1]
    if len(ends) != (0 if closed else 2):
        return None
    cur = ends[0] if ends else q.variables[0]
    atoms, rest = [], list(q.atoms)
    while rest:
        a = next((a for a in rest if cur in a.vars), None)
        if a is None:
            return None                         # q is disconnected
        rest.remove(a)
        if a.vars[0] != cur:
            a = Atom(a.relation, a.vars[::-1])
        atoms.append(a)
        cur = a.vars[1]
    vs = tuple(a.vars[0] for a in atoms)
    return Query(q.name, vs if closed else vs + (cur,), tuple(atoms))


def is_lw(q: Query) -> bool:
    if q.num_atoms != q.k or q.k < 3:
        return False
    omitted = set()
    for a in q.atoms:
        missing = set(q.variables) - set(a.vars)
        if len(missing) != 1:
            return False
        omitted |= missing
    return len(omitted) == q.k


def is_clique(q: Query) -> bool:
    if q.k < 3 or q.num_atoms != q.k * (q.k - 1) // 2:
        return False
    pairs = {frozenset(a.vars) for a in q.atoms if a.arity == 2}
    return len(pairs) == q.num_atoms


def covering_atom(q: Query):
    for a in q.atoms:
        if set(a.vars) == set(q.variables):
            return a
    return None


def _as_is(test):
    """The shape that runs q unchanged when test(q) holds."""
    return lambda q: q if test(q) else None


def _two_atoms(test):
    """The shape of two atoms whose variable sets a, b pass test(a, b)."""
    return _as_is(lambda q: q.num_atoms == 2
                  and test(*(set(a.vars) for a in q.atoms)))


# -- plans -----------------------------------------------------------------
#
# A plan runs from round 0 on root servers (`ctx.root`) and returns the
# output rows over its query's variables; it writes its extras into
# `ctx.extras`.  No plan counts rounds: the ledger is the only round count.

def _hc(ctx, q, rels, p):
    """Plain one-round hypercube with size-optimized shares (no skew
    handling)."""
    sizes = {a.relation: max(1, ctx.eng.widths[a.relation] * len(rels[a.relation]))
             for a in q.atoms}
    alloc = share_lp(q, sizes, p)
    ctx.extras.update({"shares": alloc.shares, "lambda": alloc.lam})
    return _hypercube(ctx, 0, q, rels, alloc.shares, ctx.root, "hc")


def _one_sided_skew(ctx, q, rels, p):
    """Binary join resilient to skew on one side.

    The side with the lower maximum key frequency plays the skew-free role;
    heavy key values of the other side get exclusive blocks of servers, the
    rest is a hash join on the shared key.
    """
    a, b = q.atoms
    key = [v for v in a.vars if v in b.vars]
    ta, tb = rels[a.relation], rels[b.relation]
    ka = tuple(a.vars.index(v) for v in key)
    kb = tuple(b.vars.index(v) for v in key)
    fa = Counter(map(_key(ka), ta))
    fb = Counter(map(_key(kb), tb))
    if max(fb.values(), default=0) < max(fa.values(), default=0):
        a, b, ta, tb, ka, kb, fb = b, a, tb, ta, kb, ka, fa
    del fa      # only B's key counts are read from here on
    hblocks = _skew_join_ship(ctx, 0, a.relation, ta, ka, b.relation, tb, kb,
                              fb, p, ctx.root, hash_column(ctx.seed, "j1s", "h"),
                              hash_column(ctx.seed, "j1s", "p"))
    ctx.extras.update(heavy_keys=len(hblocks),
                      heavy_servers=sum(len(g) for g in hblocks.values()))
    return _out_join(ctx, q.atoms, rels, q.variables)


def _line_plan(ctx, q, rels, p):
    return _line(ctx, 0, q.atoms, rels, p, ctx.root, "L")[1]


def _cycle(ctx, rnd, q, rels, P, fresh, tag):
    body = _cycle_odd if q.k % 2 else _cycle_even
    return body(ctx, rnd, q, rels, P, fresh, tag)


def _from_round0(body, tag):
    """The plan of body(ctx, rnd, q, rels, P, fresh, tag) -> rows."""
    return lambda ctx, q, rels, p: body(ctx, 0, q, rels, p, ctx.root, tag)


# -- the strategy table ----------------------------------------------------

class Strategy(NamedTuple):
    shape: Callable     # q -> the query the plan runs on, or None
    plan: Callable      # (ctx, shaped q, rels, p) -> rows; extras in ctx.extras
    rounds: Callable    # q -> declared upper bound on the rounds used


_ONE_SIDED = Strategy(_two_atoms(lambda a, b: bool(a & b)), _one_sided_skew,
                      lambda q: 1)
_CYCLE = Strategy(lambda q: _chain(q, True), _from_round0(_cycle, "C"),
                  lambda q: (q.num_atoms + 1) // 2)

ALGORITHMS = {
    "hc": Strategy(lambda q: q, _hc, lambda q: 1),
    "one_round_skew": Strategy(lambda q: q, _from_round0(_one_round_skew, "ors"),
                               lambda q: 1),
    "join_one_sided_skew": _ONE_SIDED,
    # one atom's variables contain the other's: the key-set side has every
    # key at most once, so it plays the skew-free role
    "semi_join": _ONE_SIDED._replace(
        shape=_two_atoms(lambda a, b: a <= b or b <= a)),
    "line": Strategy(lambda q: _chain(q, False), _line_plan,
                     lambda q: max(1, (q.k - 1) // 2)),   # k-1 atoms
    "cycle": _CYCLE,
    "triangle": _CYCLE._replace(shape=lambda q: _chain(q, True) if q.k == 3 else None),
    "lw": Strategy(_as_is(is_lw), _from_round0(_lw, "W"), lambda q: 2),
    "clique": Strategy(_as_is(is_clique), _from_round0(_clique, "K"),
                       lambda q: q.k - 1),
    "covering": Strategy(_as_is(lambda q: covering_atom(q) is not None),
                         _from_round0(_covering, "V"),
                         lambda q: min(q.num_atoms - 1, 2)),
}


@dataclass
class AlgorithmResult:
    name: str
    query: Query
    p: int
    output: set               # rows in query.variables order
    report: LoadReport
    rounds: int               # the ledger's round count, report.rounds
    extras: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.output)


def pick_algorithm(q: Query) -> str:
    """The most specific strategy whose shape accepts q: covering (on more
    than one atom), clique, lw, cycle, line, else one_round_skew."""
    names = ("covering", "clique", "lw", "cycle", "line")
    if q.num_atoms == 1:
        names = names[1:]         # a lone atom covers itself: nothing to do
    return next((n for n in names if ALGORITHMS[n].shape(q) is not None),
                "one_round_skew")


def run_algorithm(name: str, db, p: int, seed: int,
                  counting: bool = False, *, _counts=None) -> AlgorithmResult:
    """Run strategy `name` ("auto" picks one by shape) on `db` with nominal
    server count p >= 1 and the given seed.

    Raises `QueryError` when the strategy's shape does not accept the
    query.  With ``counting=True`` the run is a dry run for its loads: the
    engine keeps only the load ledger (no per-server tuple storage) and
    results are not assembled, so the returned output is an empty set,
    except that covering on two atoms returns the semi-join result it ships
    and a one-atom query under line or covering returns its relation.
    Loads, rounds and extras are the same as in a storing run.  Used for
    cheap dry runs on large instances.

    `_counts` is internal to `em.DryRuns`: one dict that the runs of one
    strategy on one instance share, (relation, position) -> the value
    counts of that column of the shaped input.  A run given it reads its
    input columns' counts from it and adds those it lacks; a run without it
    counts every column it needs afresh and keeps nothing.
    """
    if p < 1:
        raise ValueError("server count p must be at least 1, got %d" % p)
    if name == "auto":
        name = pick_algorithm(db.query)
    try:
        strategy = ALGORITHMS[name]
    except KeyError:
        raise KeyError("unknown algorithm %r (one of %s)"
                       % (name, "/".join(sorted(ALGORITHMS)))) from None
    q = strategy.shape(db.query)
    if q is None:
        raise QueryError("%s does not accept %s" % (name, db.query.render()))
    ctx = _Ctx(Engine(db.widths_bits(), store_tuples=not counting), seed,
               max(ri.value_bits for ri in db.relations.values()), _counts)
    rels = {}
    for a in q.atoms:
        src = db.query.atom(a.relation).vars
        ts = db.relations[a.relation].tuples
        rels[a.relation] = list(ts) if a.vars == src else \
            list(map(itemgetter(*map(src.index, a.vars)), ts))
    ctx.inputs.update(rels)
    rows = strategy.plan(ctx, q, rels, p)
    if q.variables != db.query.variables:
        rows = _rows([(q.variables, rows)], db.query.variables)
    return AlgorithmResult(name, db.query, p, rows, ctx.eng.report,
                           ctx.eng.report.rounds,
                           {"nominal_p": p, "physical_servers": ctx.servers,
                            **ctx.extras})
