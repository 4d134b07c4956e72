"""Parallel join strategies with measured communication loads.

`ALGORITHMS` is the strategy table: each name maps to a `Strategy` of
shape(q), the query the plan runs on (line and cycle atoms oriented by one
walk) or None when the strategy does not accept q; the plan; its hash
tag; and rounds(q), the declared round bound.  `run_algorithm` is the one
run path: it checks p, applies the shape, builds the engine and the
oriented relations, runs the plan, evaluates its parts and returns the
output with the per-round load report.  `pick_algorithm` ("auto") takes
the most specific strategy whose shape accepts the query.

The plan protocol, one for plans and sub-plans: plan(ctx, rnd, q, rels, P,
fresh, tag) ships rels from round rnd on a nominal P logical servers drawn
from fresh, hashing under tag, and returns a list of output parts
(`_Part`), each the join of some atoms with constants plugged in, computed
on the servers that hold what those atoms shipped.  `run_algorithm` starts
a strategy's plan at round 0 on p servers of ``ctx.root`` under its tag.
A plan writes any extras into ``ctx.extras``, and nothing counts rounds:
the engine's ledger is the only round count (`AlgorithmResult.rounds`),
checked against the declared bound `Strategy.rounds`.  Only
`run_algorithm` evaluates parts.

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
from operator import add, itemgetter, mod, not_
from typing import Callable, NamedTuple

from .analyzer import _round_shares, iroot, log_base_p, pow_floor, share_lp
from .query import Atom, Query, QueryError
from .rng import _CHUNK, _MASK, hash_column
from .sim import Engine, LoadReport, Route, _columns, _key, join_atoms


class InsufficientServers(RuntimeError):
    """A sub-plan asked for more logical servers than its block provides."""


@dataclass
class SweepInputs:
    """What the runs of one strategy on one instance with one seed share,
    none of it depending on p, each made on first use: the shaped query
    and its inputs, and the value counts and value lists of the input
    columns and the rank orders of hashed variables that the runs read.
    A plan reads the counts, lists and orders only through `_Ctx`, and
    only for the very inputs, tuples that no plan can mutate."""
    query: Query | None = None                    # the shaped query
    rels: dict = field(default_factory=dict)      # relation -> input tuples
    counts: dict = field(default_factory=dict)    # (relation, position) -> Counter
    columns: dict = field(default_factory=dict)   # (relation, position) -> value list
    orders: dict = field(default_factory=dict)    # (tag, variable, columns) -> ranked values


@dataclass
class _Ctx:
    eng: Engine
    seed: int
    vbits: int                 # bits per value for intermediate relations
    shared: SweepInputs | None = None   # what the runs of one sweep share
    servers: int = field(default=0, init=False)     # physical ids handed out
    extras: dict = field(default_factory=dict, init=False)
    _names: Counter = field(default_factory=Counter, init=False)

    def _shared(self, name, ts) -> bool:
        """Whether ts is the run's input for relation name while the run
        shares its inputs."""
        return self.shared is not None and self.shared.rels.get(name) is ts

    @staticmethod
    def _memo(table, key, make):
        """table[key], made by make() on first use."""
        got = table.get(key)
        if got is None:
            got = table[key] = make()
        return got

    def freqs(self, rels, name: str, pos: int) -> Counter:
        """The value counts of column pos of rels[name]: the shared count
        when rels[name] is the run's input (counted on first use),
        else a fresh count.  Callers do not mutate the result."""
        ts = rels[name]
        if not self._shared(name, ts):
            return Counter(map(itemgetter(pos), ts))
        return self._memo(self.shared.counts, (name, pos),
                          lambda: Counter(map(itemgetter(pos), ts)))

    def column(self, name: str, ts, pos: int):
        """The values at pos of the tuples ts, in order: the shared list
        when ts is the run's input for name (listed on first use),
        else a fresh iterator.  Callers do not mutate the result."""
        if not self._shared(name, ts):
            return map(itemgetter(pos), ts)
        return self._memo(self.shared.columns, (name, pos),
                          lambda: list(map(itemgetter(pos), ts)))

    def ranked(self, rels, cols, tag: str, v: str) -> list:
        """The values of the columns cols, (relation, position) pairs of
        rels, in `_ranked` order: the shared order, ranked over the shared
        counts on first use, when every column in cols is of the run's
        input, else a fresh one.  Callers do not mutate the result."""
        if not all(self._shared(name, rels[name]) for name, _ in cols):
            return _ranked(self.seed, tag, v, [map(itemgetter(pos), rels[name])
                                               for name, pos in cols])
        return self._memo(self.shared.orders, (tag, v, cols), lambda: _ranked(
            self.seed, tag, v, [self.freqs(rels, name, pos) for name, pos in cols]))

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


# -- output parts ----------------------------------------------------------

class _Part(NamedTuple):
    """One part of a plan's output: the join of `atoms` over `rels` with
    the constants `consts` (variable -> value) plugged in, computed on the
    physical ids `servers` (none when the part ships nothing)."""
    servers: frozenset
    atoms: tuple
    rels: dict
    consts: dict


def _part(groups, atoms, rels):
    """A list of one part: atoms over rels, on the logical servers groups."""
    return [_Part(frozenset(chain.from_iterable(groups)), tuple(atoms),
                  {a.relation: rels[a.relation] for a in atoms}, {})]


def _product(left, right):
    """Every pair of a left and a right part: their atoms, rels and
    constants merged, on the servers they share."""
    return [_Part(a.servers & b.servers, a.atoms + b.atoms, {**a.rels, **b.rels},
                  {**a.consts, **b.consts}) for a in left for b in right]


def _plug(parts, consts):
    """The parts with the constants consts (variable -> value) added."""
    return [pt._replace(consts={**pt.consts, **consts}) for pt in parts]


def _join_part(part, out_vars):
    """The rows of part over out_vars; constants join as one row "="."""
    atoms, rels = part.atoms, part.rels
    if part.consts:
        atoms += (Atom("=", tuple(part.consts)),)
        rels = {**rels, "=": [tuple(part.consts.values())]}
    return join_atoms(atoms, rels, out_vars)


# -- heavy-hitter bookkeeping ---------------------------------------------

def _slice(tuples, pos: int, h):
    """The tuples whose value at pos is h, without that column, as a list:
    for duplicate-free tuples its rows are distinct."""
    rows = list(compress(tuples, map(h.__eq__, map(itemgetter(pos), tuples))))
    if not rows:
        return rows
    return list(map(_columns([i for i in range(len(rows[0])) if i != pos]), rows))


def _reordered(tuples, order):
    """The tuples with their columns permuted to `order`, as a tuple, or
    the tuples themselves when `order` is their own: a permutation of
    duplicate-free tuples keeps them distinct, so no set dedupes them."""
    if order == sorted(order):
        return tuples
    return tuple(map(_columns(order), tuples))


def _heavy_at(ctx, q, rels, least):
    """Per-variable heavy value sets of q: a value is heavy for v when its
    frequency in v's column of some atom a reaches least[a.relation]."""
    heavy = {v: set() for v in q.variables}
    for a in q.atoms:
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
    such position is one group under the empty profile, `tuples`
    itself, with no per-tuple test.
    """
    groups = {frozenset(): tuples} if tuples else {}
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

def hc_grid(avars, order, shares: dict):
    """The mixed-radix cell arithmetic of one atom's hypercube shipment.

    Cells are linear indices of the mixed-radix coordinate over the
    variables of `order` whose share exceeds 1, the last one varying
    fastest.  Returns (bound, free): `bound` lists (position in avars,
    variable, stride) for every such variable the atom binds, and a tuple t
    over avars goes to cells c0 + f for f in `free`, in that order, where
    c0 = sum(b * stride) over `bound`, b the bucket in [0, share) of
    t[position].
    """
    split = [v for v in order if shares[v] > 1]
    stride, step = {}, 1
    for v in reversed(split):
        stride[v], step = step, step * shares[v]
    bound = [(avars.index(v), v, stride[v]) for v in split if v in avars]
    free = [0]
    for v in split:
        if v not in avars:
            free = [f + d * stride[v] for f in free for d in range(shares[v])]
    return bound, free


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
    `hash_column` call and one sort per variable, by rank alone
    (`_ranked`); a run that shares its inputs ranks each variable's values
    in its input columns once per sweep (`_Ctx.ranked`).  No two
    values tie.  h(v) = mix64(v ^ key) is a bijection on [0, 2^64): the XOR
    with a fixed key is its own inverse, x -> x ^ (x >> r) is undone by
    repeating the shift-XOR until the shift passes 64 bits, and a product
    with an odd multiplier modulo 2^64 is undone by the multiplier's
    inverse modulo 2^64.  So distinct values in that range have distinct
    ranks, and the order of the values before the sort cannot matter: it
    could only break ties.  A value outside the range is masked to 64 bits
    and could share a rank with one inside, so it raises ValueError
    instead of taking an order of its own.
    """
    bound, _ = hc_grid(q.variables, q.variables, shares)
    maps = {}
    for _, v, stride in bound:
        cols = tuple((a.relation, a.vars.index(v)) for a in q.atoms if v in a.vars)
        maps[v] = dict(zip(ctx.ranked(rels, cols, tag, v),
                           cycle(range(0, shares[v] * stride, stride))))
    return maps


def _ranked(seed, tag, v, columns) -> list:
    """The distinct values of the iterables columns, sorted by their ranks
    under hash_column(seed, tag, "bal", v); ValueError for a value outside
    [0, 2^64)."""
    vals = set()
    for col in columns:
        vals.update(col)
    vals = list(vals)
    if vals and (min(vals) < 0 or max(vals) > _MASK):
        raise ValueError("cannot rank values of %s outside [0, 2^64)" % v)
    ranks = hash_column(seed, tag, "bal", v)(vals)
    return list(map(vals.__getitem__, sorted(range(len(vals)), key=ranks.__getitem__)))


def _hypercube(ctx, rnd, q, rels, shares, fresh, tag, stats=None):
    """One hypercube round (Beame, Koutris and Suciu, PODS 2014): every
    atom's tuples in rels go to prod(shares) fresh logical cells, placed by
    the `_balanced_hashes` maps of the values in stats (rels by default),
    hashed under tag.  Returns its output part."""
    cells = [fresh() for _ in range(math.prod(shares.values()))]
    offsets = _balanced_hashes(ctx, q, rels if stats is None else stats,
                               shares, tag)
    for a in q.atoms:
        ctx.eng.ship(rnd, a.relation, rels[a.relation],
                     _hc_route(a, q.variables, shares, offsets, cells,
                               partial(ctx.column, a.relation)))
    return _part(cells, q.atoms, rels)


def _hc_route(a, order, shares, offsets, cells, column):
    """Route of a's tuples: every server of every cell they expand to.

    A tuple's key is its base cell c0, the sum of the offsets of the split
    variables a binds, computed a column at a time from the offset maps of
    `_balanced_hashes` over column(ts, i), the values at position i of the
    shipped tuples ts (`_Ctx.column`); the servers of c0 are built once
    per c0.
    """
    bound, free = hc_grid(a.vars, order, shares)
    cols = [(i, offsets[v].__getitem__) for i, v, _ in bound]
    servers = {}

    def keys(ts):
        c0 = None
        for i, off in cols:
            col = map(off, column(ts, i))
            c0 = col if c0 is None else map(add, c0, col)
        return repeat(0, len(ts)) if c0 is None else c0

    def dests(c0):
        d = servers.get(c0)
        if d is None:
            d = servers[c0] = tuple(s for f in free for s in cells[c0 + f])
        return d
    return Route(keys, dests)


def _union(routes):
    """The route to the distinct servers the given routes name, in the
    order first named; its key is the tuple of their keys."""
    def keys(ts):
        return zip(*[r.keys(ts) for r in routes])

    def dests(key):
        return tuple(dict.fromkeys(s for r, k in zip(routes, key) for s in r.dests(k)))
    return Route(keys, dests)


def _hashed(h, groups, keys, preset=()):
    """Routes by hash over a table of destinations: the groups in order,
    then the servers of each preset key, which is not hashed.  A key's
    index into the table is h(key) % len(groups), or its preset entry's.

    The key -> index map is filled once, from all of the keys of the
    shipments it routes: keys is any iterable and may repeat a key.  h is
    a `hash_column` function, called on the keys not yet in the map a
    chunk at a time, so each distinct key is hashed once and no temporary
    list outgrows a chunk.  Returns via(getter=None) -> the `Route` whose
    key is the index of getter(t), or of t itself, and whose dests is the
    table lookup; so a shipment has one route key per destination, not
    one per join key.  A key outside the map raises KeyError when a
    shipment looks it up.
    """
    n = len(groups)
    preset = dict(preset)
    index = {k: i for i, k in enumerate(preset, n)}
    table = list(groups) + list(preset.values())
    new = filterfalse(index.__contains__, keys)
    while part := list(dict.fromkeys(islice(new, _CHUNK))):
        index.update(zip(part, map(mod, h(part), repeat(n))))
    at = index.__getitem__

    def via(getter=None):
        if getter is None:
            return Route(partial(map, at), table.__getitem__)
        return Route(lambda ts: map(at, map(getter, ts)), table.__getitem__)
    return via


def _distribute(ctx, rnd, name, tuples, groups, tag):
    """Partition a relation over the given logical groups by tuple hash."""
    ctx.eng.ship(rnd, name, tuples,
                 _hashed(hash_column(ctx.seed, tag, "dist"), groups, tuples)())


def _intersect_ship(ctx, rnd, atoms, rels, P, fresh, tag):
    """Co-locate the atoms' relations, which share one variable tuple, by
    full-tuple hash through one `_hashed` route over a block of P servers,
    its map filled from all of their tuples, so a tuple in several of them
    is hashed once; each tuple's route key is its server's index in the
    block.  Returns their intersection's part."""
    block = [fresh() for _ in range(P)]
    route = _hashed(hash_column(ctx.seed, tag, "ix"), block,
                    chain.from_iterable(rels[a.relation] for a in atoms))()
    for a in atoms:
        ctx.eng.ship(rnd, a.relation, rels[a.relation], route)
    return _part(block, atoms, rels)


def _skew_join_ship(ctx, rnd, a_name, a_tuples, a_keypos, b_name, b_tuples,
                    b_keypos, P, fresh, h, hpart):
    """One round of the skew-resilient binary join of A and B on a key.

    A key is a tuple's projection on its key positions by `sim._key`: a
    scalar for a one-column key.
    A plays the skew-free side: key values with frequency f above m/P in
    B each get an exclusive block of ceil(P*f/m) logical servers, where
    A's tuples with that key are broadcast and B's are partitioned by
    hpart; everything else goes through a hash join on h over a block of P
    servers.  h and hpart are `hash_column` functions.  B's keys are
    counted here, and the count is dropped once it has given the heavy
    keys and their block sizes, before any map below is filled.
    A's tuples and B's light tuples are routed by key through one `_hashed`
    map, whose table is the block and then the heavy keys' broadcast
    blocks, so a tuple's route key is the index of its destination, not
    its join key.  The map is filled before either side ships, straight
    from A's keys and B's keys, so h runs once per distinct light key over
    both sides and never on a heavy key.  B's heavy tuples are keyed by
    the index of their server in the heavy blocks' servers: the
    block's start plus hpart(t) modulo its size, hpart running over whole
    tuples a column at a time, one `rng._CHUNK` of tuples at a call, so no
    hash list is as long as the shipment.  Returns the logical servers of
    the join and the heavy key -> block map.
    """
    m = max(len(a_tuples), len(b_tuples), 1)
    akey, bkey = _key(a_keypos), _key(b_keypos)
    block = [fresh() for _ in range(P)]
    freq = Counter(map(bkey, b_tuples))
    hblocks = {kv: [fresh() for _ in range(-(-P * freq[kv] // m))]  # ceil
               for kv in _heavy(freq, _least(m, P, 1, 1, strict=True))}
    del freq
    via = _hashed(h, block, chain(map(akey, a_tuples), map(bkey, b_tuples)),
                  {kv: tuple(s for g in gs for s in g)
                   for kv, gs in hblocks.items()})
    ctx.eng.ship(rnd, a_name, a_tuples, via(akey))
    table, start, size = [], {}, {}     # the heavy blocks' servers; each block's span
    for kv, gs in hblocks.items():
        start[kv], size[kv] = len(table), len(gs)
        table += gs
    if hblocks:
        def keys(ts):
            it = iter(ts)
            chunks = iter(lambda: list(islice(it, _CHUNK)), [])
            return map(add, map(start.__getitem__, map(bkey, ts)),
                       map(mod, chain.from_iterable(map(hpart, chunks)),
                           map(size.__getitem__, map(bkey, ts))))
        hot = list(map(hblocks.__contains__, map(bkey, b_tuples)))
        ctx.eng.ship(rnd, b_name, list(compress(b_tuples, hot)),
                     Route(keys, table.__getitem__))
        b_tuples = list(compress(b_tuples, map(not_, hot)))
    ctx.eng.ship(rnd, b_name, b_tuples, via(bkey))
    return block + table, hblocks


def _semijoin_into(ctx, rnd, prefix, kprefix, keys, target, keypos, rels,
                   P, fresh, tag):
    """One round of the semi-join of `target` against `keys` (shipped as a
    relation named after kprefix) into a fresh relation named after prefix;
    returns (Atom(name, target.vars), rows, part): the rows are the target
    tuples whose key projection is in `keys`, as a list (a filter of
    duplicate-free tuples has distinct rows), and part computes them on the
    servers of the keys and the target.

    `keys` is a list or tuple of tuples over target's variables at
    keypos, none twice: every caller's keys are distinct by construction
    (a slice or a reordering of duplicate-free tuples), and they ship as
    given, with no set built to dedupe them.  So only the target can be
    skewed on the key: this is the one-sided skew join with the keys as
    the skew-free side, which counts the target's keys itself.
    """
    name = ctx.relation(prefix, len(target.vars))
    kname = ctx.relation(kprefix, len(keypos))
    tuples = rels[target.relation]
    groups, _ = _skew_join_ship(ctx, rnd, kname, keys, range(len(keypos)),
                                target.relation, tuples, keypos, P, fresh,
                                hash_column(ctx.seed, tag, "sjh"),
                                hash_column(ctx.seed, tag, "sjp"))
    kset = set(map(_key(range(len(keypos))), keys))
    katom = Atom(kname, tuple(target.vars[i] for i in keypos))
    return (Atom(name, target.vars),
            list(compress(tuples, map(kset.__contains__, map(_key(keypos), tuples)))),
            _part(groups, (katom, target), {kname: keys, target.relation: tuples}))


# -- one-round algorithms --------------------------------------------------

def _one_round_skew(ctx, rnd, q, rels, P, fresh, tag):
    """Skew-resilient one-round hypercube: one share allocation per heavy
    profile, all shipped in the same round onto a shared block of P cells.

    The heavy profiles are those that occur in the data: `_active_profiles`
    joins the atoms' profile groups, holding at most 2^(variables seen)
    <= 2^k partial unions after each atom.  Returns one output part per
    active profile.
    """
    sizes = {a.relation: max(1, ctx.eng.widths[a.relation] * len(rels[a.relation]))
             for a in q.atoms}
    heavy = _heavy_at(ctx, q, rels, {a.relation: _least(max(1, len(rels[a.relation])), P, 1, 1)
                                     for a in q.atoms})
    # group each relation's tuples by their heavy profile once
    groups = {a.relation: _heavy_profiles(a, rels[a.relation], heavy)
              for a in q.atoms}
    # heavy profiles X for which every atom has tuples, in bitmask order
    active = _active_profiles(q, groups)
    base = [fresh() for _ in range(P)] if active else None
    routes = {}    # (atom, profile) -> [hypercube route per X]
    parts = []
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
                _hc_route(a, q.variables, alloc.shares, offsets, cells,
                          partial(ctx.column, a.relation)))
        parts += _part(cells, q.atoms, filtered)
    # A group shipped under several profiles shares one base block, so it
    # goes once to the union of its cells under all of them.
    for (a, pr), rs in routes.items():
        ctx.eng.ship(rnd, a.relation, groups[a.relation][pr],
                     rs[0] if len(rs) == 1 else _union(rs))
    return parts


# -- line queries ----------------------------------------------------------

def _line(ctx, rnd, atoms, rels, P, fresh, tag):
    """Path join over the chained atoms; returns its output parts."""
    k = len(atoms)
    if k == 1:
        return _part((), atoms, rels)
    if k <= 4:
        vs = atoms[0].vars[:1] + tuple(a.vars[1] for a in atoms)
        q = Query("sub", vs, tuple(atoms))
        return _one_round_skew(ctx, rnd, q, rels, P, fresh, tag + "b")
    if k % 2 == 0:
        n = k // 2
        p1 = max(1, pow_floor(P, Fraction(1, n + 1)))
        p0 = max(1, P // p1)
        grid = _Grid(fresh, p1)
        head = _line(ctx, rnd, atoms[:-1], rels, p0, grid.fresh_row, tag + "e")
        last, cols = atoms[-1], grid.cols()
        _distribute(ctx, rnd, last.relation, rels[last.relation], cols, tag + "ed")
        return _product(head, _part(cols, [last], rels))

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
    tail = _line(ctx, rnd, atoms[2:], rels, p0, grid.fresh_row, tag + "t")
    light1 = [t for t in rels[s1.relation] if t[1] not in hset]
    light2 = [t for t in rels[s2.relation] if t[0] not in hset]
    cols = grid.cols()
    hcol = _hashed(hash_column(ctx.seed, tag, "lx1"), cols,
                   chain(map(itemgetter(1), light1), map(itemgetter(0), light2)))
    for name, ts, pos in ((s1.relation, light1, 1), (s2.relation, light2, 0)):
        ctx.eng.ship(rnd, name, ts, hcol(itemgetter(pos)))
    parts = _product(_part(cols, [s1, s2], {s1.relation: light1, s2.relation: light2}),
                     tail)

    # heavy x1: one exclusive grid per heavy value
    p1h = max(1, pow_floor(P, Fraction(n - 1, n)))
    s3 = atoms[2]
    for h in heavy:
        p0h = max(1, (deg[h] * p1) // m)
        left = _slice(rels[s1.relation], 1, h)
        keys = _slice(rels[s2.relation], 0, h)
        grid2 = _Grid(fresh, p0h)
        head3, res, _ = _semijoin_into(ctx, rnd, tag + "s", tag + "k", keys, s3,
                                       (0,), rels, p1h, grid2.fresh_row,
                                       tag + "j" + str(h))
        crels = dict(rels)
        crels[head3.relation] = res
        rest = _line(ctx, rnd + 1, [head3] + list(atoms[3:]), crels, p1h,
                     grid2.fresh_row, tag + "h" + str(h))
        lname, cols = ctx.relation(tag + "u", 1), grid2.cols()
        _distribute(ctx, rnd, lname, left, cols, tag + "d" + str(h))
        parts += _plug(_product(rest, _part(cols, [Atom(lname, s1.vars[:1])],
                                            {lname: left})), {x1: h})
    return parts


# -- multi-round skeleton --------------------------------------------------

def _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual):
    """The plan shared by odd cycles, Loomis-Whitney joins and cliques.

    First the light round: a value is heavy for variable v when its degree
    in some atom exceeds m/P^(1/k), k = q.k, and the tuples whose values
    are all light go through one hypercube on shares P^(1/k) per variable,
    which covers the all-light output.  Then, for the i-th variable x of q
    and each heavy value h of x in sorted order, residual(i, x, h, P1) runs
    a semi-join round on P1 = P^((k-1)/k) servers and evaluates the
    residual q_x from round rnd + 1, returning output parts into which
    x = h is plugged.  Returns the output parts.
    """
    k = q.k
    m = max(max(len(rels[a.relation]) for a in q.atoms), 1)
    heavy = _heavy_at(ctx, q, rels, dict.fromkeys(rels, _least(m, P, 1, k, strict=True)))
    shares = _round_shares(q, {v: Fraction(1, k) for v in q.variables}, P)
    light = {a.relation: _heavy_profiles(a, rels[a.relation], heavy).get(frozenset(), [])
             for a in q.atoms}
    # buckets are balanced over the full relations, heavy tuples included
    parts = _hypercube(ctx, rnd, q, light, shares, fresh, tag + "l", rels)
    P1 = max(1, pow_floor(P, Fraction(k - 1, k)))
    for i, x in enumerate(q.variables):
        for h in sorted(heavy[x]):
            parts += _plug(residual(i, x, h, P1), {x: h})
    return parts


def _arc(ctx, rnd, path, keys_a, keys_b, rels, P, fresh, tag, sfx, names):
    """Semi-join both ends of a path of binary atoms, then evaluate it.

    keys_a filters the first atom's first variable and keys_b the last
    atom's second, into relations named after tag + names[0] and
    tag + names[1].  From round rnd + 1 the filtered path is evaluated: two
    atoms with one variable tuple are co-located and intersected in one
    round, any other path is a line join.  Returns its output parts.
    """
    a, rows_a, _ = _semijoin_into(ctx, rnd, tag + names[0], tag + "ka", keys_a,
                                  path[0], (0,), rels, P, fresh, tag + "sa" + sfx)
    b, rows_b, _ = _semijoin_into(ctx, rnd, tag + names[1], tag + "kb", keys_b,
                                  path[-1], (1,), rels, P, fresh, tag + "sb" + sfx)
    crels = dict(rels)
    crels[a.relation] = rows_a
    crels[b.relation] = rows_b
    path, tag = [a] + path[1:-1] + [b], tag + "c" + sfx
    if len(path) == 2 and a.vars == b.vars:
        return _intersect_ship(ctx, rnd + 1, path, crels, P, fresh, tag + "c2")
    return _line(ctx, rnd + 1, path, crels, P, fresh, tag)


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
    var_at = q.variables                     # position i -> variable
    # per-position maximum degree of each value
    deg = [ctx.freqs(rels, atoms[i].relation, 0)
           | ctx.freqs(rels, atoms[(i - 1) % k].relation, 1) for i in range(k)]

    # Case 2: a single skew-aware hypercube round covering the whole output.
    # lo[i] = log_P(m / the maximum degree at i), clamped to [0, 1].  The
    # parity with the least smallest bound takes min(lo), or 1/k when that
    # exceeds 2/k; the other parity takes the rest of 2/k.  On one server
    # every share is 1 whatever the exponents, and log_P needs P > 1.
    lo = [max(Fraction(0), min(Fraction(1), log_base_p(m, P)
                               - log_base_p(max(dg.values(), default=1), P)))
          for dg in deg] if P > 1 else [Fraction(0)] * k
    first = min((0, 1), key=lambda r: min(lo[r::2]))
    e = min(lo) if min(lo) <= Fraction(2, k) else Fraction(1, k)
    exps = {v: e if i % 2 == first else Fraction(2, k) - e
            for i, v in enumerate(var_at)}
    parts = _hypercube(ctx, rnd, q, rels, _round_shares(q, exps, P), fresh,
                       tag + "g")

    # Case 1: exclusive blocks for qualifying heavy pairs at odd distance.
    # a value is a candidate at degree m/P^(2/k), a pair qualifies at
    # deg_i * deg_j >= m^2/P^(2/k)
    least, pair = _least(m, P, 2, k), _least(m * m, P, 2, k)
    cand = [_heavy(dg, least) for dg in deg]
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % 2 == 0:
                continue
            for h in cand[i]:
                for h2 in cand[j]:
                    if deg[i][h] * deg[j][h2] < pair:
                        continue
                    parts += _plug(_cycle_pair(ctx, rnd, q, rels, P, fresh,
                                               i, h, j, h2, tag),
                                   {var_at[i]: h, var_at[j]: h2})
    return parts


def _cycle_pair(ctx, rnd, q, rels, P, fresh, i, h, j, h2, tag):
    """Residual of an even cycle after fixing a qualifying heavy pair at
    positions i and j; returns its output parts over the other variables.
    An adjacent pair's arc runs on P^((k-2)/k) servers.  var_at[i] below
    names q.variables[i], the variable at position i."""
    atoms, k = q.atoms, q.k
    if (i - j) % k == 1:                    # normalize to j == i+1 (mod k)
        i, j, h, h2 = j, i, h2, h
    ptag = tag + "p%d_%d_%s_%s" % (i, j, h, h2)

    def unary(pos, val, side):
        # the values next to val through the atom at pos: those following
        # it (side 0) or preceding it (side 1)
        return _slice(rels[atoms[pos % k].relation], side, val)

    def path(start, end):
        # atoms at positions start..end, i.e. variables var_at[start] ..
        # var_at[end+1]
        return [atoms[t % k] for t in range(start, end + 1)]

    if (j - i) % k == 1:
        arc = path(i + 2, i + k - 2)
        # adjacent: the pair must be an actual tuple of the shared atom
        if (h, h2) not in rels[atoms[i].relation]:
            return []
        ua = unary(i + 1, h2, 0)                 # constrains var_at[i+2]
        ub = unary(i - 1, h, 1)                  # constrains var_at[i-1]
        P1 = max(1, pow_floor(P, Fraction(k - 2, k)))
        return _arc(ctx, rnd, arc, ua, ub, rels, P1, fresh, ptag, "", ("A", "B"))
    # non-adjacent: two arcs evaluated on a grid
    alpha = (j - i) - 2
    beta = k - (j - i) - 2
    g1 = max(1, pow_floor(P, Fraction(alpha + 1, k)))
    g2 = max(1, pow_floor(P, Fraction(beta + 1, k)))
    grid = _Grid(fresh, 8 * g2 + 16)
    u1a = unary(i, h, 0)                     # var_at[i+1]
    u1b = unary(j - 1, h2, 1)                # var_at[j-1]
    first = _arc(ctx, rnd, path(i + 1, j - 2), u1a, u1b, rels,
                 g1, grid.fresh_row, ptag + "x", "", ("A", "B"))
    u2a = unary(j, h2, 0)                    # var_at[j+1]
    u2b = unary(i - 1, h, 1)                 # var_at[i-1]
    second = _arc(ctx, rnd, path(j + 1, i + k - 2), u2a, u2b, rels,
                  g2, grid.fresh_col, ptag + "y", "", ("A", "B"))
    # disjoint arcs: a product
    return _product(first, second)


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
            keypos = tuple(sorted(base.vars.index(v) for v in keyvars))
            # the key rows over keyvars, reordered to base's variable order
            keys = _reordered(_slice(rels[a.relation], pos, h),
                              [keyvars.index(base.vars[kp]) for kp in keypos])
            b, srels[b.relation], _ = _semijoin_into(
                ctx, rnd, tag + "w", tag + "kw", keys, base, keypos, rels, P1,
                fresh, tag + "s%s_%s_%s" % (x, a.relation, h))
            semis.append(b)
        return _intersect_ship(ctx, rnd + 1, semis, srels, P1, fresh,
                               tag + "i%s_%s" % (x, h))

    return _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual)


# -- clique queries --------------------------------------------------------

def _clique(ctx, rnd, q, rels, P, fresh, tag):
    """Clique join; atoms are binary, one per variable pair (two parallel
    atoms with the same `vars` allowed only at k == 2).  Returns its
    output parts."""
    if q.k == 2:
        return _intersect_ship(ctx, rnd, q.atoms, rels, P, fresh, tag + "i")

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
                for b, res, _ in replaced[a.relation]:
                    sub_atoms.append(b)
                    sub_rels[b.relation] = res
            else:
                sub_atoms.append(a)
        sub = Query("sub", tuple(others), tuple(sub_atoms))
        return _clique(ctx, rnd + 1, sub, sub_rels, P1, fresh,
                       tag + "h%s_%s" % (x, h))

    return _heavy_residuals(ctx, rnd, q, rels, P, fresh, tag, residual)


# -- covering-atom queries -------------------------------------------------

def _covering(ctx, rnd, q, rels, P, fresh, tag):
    """Covering-atom join: the covering atom is semi-joined against each
    other atom in one round, and the semi-joins' results are intersected
    in the next.  An atom's keys are its own tuples reordered to the
    covering atom's variable order (`_reordered`): no atom repeats a
    variable, so that order permutes the atom's columns, and its keys are
    distinct with no set built."""
    cover = covering_atom(q)
    others = [a for a in q.atoms if a is not cover]
    if not others:
        return _part((), [cover], rels)
    semis, srels = [], {}
    for a in others:
        keypos = tuple(sorted(cover.vars.index(v) for v in a.vars))
        keys = _reordered(rels[a.relation],
                          [a.vars.index(cover.vars[i]) for i in keypos])
        b, srels[b.relation], joined = _semijoin_into(
            ctx, rnd, tag + "c", tag + "kc", keys, cover, keypos, rels, P,
            fresh, tag + "s" + a.relation)
        semis.append(b)
    if len(semis) == 1:
        return joined       # a lone result is never shipped: no part of its own
    return _intersect_ship(ctx, rnd + 1, semis, srels, P, fresh, tag + "i")


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
# A plan is a sub-plan body (ctx, rnd, q, rels, P, fresh, tag) -> parts, as
# any other; `run_algorithm` starts it at round 0 on p servers of `ctx.root`
# under its strategy's tag.  No plan counts rounds: the ledger does.

def _hc(ctx, rnd, q, rels, P, fresh, tag):
    """Plain one-round hypercube with size-optimized shares (no skew
    handling)."""
    sizes = {a.relation: max(1, ctx.eng.widths[a.relation] * len(rels[a.relation]))
             for a in q.atoms}
    alloc = share_lp(q, sizes, P)
    ctx.extras.update({"shares": alloc.shares, "lambda": alloc.lam})
    return _hypercube(ctx, rnd, q, rels, alloc.shares, fresh, tag)


def _one_sided_skew(ctx, rnd, q, rels, P, fresh, tag):
    """Binary join resilient to skew on one side.

    The side with the lower maximum key frequency plays the skew-free role,
    each side's keys counted only for that maximum; heavy key values of
    the other side get exclusive blocks of servers, the rest is a hash
    join on the shared key (`_skew_join_ship`).
    """
    a, b = q.atoms
    key = [v for v in a.vars if v in b.vars]
    ta, tb = rels[a.relation], rels[b.relation]
    ka = tuple(a.vars.index(v) for v in key)
    kb = tuple(b.vars.index(v) for v in key)
    top_a, top_b = (max(Counter(map(_key(kp), ts)).values(), default=0)
                    for kp, ts in ((ka, ta), (kb, tb)))
    if top_b < top_a:
        a, b, ta, tb, ka, kb = b, a, tb, ta, kb, ka
    groups, hblocks = _skew_join_ship(
        ctx, rnd, a.relation, ta, ka, b.relation, tb, kb, P, fresh,
        hash_column(ctx.seed, tag, "h"), hash_column(ctx.seed, tag, "p"))
    ctx.extras.update(heavy_keys=len(hblocks),
                      heavy_servers=sum(len(g) for g in hblocks.values()))
    return _part(groups, q.atoms, rels)


def _cycle(ctx, rnd, q, rels, P, fresh, tag):
    body = _cycle_odd if q.k % 2 else _cycle_even
    return body(ctx, rnd, q, rels, P, fresh, tag)


# -- the strategy table ----------------------------------------------------

class Strategy(NamedTuple):
    shape: Callable     # q -> the query the plan runs on, or None
    plan: Callable      # (ctx, rnd, shaped q, rels, P, fresh, tag) -> parts
    tag: str            # the hash tag run_algorithm passes the plan
    rounds: Callable    # q -> declared upper bound on the rounds used


_ONE_SIDED = Strategy(_two_atoms(lambda a, b: bool(a & b)), _one_sided_skew,
                      "j1s", lambda q: 1)
_CYCLE = Strategy(lambda q: _chain(q, True), _cycle, "C",
                  lambda q: (q.num_atoms + 1) // 2)

ALGORITHMS = {
    "hc": Strategy(lambda q: q, _hc, "hc", lambda q: 1),
    "one_round_skew": Strategy(lambda q: q, _one_round_skew, "ors", lambda q: 1),
    "join_one_sided_skew": _ONE_SIDED,
    # one atom's variables contain the other's: the key-set side has every
    # key at most once, so it plays the skew-free role
    "semi_join": _ONE_SIDED._replace(
        shape=_two_atoms(lambda a, b: a <= b or b <= a)),
    "line": Strategy(lambda q: _chain(q, False),
                     lambda ctx, rnd, q, *rest: _line(ctx, rnd, q.atoms, *rest),
                     "L", lambda q: max(1, (q.k - 1) // 2)),   # k-1 atoms
    "cycle": _CYCLE,
    "triangle": _CYCLE._replace(shape=lambda q: _chain(q, True) if q.k == 3 else None),
    "lw": Strategy(_as_is(is_lw), _lw, "W", lambda q: 2),
    "clique": Strategy(_as_is(is_clique), _clique, "K", lambda q: q.k - 1),
    "covering": Strategy(_as_is(lambda q: covering_atom(q) is not None),
                         _covering, "V", lambda q: min(q.num_atoms - 1, 2)),
}


@dataclass
class AlgorithmResult:
    name: str
    query: Query
    p: int
    output: set               # rows in query.variables order
    report: LoadReport
    extras: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.report.rounds

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


def _shaped(name: str, strategy: Strategy, db):
    """(the query that strategy name runs db.query as, {relation: its
    input}); QueryError when the shape does not accept the query."""
    q = strategy.shape(db.query)
    if q is None:
        raise QueryError("%s does not accept %s" % (name, db.query.render()))
    rels = {}
    for a in q.atoms:
        src = db.query.atom(a.relation).vars
        ts = db.relations[a.relation].tuples
        rels[a.relation] = ts if a.vars == src else \
            tuple(map(itemgetter(*map(src.index, a.vars)), ts))
    return q, rels


def run_algorithm(name: str, db, p: int, seed: int,
                  counting: bool = False, *, _shared=None) -> AlgorithmResult:
    """Run strategy `name` ("auto" picks one by shape) on `db` with nominal
    server count p >= 1 and the given seed.

    Raises `QueryError` when the strategy's shape does not accept the
    query.  A storing run's output is the union of its plan's parts, each
    joined over the relations it names, in db.query.variables order; each
    part's rows go into the larger of the two sets, so none is copied.  With
    ``counting=True`` the run is a dry run for its loads: the engine keeps
    only the load ledger (no per-server tuple storage) and no part is
    evaluated, so the returned output is an empty set.  Loads, rounds and
    extras are the same as in a storing run.  Used for cheap dry runs on
    large instances.

    `_shared` is internal to `em.DryRuns`: one `SweepInputs` that the
    runs of one strategy on one instance with one seed share.  A run given
    it takes its shaped query and inputs from it, and reads from it
    the value counts and value lists of the input columns and the rank
    orders of hashed variables, adding those it lacks; it redoes only what
    depends on p: thresholds, shares, bucket maps, route keys and the
    ledger.  A run without it shapes its input and computes all of these
    afresh, and keeps nothing.
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
    if _shared is None:
        q, rels = _shaped(name, strategy, db)
    else:
        if _shared.query is None:
            _shared.query, _shared.rels = _shaped(name, strategy, db)
        q, rels = _shared.query, _shared.rels
    ctx = _Ctx(Engine(db.widths_bits(), store_tuples=not counting), seed,
               max(ri.value_bits for ri in db.relations.values()), _shared)
    parts = strategy.plan(ctx, 0, q, rels, p, ctx.root, strategy.tag)
    rows = set()
    if not counting:
        for part in parts:
            got = _join_part(part, db.query.variables)
            if len(got) > len(rows):
                rows, got = got, rows
            rows |= got
    return AlgorithmResult(name, db.query, p, rows, ctx.eng.report,
                           {"nominal_p": p, "physical_servers": ctx.servers,
                            **ctx.extras})
