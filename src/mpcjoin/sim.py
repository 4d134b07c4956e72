"""Synchronous shared-nothing simulator with exact load accounting.

The model: servers exchange tuples in synchronized rounds.  A tuple may be
sent to any set of servers, but the destination set must be a pure function
of the tuple and of public data statistics.  Every shipment goes through
one primitive, `Engine.ship`, which spot-checks that on every call;
delivering the same tuple to the same server twice in one round is an
error.  A route is a `Route` of keys(tuples), computed one column at a
time, and dests(key), evaluated once per distinct key; a plain callable is
the route whose key is the tuple itself.  Counting mode charges each
key's count to that key's servers, with no per-tuple work beyond
computing the keys; storing mode also groups the tuples by destination
set and keeps each delivered group once, as one tuple shared by its
servers, with no hash table per group.  So replication costs per group,
not per delivered copy, and the checks and the ledger are the same as for
one delivery at a time.  The per-round load of a server is the data it
receives that round; the cost of a run is the maximum over servers and
rounds, reported both in tuples and in bits.

Rounds are addressed by index rather than opened/closed sequentially, so
that concurrently running sub-plans of different depths can deposit their
shipments into the same global round.

This module does no hashing: a route's servers come from the strategy
that builds it, which places tuples by `rng.hash_family`.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import add, itemgetter
from typing import Callable, NamedTuple

from .query import Query


class RoutingError(RuntimeError):
    """A shipment broke the routing contract: its route is not a pure
    function of the tuple, or it delivers a tuple twice to one server in
    one round."""


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
    stride = {}
    step = 1
    for v in reversed(split):
        stride[v] = step
        step *= shares[v]
    bound = [(avars.index(v), v, stride[v]) for v in split if v in avars]
    free = [0]
    for v in split:
        if v not in avars:
            free = [f + d * stride[v] for f in free for d in range(shares[v])]
    return bound, free


@dataclass
class LoadReport:
    """Per-round receive counts of one simulated run.

    `by_relation[r]` maps (server, relation) to the tuples that server
    received in round r (0-based); every per-server, per-round total in
    tuples or bits follows from it and the relation widths.
    """
    widths: dict = field(default_factory=dict)   # relation -> bits per tuple
    by_relation: list = field(default_factory=list)  # per round: {(server, rel): tuples}

    @property
    def rounds(self) -> int:
        return len(self.by_relation)

    def server_tuples(self, r: int) -> Counter:
        """{server: tuples received in round r}."""
        out = Counter()
        for (s, _), n in self.by_relation[r].items():
            out[s] += n
        return out

    def round_max_bits(self, r: int) -> int:
        bits = Counter()
        for (s, rel), n in self.by_relation[r].items():
            bits[s] += n * self.widths[rel]
        return max(bits.values(), default=0)

    def round_max_tuples(self, r: int) -> int:
        return max(self.server_tuples(r).values(), default=0)

    def max_bits(self) -> int:
        return max((self.round_max_bits(r) for r in range(self.rounds)), default=0)

    def max_tuples(self) -> int:
        return max((self.round_max_tuples(r) for r in range(self.rounds)), default=0)

    def round_total_tuples(self, r: int) -> int:
        return sum(self.by_relation[r].values())

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["round", "server", "relation", "tuples", "bits_per_tuple"])
            for r in range(self.rounds):
                for (s, rel), cnt in sorted(self.by_relation[r].items()):
                    w.writerow([r + 1, s, rel, cnt, self.widths.get(rel, 0)])


class Route(NamedTuple):
    """A route given column-wise.

    keys(tuples) yields one key per tuple, in order, and must depend on
    each tuple alone; dests(key) names the servers of every tuple with
    that key, as a tuple or frozenset (used as given) or any other iterable.
    """
    keys: Callable
    dests: Callable


def _itself(tuples):
    return tuples


def _servers(dests):
    """A route's servers as given when a tuple or frozenset, else a tuple."""
    return dests if type(dests) is tuple or type(dests) is frozenset else tuple(dests)


class Engine:
    """Delivers shipments round by round and keeps the load ledger.

    `ship` is the one way to deliver tuples.  Every tuple goes once to each
    server its route names, and the route must be a pure function of the
    tuple, which is spot-checked on every shipment.  Delivery is grouped
    per destination set: a server's holdings and ledger entry grow by a
    whole group at a time, and a group's tuples are kept once, in one
    tuple shared by all of its servers.  With ``store_tuples=True``
    the engine keeps what each server received, and a tuple delivered
    twice to one server in one round raises `RoutingError`.  With
    ``store_tuples=False`` (counting mode) the same `ship` calls keep only
    the ledger: no holdings and no repeat check, which makes dry runs on
    large instances cheap.
    """

    def __init__(self, widths: dict, store_tuples: bool = True):
        self.widths = dict(widths)     # relation -> bits per tuple
        self.store_tuples = store_tuples
        self.report = LoadReport(self.widths)
        self._held = {}                # round -> {(server, rel): [group tuple]}

    def register_relation(self, rel: str, width: int) -> None:
        """Declare an intermediate relation (e.g. a semi-join result)."""
        self.widths.setdefault(rel, width)

    def ship(self, rnd: int, rel: str, tuples, route) -> None:
        """Deliver every tuple of `rel` to each server of its route in
        round `rnd` (0-based).

        `route` is a `Route`, or a callable tup -> servers, which is the
        route whose key is the tuple itself.  The keys are computed for the
        whole shipment at once and dests runs once per distinct key.  In
        counting mode each key's count is charged to its servers; in
        storing mode the tuples are grouped by destination set, and each
        group reaches each of its servers in one step.  The first 64
        tuples check that the route depends on the tuple alone: their keys
        are computed again, in reverse order, and dests runs twice on each
        of their keys (a dests that returns the same object twice passes
        without sorting).  In storing mode a tuple that reaches a server it
        already reached in this round (a route naming a server twice, or a
        tuple repeated in the input) raises `RoutingError`, and the failed
        shipment delivers nothing; counting mode charges every server
        named.  A shipment with no deliveries opens no round.
        """
        if rel not in self.widths:
            raise KeyError("unknown relation %r" % rel)
        if rnd < 0:
            raise ValueError("negative round")
        if not isinstance(route, Route):
            route = Route(_itself, route)
        if not isinstance(tuples, (list, tuple, set, frozenset)):
            tuples = list(tuples)
        keys = iter(route.keys(tuples))
        head = list(islice(keys, 64))
        first = list(islice(tuples, len(head)))
        rekeyed = list(route.keys(first[::-1]))[::-1]
        if rekeyed != head:
            raise RoutingError("keys for %s/%s are not tuple-determined"
                               % (rel, next((t for t, k, j in zip(first, head, rekeyed)
                                             if k != j), first[:1])))
        # the distinct keys in order of appearance, and their servers
        if self.store_tuples:
            keys = head + list(keys)
            total = len(keys)
            distinct = list(dict.fromkeys(keys))
        else:
            counts = Counter(head)
            counts.update(keys)
            total = sum(counts.values())
            distinct = list(counts)
        if total != len(tuples):
            raise RoutingError("keys for %s give %d keys for %d tuples"
                               % (rel, total, len(tuples)))
        checked = len(set(head))        # head's keys come first
        servers = []
        for k in distinct[:checked]:
            dests = _servers(route.dests(k))
            again = route.dests(k)
            if again is not dests and sorted(again) != sorted(dests):
                raise RoutingError("route for %s/%s is not tuple-determined"
                                   % (rel, first[head.index(k)]))
            servers.append(dests)
        servers += map(route.dests, distinct[checked:])
        if not {tuple, frozenset}.issuperset(map(type, servers)):
            servers = list(map(_servers, servers))
        if self.store_tuples:
            groups = defaultdict(list)      # dests -> its tuples
            of_key = dict(zip(distinct, map(groups.__getitem__, servers)))
            deque(map(list.append, map(of_key.__getitem__, keys), tuples), 0)
            sizes = {d: len(g) for d, g in groups.items()}
        else:
            sizes = defaultdict(int)
            for dests, n in zip(servers, counts.values()):
                sizes[dests] += n
        load = Counter()
        for dests, n in sizes.items():
            for s in dests:
                load[s] += n
        if not load:
            return
        if min(load) < 0:
            raise ValueError("negative server id in a route for %s" % rel)
        if self.store_tuples:
            self._hold(rnd, rel, groups)
        ledger = self.report.by_relation
        while len(ledger) <= rnd:
            ledger.append({})
        by_rel = ledger[rnd]
        for s, n in load.items():
            by_rel[s, rel] = by_rel.get((s, rel), 0) + n

    def _hold(self, rnd, rel, groups) -> None:
        """Keep the groups {dests: tuples} of one shipment, or raise
        `RoutingError` on a repeated delivery and keep none of them.

        Within one shipment the groups are disjoint unless a tuple repeats
        in one of them, so each group is compared only with its own size,
        its own servers and what earlier shipments left in this round.  A
        group is held as a tuple; the set that tests it lives only while
        the group is checked (`set.isdisjoint` takes the held tuples as
        they are).
        """
        held = self._held.setdefault(rnd, {})
        fresh = []
        for dests, group in groups.items():
            if not dests:
                continue
            tups = set(group)
            named = set()
            for s in dests:
                earlier = held.get((s, rel), ())
                if len(tups) < len(group) or s in named \
                        or not all(map(tups.isdisjoint, earlier)):
                    seen = tups if s in named else set().union(*earlier)
                    raise RoutingError("%s/%s delivered twice to server %d in round %d"
                                       % (rel, _repeated(group, seen), s, rnd))
                named.add(s)
            fresh.append((dests, tuple(group)))
        for dests, tups in fresh:
            for s in dests:
                held.setdefault((s, rel), []).append(tups)

    def holdings(self, server: int, rel: str) -> set:
        """The tuples of `rel` that `server` received, over all rounds."""
        if not self.store_tuples:
            raise RuntimeError("engine is in counting mode")
        return set().union(*(t for h in self._held.values()
                             for t in h.get((server, rel), ())))


def _repeated(group, held):
    """The first tuple of `group` that repeats in it or is in `held`."""
    seen = set(held)
    for t in group:
        if t in seen:
            return t
        seen.add(t)


# -- joins -----------------------------------------------------------------

def _columns(idx):
    """t -> tuple(t[i] for i in idx)."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else (lambda t: ())


def _key(idx):
    """t -> the values of t at idx, as a join key: a scalar for one index."""
    return itemgetter(*idx) if idx else (lambda t: ())


def join_atoms(atoms, rel_tuples, out_vars, guard: int = 0):
    """Join the given atoms; returns assignments projected onto out_vars.

    Plain index-based pipeline on tuple rows: atoms are sorted smallest
    first, and the next atom joined is always the one sharing the most
    variables with the prefix (ties keep the smallest-first order).  Each
    step indexes the next atom on those shared variables and extends every
    row by the values of its new variables.  There are two kinds of step.
    When the atom holds each key at most once, the index maps a key to its
    one tail, and the rows that hit are extended by C-level maps; otherwise
    a key's tails are listed and each row is extended by all of them.  An
    atom with no new variables is a filter that keeps the rows whose shared
    values it holds.  Atoms must not repeat a variable.  `guard`, if
    positive, bounds every intermediate result size.
    """
    atoms = sorted(atoms, key=lambda a: (len(rel_tuples.get(a.relation, ())), a.relation))
    first, rest = atoms[0], atoms[1:]
    cols = list(first.vars)             # the variables of a row, in order
    rows = list(rel_tuples.get(first.relation, ()))
    while rest and rows:
        a = max(rest, key=lambda a: sum(v in cols for v in a.vars))
        rest.remove(a)
        shared = [i for i, v in enumerate(a.vars) if v in cols]
        new = [i for i, v in enumerate(a.vars) if v not in cols]
        ts = rel_tuples.get(a.relation, ())
        key = _key(shared)
        probe = _key([cols.index(a.vars[i]) for i in shared])
        if not new:
            held = set(map(key, ts))
            rows = list(compress(rows, map(held.__contains__, map(probe, rows))))
        elif len(index := dict(zip(map(key, ts), map(_columns(new), ts)))) == len(ts):
            # key-unique: a row's tail, if any, is a non-empty tuple
            tails = list(map(index.get, map(probe, rows)))
            rows = list(map(add, compress(rows, tails), filter(None, tails)))
        else:
            index = defaultdict(list)
            deque(map(list.append, map(index.__getitem__, map(key, ts)),
                      map(_columns(new), ts)), 0)
            nxt = []
            for row, tails in filter(itemgetter(1), zip(rows, map(index.get, map(probe, rows)))):
                nxt += map(row.__add__, tails)
                if guard and len(nxt) > guard:
                    raise MemoryError("instance too large for oracle join")
            rows = nxt
        if guard and len(rows) > guard:
            raise MemoryError("instance too large for oracle join")
        cols += [a.vars[i] for i in new]
    if not rows:
        return set()
    if cols == list(out_vars):
        return set(rows)
    return set(map(_columns([cols.index(v) for v in out_vars]), rows))


def local_join(q: Query, rel_tuples: dict):
    """Evaluate the full join of q over the given relation contents."""
    return join_atoms(q.atoms, rel_tuples, q.variables)


def oracle_join(db, guard: int = 10 ** 7):
    """Reference answer computed centrally, with an intermediate-size guard."""
    rel_tuples = {r: ri.tuples for r, ri in db.relations.items()}
    return join_atoms(db.query.atoms, rel_tuples, db.query.variables, guard=guard)
