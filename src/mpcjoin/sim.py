"""Synchronous shared-nothing simulator with exact load accounting.

The model: servers exchange tuples in synchronized rounds.  A tuple may be
sent to any set of servers, but the destination set must be a pure function
of the tuple and of public data statistics.  Every shipment goes through
one primitive, `Engine.ship`, which spot-checks that on every call;
delivering the same tuple to the same server twice in one round is an
error.  A shipment is a list or tuple of tuples; its route is a `Route`
of keys(tuples), computed one column at a time, and dests(key), a tuple
of servers, evaluated once per distinct key.  Both modes count the keys
and charge each key's count to that key's servers, with no per-tuple
work beyond computing the keys; storing mode also groups the tuples by
destination tuple and keeps each delivered group once, as one tuple
shared by its servers, with no hash table per group.  So
replication costs per group, not per delivered copy, and the checks and
the ledger are the same as for one delivery at a time.  The per-round
load of a server is the data it receives that round; the cost of a run
is the maximum over servers and rounds, in tuples and in bits.

Rounds are addressed by index rather than opened/closed sequentially, so
that concurrently running sub-plans of different depths can deposit their
shipments into the same global round.

This module holds the engine, its ledger and the join, and no placement
arithmetic: a route's servers come from the strategy that builds it, which
fills its placement maps before it ships, a column of distinct keys at a
time through `rng.hash_column`, so dests(key) is a lookup.  A hashed
route's key is the index of its destination in a table, not the join key
it hashes, so such a shipment has at most one key per destination.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import add, itemgetter
from typing import Callable, NamedTuple


class RoutingError(RuntimeError):
    """A shipment broke the routing contract: its route is not a pure
    function of the tuple, or it delivers a tuple twice to one server in
    one round."""


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

    def max_bits(self) -> int:
        """The most bits one server receives in one round."""
        top = 0
        for rnd in self.by_relation:
            bits = Counter()
            for (s, rel), n in rnd.items():
                bits[s] += n * self.widths[rel]
            top = max(top, max(bits.values(), default=0))
        return top

    def max_tuples(self) -> int:
        """The most tuples one server receives in one round."""
        return max((max(self.server_tuples(r).values(), default=0)
                    for r in range(self.rounds)), default=0)

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
    that key, as a tuple of servers; a per-tuple route keys t by t itself.
    """
    keys: Callable
    dests: Callable


class Engine:
    """Delivers shipments round by round and keeps the load ledger.

    `ship` is the one way to deliver tuples.  Every tuple goes once to each
    server its route names, and the route must be a pure function of the
    tuple, which is spot-checked on every shipment.  A shipment is a list
    or tuple, and its route names a tuple of servers per key.  Delivery
    is grouped per destination tuple: a server's holdings and ledger
    entry grow by a whole group at a time, and a group's tuples are kept
    once, in one tuple shared by all of its servers.  With ``store_tuples=True``
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

        `tuples` is a list or tuple and `route` a `Route`, else
        `TypeError`, and dests returns a tuple of servers, else
        `RoutingError`; the keys are computed for the whole shipment at
        once and counted, and dests runs once per distinct key.  Each
        destination tuple is charged the count of its keys; in storing mode
        the tuples are also grouped by destination tuple, and each group
        reaches each of its servers in one step.  The first 64 tuples check
        that the route depends on the tuple alone: their keys are computed
        again and dests runs again on each of their keys, both in reverse
        order, and must give equal keys and equal tuples.  In
        storing mode a tuple that reaches a server it already reached in
        this round (a route naming a server twice, or a tuple repeated in
        the input) raises `RoutingError`, and the failed shipment delivers
        nothing; counting mode charges every server named.  A shipment
        with no deliveries opens no round.
        """
        if rel not in self.widths:
            raise KeyError("unknown relation %r" % rel)
        if rnd < 0:
            raise ValueError("negative round")
        if not isinstance(route, Route):
            raise TypeError("route for %s is not a Route" % rel)
        if not isinstance(tuples, (list, tuple)):
            raise TypeError("shipment of %s is not a list or tuple" % rel)
        keys = iter(route.keys(tuples))
        head = list(islice(keys, 64))
        first = tuples[:len(head)]
        rekeyed = list(route.keys(first[::-1]))[::-1]
        if rekeyed != head:
            raise RoutingError("keys for %s/%s are not tuple-determined"
                               % (rel, next((t for t, k, j in zip(first, head, rekeyed)
                                             if k != j), first[:1])))
        # the distinct keys in order of appearance, so head's come first
        counts = Counter(head)
        if self.store_tuples:
            keys = list(keys)
        counts.update(keys)
        if counts.total() != len(tuples):
            raise RoutingError("keys for %s give %d keys for %d tuples"
                               % (rel, counts.total(), len(tuples)))
        servers = list(map(route.dests, counts))
        if not {tuple}.issuperset(map(type, servers)):
            raise RoutingError("route for %s gives servers that are not a tuple" % rel)
        checked = list(islice(counts, len(set(head))))
        again = list(map(route.dests, checked[::-1]))[::-1]
        if again != servers[:len(checked)]:
            k = next(k for k, a, d in zip(checked, again, servers) if a != d)
            raise RoutingError("route for %s/%s is not tuple-determined"
                               % (rel, first[head.index(k)]))
        sizes = defaultdict(int)
        for dests, n in zip(servers, counts.values()):
            sizes[dests] += n
        if self.store_tuples:
            groups = defaultdict(list)      # dests -> its tuples
            of_key = dict(zip(counts, map(groups.__getitem__, servers)))
            deque(map(list.append, map(of_key.__getitem__, chain(head, keys)), tuples), 0)
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

_EMPTY = itemgetter(slice(0, 0))  # a tuple t -> (), without a Python call


def _columns(idx):
    """t -> tuple(t[i] for i in idx)."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else _EMPTY


def _key(idx):
    """t -> the values of t at idx, as a join key: a scalar for one index."""
    return itemgetter(*idx) if idx else _EMPTY


def join_atoms(atoms, rel_tuples, out_vars, guard: int = 0):
    """Join the given atoms; returns assignments projected onto out_vars.

    A pipeline on tuple rows, which start as the smallest atom's tuples;
    the next atom is the pending one sharing the most variables with the
    rows (ties keep the smallest-first order).  Atoms must not repeat a
    variable, and a relation missing from rel_tuples raises KeyError.  A
    step is one of three kinds:
    - a filter, for an atom with no new variable, keeps the rows it holds;
    - a key-unique step, for an atom that holds each key (its values at the
      shared variables) once, maps a key to the atom's own tuple and builds
      a tail of new values only for a row that hits; when the rows'
      variables are the atom's first ones, in order, a row and its tail
      make the hit tuple, so the step yields the atom's own tuples and a
      semi-join's output shares its input's tuple objects;
    - otherwise a binding step binds the atom's new variable v that the
      most other pending atoms bind.  Each atom c binding v gives a row r
      the set cand_c(r) of c's values at v in the tuples that agree with r;
      r iterates the smallest set and probes the others, as a Generic Join
      step does.  Only keys that rows probe are indexed, and the atom stays
      pending until all of its variables are bound.
    A step is one `_step` call that returns only its rows, so none of its
    indexes outlives it.  It takes the rows before it a chunk at a time
    off the end of their list, freeing each row once extended.

    Bound: a filter or key-unique step makes at most the rows it reads, and
    a binding step on rows R at most min over c of |R join pi(c)|, pi(c)
    being c projected onto v and its variables shared with the rows.
    Proof: r yields one row per value in all the sets cand_c(r), at most
    |cand_c(r)| for each c, and summed over r, |cand_c(r)| counts the pairs
    of r and a tuple of pi(c) that agree, which is |R join pi(c)|.  So when
    some c holds one v per key, the step makes at most |R| rows; if every
    binding step has such a c, no intermediate result is larger than the
    first atom.

    `guard`, if positive, bounds every step's rows, the returned set
    counting as the last step's; it is checked after every chunk, and after
    every row of a binding step.
    """
    atoms = sorted(atoms, key=lambda a: (len(rel_tuples[a.relation]), a.relation))
    pending = atoms[1:]
    cols = list(atoms[0].vars)          # the variables of a row, in order
    rows, owned = rel_tuples[atoms[0].relation], False
    while pending and rows:
        a = max(pending, key=lambda a: sum(v in cols for v in a.vars))
        rows, owned = _step(a, rel_tuples, cols, rows, owned, pending, guard), True
    if pending:                         # a step left no rows
        return set()
    if cols == list(out_vars):
        final = iter
    else:
        proj = _columns([cols.index(v) for v in out_vars])
        final = lambda rows: map(proj, rows)
    return _pour(rows, owned, final, set(), guard)


_ROWS = 1 << 12                         # rows a step takes at a time


def _pour(rows, owned, extend, out, guard):
    """Adds extend(chunk) to out, a list or a set, for the rows a chunk at
    a time, and returns out.  A list of rows that an earlier step made is
    emptied from its end as it goes, so each chunk is freed once extended;
    `guard` is checked after every chunk."""
    put = out.extend if type(out) is list else out.update
    while rows:
        if owned:
            chunk = rows[-_ROWS:]
            del rows[-_ROWS:]
        else:
            chunk, rows = rows, ()
        put(extend(chunk))
        if guard and len(out) > guard:
            raise MemoryError("instance too large for oracle join")
    return out


def _step(a, rel_tuples, cols, rows, owned, pending, guard) -> list:
    """One step of `join_atoms` on atom a: returns the new rows, adds the
    variables it binds to cols, and removes a from pending once all of a's
    variables are bound."""
    ts = rel_tuples[a.relation]
    shared = [i for i, v in enumerate(a.vars) if v in cols]
    new = [i for i, v in enumerate(a.vars) if v not in cols]
    if not new:                         # a key is the atom's tuple or value
        pending.remove(a)
        held = dict.fromkeys(ts if len(a.vars) > 1 else map(itemgetter(0), ts))
        probe = _key([cols.index(v) for v in a.vars])
        return _pour(rows, owned, lambda rows: compress(
            rows, map(held.__contains__, map(probe, rows))), [], guard)
    probe = _key([cols.index(a.vars[i]) for i in shared])
    index = dict(zip(map(_key(shared), ts), ts))
    if len(index) == len(ts):
        pending.remove(a)
        if cols == list(a.vars[:len(cols)]):
            # a row and its tail make the hit tuple: yield the hit itself
            def extend(rows):
                return filter(None, map(index.get, map(probe, rows)))
        else:
            tail = _columns(new)

            def extend(rows):
                hits = list(map(index.get, map(probe, rows)))
                return map(add, compress(rows, hits), map(tail, filter(None, hits)))
        cols += [a.vars[i] for i in new]
        return _pour(rows, owned, extend, [], guard)
    del index                           # not key-unique
    v = max((a.vars[i] for i in new),
            key=lambda v: sum(v in b.vars for b in pending))
    if len(new) == 1:
        pending.remove(a)
    cands = [_candidates(rel_tuples[c.relation], c.vars, cols, v, rows)
             for c in [a] + [b for b in pending if b is not a and v in b.vars]]
    cols.append(v)
    return _pour(rows, owned, lambda rows: _bind(rows, cands, guard), [], guard)


def _candidates(ts, avars, cols, v, rows):
    """(index, probe) of one atom that binds v: index maps each key that a
    row probes (the row's values at the atom's variables in cols) to the
    values at v of the atom's tuples with that key, as the keys of a dict."""
    shared = [i for i, w in enumerate(avars) if w in cols]
    key = _key(shared)
    probe = _key([cols.index(avars[i]) for i in shared])
    need = dict.fromkeys(map(probe, rows))
    hit = list(compress(ts, map(need.__contains__, map(key, ts))))
    index = defaultdict(dict)
    deque(map(dict.setdefault, map(index.__getitem__, map(key, hit)),
              map(itemgetter(avars.index(v)), hit)), 0)
    return index, probe


def _bind(rows, cands, guard):
    """Each row extended by every value in all of its candidate sets: the
    smallest set is iterated and the others are probed."""
    made = 0
    for row in rows:
        sets = sorted((index.get(probe(row), ()) for index, probe in cands), key=len)
        xs = sets[0]
        for other in sets[1:]:
            xs = filter(other.__contains__, xs)
        xs = list(xs)
        made += len(xs)
        if guard and made > guard:
            raise MemoryError("instance too large for oracle join")
        yield from map(row.__add__, zip(xs))


def oracle_join(db, guard: int = 10 ** 7):
    """Reference answer computed centrally, with an intermediate-size guard."""
    rel_tuples = {r: ri.tuples for r, ri in db.relations.items()}
    return join_atoms(db.query.atoms, rel_tuples, db.query.variables, guard=guard)
