"""Synchronous shared-nothing simulator with exact load accounting.

The model: servers exchange tuples in synchronized rounds.  A tuple may be
sent to any set of servers, but the destination set must be a pure function
of the tuple and of public data statistics.  Every shipment goes through
one primitive, `Engine.ship`, which spot-checks that on every call by
re-evaluating routes; delivering the same tuple to the same server twice in
one round is an error.  `ship` groups the tuples of a shipment by their
destination set and delivers each group to each of its servers in one
step, so replication costs per group, not per delivered copy; the checks
and the ledger are the same as for one delivery at a time.  Counting mode
is the same `ship` without holdings: it keeps only the ledger, so it
stores no tuples and does not check for repeats.  The per-round load of a
server is the data it receives that round; the cost of a run is the
maximum over servers and rounds, reported both in tuples and in bits.

Rounds are addressed by index rather than opened/closed sequentially, so
that concurrently running sub-plans of different depths can deposit their
shipments into the same global round.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

from .query import Query
from .rng import derive_key, mix64

_MASK = (1 << 64) - 1


class RoutingError(RuntimeError):
    """A shipment broke the routing contract: its route is not a pure
    function of the tuple, or it delivers a tuple twice to one server in
    one round."""


def hash_family(seed: int, *path):
    """An independent hash function h: value(s) -> bucket in [1, buckets].

    The family member is selected by the key path, so distinct (plan
    variant, variable) pairs hash independently.  Values may be ints or
    tuples of ints (multi-variable keys are folded together).
    """
    key = derive_key(seed, *path)

    def h(value, buckets: int) -> int:
        if buckets <= 1:
            return 1
        if isinstance(value, tuple):
            acc = key
            for v in value:
                acc = mix64(acc ^ (v & _MASK))
            return acc % buckets + 1
        return mix64((value & _MASK) ^ key) % buckets + 1

    return h


def hc_grid(avars, order, shares: dict):
    """The mixed-radix cell arithmetic of one atom's hypercube shipment.

    Cells are linear indices of the mixed-radix coordinate over the
    variables of `order` whose share exceeds 1, the last one varying
    fastest.  Returns (bound, free): `bound` lists (position in avars,
    variable, stride) for every such variable the atom binds, and a tuple t
    over avars goes to cells c0 + f for f in `free`, in that order, where
    c0 = sum((b - 1) * stride) over `bound`, b the bucket in [1, share] of
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

    def server_total_tuples(self, s) -> int:
        return sum(n for rnd in self.by_relation
                   for (srv, _), n in rnd.items() if srv == s)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["round", "server", "relation", "tuples", "bits_per_tuple"])
            for r in range(self.rounds):
                for (s, rel), cnt in sorted(self.by_relation[r].items()):
                    w.writerow([r + 1, s, rel, cnt, self.widths.get(rel, 0)])


class Engine:
    """Delivers shipments round by round and keeps the load ledger.

    `ship` is the one way to deliver tuples.  Every tuple goes once to each
    server its route names, and the route must be a pure function of the
    tuple, which is spot-checked on every shipment.  Delivery is grouped
    per destination set: a server's holdings and ledger entry grow by a
    whole group at a time.  With ``store_tuples=True`` the engine also
    keeps what each server received, and a tuple delivered twice to one
    server in one round raises `RoutingError`.  With
    ``store_tuples=False`` (counting mode) the same `ship` calls keep only
    the ledger: no holdings and no repeat check, which makes dry runs on
    large instances cheap.
    """

    def __init__(self, widths: dict, store_tuples: bool = True):
        self.widths = dict(widths)     # relation -> bits per tuple
        self.store_tuples = store_tuples
        self.report = LoadReport(self.widths)
        self._held = {}                # round -> {(server, rel): set of tuples}

    def register_relation(self, rel: str, width: int) -> None:
        """Declare an intermediate relation (e.g. a semi-join result)."""
        self.widths.setdefault(rel, width)

    def ship(self, rnd: int, rel: str, tuples, route) -> None:
        """Deliver every tuple of `rel` to each server of route(tup) in
        round `rnd` (0-based).

        A route returns a tuple or frozenset of server ids, used as given,
        or any other iterable, which is made a tuple.  Tuples are grouped
        by their destination set, and each group reaches each of its
        servers in one step, so the cost is per tuple and per group rather
        than per delivery.  The first 64 tuples are routed twice to check
        that the route is a pure function of the tuple; a route that
        returns the same object twice (a memoized tuple) passes without
        sorting.  In storing mode a tuple that reaches a server it already
        reached in this round (a route naming a server twice, or a tuple
        repeated in the input) raises `RoutingError`; counting mode charges
        every server named.  A shipment with no deliveries opens no round.
        """
        if rel not in self.widths:
            raise KeyError("unknown relation %r" % rel)
        if rnd < 0:
            raise ValueError("negative round")
        groups = defaultdict(list)
        for i, tup in enumerate(tuples):
            dests = route(tup)
            if type(dests) is not tuple and type(dests) is not frozenset:
                dests = tuple(dests)
            if i < 64:
                again = route(tup)
                if again is not dests and sorted(again) != sorted(dests):
                    raise RoutingError("route for %s/%s is not tuple-determined"
                                       % (rel, tup))
            groups[dests].append(tup)
        counts = Counter()
        held = self._held.setdefault(rnd, {}) if self.store_tuples else None
        for dests, group in groups.items():
            n = len(group)
            for s in dests:
                counts[s] += n
            if held is None or not dests:
                continue
            # One set per group; merging it keeps the tuples' hashes.
            fresh = set(group)
            for s in dests:
                got = held.get((s, rel))
                if len(fresh) < n or got is not None and not got.isdisjoint(fresh):
                    raise RoutingError("%s/%s delivered twice to server %d in round %d"
                                       % (rel, _repeated(group, got), s, rnd))
                if got is None:
                    held[s, rel] = set(fresh)
                else:
                    got |= fresh
        if not counts:
            return
        if min(counts) < 0:
            raise ValueError("negative server id in a route for %s" % rel)
        ledger = self.report.by_relation
        while len(ledger) <= rnd:
            ledger.append({})
        by_rel = ledger[rnd]
        for s, n in counts.items():
            by_rel[s, rel] = by_rel.get((s, rel), 0) + n

    def holdings(self, server: int, rel: str) -> set:
        """The tuples of `rel` that `server` received, over all rounds."""
        if not self.store_tuples:
            raise RuntimeError("engine is in counting mode")
        return set().union(*(h.get((server, rel), ()) for h in self._held.values()))


def _repeated(group, held):
    """The first tuple of `group` that repeats in it or is in `held`."""
    seen = set(held or ())
    for t in group:
        if t in seen:
            return t
        seen.add(t)


# -- joins -----------------------------------------------------------------

def _columns(idx):
    """t -> tuple(t[i] for i in idx)."""
    if len(idx) == 1:
        i = idx[0]
        return lambda t: (t[i],)
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
    row by the values of its new variables.  Atoms must not repeat a
    variable.  `guard`, if positive, bounds the intermediate result size.
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
        key, ext = _key(shared), _columns(new)
        index = {}
        for t in rel_tuples.get(a.relation, ()):
            index.setdefault(key(t), []).append(ext(t))
        probe = _key([cols.index(a.vars[i]) for i in shared])
        nxt = []
        for row in rows:
            tails = index.get(probe(row))
            if tails:
                nxt.extend([row + tail for tail in tails])
                if guard and len(nxt) > guard:
                    raise MemoryError("instance too large for oracle join")
        rows = nxt
        cols += [a.vars[i] for i in new]
    if not rows:
        return set()
    return set(map(_columns([cols.index(v) for v in out_vars]), rows))


def local_join(q: Query, rel_tuples: dict):
    """Evaluate the full join of q over the given relation contents."""
    return join_atoms(q.atoms, rel_tuples, q.variables)


def oracle_join(db, guard: int = 10 ** 7):
    """Reference answer computed centrally, with an intermediate-size guard."""
    rel_tuples = {r: ri.tuples for r, ri in db.relations.items()}
    return join_atoms(db.query.atoms, rel_tuples, db.query.variables, guard=guard)
