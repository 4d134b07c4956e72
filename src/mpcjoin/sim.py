"""Synchronous shared-nothing simulator with exact load accounting.

The model: servers exchange tuples in synchronized rounds.  A tuple may be
sent to any set of servers, but the destination set must be a pure function
of the tuple and of public data statistics — the engine spot-checks this by
re-evaluating routes.  The per-round load of a server is the data it
receives that round; the cost of a run is the maximum over servers and
rounds, reported both in tuples and in bits.

Rounds are addressed by index rather than opened/closed sequentially, so
that concurrently running sub-plans of different depths can deposit their
shipments into the same global round.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .query import Query
from .rng import derive_key, mix64

_MASK = (1 << 64) - 1


class RoutingError(RuntimeError):
    """A route function returned different destinations for the same tuple."""


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


def hc_destinations(bound_vars, assignment: dict, shares: dict, order, hashes: dict):
    """All hypercube cell indices a tuple must be replicated to.

    Cells are linear indices of the mixed-radix coordinate over `order`;
    coordinates of variables not bound by the tuple range over their full
    share.
    """
    cells = [0]
    for v in order:
        s = shares[v]
        if s == 1:
            continue
        if v in bound_vars:
            d = hashes[v](assignment[v], s) - 1
            cells = [c * s + d for c in cells]
        else:
            cells = [c * s + d for c in cells for d in range(s)]
    return cells


@dataclass
class LoadReport:
    """Per-round, per-server receive totals for one simulated run."""
    widths: dict = field(default_factory=dict)   # relation -> bits per tuple
    bits: list = field(default_factory=list)     # per round: {server: bits}
    tuples: list = field(default_factory=list)   # per round: {server: tuples}
    by_relation: list = field(default_factory=list)  # per round: {(server, rel): tuples}

    @property
    def rounds(self) -> int:
        return len(self.bits)

    def round_max_bits(self, r: int) -> int:
        return max(self.bits[r].values(), default=0)

    def round_max_tuples(self, r: int) -> int:
        return max(self.tuples[r].values(), default=0)

    def max_bits(self) -> int:
        return max((self.round_max_bits(r) for r in range(self.rounds)), default=0)

    def max_tuples(self) -> int:
        return max((self.round_max_tuples(r) for r in range(self.rounds)), default=0)

    def round_total_tuples(self, r: int) -> int:
        return sum(self.tuples[r].values())

    def server_total_tuples(self, s) -> int:
        return sum(t.get(s, 0) for t in self.tuples)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["round", "server", "relation", "tuples", "bits_per_tuple"])
            for r in range(self.rounds):
                for (s, rel), cnt in sorted(self.by_relation[r].items()):
                    w.writerow([r + 1, s, rel, cnt, self.widths.get(rel, 0)])


class Engine:
    """Tracks what every server receives per round and optionally holds.

    With ``store_tuples=False`` only counters are kept (cheap dry runs on
    large instances); per-server holdings are then unavailable.
    """

    def __init__(self, widths: dict, store_tuples: bool = True):
        self.widths = dict(widths)     # relation -> bits per tuple
        self.store_tuples = store_tuples
        self.report = LoadReport(self.widths)
        self.stored = {} if store_tuples else None   # server -> {rel: set}
        self._seen = []                # per round: set of (server, rel, tup)

    def register_relation(self, rel: str, width: int) -> None:
        """Declare an intermediate relation (e.g. a semi-join result)."""
        self.widths.setdefault(rel, width)

    def _ensure(self, r: int) -> None:
        while len(self.report.bits) <= r:
            self.report.bits.append({})
            self.report.tuples.append({})
            self.report.by_relation.append({})
            self._seen.append(set())

    def send(self, rnd: int, server: int, rel: str, tup: tuple) -> None:
        """Deliver one tuple to one server in round `rnd` (0-based).

        Duplicate deliveries of the same tuple to the same server within a
        round are counted once.  `add_counts` is the bulk, dedup-free
        entry point for counting mode.
        """
        if rnd < 0 or server < 0:
            raise ValueError("negative round or server")
        self._ensure(rnd)
        if self.store_tuples:
            key = (server, rel, tup)
        else:
            # Counting mode: fold the identity into 64 bits to keep the
            # dedup set small (collisions are ~2^-64 per pair, harmless
            # for load accounting).
            acc = mix64(server ^ 0x9E3779B97F4A7C15)
            acc = mix64(acc ^ (hash(rel) & _MASK))
            for v in tup:
                acc = mix64(acc ^ (v & _MASK))
            key = acc
        if key in self._seen[rnd]:
            return
        self._seen[rnd].add(key)
        w = self.widths.get(rel)
        if w is None:
            raise KeyError("unknown relation %r" % rel)
        rep = self.report
        rep.bits[rnd][server] = rep.bits[rnd].get(server, 0) + w
        rep.tuples[rnd][server] = rep.tuples[rnd].get(server, 0) + 1
        bk = (server, rel)
        rep.by_relation[rnd][bk] = rep.by_relation[rnd].get(bk, 0) + 1
        if self.store_tuples:
            self.stored.setdefault(server, {}).setdefault(rel, set()).add(tup)

    def add_counts(self, rnd: int, rel: str, counts: dict) -> None:
        """Deliver counts[server] tuples of `rel` to each server in round
        `rnd`, updating the whole ledger in one call.

        Only for counting mode (per-server holdings are not recorded), and
        only for deliveries known to be distinct: nothing is deduplicated,
        so the caller must guarantee that no counted (server, tuple) pair
        repeats another delivery of `rel` in the same round, whether made
        by `send` or by an earlier `add_counts`.
        """
        if self.store_tuples:
            raise RuntimeError("add_counts needs counting mode")
        w = self.widths.get(rel)
        if w is None:
            raise KeyError("unknown relation %r" % rel)
        if rnd < 0 or any(s < 0 or n < 1 for s, n in counts.items()):
            raise ValueError("negative round or server, or a count below 1")
        if not counts:
            return
        self._ensure(rnd)
        bits = self.report.bits[rnd]
        tuples = self.report.tuples[rnd]
        by_rel = self.report.by_relation[rnd]
        for s, n in counts.items():
            bits[s] = bits.get(s, 0) + w * n
            tuples[s] = tuples.get(s, 0) + n
            by_rel[s, rel] = by_rel.get((s, rel), 0) + n

    def ship(self, rnd: int, rel: str, tuples, route) -> None:
        """Ship every tuple to route(tup) (an iterable of servers).

        The route must be a pure function of the tuple; the first few
        tuples are re-routed to spot-check that.
        """
        checked = 0
        for tup in tuples:
            dests = list(route(tup))
            if checked < 64:
                if sorted(route(tup)) != sorted(dests):
                    raise RoutingError("route for %s/%s is not tuple-determined" % (rel, tup))
                checked += 1
            for s in dests:
                self.send(rnd, s, rel, tup)

    def holdings(self, server: int, rel: str):
        if not self.store_tuples:
            raise RuntimeError("engine is in counting mode")
        return self.stored.get(server, {}).get(rel, frozenset())


# -- joins -----------------------------------------------------------------

def join_atoms(atoms, rel_tuples, out_vars, guard: int = 0):
    """Join the given atoms; returns assignments projected onto out_vars.

    Plain index-based pipeline: atoms are joined smallest-first, always
    picking a next atom connected to the prefix, each step probing an index
    on the variables shared so far.  `guard`, if positive, bounds the
    intermediate result size.
    """
    atoms = sorted(atoms, key=lambda a: (len(rel_tuples.get(a.relation, ())), a.relation))
    ordered = [atoms[0]]
    rest = atoms[1:]
    bound = set(atoms[0].vars)
    while rest:
        pick = next((a for a in rest if bound & set(a.vars)), rest[0])
        rest.remove(pick)
        ordered.append(pick)
        bound |= set(pick.vars)

    partial = [dict(zip(ordered[0].vars, t))
               for t in rel_tuples.get(ordered[0].relation, ())]
    for a in ordered[1:]:
        shared = [v for v in a.vars if partial and v in partial[0]]
        index = {}
        for t in rel_tuples.get(a.relation, ()):
            asg = dict(zip(a.vars, t))
            key = tuple(asg[v] for v in shared)
            index.setdefault(key, []).append(asg)
        nxt = []
        for row in partial:
            key = tuple(row[v] for v in shared)
            for asg in index.get(key, ()):
                merged = dict(row)
                merged.update(asg)
                nxt.append(merged)
                if guard and len(nxt) > guard:
                    raise MemoryError("instance too large for oracle join")
        partial = nxt
        if not partial:
            return set()
    return {tuple(row[v] for v in out_vars) for row in partial}


def local_join(q: Query, rel_tuples: dict):
    """Evaluate the full join of q over the given relation contents."""
    return join_atoms(q.atoms, rel_tuples, q.variables)


def oracle_join(db, guard: int = 10 ** 7):
    """Reference answer computed centrally, with an intermediate-size guard."""
    rel_tuples = {r: ri.tuples for r, ri in db.relations.items()}
    return join_atoms(db.query.atoms, rel_tuples, db.query.variables, guard=guard)
