"""Storing/counting differential matrix: one digest over every strategy run.

Runs every strategy in `ALGORITHMS`, in storing and in counting mode, on
L2-L7, C3-C7, LW3-LW4, K3-K5, W3, T3, the two-atom semi-join
`Q(z,y) :- R(z), S(z,y)`, the one-atom `Q(x,y) :- R(x,y)` and a triangle
clique whose atoms list their pairs out of head order, each under six
seeded generators (matching, single_heavy, agm_worst, coin_flip,
lb_matching and two_heavy, defined here) at p in {1, 8, 27, 64, 1024}.  It
prints the number of runs, the number that completed (the rest are shape
rejections) and one sha256 over every completed run's output, rounds,
extras, per-round `by_relation` ledger and relation widths.  A refactor
that must keep every simulated value prints the same digest before and
after; `--expect SHA` compares it and exits 1, printing both digests, when
they differ.  It also runs `auto` once (storing mode) on every query,
instance and p, outside the digest, prints `auto rejected N` and exits 1
when auto's pick rejects any query (N > 0).  Also outside the digest,
each (query, generator, strategy)'s counting runs are made a second time
through one `em.DryRuns` shared across the grid's p, as a sweep makes them;
it prints `sharing mismatched N` and exits 1 when any shared run's output,
rounds, extras, ledger or widths, or the maximum load `DryRuns` keeps with
it, differ from the plain counting run's.  The
current digest is

    python3 tools/ledger_matrix.py --expect 1c023967566864e7d4b3037af1030c385b1d9ae59743a75bc6d42030b0651274

`tests/test_ledger_matrix.py` pins the digest of the reduced grid
`GRIDS["tier1"]`: every query, strategy and mode, with the single_heavy and
two_heavy generators at p in {8, 64}.  `matrix(grid)` is the one definition
of the runs and the digest for both.

Only `QueryError` (a shape check rejecting the query) is caught; any other
exception, such as a `RoutingError` for a repeated delivery, aborts the run.
Standard library only; nothing under `src/` imports this file.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpcjoin.algorithms import ALGORITHMS, run_algorithm  # noqa: E402
from mpcjoin.datagen import (DatabaseInstance, RelationInstance,  # noqa: E402
                             gen_agm_worst, gen_coin_flip,
                             gen_lowerbound_matching, gen_matching,
                             gen_single_heavy)
from mpcjoin.em import DryRuns  # noqa: E402
from mpcjoin.query import QueryError, canonical_query, parse_query  # noqa: E402
from mpcjoin.rng import Stream  # noqa: E402


def two_heavy(q, m, seed):
    """Values 1 and 2 fill about 40% of every column, the rest is nearly a
    matching: each relation splits into several heavy profiles, so
    one_round_skew ships some tuple groups under more than one profile."""
    rels = {}
    for a in q.atoms:
        st = Stream(seed, "two_heavy", a.relation)
        ts = set()
        while len(ts) < m:
            ts.add(tuple(1 + st.below(2) if st.below(5) < 2 else 3 + st.below(m)
                         for _ in a.vars))
        rels[a.relation] = RelationInstance(a.relation, a.arity,
                                            tuple(sorted(ts)), m + 2)
    return DatabaseInstance(q, rels, seed, {"generator": "two_heavy"})


# m = 12 keeps the AGM-worst outputs of L7 (m^4 rows) small enough to run
# the whole matrix in well under a minute.
M = 12
SEED = 1
QUERIES = ([canonical_query(fam, k) for fam, ks in
            (("L", range(2, 8)), ("C", range(3, 8)), ("LW", (3, 4)),
             ("K", (3, 4, 5)), ("W", (3,)), ("T", (3,))) for k in ks]
           + [parse_query("Q(z,y) :- R(z), S(z,y)"), parse_query("Q(x,y) :- R(x,y)"),
              parse_query("Q(a,b,c) :- R(b,a), S(b,c), T(a,c)")])
# generator name -> q -> instance, in digest order
GENERATORS = {
    "matching": lambda q: gen_matching(q, M, SEED),
    "single_heavy": lambda q: gen_single_heavy(q, M, q.variables[0], SEED),
    "agm_worst": lambda q: gen_agm_worst(q, M, SEED),
    "coin_flip": lambda q: gen_coin_flip(q, M, SEED),
    "lb_matching": lambda q: gen_lowerbound_matching(
        q, {a.relation: M for a in q.atoms}, frozenset([q.variables[0]]), SEED),
    "two_heavy": lambda q: two_heavy(q, M, SEED),
}


class Grid(NamedTuple):
    generators: tuple       # names in GENERATORS
    ps: tuple               # server counts


GRIDS = {
    "full": Grid(tuple(GENERATORS), (1, 8, 27, 64, 1024)),
    # the skewed generators: bucket counts, and with them the ledger, depend
    # on which values share a bucket
    "tier1": Grid(("single_heavy", "two_heavy"), (8, 64)),
}


class Matrix(NamedTuple):
    runs: int
    completed: int
    sha256: str
    auto_rejected: int
    shared_mismatched: int     # shared dry runs unlike their plain run


def run_digest(res) -> bytes:
    rep = res.report
    parts = [sorted(res.output), res.rounds, sorted(res.extras.items(), key=repr),
             [sorted(r.items()) for r in rep.by_relation], sorted(rep.widths.items())]
    return repr(parts).encode()


def matrix(grid: Grid) -> Matrix:
    """Run every query, instance, p, strategy and mode of the grid."""
    h = hashlib.sha256()
    runs = done = auto_rejected = mismatched = 0
    for q in QUERIES:
        for gen in grid.generators:
            db = GENERATORS[gen](q)
            shared = {name: DryRuns(name, db, SEED) for name in ALGORITHMS}
            for p in grid.ps:
                try:
                    run_algorithm("auto", db, p, SEED)
                except QueryError:
                    auto_rejected += 1
                for name in ALGORITHMS:
                    for counting in (False, True):
                        runs += 1
                        h.update(repr((q.name, db.meta["generator"], p, name,
                                       counting)).encode())
                        try:
                            res = run_algorithm(name, db, p, SEED, counting=counting)
                        except QueryError:
                            h.update(b"rejected")
                            continue
                        done += 1
                        digest = run_digest(res)
                        h.update(digest)
                        if counting:
                            run, load = shared[name][p]
                            mismatched += (run_digest(run) != digest
                                           or load != res.report.max_tuples())
    return Matrix(runs, done, h.hexdigest(), auto_rejected, mismatched)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="storing/counting digest matrix")
    ap.add_argument("--expect", metavar="SHA",
                    help="exit 1 unless the digest equals SHA")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    res = matrix(GRIDS["full"])
    print("runs %d" % res.runs)
    print("completed %d" % res.completed)
    print("sha256 %s" % res.sha256)
    print("auto rejected %d" % res.auto_rejected)
    print("sharing mismatched %d" % res.shared_mismatched)
    print("seconds %.1f" % (time.perf_counter() - t0), file=sys.stderr)
    if args.expect is not None and args.expect != res.sha256:
        print("digest mismatch: expected %s, got %s" % (args.expect, res.sha256))
        return 1
    return 1 if res.auto_rejected or res.shared_mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
