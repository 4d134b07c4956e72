"""Shared test helpers: a recorder that echoes one verdict line per
acceptance criterion into the terminal summary, the rebuild of a run's
output from what its servers hold, and a skewed triangle instance."""

from contextlib import contextmanager

import pytest

from mpcjoin import algorithms
from mpcjoin.algorithms import _join_part
from mpcjoin.datagen import DatabaseInstance, RelationInstance
from mpcjoin.query import canonical_query

ACCEPTANCE_LINES = []


def record(criterion: int, ok: bool, detail: str) -> bool:
    line = "[criterion %d] %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@contextmanager
def recorded_runs():
    """A list that collects, in order, (engine, output parts) for every
    plan that `run_algorithm` runs while the context is open."""
    runs = []

    def recording(plan):
        def run(ctx, q, rels, p):
            parts = plan(ctx, q, rels, p)
            runs.append((ctx.eng, parts))
            return parts
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name, s in list(algorithms.ALGORITHMS.items()):
            mp.setitem(algorithms.ALGORITHMS, name, s._replace(plan=recording(s.plan)))
        yield runs


def rebuilt(res, run):
    """res's output rebuilt from what its servers hold: the union, over
    the output parts of run, a storing-mode (engine, parts) pair, of each
    part's join computed on each of its servers from that server's
    holdings.  A part with no servers ships nothing, which only a run of 0
    rounds may do; it is joined over its own relations."""
    eng, parts = run
    held = {}

    def holdings(s, rel):
        if (s, rel) not in held:
            held[s, rel] = eng.holdings(s, rel)
        return held[s, rel]

    out = set()
    for part in parts:
        if not part.servers:
            assert res.rounds == 0, (res.name, part.atoms)
            out |= _join_part(part, res.query.variables)
        for s in part.servers:
            local = {a.relation: holdings(s, a.relation) for a in part.atoms}
            out |= _join_part(part._replace(rels=local), res.query.variables)
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def star_triangle(n):
    """C3 with every relation {(1, i)} | {(i, 1)}, i <= n: 3n - 2 output
    rows, while a pairwise join of two of its relations has about n^2."""
    q = canonical_query("C", 3)
    ts = tuple(sorted({(1, i) for i in range(1, n + 1)} | {(i, 1) for i in range(1, n + 1)}))
    return DatabaseInstance(q, {a.relation: RelationInstance(a.relation, 2, ts, n)
                                for a in q.atoms}, 0)
