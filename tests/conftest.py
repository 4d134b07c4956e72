"""Shared test helpers: a recorder that echoes one verdict line per
acceptance criterion into the terminal summary, and the rebuild of a run's
output from what its servers hold."""

from contextlib import contextmanager

import pytest

from mpcjoin import algorithms
from mpcjoin.algorithms import _join_part

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
