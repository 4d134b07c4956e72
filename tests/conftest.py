"""Shared test helpers: a recorder that echoes one verdict line per
acceptance criterion into the terminal summary, and the rebuild of a run's
output from what its servers hold."""

from contextlib import contextmanager

import pytest

from mpcjoin import algorithms
from mpcjoin.sim import Engine, local_join

ACCEPTANCE_LINES = []

# The one-round strategies, whose outputs are joins of what one round
# delivered, so that each server's holdings join to its part of the output.
ONE_ROUND = ("hc", "one_round_skew", "join_one_sided_skew", "semi_join")


def record(criterion: int, ok: bool, detail: str) -> bool:
    line = "[criterion %d] %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@contextmanager
def recorded_engines():
    """A list that collects, in order, every engine that `run_algorithm`
    makes while the context is open."""
    engines = []

    class Recording(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "Engine", Recording)
        yield engines


def rebuilt(res, eng):
    """The union over res's physical servers of the local join of what
    each one holds in eng, a storing-mode engine of a one-round run."""
    q = res.query
    out = set()
    for s in range(res.extras["physical_servers"]):
        out |= local_join(q, {a.relation: eng.holdings(s, a.relation) for a in q.atoms})
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
