"""Block-I/O simulation of any tuple-routed parallel strategy.

A run on p_o simulated servers is replayed on a single machine with W words
of internal memory and block size B (one word holds one tuple).  Per round
the machine (1) partitions the pending deliveries into one bucket per
server, (2) loads each server's accumulated state and redoes its local
computation, and (3) writes the state plus the next round's messages back
out; the final round emits the output instead of writing.  Every phase is
counted in whole blocks.

The server count p_o is the smallest power of two whose measured per-round
load fits the memory budget: r * L(p_o) <= W, with r and L taken from cheap
counting-mode dry runs of the same strategy on the same instance.  Powers
of two are probed in increasing order up to the number of input tuples, so
no dry run uses more than p_o servers.

One sweep over several W shares its dry runs through one `DryRuns`: each p
is run once, with its rounds and maximum load computed once, and the runs
share everything that does not depend on p, each made once per sweep on
first use and dropped with the sweep:
- the shaped query and its inputs;
- per input column, its value counts (one `Counter`) and its value list;
- per hashed variable, its values in rank order.
For each p a dry run redoes only what depends on p: the heavy thresholds,
the shares, the bucket maps, the route keys and their counts, and the
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algorithms import SweepInputs, run_algorithm


class MemoryOverflow(RuntimeError):
    """A simulated server accumulated more than W words of state."""


@dataclass
class IOReport:
    io_blocks: int           # total block transfers, both directions
    phases: dict             # {"init": .., "partition": .., "load": .., "write": ..}
    p_o: int                 # chosen server count
    r: int                   # communication rounds replayed
    max_resident: int        # peak words held by any simulated server
    warnings: list = field(default_factory=list)


def _blocks(words: int, B: int) -> int:
    return -(-words // B)


class DryRuns(dict):
    """p -> (result, load): the counting-mode `AlgorithmResult` of strategy
    `alg` on `db` with `seed` at p servers, made on first lookup, and its
    maximum per-round per-server tuple load.  `server_tuples[p]` keeps the
    run's per-round server totals, summed once for both the load and the
    replay.

    The runs share one `SweepInputs`, `shared`, filled on first use: the
    strategy's shaped query and inputs, which are made once, and per
    input column its value counts and its value list, and per hashed
    variable its rank order, each made once however many p are probed.  A
    run reads these only for the inputs themselves; a column of any
    derived relation is counted, listed and ranked afresh.  Each p redoes
    its thresholds, shares, bucket maps, route keys and ledger.  One
    `DryRuns` serves one strategy on one instance with one seed: another
    strategy may shape the columns differently, and the ranks depend on
    the seed.
    """

    def __init__(self, alg: str, db, seed: int):
        super().__init__()
        self.alg, self.db, self.seed = alg, db, seed
        self.shared = SweepInputs()
        self.server_tuples = {}  # p -> per round, {server: tuples received}

    def __missing__(self, p):
        res = run_algorithm(self.alg, self.db, p, self.seed, counting=True,
                            _shared=self.shared)
        rep = res.report
        totals = self.server_tuples[p] = [rep.server_tuples(r) for r in range(rep.rounds)]
        run = self[p] = res, max((max(t.values(), default=0) for t in totals), default=0)
        return run

    def measure(self, p):
        """(rounds, maximum load) of the run at p, as `choose_po` takes it."""
        res, load = self[p]
        return res.rounds, load


def choose_po(measure, W: int, p_max: int) -> int:
    """Smallest power of two p <= p_max with r(p) * L(p) <= W.

    `measure(p)` dry-runs the strategy at server count p and returns
    (rounds, max per-round per-server tuple load).  Every power of two is
    probed in increasing order until one fits, so the last dry run is the
    answer's; MemoryOverflow is raised when none up to p_max fits.
    """
    p = 1
    while p <= p_max:
        r, load = measure(p)
        if max(1, r) * load <= W:
            return p
        p *= 2
    raise MemoryOverflow("no server count up to %d fits the memory budget W=%d"
                         % (p_max, W))


def replay_io(server_tuples: list, input_tuples: int, W: int, B: int,
              p_o: int) -> IOReport:
    """Count the block I/Os of executing a run on one machine.

    `server_tuples` holds the run's per-round server totals, as
    `DryRuns.server_tuples` keeps them; the rounds and volumes follow.
    """
    warnings = []
    if p_o > W:
        warnings.append("p_o=%d exceeds W=%d; bucket bookkeeping alone "
                        "overflows the stated memory budget" % (p_o, W))
    if p_o * B > W:
        warnings.append("partition fan-out p_o*B=%d exceeds W=%d; counted "
                        "as if one partial block per bucket still fits"
                        % (p_o * B, W))

    rounds = len(server_tuples)
    phases = {"init": 0, "partition": 0, "load": 0, "write": 0}
    if p_o == 1 or rounds == 0:
        # Everything fits on the lone server: a single input scan.
        phases["init"] = _blocks(input_tuples, B)
        if input_tuples > W:
            raise MemoryOverflow("p_o=1 run holds %d words > W=%d"
                                 % (input_tuples, W))
        return IOReport(phases["init"], phases, p_o, max(rounds, 1),
                        input_tuples, warnings)

    # Input scan; round-1 routing happens inline during this single pass,
    # so the tagged stream is never written out and re-read.
    vol = [sum(t.values()) for t in server_tuples]
    phases["init"] = _blocks(input_tuples, B)

    state = {}               # server -> words accumulated so far
    max_resident = 0
    for r, incoming in enumerate(server_tuples):
        # (1) partition: scan the pending message stream (round 1 reuses
        # the init scan), appending to one open block per destination
        # bucket.
        if r > 0:
            phases["partition"] += _blocks(vol[r], B)
        phases["partition"] += sum(_blocks(v, B) for v in incoming.values())
        # (2) load: bring in each active server's full accumulated state.
        for s, v in incoming.items():
            state[s] = state.get(s, 0) + v
        for s in sorted(state):
            if state[s] > W:
                raise MemoryOverflow(
                    "server %d holds %d words > W=%d in round %d"
                    % (s, state[s], W, r + 1))
            max_resident = max(max_resident, state[s])
            phases["load"] += _blocks(state[s], B)
        # (3) write: carry the state plus next round's messages back out;
        # the final round emits its output instead.
        if r + 1 < rounds:
            phases["write"] += sum(_blocks(v, B) for v in state.values())
            phases["write"] += _blocks(vol[r + 1], B)
    return IOReport(sum(phases.values()), phases, p_o, rounds, max_resident,
                    warnings)


def simulate_em(db, Ws, B: int, alg: str = "auto", seed: int = 0) -> list:
    """Replay `alg` on `db` under a W/B machine for every W in `Ws`; returns
    one IOReport per W, in order.

    ValueError is raised before any dry run unless 1 <= B <= W for every
    W.  Each W's server count is chosen by `choose_po` among the powers of
    two up to the number of input tuples, and p = 1 always (MemoryOverflow
    when none fits a W); the chosen run's per-round server totals are then
    replayed for its block transfers.  The dry runs come from one
    `DryRuns` for the whole sweep: a p probed for several W runs once, and
    every run shares the shaped input and its column counts, column lists
    and rank orders, which are kept until the sweep returns.  The result
    set is never materialized: ``run_algorithm(alg, db, io.p_o, seed)``
    rebuilds it.
    """
    for W in Ws:
        if not 1 <= B <= W:
            raise ValueError("need 1 <= B <= W, got B=%d W=%d" % (B, W))
    runs = DryRuns(alg, db, seed)
    reports = []
    for W in Ws:
        p_o = choose_po(runs.measure, W, max(1, db.total_tuples()))
        reports.append(replay_io(runs.server_tuples[p_o], db.total_tuples(),
                                 W, B, p_o))
    return reports
