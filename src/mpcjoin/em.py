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
no dry run uses more than p_o servers, and one sweep over several W shares
its dry runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algorithms import run_algorithm
from .sim import LoadReport


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


def replay_io(report: LoadReport, input_tuples: int, W: int, B: int,
              p_o: int) -> IOReport:
    """Count the block I/Os of executing the reported run on one machine."""
    warnings = []
    if p_o > W:
        warnings.append("p_o=%d exceeds W=%d; bucket bookkeeping alone "
                        "overflows the stated memory budget" % (p_o, W))
    if p_o * B > W:
        warnings.append("partition fan-out p_o*B=%d exceeds W=%d; counted "
                        "as if one partial block per bucket still fits"
                        % (p_o * B, W))

    rounds = report.rounds
    phases = {"init": 0, "partition": 0, "load": 0, "write": 0}
    if p_o == 1 or rounds == 0:
        # Everything fits on the lone server: a single input scan.
        phases["init"] = _blocks(input_tuples, B)
        resident = input_tuples
        if resident > W:
            raise MemoryOverflow("p_o=1 run holds %d words > W=%d"
                                 % (resident, W))
        total = sum(phases.values())
        return IOReport(total, phases, p_o, max(rounds, 1), resident, warnings)

    # Input scan; round-1 routing happens inline during this single pass,
    # so the tagged stream is never written out and re-read.
    vol = [report.round_total_tuples(r) for r in range(rounds)]
    phases["init"] = _blocks(input_tuples, B)

    state = {}               # server -> words accumulated so far
    max_resident = 0
    for r in range(rounds):
        incoming = report.server_tuples(r)
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
    total = sum(phases.values())
    return IOReport(total, phases, p_o, rounds, max_resident, warnings)


def simulate_em(db, Ws, B: int, alg: str = "auto", seed: int = 0) -> list:
    """Replay `alg` on `db` under a W/B machine for every W in `Ws`; returns
    one IOReport per W, in order.

    ValueError is raised before any dry run unless 1 <= B <= W for every
    W.  Each W's server count is chosen by `choose_po` from counting-mode dry
    runs, which the whole sweep shares, among the powers of two up to the
    number of input tuples, and p = 1 always (MemoryOverflow when none fits
    a W); the chosen run's ledger is then replayed for its block transfers.
    The result set is never materialized:
    ``run_algorithm(alg, db, io.p_o, seed)`` rebuilds it.
    """
    for W in Ws:
        if not 1 <= B <= W:
            raise ValueError("need 1 <= B <= W, got B=%d W=%d" % (B, W))
    runs = {}                # p -> counting-mode dry run

    def measure(p):
        if p not in runs:
            runs[p] = run_algorithm(alg, db, p, seed, counting=True)
        return runs[p].rounds, runs[p].report.max_tuples()

    reports = []
    for W in Ws:
        p_o = choose_po(measure, W, max(1, db.total_tuples()))
        reports.append(replay_io(runs[p_o].report, db.total_tuples(), W, B, p_o))
    return reports
