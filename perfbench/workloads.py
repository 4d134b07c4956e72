"""Job lists, correctness checks and output digests of the three workloads.

A job is one in-process `mpcjoin` command (or, for `psi_star_recursive`,
which no command exposes, one library call).  Paths inside a job's argv are
written with the placeholders `{inst}` (the workload's generated instances)
and `{work}` (scratch files of the job), so the argv with placeholders is
also the job's key in `golden.json`.

The workload seed picks one of `VARIANTS` input variants, so that every
seed the benchmark is run with has golden digests recorded at the seed
commit.  Seed 0 gives the seeds the workloads were designed with: 12 for
`join_run` and 1 for `em_sweep`.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import re
from fractions import Fraction

VARIANTS = 16
P = "64"                   # server count of every join_run job
EM_M, EM_B, EM_W = 10000, 100, (400, 1600, 6400)
EM_C = 32                  # criterion-7 constant: io_blocks <= C*m^1.5/(B*sqrt(W))
AN_P, AN_M = "1024", "1000000"

# (instance name, query flags, generator flags, strategies run on it)
_JOIN_INSTANCES = [
    ("c3", ["--family", "C", "--k", "3"],
     ["--gen", "single_heavy", "--heavy-var", "x1", "--m", "30000"],
     ["triangle", "one_round_skew", "hc"]),
    ("l5", ["--family", "L", "--k", "5"], ["--gen", "matching", "--m", "10000"],
     ["line"]),
    ("c4", ["--family", "C", "--k", "4"], ["--gen", "matching", "--m", "10000"],
     ["cycle"]),
    ("c5", ["--family", "C", "--k", "5"],
     ["--gen", "single_heavy", "--heavy-var", "x1", "--m", "10000"], ["cycle"]),
    ("lw4", ["--family", "LW", "--k", "4"],
     ["--gen", "single_heavy", "--heavy-var", "x1", "--m", "10000"], ["lw"]),
    ("k4", ["--family", "K", "--k", "4"], ["--gen", "matching", "--m", "10000"],
     ["clique"]),
    ("w3", ["--family", "W", "--k", "3"], ["--gen", "matching", "--m", "30000"],
     ["covering"]),
    ("sj", ["--query", "Q(z,y) :- R(z), S(z,y)"],
     ["--gen", "matching", "--m", "50000"], ["semi_join"]),
    ("j1", ["--query", "Q(x,z,y) :- S1(x,z), S2(z,y)"],
     ["--gen", "matching", "--m", "30000"], ["join_one_sided_skew"]),
]
_JOIN_TINY = [
    ("c3", ["--family", "C", "--k", "3"],
     ["--gen", "single_heavy", "--heavy-var", "x1", "--m", "2000"],
     ["one_round_skew"]),
]

_ANALYZE = [("SP", 5), ("SP", 6), ("L", 10), ("C", 10), ("K", 8), ("Ldagger", 8)]
_ANALYZE_TINY = [("SP", 3)]

WORKLOADS = ("join_run", "em_sweep", "exact_analysis")

# Spans every traced run of the workload must record.  A span listed here
# that does not fire (a call site moved, a function was renamed) is
# reported as missing instead of as zero work.
EXPECTED_SPANS = {
    "join_run": {"cli.main", "datagen.gen", "datagen.read", "algorithms.run",
                 "analyzer.share_lp", "sim.local_join", "sim.oracle",
                 "lp.solve"},
    "em_sweep": {"cli.main", "datagen.gen", "em.simulate", "em.choose_po",
                 "em.dry_run", "em.replay", "lp.solve"},
    "exact_analysis": {"cli.main", "analyzer.psi_star",
                       "analyzer.psi_star_recursive", "analyzer.tau_star",
                       "analyzer.share_lp", "lp.solve"},
}


class Job:
    """One unit of work: `argv` for `mpcjoin.cli.main`, or a library call."""

    def __init__(self, argv, kind, expect=None):
        self.argv = list(argv)
        self.kind = kind           # "ledger" | "sweep" | "analyze" | "psi_rec"
        self.expect = expect       # closed-form values the output must match
        self.key = " ".join(self.argv)

    def bind(self, inst: str, work: str):
        return [a.format(inst=inst, work=work) for a in self.argv]


def _inst_dir(name, gen_flags):
    """Instance directory named after its generator flags, so that a job's
    key names its whole input."""
    return "{inst}/" + "-".join([name] + gen_flags[1::2])


def variant(seed: int) -> int:
    return seed % VARIANTS


def setup_argvs(workload: str, seed: int, tiny: bool = False):
    """`mpcjoin generate` commands writing the workload's instances."""
    if workload != "join_run":
        return []
    s = str(12 + variant(seed))
    return [["--seed", s, "generate"] + qf + gf + ["--out", _inst_dir(name, gf)]
            for name, qf, gf, _ in (_JOIN_TINY if tiny else _JOIN_INSTANCES)]


def jobs(workload: str, seed: int, tiny: bool = False):
    if workload == "join_run":
        s = str(12 + variant(seed))
        return [Job(["--seed", s, "run"] + qf
                    + ["--indir", _inst_dir(name, gf), "--alg", alg, "--p", P,
                       "--check", "--out", "{work}/ledger.csv"], "ledger")
                for name, qf, gf, algs in (_JOIN_TINY if tiny else _JOIN_INSTANCES)
                for alg in algs]
    if workload == "em_sweep":
        m = 900 if tiny else EM_M
        ws = EM_W[:1] if tiny else EM_W
        return [Job(["--seed", str(1 + variant(seed)), "sweep", "--family", "C",
                     "--k", "3", "--gen", "agm_worst", "--m", str(m),
                     "--alg", "triangle", "--W", ",".join(map(str, ws)),
                     "--B", str(EM_B), "--out", "{work}/sweep.csv"],
                    "sweep", {"m": m})]
    if workload == "exact_analysis":
        out = []
        for fam, k in (_ANALYZE_TINY if tiny else _ANALYZE):
            tau, rho, psi = closed_form(fam, k)
            out.append(Job(["analyze", "--family", fam, "--k", str(k),
                            "--p", AN_P, "--m", AN_M], "analyze",
                           {"tau_star": tau, "rho_star": rho, "psi_star": psi}))
            out.append(Job(["psi_star_recursive", "--family", fam, "--k", str(k)],
                           "psi_rec", {"psi_star": psi}))
        # The analyzer takes no random input; the seed orders the jobs.
        random.Random(seed).shuffle(out)
        return out
    raise KeyError(workload)


def closed_form(fam: str, k: int):
    """(tau*, rho*, psi*) of a canonical family member, as in the paper."""
    F = Fraction

    def ceil(a, b):
        return -(-a // b)

    if fam == "SP":
        return F(k), F(k + 1), F(k + 1)
    if fam == "K":
        return F(k, 2), F(k, 2), F(k - 1)
    if fam == "L":
        return F(ceil(k, 2)), F(ceil(k + 1, 2)), F(ceil(2 * k, 3))
    if fam == "Ldagger":
        return F(ceil(k, 2) + 1), F(ceil(k + 1, 2)), F(ceil(2 * k + 2, 3))
    if fam == "C":
        return F(k, 2), F(k, 2), F(ceil(2 * (k - 1), 3))
    raise KeyError(fam)


def _sha(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(str(v) for v in row) + "\n").encode())
    return h.hexdigest()


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


_FRAC = re.compile(r"^(tau_star|rho_star|psi_star): (\d+)/(\d+) ")


def check_and_digest(job: Job, stdout: str, work: str, value=None):
    """Verify one finished job; returns (error or None, digest).

    The digest covers only the simulated or computed values: ledger rows
    (round, server, relation, tuples, width) by position, sweep columns
    (W, p_o, rounds, io_blocks) by name, and the `analyze` report without
    its `# mpcjoin` echo line.
    """
    if job.kind == "ledger":
        if "oracle check: OK" not in stdout:
            return "oracle check did not run or failed", None
        rows = _csv_rows(work + "/ledger.csv")[1:]
        return None, _sha(r[:5] for r in rows)
    if job.kind == "sweep":
        table = _csv_rows(work + "/sweep.csv")
        col = {name: i for i, name in enumerate(table[0])}
        try:
            rows = [[r[col[c]] for c in ("W", "p_o", "rounds", "io_blocks")]
                    for r in table[1:]]
        except KeyError as e:
            return "sweep CSV lacks column %s" % e, None
        m = job.expect["m"]
        for W, _, _, io in rows:
            bound = EM_C * m ** 1.5 / (EM_B * math.sqrt(int(W)))
            if int(io) > bound:
                return "criterion 7: io_blocks %s > %.1f at W=%s" % (io, bound, W), None
        if len(rows) != len(job.argv[job.argv.index("--W") + 1].split(",")):
            return "sweep wrote %d rows" % len(rows), None
        return None, _sha(rows)
    if job.kind == "analyze":
        lines = [ln for ln in stdout.splitlines() if not ln.startswith("# mpcjoin")]
        got = {}
        for ln in lines:
            mt = _FRAC.match(ln)
            if mt:
                got[mt.group(1)] = Fraction(int(mt.group(2)), int(mt.group(3)))
        for name, want in job.expect.items():
            if got.get(name) != want:
                return "%s = %s, closed form %s" % (name, got.get(name), want), None
        return None, _sha([ln] for ln in lines)
    if job.kind == "psi_rec":
        want = job.expect["psi_star"]
        if value != want:
            return "psi_star_recursive = %s, closed form %s" % (value, want), None
        return None, _sha([[value]])
    raise KeyError(job.kind)
