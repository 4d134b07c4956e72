"""Command-line front end: analyze, generate, run, sweep.

Every command prints a `# mpcjoin <args>` header so any report can be
reproduced from its own first line; a flag that the command would ignore
exits 2 before it (`FLAG_RULES`).  Exit codes: 0 success, 1 a measured
bound or oracle check failed, 2 bad input (including a W sweep whose memory
budget no server count fits).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from fractions import Fraction

from . import datagen
from .algorithms import ALGORITHMS, run_algorithm
from .analyzer import (load_bound_worstcase, psi_star, rho_star, share_lp,
                       tau_star)
from .em import DryRuns, MemoryOverflow, simulate_em
from .query import FAMILIES, QueryError, canonical_query, parse_query
from .sim import oracle_join

ORACLE_GUARD = 10 ** 6       # skip oracle checks past this many input tuples


def _frac(x: Fraction) -> str:
    f = Fraction(x)
    return "%d/%d (%.6g)" % (f.numerator, f.denominator, float(f))


def _load_query(args):
    """Parse the query, then print the `# mpcjoin` header; returns the query."""
    if args.query:
        q = parse_query(args.query)
    elif args.family:
        q = canonical_query(args.family, args.k)
    else:
        raise QueryError("need --query or --family/--k")
    print("# mpcjoin " + " ".join(args.argv))
    return q


# Which flags go together, per command: flag -> (the flags it needs, the
# flags it does not apply to).  A need "--flag value" asks for that value.
_QUERY = {"--family": (["--k"], ["--query"]), "--k": (["--family"], [])}
_RUN = {**_QUERY, "--gen": ([], ["--indir"]), "--m": ([], ["--indir"]),
        "--heavy-var": (["--gen single_heavy"], ["--indir"])}
FLAG_RULES = {"analyze": {**_QUERY, "--m": (["--p"], [])},
              "generate": {**_QUERY, "--heavy-var": (["--gen single_heavy"], [])},
              "run": _RUN,
              "sweep": {**_RUN, "--W": (["--B"], []), "--B": (["--W"], []),
                        "--p-list": ([], ["--W"]), "--C": ([], ["--W"])}}


def check_flags(args):
    """Raise on the first flag of `FLAG_RULES[args.cmd]` that is given
    with a flag it does not apply to, or without a flag it needs."""
    def given(flag):
        name, _, value = flag.partition(" ")
        got = getattr(args, name[2:].replace("-", "_"), None)
        return got == value if value else got is not None
    for flag, (needs, excludes) in FLAG_RULES[args.cmd].items():
        if given(flag):
            for other in excludes:
                if given(other):
                    raise QueryError("%s does not apply to %s" % (flag, other))
            for other in needs:
                if not given(other):
                    raise QueryError("%s needs %s" % (flag, other))


# generator name -> builder(q, m, args), in `--gen`'s order of choices
GENERATORS = {
    "matching": lambda q, m, args: datagen.gen_matching(q, m, args.seed),
    "single_heavy": lambda q, m, args: datagen.gen_single_heavy(
        q, m, args.heavy_var or q.variables[0], args.seed),
    "agm_worst": lambda q, m, args: datagen.gen_agm_worst(q, m, args.seed),
    "coin_flip": lambda q, m, args: datagen.gen_coin_flip(q, m, args.seed),
}


def cmd_analyze(args) -> int:
    if args.p is not None and args.p < 1:
        raise ValueError("--p must be at least 1, got %d" % args.p)
    if args.m is not None and args.m < 1:
        raise ValueError("--m must be at least 1, got %d" % args.m)
    q = _load_query(args)
    t, tw = tau_star(q)
    r, rw = rho_star(q)
    p, pw = psi_star(q)
    print("query: %s" % q.render())
    print("k=%d atoms=%d" % (q.k, q.num_atoms))
    print("tau_star: %s" % _frac(t))
    print("  packing: %s" % {k: str(v) for k, v in sorted(tw.weights.items())})
    print("rho_star: %s" % _frac(r))
    print("  cover:   %s" % {k: str(v) for k, v in sorted(rw.weights.items())})
    print("psi_star: %s" % _frac(p))
    print("  residual heavy set: %s" % sorted(pw.residual_witness or ()))
    if args.p is not None:
        m = 10 ** 6 if args.m is None else args.m
        alloc = share_lp(q, {a.relation: m for a in q.atoms}, args.p)
        print("shares (p=%d, equal sizes m=%d):" % (args.p, m))
        for v in q.variables:
            print("  %s: exponent %s share %d"
                  % (v, _frac(alloc.exponents[v]), alloc.shares[v]))
        print("  lambda: %s  (load ~ p**lambda)" % _frac(alloc.lam))
    return 0


def cmd_generate(args) -> int:
    q = _load_query(args)
    db = _get_db(q, args)
    datagen.write_instance(db, args.out)
    for name, ri in sorted(db.relations.items()):
        print("%s: %d tuples, domain [1,%d] -> %s.tsv"
              % (name, ri.m, ri.n, os.path.join(args.out, name)))
    print("manifest: %s" % os.path.join(args.out, "manifest.json"))
    return 0


def _get_db(q, args):
    """The instance `--indir` names, else the one `--gen` (default
    matching) builds with `--m` (default 1000) tuples per relation."""
    if getattr(args, "indir", None):
        return datagen.read_instance(q, args.indir)
    return GENERATORS[args.gen or "matching"](
        q, 1000 if args.m is None else args.m, args)


def cmd_run(args) -> int:
    q = _load_query(args)
    db = _get_db(q, args)
    res = run_algorithm(args.alg, db, args.p, args.seed)
    print("algorithm=%s p=%d rounds=%d (declared <= %d) output=%d "
          "max_load_tuples=%d max_load_bits=%d physical_servers=%d"
          % (res.name, res.p, res.rounds, ALGORITHMS[res.name].rounds(q),
             res.count, res.report.max_tuples(), res.report.max_bits(),
             res.extras["physical_servers"]))
    if args.out:
        res.report.write_csv(args.out)
        print("load report: %s" % args.out)
    if args.check:
        return _oracle_check(db, res)
    return 0


def _oracle_check(db, res) -> int:
    """Compare a run's output with the reference join; prints one
    `oracle check:` line, or the mismatch, and returns the exit code.  A
    check the reference join cannot afford is reported as skipped."""
    if db.total_tuples() > ORACLE_GUARD:
        print("oracle check: skipped (%d input tuples exceed %d)"
              % (db.total_tuples(), ORACLE_GUARD))
        return 0
    try:
        want = oracle_join(db)
    except MemoryError as e:
        print("oracle check: skipped (%s)" % e)
        return 0
    if res.output != want:
        print("ORACLE MISMATCH: expected %d rows, got %d" % (len(want), res.count))
        print("  sample missing: %s" % sorted(want - res.output)[:5])
        print("  sample extra:   %s" % sorted(res.output - want)[:5])
        return 1
    print("oracle check: OK (%d rows)" % len(want))
    return 0


def _int_list(text):
    try:
        vals = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def cmd_sweep(args) -> int:
    if args.C is not None and not args.C > 0:
        raise ValueError("--C must be positive, got %g" % args.C)
    q = _load_query(args)
    db = _get_db(q, args)
    rows = []
    status = 0
    if args.W:
        m = max(1, max(db.sizes_tuples().values()))
        header = ["W", "B", "p_o", "rounds", "io_blocks", "ref_blocks", "ratio"]
        for W, io in zip(args.W, simulate_em(db, args.W, args.B, args.alg,
                                             args.seed)):
            for w in io.warnings:
                print("warning: W=%d: %s" % (W, w), file=sys.stderr)
            ref = m ** 1.5 / (args.B * math.sqrt(W))
            rows.append([W, args.B, io.p_o, io.r, io.io_blocks,
                         "%.1f" % ref, "%.4f" % (io.io_blocks / ref)])
            print("W=%d p_o=%d io=%d ratio=%.3f" % (W, io.p_o, io.io_blocks,
                                                    io.io_blocks / ref))
    else:
        header = ["p", "algorithm", "rounds", "max_load_tuples",
                  "max_load_bits", "bound_tuples", "ratio"]
        sizes = {r: max(1, m) for r, m in db.sizes_tuples().items()}
        C = 16.0 if args.C is None else args.C
        runs = DryRuns(args.alg, db, args.seed)
        for p in [8, 27, 64] if args.p_list is None else args.p_list:
            res, got = runs[p]
            lb = load_bound_worstcase(q, sizes, p)
            ratio = got / lb.value
            rows.append([p, res.name, res.rounds, got, res.report.max_bits(),
                         "%.1f" % lb.value, "%.4f" % ratio])
            budget = C * (1 + math.log(p))
            flag = ""
            if ratio > budget:
                status = 1
                flag = "  EXCEEDS %.2f" % budget
            print("p=%d alg=%s load=%d bound=%.1f ratio=%.3f%s"
                  % (p, res.name, got, lb.value, ratio, flag))
    if args.out:
        with open(args.out, "w", newline="") as f:
            csv.writer(f).writerows([header] + rows)
        print("csv: %s" % args.out)
    return status


def _add_query_flags(sp):
    sp.add_argument("--query", help="query text, e.g. 'q(x,y):-S(x,y)'")
    sp.add_argument("--family", choices=FAMILIES, help="canonical family")
    sp.add_argument("--k", type=int, help="family parameter k")


def _add_instance_flags(sp, runs=True):
    """The query flags, then a generated instance's; a command that `runs`
    a strategy also takes an `--indir` instance and `--alg`."""
    _add_query_flags(sp)
    sp.add_argument("--gen", choices=GENERATORS)
    sp.add_argument("--m", type=int, help="tuples per relation")
    sp.add_argument("--heavy-var", help="skewed variable for single_heavy")
    if runs:
        sp.add_argument("--indir", help="read a generated instance instead")
        sp.add_argument("--alg", default="auto",
                        choices=["auto"] + sorted(ALGORITHMS))


@functools.cache
def build_parser():
    """The argument parser, built once per process.  `--seed` defaults to
    None; `main` reads `MPCJOIN_SEED` in its place at each call."""
    ap = argparse.ArgumentParser(
        prog="mpcjoin",
        description="analyze, generate, and simulate parallel join strategies")
    ap.add_argument("--seed", type=int)
    sub = ap.add_subparsers(dest="cmd", required=True)

    a = sub.add_parser("analyze", help="exact LP quantities and shares")
    _add_query_flags(a)
    a.add_argument("--p", type=int, help="server count for the share LP")
    a.add_argument("--m", type=int, help="equal relation size for the share LP")
    a.set_defaults(fn=cmd_analyze)

    g = sub.add_parser("generate", help="write a seeded instance as TSV")
    _add_instance_flags(g, runs=False)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run one strategy, report loads")
    _add_instance_flags(r)
    r.add_argument("--p", type=int, default=64)
    r.add_argument("--out", help="load report CSV path")
    r.add_argument("--check", action=argparse.BooleanOptionalAction,
                   default=True, help="compare against the reference join")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="sweep p (loads) or W (block I/O)")
    _add_instance_flags(s)
    s.add_argument("--p-list", type=_int_list,
                   help="comma-separated server counts for a load sweep "
                        "(default 8,27,64)")
    s.add_argument("--C", type=float,
                   help="constant for a load sweep's ratio budget "
                        "C*(1+ln p) (default 16)")
    s.add_argument("--W", type=_int_list,
                   help="memory sizes for an I/O sweep; its ref_blocks is the "
                        "triangle's m^1.5/(B*sqrt(W)) for every query and "
                        "strategy, m the largest relation")
    s.add_argument("--B", type=int, help="block size for an I/O sweep")
    s.add_argument("--out", help="long-form CSV path")
    s.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        check_flags(args)
        if args.seed is None:
            args.seed = int(os.environ.get("MPCJOIN_SEED", "0"))
            if "MPCJOIN_SEED" in os.environ:
                argv = ["--seed", str(args.seed)] + argv
        args.argv = argv        # echoed by the `# mpcjoin` header
        return args.fn(args)
    except (QueryError, ValueError, OSError, MemoryOverflow) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
