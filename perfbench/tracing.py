"""Spans around the public functions of each mpcjoin layer.

The wrappers are installed from here, at the names the package calls the
functions through (`cli.run_algorithm`, `em.run_algorithm`,
`algorithms.join_atoms`, ...), so nothing under `src/` changes.  Spans are
kept in memory, nest by a call stack (the package is single-threaded), and
are written out as JSON when the traced batch ends.
"""

from __future__ import annotations

import time
from collections import Counter


def _ledger(res):
    """(deliveries, max per-server per-round tuples) of an AlgorithmResult."""
    rep = res.report
    try:
        return (sum(rep.round_total_tuples(r) for r in range(rep.rounds)),
                rep.max_tuples())
    except AttributeError:
        return None, None


def _post_run(span, args, res):
    span["deliveries"], span["max_load"] = _ledger(res)
    span["p"] = args[2] if len(args) > 2 else None


def _post_choose(span, args, p_o):
    span["p_o"] = p_o


def _post_replay(span, args, io):
    span["io_blocks"] = getattr(io, "io_blocks", None)


def patch_table(mp):
    """(module, attribute, span name, post-hook) for every traced call site.

    `mp` maps short module names to the imported mpcjoin modules.  A name
    counted but not timed has span name None (residual construction runs
    thousands of times per analysis and is cheap).
    """
    cli, alg, an, em, dg = mp["cli"], mp["algorithms"], mp["analyzer"], mp["em"], mp["datagen"]
    return [
        (cli, "run_algorithm", "algorithms.run", _post_run),
        (cli, "oracle_join", "sim.oracle", None),
        (cli, "simulate_em", "em.simulate", None),
        (cli, "tau_star", "analyzer.tau_star", None),
        (cli, "rho_star", "analyzer.rho_star", None),
        (cli, "psi_star", "analyzer.psi_star", None),
        (cli, "share_lp", "analyzer.share_lp", None),
        (cli, "load_bound_worstcase", "analyzer.load_bound", None),
        (dg, "gen_matching", "datagen.gen", None),
        (dg, "gen_single_heavy", "datagen.gen", None),
        (dg, "gen_agm_worst", "datagen.gen", None),
        (dg, "gen_coin_flip", "datagen.gen", None),
        (dg, "write_instance", "datagen.write", None),
        (dg, "read_instance", "datagen.read", None),
        (dg, "lp_solve_exact", "lp.solve", None),
        (alg, "share_lp", "analyzer.share_lp", None),
        (alg, "join_atoms", "sim.local_join", None),
        (em, "run_algorithm", "em.dry_run", _post_run),
        (em, "choose_po", "em.choose_po", _post_choose),
        (em, "replay_io", "em.replay", _post_replay),
        (an, "tau_star", "analyzer.tau_star", None),
        (an, "lp_solve_exact", "lp.solve", None),
        (an, "residual_query", None, None),
    ]


class Tracer:
    """Records spans (name, start, end, parent, job) and call counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []
        self._t0 = time.perf_counter()

    def wrap(self, name, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if name is None:
            counts = self.counts

            def counted(*args, **kw):
                counts[fn.__name__] += 1
                return fn(*args, **kw)
            return counted

        def traced(*args, **kw):
            span = {"id": len(spans), "name": name, "start": clock() - self._t0,
                    "end": None, "parent": stack[-1] if stack else None,
                    "job": self.job}
            spans.append(span)
            stack.append(span["id"])
            try:
                out = fn(*args, **kw)
            finally:
                span["end"] = clock() - self._t0
                stack.pop()
            if post is not None:
                post(span, args, out)
            return out
        return traced

    def install(self, table):
        """Wrap every call site of the table that exists; returns the
        attribute names that no longer exist."""
        absent = []
        for mod, attr, name, post in table:
            fn = getattr(mod, attr, None)
            if fn is None:
                absent.append("%s.%s" % (mod.__name__, attr))
                continue
            setattr(mod, attr, self.wrap(name, fn, post))
            self._undo.append((mod, attr, fn))
        return absent

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans nest strictly (one thread, one stack), so children never overlap.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# name -> (unit, span names whose absence makes the metric missing)
PER_LAYER = {
    "algorithms.run_s": ("s", ["algorithms.run"]),
    "algorithms.self_s": ("s", ["algorithms.run"]),
    "algorithms.runs": ("count", ["algorithms.run"]),
    "sim.deliveries": ("count", ["algorithms.run"]),
    "sim.us_per_delivery": ("us", ["algorithms.run"]),
    "sim.local_join_s": ("s", ["sim.local_join"]),
    "sim.local_join_calls": ("count", ["sim.local_join"]),
    "sim.oracle_s": ("s", ["sim.oracle"]),
    "sim.max_load_tuples": ("tuples", ["algorithms.run", "em.dry_run"]),
    "em.io_blocks": ("blocks", ["em.replay"]),
    "em.simulate_s": ("s", ["em.simulate"]),
    "em.choose_po_s": ("s", ["em.choose_po"]),
    "em.dry_runs": ("count", ["em.dry_run"]),
    "em.dry_run_s": ("s", ["em.dry_run"]),
    "em.dry_run_deliveries": ("count", ["em.dry_run"]),
    "em.max_dry_run_p": ("servers", ["em.dry_run"]),
    "em.useful_dry_run_ratio": ("ratio", ["em.dry_run", "em.choose_po"]),
    "em.replay_s": ("s", ["em.replay"]),
    "analyzer.psi_star_s": ("s", ["analyzer.psi_star"]),
    "analyzer.psi_star_recursive_s": ("s", ["analyzer.psi_star_recursive"]),
    "analyzer.tau_star_calls": ("count", ["analyzer.tau_star"]),
    "lp.solves": ("count", ["lp.solve"]),
    "lp.solve_s": ("s", ["lp.solve"]),
    "lp.us_per_solve": ("us", ["lp.solve"]),
    "analyzer.lp_solves_per_residual": ("ratio", ["lp.solve"]),
    "analyzer.share_lp_s": ("s", ["analyzer.share_lp"]),
    "analyzer.share_lp_calls": ("count", ["analyzer.share_lp"]),
    "datagen.read_s": ("s", ["datagen.read"]),
    "datagen.gen_s": ("s", ["datagen.gen"]),
    "cli.self_s": ("s", ["cli.main"]),
    "trace.overhead_ratio": ("ratio", []),
}


def layer_metrics(spans, counts, expected, overhead_ratio):
    """Per-layer values from the spans of one traced batch.

    Returns (values, missing): a metric whose spans are expected on this
    workload but never fired is None and its span names are in `missing`;
    a metric of a layer the workload does not use is 0.
    """
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    own = self_times(spans)

    def dur(name):
        return sum(s["end"] - s["start"] for s in by.get(name, ()))

    def n(name):
        return len(by.get(name, ()))

    def total(name, key):
        vals = [s.get(key) for s in by.get(name, ())]
        return None if None in vals else sum(vals)

    def ratio(a, b):
        return a / b if a is not None and b else 0.0

    runs, dry = by.get("algorithms.run", []), by.get("em.dry_run", [])
    deliveries = total("algorithms.run", "deliveries")
    alg_self = sum(own[s["id"]] for s in runs)
    loads = total("algorithms.run", "max_load")
    dry_loads = total("em.dry_run", "max_load")
    chosen = {s.get("p_o") for s in by.get("em.choose_po", ())}
    residuals = counts.get("residual_query", 0)
    v = {
        "algorithms.run_s": dur("algorithms.run"),
        "algorithms.self_s": alg_self,
        "algorithms.runs": n("algorithms.run"),
        "sim.deliveries": deliveries,
        "sim.us_per_delivery": None if deliveries is None
        else ratio(alg_self * 1e6, deliveries),
        "sim.local_join_s": dur("sim.local_join"),
        "sim.local_join_calls": n("sim.local_join"),
        "sim.oracle_s": dur("sim.oracle"),
        "sim.max_load_tuples": None if loads is None or dry_loads is None
        else loads + dry_loads,
        "em.io_blocks": total("em.replay", "io_blocks"),
        "em.simulate_s": dur("em.simulate"),
        "em.choose_po_s": dur("em.choose_po"),
        "em.dry_runs": n("em.dry_run"),
        "em.dry_run_s": dur("em.dry_run"),
        "em.dry_run_deliveries": total("em.dry_run", "deliveries"),
        "em.max_dry_run_p": max((s["p"] or 0 for s in dry), default=0),
        "em.useful_dry_run_ratio": ratio(len(chosen), len(dry)),
        "em.replay_s": dur("em.replay"),
        "analyzer.psi_star_s": dur("analyzer.psi_star"),
        "analyzer.psi_star_recursive_s": dur("analyzer.psi_star_recursive"),
        "analyzer.tau_star_calls": n("analyzer.tau_star"),
        "lp.solves": n("lp.solve"),
        "lp.solve_s": dur("lp.solve"),
        "lp.us_per_solve": ratio(dur("lp.solve") * 1e6, n("lp.solve")),
        "analyzer.lp_solves_per_residual": ratio(n("lp.solve"), residuals),
        "analyzer.share_lp_s": dur("analyzer.share_lp"),
        "analyzer.share_lp_calls": n("analyzer.share_lp"),
        "datagen.read_s": dur("datagen.read"),
        "datagen.gen_s": dur("datagen.gen"),
        "cli.self_s": sum(own[s["id"]] for s in by.get("cli.main", ())),
        "trace.overhead_ratio": overhead_ratio,
    }
    missing = sorted(name for name in expected if name not in by)
    for metric, (_, needs) in PER_LAYER.items():
        if any(name in missing for name in needs):
            v[metric] = None
    return v, missing
