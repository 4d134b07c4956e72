"""Workload process: runs one workload's jobs back to back and reports.

Started by `run.py`, one process per workload, with an address-space cap
already set.  Modes:

    worker.py warm   SPEC   import mpcjoin only (fills the bytecode cache)
    worker.py setup  SPEC   write the workload's instances (timed by run.py)
    worker.py batch  SPEC   run untraced batches, then optionally one traced

SPEC is a JSON file written by `run.py`; the result is written to the
`result` path it names.  The process imports mpcjoin from `src/` of the
checkout (on PYTHONPATH) and calls `mpcjoin.cli.main(argv)` in-process with
stdout captured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import drift
import tracing
import workloads


def _call(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["mpcjoin"] + argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.argv = saved
    return rc, out.getvalue(), err.getvalue()


def setup(spec):
    from mpcjoin import cli
    for argv in workloads.setup_argvs(spec["workload"], spec["seed"], spec["tiny"]):
        rc, _, err = _call(cli.main, [a.format(inst=spec["inst"]) for a in argv])
        if rc != 0:
            raise SystemExit("setup failed (exit %d): %s" % (rc, err.strip()))


class Runner:
    def __init__(self, spec):
        from mpcjoin import algorithms, analyzer, cli, datagen, em, query
        self.mods = {"cli": cli, "algorithms": algorithms, "analyzer": analyzer,
                     "em": em, "datagen": datagen}
        self.cli = cli
        self.analyzer = analyzer
        self.query = query
        self.spec = spec
        self.jobs = workloads.jobs(spec["workload"], spec["seed"], spec["tiny"])
        self.tracer = None

    def traced(self, name, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def run_job(self, job, work, job_id):
        """Returns the job record; `seconds` and `ref_seconds` time only the
        mpcjoin call (see drift.Sampler)."""
        os.makedirs(work, exist_ok=True)
        argv = job.bind(self.spec["inst"], work)
        rec = {"key": job.key, "id": job_id, "error": None, "digest": None}
        value, stdout = None, ""
        if self.tracer is not None:
            self.tracer.job = job_id
        with drift.Sampler() as clock:
            try:
                if job.kind == "psi_rec":
                    q = self.query.canonical_query(argv[2], int(argv[4]))
                    value = self.traced("analyzer.psi_star_recursive",
                                        self.analyzer.psi_star_recursive)(q)
                else:
                    rc, stdout, err = _call(self.traced("cli.main", self.cli.main), argv)
                    if rc != 0:
                        rec["error"] = "exit %d: %s" % (rc, (err or stdout).strip()[-300:])
            except Exception:
                rec["error"] = traceback.format_exc(limit=4)[-600:]
        rec["seconds"], rec["ref_seconds"] = clock.seconds, clock.ref_seconds
        if rec["error"] is None:
            try:
                rec["error"], rec["digest"] = workloads.check_and_digest(
                    job, stdout, work, value)
            except (OSError, ValueError, IndexError) as e:
                rec["error"] = "check failed: %r" % e
        shutil.rmtree(work, ignore_errors=True)
        return rec

    def batch(self, tag):
        work = os.path.join(self.spec["scratch"], "work")
        recs = [self.run_job(job, work, "%s.j%d" % (tag, i))
                for i, job in enumerate(self.jobs)]
        return {"seconds": sum(r["seconds"] for r in recs),
                "ref_seconds": sum(r["ref_seconds"] for r in recs), "jobs": recs}

    def traced_setup(self):
        """Re-write the instances under tracing, for `datagen.gen_s`."""
        inst = os.path.join(self.spec["scratch"], "traced_inst")
        for i, argv in enumerate(workloads.setup_argvs(
                self.spec["workload"], self.spec["seed"], self.spec["tiny"])):
            self.tracer.job = "setup.j%d" % i
            _call(self.traced("cli.main", self.cli.main),
                  [a.format(inst=inst) for a in argv])
        shutil.rmtree(inst, ignore_errors=True)


def batch(spec):
    r = Runner(spec)
    out = {"batches": [], "traced": None}
    start = time.perf_counter()
    # Closed loop, one client: whole batches until --seconds have passed.
    while True:
        out["batches"].append(r.batch("b%d" % len(out["batches"])))
        if spec["trace"] or time.perf_counter() - start >= spec["seconds"]:
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spec["trace"]:
        r.tracer = tracing.Tracer()
        absent = r.tracer.install(tracing.patch_table(r.mods))
        r.traced_setup()
        traced = r.batch("t0")
        r.tracer.uninstall()
        ratio = traced["ref_seconds"] / out["batches"][0]["ref_seconds"]
        values, missing = tracing.layer_metrics(
            r.tracer.spans, r.tracer.counts,
            workloads.EXPECTED_SPANS[spec["workload"]], ratio)
        with open(spec["spans"], "w") as f:
            json.dump({"workload": spec["workload"], "seed": spec["seed"],
                       "jobs": {rec["id"]: rec["key"] for rec in traced["jobs"]},
                       "counts": dict(r.tracer.counts),
                       "spans": r.tracer.spans}, f)
        out["traced"] = {"batch": traced, "layers": values, "missing": missing,
                         "absent_call_sites": absent}
    return out


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    if mode == "warm":
        import mpcjoin.cli  # noqa: F401
        return
    if mode == "setup":
        setup(spec)
        return
    result = batch(spec)
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
