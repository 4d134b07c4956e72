"""Simulator-cost benchmark of mpcjoin (standard library only).

    python3 perfbench/run.py --workload join_run --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  One workload per invocation:

1. set-up, timed 3 times before and 2 times after step 2, each in a fresh
   process: interpreter start, `import mpcjoin`, and `mpcjoin generate` of
   the workload's instances;
2. one workload process (address space capped at `AS_CAP_MB`) runs the
   job list back to back, in whole batches, until `--seconds` have passed;
   with `--trace 1` it runs one untraced and then one traced batch;
3. every job's output is checked against the oracle or a closed form, and
   its digest against `golden.json`, recorded at the seed commit.

Times in the result line are corrected for drift in machine speed by a
probe loop timed during every job and around every set-up (see drift.py);
raw wall times are in the result file.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
traced).  A result file with the machine, Python version, commit and seed
is written to `perfbench/out/`.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import drift  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS_BEFORE, SETUP_REPS_AFTER = 3, 2
AS_CAP_MB = 1024           # address-space cap of every workload process
DEADLINE_S = 170           # the whole invocation must end within 180 s
GOLDEN = os.path.join(HERE, "golden.json")

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "job_s_p50": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio",
                    "failed_ratio": "ratio"}
# Printed on stderr and kept in the result file, but not in the result
# line, where no metric may be 0: `ok_ratio` carries it instead.
NOT_IN_RESULT_LINE = ("failed_ratio",)


def _limit_memory():
    cap = AS_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _child(mode, spec, deadline):
    """Run worker.py in its own capped process; returns its exit code."""
    path = os.path.join(spec["scratch"], "spec.json")
    with open(path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), mode, path],
                            cwd=ROOT, env=env, preexec_fn=_limit_memory,
                            stdout=subprocess.DEVNULL)
    # A blocking wait returns as soon as the child exits; wait(timeout=...)
    # polls in steps of up to 50 ms, which would quantize set-up times.
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        return proc.wait()
    finally:
        killer.cancel()


def _time_setup(spec, reps, times, deadline):
    """Time `reps` set-ups into spec["inst"]; appends (wall, corrected)
    pairs to `times`."""
    before = drift.probes(10)
    for _ in range(reps):
        shutil.rmtree(spec["inst"], ignore_errors=True)
        t0 = time.perf_counter()
        rc = _child("setup", spec, deadline)
        wall = time.perf_counter() - t0
        after = drift.probes(10)
        times.append((wall, drift.corrected(wall, before + after)))
        before = after
        if rc != 0:
            print("error: set-up failed (exit %s)" % rc, file=sys.stderr)
            return False
    return True


def _machine():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(), "python": sys.version.split()[0],
            "git_commit": commit}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one tiny job per workload (self-test)")
    ap.add_argument("--golden", default=GOLDEN, help="golden digest file")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's digests into --golden instead "
                         "of checking them (only at the seed commit)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "mpcjoin", "cli.py")):
        print("error: no mpcjoin sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    name = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                    "-tiny" if args.tiny else "")
    outdir = os.path.join(HERE, "out")
    scratch = os.path.join(outdir, "%s-%d" % (name, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    spec = {"workload": args.workload, "seed": args.seed,
            "tiny": args.tiny, "trace": args.trace, "seconds": args.seconds,
            "inst": os.path.join(scratch, "inst"), "scratch": scratch,
            "result": os.path.join(scratch, "result.json"),
            "spans": os.path.join(outdir, "spans-%s.json" % name)}
    try:
        # Untimed warm-up: compiles the bytecode cache, as an installed
        # package would have it.
        _child("warm", spec, deadline)
        setup_times = []
        if not _time_setup(spec, SETUP_REPS_BEFORE, setup_times, deadline):
            return 1
        rc = _child("batch", spec, deadline)
        if rc != 0:
            print("error: workload process failed (exit %s)" % rc, file=sys.stderr)
            return 1
        # More set-ups after the batch, into a throwaway directory, so the
        # median samples the machine at both ends of the run.
        if not _time_setup(dict(spec, inst=os.path.join(scratch, "again")),
                           SETUP_REPS_AFTER, setup_times, deadline):
            return 1
        with open(spec["result"]) as f:
            res = json.load(f)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    batches = res["batches"] + ([res["traced"]["batch"]] if res["traced"] else [])
    records = [rec for b in batches for rec in b["jobs"]]
    with open(args.golden) as f:
        golden = json.load(f)
    digests = golden.setdefault("digests", {})
    for rec in records:
        if rec["error"] is not None:
            continue
        if args.write_golden:
            digests[rec["key"]] = rec["digest"]
        elif digests.get(rec["key"]) is None:
            rec["error"] = "no golden digest for this job"
        elif digests[rec["key"]] != rec["digest"]:
            rec["error"] = "digest %s != golden %s" % (rec["digest"][:12],
                                                       digests[rec["key"]][:12])
    if args.write_golden:
        with open(args.golden, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")

    failed = [rec for rec in records if rec["error"] is not None]
    for rec in failed:
        print("FAILED %s: %s" % (rec["key"], rec["error"]), file=sys.stderr)
    attempted = len(records)
    if args.trace:
        units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
        metrics = {k: _metric(v, units[k])
                   for k, v in res["traced"]["layers"].items()}
        for span in res["traced"]["missing"]:
            print("MISSING span %s: a traced call site no longer fires" % span,
                  file=sys.stderr)
    else:
        job_times = [rec["ref_seconds"] for b in res["batches"] for rec in b["jobs"]]
        values = {
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "batch_s": statistics.median(b["ref_seconds"] for b in res["batches"]),
            "job_s_p50": statistics.median(job_times),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1 - len(failed) / attempted,
            "failed_ratio": len(failed) / attempted,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    for k, m in metrics.items():
        print("%-32s %s %s" % (k, m["value"], m["unit"]), file=sys.stderr)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "seconds": args.seconds,
              "variant": workloads.variant(args.seed), "machine": _machine(),
              "setup_s_all": setup_times,
              "batch_wall_s": [b["seconds"] for b in res["batches"]],
              "missing_spans": res["traced"]["missing"] if res["traced"] else [],
              "absent_call_sites": (res["traced"]["absent_call_sites"]
                                    if res["traced"] else []),
              "jobs": records, "metrics": metrics}
    with open(os.path.join(outdir, "result-%s.json" % name), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: m for k, m in metrics.items()
                                  if k not in NOT_IN_RESULT_LINE}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
