"""Quick self-test of the benchmark (about 15 seconds).

    python3 perfbench/selftest.py

For each workload it runs one tiny job list untraced and traced, and checks
that the result line has every metric of BENCHMARK.json with its unit and
no failure, and that stderr names every metric with its unit.  It then checks that a tampered golden digest is counted as a
failed job, and that the benchmark exits non-zero without a result line
in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT, run=RUN):
    proc = subprocess.run([sys.executable, run] + args, cwd=cwd, timeout=180,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def _check_metrics(result, specs, where):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    assert set(got) == set(want), "%s: metrics %s, want %s" % (
        where, sorted(got), sorted(want))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, "%s: %s unit %s" % (where, name, got[name]["unit"])
        assert isinstance(got[name]["value"], (int, float)), "%s: %s = %r" % (
            where, name, got[name]["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    tiny = ["--seed", "0", "--seconds", "0", "--tiny"]

    for w in (wl["name"] for wl in bench["workloads"]):
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            where = "%s --trace %s" % (w, trace)
            rc, res, err = _run(["--workload", w, "--trace", trace] + tiny)
            assert rc == 0 and res is not None, "%s: exit %d\n%s" % (where, rc, err)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, \
                "%s: %s\n%s" % (where, res, err)
            _check_metrics(res, specs, where)
            want = (run.END_TO_END_UNITS if trace == "0"
                    else {k: u for k, (u, _) in tracing.PER_LAYER.items()})
            printed = {f[0]: f[-1] for f in map(str.split, err.splitlines()) if len(f) == 3}
            assert all(printed.get(k) == u for k, u in want.items()), \
                "%s: stderr lacks some of %s" % (where, sorted(want))
            print("ok   %s: %d jobs, %d metrics" % (where, res["attempted"],
                                                    len(res["metrics"])))

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    golden["digests"][workloads.jobs("join_run", 0, tiny=True)[0].key] = "0" * 64
    tampered = os.path.join(out, "golden-tampered.json")
    with open(tampered, "w") as f:
        json.dump(golden, f)
    rc, res, _ = _run(["--workload", "join_run", "--trace", "0", "--golden", tampered]
                      + tiny)
    assert rc == 0 and not res["correct"] and res["failed"] >= 1, res
    assert res["metrics"]["ok_ratio"]["value"] < 1, res
    with open(os.path.join(out, "result-join_run-seed0-trace0-tiny.json")) as f:
        assert json.load(f)["metrics"]["failed_ratio"]["value"] > 0
    print("ok   tampered digest: %d of %d jobs failed" % (res["failed"], res["attempted"]))

    bare = os.path.join(out, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, res, err = _run(["--workload", "join_run", "--trace", "0"] + tiny, cwd=bare,
                        run=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert rc != 0 and res is None, (rc, res)
    print("ok   without sources: exit %d, %s" % (rc, err.strip()))
    print("selftest passed")


if __name__ == "__main__":
    main()
