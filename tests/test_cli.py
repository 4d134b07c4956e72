import gc
import hashlib
import json
import os
import random
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from mpcjoin import cli, datagen, em, sim
from mpcjoin.algorithms import run_algorithm
from mpcjoin.cli import main
from mpcjoin.query import QueryError, canonical_query

from conftest import star_triangle

REPO = Path(__file__).resolve().parent.parent


def test_analyze_family(capsys):
    assert main(["analyze", "--family", "C", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "tau_star: 3/2" in out
    assert "rho_star: 3/2" in out
    assert "psi_star: 2/1" in out


def test_analyze_lw4(capsys):
    assert main(["analyze", "--family", "LW", "--k", "4"]) == 0
    assert "psi_star: 2/1" in capsys.readouterr().out


def test_analyze_single_atom(capsys):
    assert main(["analyze", "--query", "q(x):-S(x)"]) == 0
    out = capsys.readouterr().out
    assert "tau_star: 1/1" in out and "psi_star: 1/1" in out


def test_analyze_shares(capsys):
    assert main(["analyze", "--family", "C", "--k", "3",
                 "--p", "64", "--m", "4096"]) == 0
    out = capsys.readouterr().out
    assert "lambda: 4/3" in out


def test_analyze_bad_server_count_exit_2(capsys):
    for p in ("-4", "0"):
        assert main(["analyze", "--family", "C", "--k", "3", "--p", p]) == 2
        captured = capsys.readouterr()
        assert "--p must be at least 1" in captured.err
        assert captured.out == ""


def test_analyze_bad_relation_size_exit_2(capsys):
    assert main(["analyze", "--family", "C", "--k", "3",
                 "--p", "64", "--m", "0"]) == 2
    captured = capsys.readouterr()
    assert "--m must be at least 1" in captured.err
    assert captured.out == ""


def test_parse_error_exit_2(capsys):
    assert main(["analyze", "--query", "q(x) :- S(x,y)"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_query_exit_2(capsys):
    assert main(["analyze"]) == 2


def test_generate_and_rerun_identical(tmp_path, capsys):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    base = ["--seed", "7", "generate", "--family", "C", "--k", "3",
            "--gen", "matching", "--m", "50"]
    assert main(base + ["--out", d1]) == 0
    assert main(base + ["--out", d2]) == 0
    for name in ("S1.tsv", "S2.tsv", "S3.tsv", "manifest.json"):
        with open(os.path.join(d1, name), "rb") as f1, \
                open(os.path.join(d2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_second_call_leaves_no_garbage(capsys):
    # the parser is built once per process; a call after the first one
    # allocates nothing that only the cyclic collector frees
    argv = ["analyze", "--family", "C", "--k", "3", "--p", "64"]
    assert main(argv) == 0
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_seed_environment_read_at_each_call(tmp_path, monkeypatch, capsys):
    def generate(d, *seed):
        assert main([*seed, "generate", "--family", "C", "--k", "3",
                     "--gen", "matching", "--m", "50", "--out", str(d)]) == 0
        return {f.name: f.read_bytes() for f in d.iterdir()}
    monkeypatch.setenv("MPCJOIN_SEED", "3")
    three = generate(tmp_path / "a")
    monkeypatch.setenv("MPCJOIN_SEED", "4")
    four = generate(tmp_path / "b")
    assert three != four
    assert four == generate(tmp_path / "c", "--seed", "4")
    assert three == generate(tmp_path / "d", "--seed", "3")


def test_run_with_oracle_check(tmp_path, capsys):
    csv_path = str(tmp_path / "load.csv")
    rc = main(["run", "--family", "C", "--k", "3", "--gen", "single_heavy",
               "--m", "200", "--alg", "triangle", "--p", "64",
               "--out", csv_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rounds=2" in out
    assert "oracle check: OK" in out
    assert open(csv_path).readline().startswith("round,server,relation")


def test_run_one_round_on_matching(capsys):
    rc = main(["run", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "100", "--alg", "one_round_skew", "--p", "64"])
    assert rc == 0
    assert "rounds=1" in capsys.readouterr().out


def test_run_auto_on_disconnected_queries(capsys):
    # A triangle plus an edge has a line's atom count and two degree-1
    # ends; two triangles have a cycle's degrees.  Neither is one walk.
    for text in ("Q(a,b,c,d,e):-R(a,b),S(b,c),T(c,a),U(d,e)",
                 "Q(a,b,c,d,e,f):-R(a,b),S(b,c),T(c,a),U(d,e),V(e,f),W(f,d)"):
        rc = main(["run", "--query", text, "--gen", "single_heavy", "--m", "30",
                   "--alg", "auto", "--p", "8"])
        out = capsys.readouterr().out
        assert rc == 0, text
        assert "algorithm=one_round_skew" in out
        assert "oracle check: OK" in out


def test_server_count_below_one_exit_2(capsys):
    j1 = ["--query", "Q(x,z,y) :- S1(x,z), S2(z,y)"]
    tri = ["--family", "C", "--k", "3"]
    for qf, alg, p in ((j1, "join_one_sided_skew", "0"),
                       (tri, "triangle", "0"), (tri, "one_round_skew", "-3")):
        rc = main(["run"] + qf + ["--gen", "matching", "--m", "50",
                                  "--alg", alg, "--p", p])
        captured = capsys.readouterr()
        assert rc == 2, alg
        assert "p must be at least 1" in captured.err
        assert "p=" not in captured.out


def test_run_on_instance_of_other_query_exit_2(tmp_path, capsys):
    d = str(tmp_path / "tri")
    assert main(["generate", "--family", "C", "--k", "3", "--gen", "matching",
                 "--m", "50", "--out", d]) == 0
    capsys.readouterr()
    assert main(["run", "--family", "L", "--k", "3", "--indir", d]) == 2
    captured = capsys.readouterr()
    assert "written for C3" in captured.err
    assert "oracle check" not in captured.out


def test_run_from_generated_instance(tmp_path, capsys):
    d = str(tmp_path / "inst")
    assert main(["generate", "--family", "L", "--k", "3",
                 "--gen", "coin_flip", "--m", "27", "--out", d]) == 0
    rc = main(["run", "--family", "L", "--k", "3", "--indir", d,
               "--alg", "line", "--p", "8"])
    assert rc == 0
    assert "oracle check: OK" in capsys.readouterr().out


def test_run_reads_tsv_lines_in_any_order(tmp_path, capsys):
    # a hand-edited instance file need not keep the written line order
    d = str(tmp_path / "inst")
    assert main(["generate", "--family", "C", "--k", "3", "--gen", "single_heavy",
                 "--m", "40", "--out", d]) == 0
    q = canonical_query("C", 3)
    written = datagen.read_instance(q, d)
    run = ["run", "--family", "C", "--k", "3", "--indir", d, "--alg", "triangle",
           "--p", "8", "--out", str(tmp_path / "load.csv")]
    capsys.readouterr()
    assert main(run) == 0
    report = capsys.readouterr().out, (tmp_path / "load.csv").read_bytes()
    for name in ("S1", "S2", "S3"):
        path = os.path.join(d, name + ".tsv")
        with open(path) as f:
            lines = f.readlines()
        shuffled = lines[:]
        random.Random(name).shuffle(shuffled)
        assert shuffled != lines
        with open(path, "w") as f:
            f.writelines(shuffled)
    assert datagen.read_instance(q, d) == written
    assert main(run) == 0
    assert (capsys.readouterr().out, (tmp_path / "load.csv").read_bytes()) == report


def test_sweep_p_writes_csv(tmp_path, capsys):
    path = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "200", "--alg", "one_round_skew",
               "--p-list", "8,27", "--out", path])
    assert rc == 0
    lines = open(path).read().strip().splitlines()
    assert lines[0].startswith("p,algorithm")
    assert len(lines) == 3


def test_sweep_p_one_bound_is_largest_relation(tmp_path, capsys):
    # At p = 1 the packing bound is the largest relation, in tuples.
    path = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "100", "--p-list", "1", "--out", path])
    assert rc == 0
    assert open(path).read().splitlines()[1] == "1,clique,1,300,4200,100.0,3.0000"


def test_sweep_p_bound_is_largest_tuple_bound_over_x(tmp_path, capsys):
    # Ldagger4 mixes unary and binary atoms: the worst residual in tuples
    # is not the worst in bits.
    path = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--family", "Ldagger", "--k", "4", "--gen", "matching",
               "--m", "400", "--p-list", "8,27,64", "--out", path])
    assert rc == 0
    assert open(path).read().splitlines()[1:] == [
        "8,one_round_skew,1,1301,18018,237.8,5.4700",
        "27,one_round_skew,1,1104,14472,175.5,6.2914",
        "64,one_round_skew,1,721,9981,141.4,5.0982"]


def test_sweep_p_runs_count_loads_only(monkeypatch, capsys):
    # A load sweep reads only the ledger, so it never builds the output
    # (T3 single_heavy on x1 at m = 400 would hold 400**3 rows).
    modes = []

    def spy(alg, db, p, seed, counting=False, **shared):
        modes.append(counting)
        return run_algorithm(alg, db, p, seed, counting=True, **shared)   # never OOM

    monkeypatch.setattr(em, "run_algorithm", spy)
    rc = main(["sweep", "--family", "T", "--k", "3", "--gen", "single_heavy",
               "--m", "400", "--p-list", "1,64"])
    assert rc == 0
    assert modes == [True, True]


def test_sweep_p_list_unsorted_and_repeated(tmp_path, capsys):
    # One sweep shares its dry runs across p; its rows are those of one
    # sweep per p, in the order given, a repeated p included.
    def rows(p_list):
        path = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--family", "C", "--k", "4", "--gen", "single_heavy",
                     "--m", "200", "--p-list", p_list, "--out", path]) == 0
        return open(path).read().splitlines()

    swept = rows("64,8,64")
    alone = [rows(p) for p in ("64", "8", "64")]
    assert swept[0] == alone[0][0]
    assert swept[1:] == [r[1] for r in alone]
    assert swept[1] == swept[3] != swept[2]


@pytest.mark.parametrize("argv, out_sha, csv_sha", [
    # equal sizes: the bound is M/p^(1/psi*) at psi*'s heavy set
    (["--family", "C", "--k", "4", "--gen", "single_heavy", "--heavy-var", "x1",
      "--m", "2000", "--alg", "cycle", "--p-list", "8,64,512"],
     "3c7c6d421275a13c64dd77f0843db9a0c229bd92a8dd6a7a5b918f6e42d7e229",
     "47f9eef86f24cb08c9b5c7ed29557fa3ae11425bf7ad81c0009ab4de1e5dd718"),
    # unequal sizes 123/137/135/140: one packing LP per X not skipped
    (["--family", "LW", "--k", "4", "--gen", "coin_flip", "--m", "300",
      "--alg", "lw", "--p-list", "8,64"],
     "e8184115a33b7b5761697f6cd9a8e260cd698ea56678c2fd50a2ab5dcc1ceb8d",
     "0224e3b5ffbf576e048cedf1b6d323cb41c1ba464050a40e48fc2ecde9798676"),
])
def test_sweep_p_output_is_pinned(tmp_path, capsys, argv, out_sha, csv_sha):
    # stdout without the command echo and the csv path, and the csv bytes
    path = str(tmp_path / "sweep.csv")
    assert main(["sweep"] + argv + ["--out", path]) == 0
    out = "".join(line for line in capsys.readouterr().out.splitlines(True)
                  if not line.startswith(("# mpcjoin", "csv: ")))
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == csv_sha


def test_sweep_p_flags_ratio_over_budget_exit_1(capsys):
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "100", "--p-list", "8", "--C", "0.001"])
    assert rc == 1
    assert "EXCEEDS 0.00" in capsys.readouterr().out


def test_sweep_w_io(capsys):
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "single_heavy",
               "--m", "300", "--alg", "triangle", "--W", "300,1200",
               "--B", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("p_o=") == 2


def test_sweep_w_prints_replay_warnings_on_stderr(tmp_path, capsys):
    # B = 100 at W = 400 leaves room for at most 4 partition buckets.
    path = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "agm_worst",
               "--m", "900", "--alg", "triangle", "--W", "400,6400",
               "--B", "100", "--out", path])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: W=400: partition fan-out p_o*B=3200 exceeds W=400; "
        "counted as if one partial block per bucket still fits"]
    assert "warning" not in captured.out
    assert open(path).read().splitlines()[1:] == [
        "400,100,32,1,189,13.5,14.0000", "6400,100,1,1,27,3.4,8.0000"]


def test_sweep_w_zero_block_size_exit_2(capsys):
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "50", "--alg", "triangle", "--W", "300", "--B", "0"])
    assert rc == 2
    assert "need 1 <= B <= W" in capsys.readouterr().err


def test_sweep_empty_list_rejected(capsys):
    rc = main(["sweep", "--family", "C", "--k", "3", "--p-list", ","])
    assert rc == 2


def test_run_check_reports_oracle_mismatch_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_join",
                        lambda db: sim.oracle_join(db) | {(0, 0, 0, 0)})
    rc = main(["run", "--family", "L", "--k", "3", "--gen", "matching",
               "--m", "50", "--alg", "line", "--p", "8"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "ORACLE MISMATCH: expected 51 rows, got 50" in out
    assert "sample missing: [(0, 0, 0, 0)]" in out
    assert "oracle check: OK" not in out


def test_run_check_skips_past_the_input_guard(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ORACLE_GUARD", 100)
    rc = main(["run", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "50", "--alg", "triangle", "--p", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle check: skipped (150 input tuples exceed 100)" in out


# Budget for each command, fixed before the test first ran; both took
# 0.2 s on a 2-core VM, and the pairwise join skipped both checks.
_SKEWED_CHECK_S = 10


def test_run_check_passes_on_skewed_small_outputs(tmp_path, capsys):
    # the star triangle at i <= 6,000 and K4 single_heavy at m = 5,000:
    # pairwise joins of their first atoms list about m^2 rows for outputs
    # of 17,998 and 2 rows
    datagen.write_instance(star_triangle(6000), str(tmp_path))
    for argv, rows in (
            (["run", "--family", "C", "--k", "3", "--indir", str(tmp_path),
              "--alg", "hc", "--p", "64", "--check"], 17998),
            (["run", "--family", "K", "--k", "4", "--gen", "single_heavy",
              "--m", "5000", "--alg", "clique", "--p", "64", "--check"], 2)):
        start = time.perf_counter()
        assert main(argv) == 0
        took = time.perf_counter() - start
        assert "oracle check: OK (%d rows)" % rows in capsys.readouterr().out
        assert took < _SKEWED_CHECK_S, argv


def test_run_check_skips_when_the_oracle_runs_out_of_room(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_join", lambda db: sim.oracle_join(db, guard=10))
    rc = main(["run", "--family", "L", "--k", "3", "--gen", "agm_worst",
               "--m", "64", "--alg", "line", "--p", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle check: skipped (instance too large for oracle join)" in out
    assert "oracle check: OK" not in out


def test_run_no_check_prints_no_oracle_line(capsys):
    rc = main(["run", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "50", "--alg", "triangle", "--p", "8", "--no-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "algorithm=triangle" in out
    assert "oracle check" not in out


def test_sweep_w_no_server_count_fits_exit_2(capsys):
    # no power of two up to the 150 input tuples fits W = 1: choose_po stops
    # there instead of dry-running ever larger p
    t0 = time.perf_counter()
    rc = main(["sweep", "--family", "C", "--k", "3", "--gen", "matching",
               "--m", "50", "--alg", "triangle", "--W", "1", "--B", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no server count up to 150 fits the memory budget W=1"]


@pytest.mark.parametrize("argv, msg", [
    (["analyze", "--family", "C"], "error: --family needs --k"),
    (["sweep", "--family", "C", "--k", "3", "--m", "50", "--W", "100"],
     "error: --W needs --B"),
    (["sweep", "--family", "C", "--k", "3", "--p-list", "8,x"],
     "expected comma-separated integers"),
    (["generate", "--family", "C", "--k", "3", "--m", "50"],
     "the following arguments are required: --out"),
    (["run", "--family", "C", "--k", "3", "--gen", "single_heavy", "--m", "-5",
      "--alg", "triangle", "--p", "8"], "error: m must be >= 1"),
    (["run", "--family", "C", "--k", "3", "--gen", "coin_flip", "--m", "0",
      "--alg", "triangle", "--p", "8"], "error: m must be >= 1"),
    (["sweep", "--family", "C", "--k", "3", "--m", "50", "--C", "0"],
     "error: --C must be positive, got 0"),
    (["sweep", "--family", "C", "--k", "3", "--m", "50", "--C", "-1"],
     "error: --C must be positive, got -1"),
    (["run", "--family", "C", "--k", "3", "--gen", "single_heavy",
      "--heavy-var", "nope"], "error: unknown variable 'nope'"),
    (["analyze", "--query", "Q(x,x) :- R(x)"], "error: repeated variable in head"),
    (["sweep", "--family", "C", "--k", "3", "--m", "50", "--B", "10"],
     "error: --B needs --W"),
    (["sweep", "--family", "C", "--k", "3", "--gen", "matching", "--m", "50",
      "--alg", "triangle", "--p-list", "8", "--W", "100", "--B", "10"],
     "error: --p-list does not apply to --W"),
    (["sweep", "--family", "C", "--k", "3", "--gen", "matching", "--m", "50",
      "--alg", "triangle", "--C", "16", "--W", "100", "--B", "10"],
     "error: --C does not apply to --W"),
    (["generate", "--family", "C", "--k", "3", "--m", "5", "--indir",
      "/nonexistent", "--out", "D"], "unrecognized arguments: --indir"),
    (["run", "--family", "C", "--k", "3", "--gen", "matching", "--heavy-var",
      "x1", "--m", "50", "--alg", "hc", "--p", "8"],
     "error: --heavy-var needs --gen single_heavy"),
    (["run", "--family", "C", "--k", "3", "--indir", "D", "--heavy-var", "x1"],
     "error: --heavy-var does not apply to --indir"),
    (["run", "--family", "C", "--k", "3", "--indir", "D", "--gen", "agm_worst",
      "--m", "5", "--alg", "hc", "--p", "8"],
     "error: --gen does not apply to --indir"),
    (["sweep", "--family", "C", "--k", "3", "--indir", "D", "--m", "5",
      "--alg", "hc"], "error: --m does not apply to --indir"),
    (["run", "--query", "Q(x1,x2,x3) :- S1(x1,x2), S2(x2,x3), S3(x3,x1)",
      "--family", "L", "--k", "4", "--m", "20", "--alg", "hc", "--p", "8"],
     "error: --family does not apply to --query"),
    (["analyze", "--query", "Q(x,y) :- S(x,y)", "--k", "5"],
     "error: --k needs --family"),
    (["generate", "--query", "Q(x,y) :- S(x,y)", "--k", "4", "--m", "5",
      "--out", "D2"], "error: --k needs --family"),
    (["analyze", "--family", "C", "--k", "3", "--m", "5"],
     "error: --m needs --p"),
    (["generate", "--family", "C", "--k", "3", "--heavy-var", "x1",
      "--out", "D2"], "error: --heavy-var needs --gen single_heavy"),
])
def test_bad_arguments_exit_2(argv, msg, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert msg in captured.err
    assert captured.err.count("error:") == 1
    if " needs " in msg or " does not apply to " in msg:
        # a flag combination is rejected before the `# mpcjoin` header
        assert captured.out == ""


def _readme_argvs():
    """Every `mpcjoin ...` line of the README's `sh` blocks."""
    text = (REPO / "README.md").read_text()
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("mpcjoin "):
                yield shlex.split(line)[1:]


def _perfbench_argvs(monkeypatch):
    """Every command line the benchmark runs, full size and tiny, at each
    seed variant; its library-call jobs run no command line."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads
    for w in workloads.WORKLOADS:
        for tiny in (False, True):
            for seed in range(workloads.VARIANTS):
                for argv in workloads.setup_argvs(w, seed, tiny):
                    yield [a.format(inst="I", work="W") for a in argv]
                for job in workloads.jobs(w, seed, tiny):
                    if job.kind != "psi_rec":
                        yield job.bind("I", "W")


def test_shipped_command_lines_pass_the_flag_table(monkeypatch):
    # parsed and checked, not run
    readme = list(_readme_argvs())
    bench = list(_perfbench_argvs(monkeypatch))
    assert len(readme) == 5
    assert {next(a for a in argv if a in cli.FLAG_RULES)
            for argv in bench} == set(cli.FLAG_RULES)
    bad = []
    for argv in readme + bench:
        try:
            cli.check_flags(cli.build_parser().parse_args(argv))
        except QueryError as e:
            bad.append((argv, str(e)))
    assert bad == []


def test_run_indir_without_seed_exit_2(tmp_path, capsys):
    out = str(tmp_path / "inst")
    assert main(["generate", "--family", "C", "--k", "3", "--m", "20",
                 "--out", out]) == 0
    mpath = os.path.join(out, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    del manifest["seed"]
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    capsys.readouterr()
    assert main(["run", "--family", "C", "--k", "3", "--indir", out,
                 "--alg", "triangle", "--p", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: not a JSON object" % mpath)


def test_sweep_w_on_empty_instance(tmp_path, capsys):
    out = str(tmp_path / "inst")
    assert main(["generate", "--family", "C", "--k", "3", "--m", "5",
                 "--out", out]) == 0
    for name in ("S1", "S2", "S3"):
        open(os.path.join(out, name + ".tsv"), "w").close()
    path = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--family", "C", "--k", "3", "--indir", out,
                 "--alg", "triangle", "--W", "100", "--B", "10",
                 "--out", path]) == 0
    assert open(path).read().splitlines() == [
        "W,B,p_o,rounds,io_blocks,ref_blocks,ratio", "100,10,1,1,0,0.0,0.0000"]


def test_run_indir_arity_mismatch_exit_2(tmp_path, capsys):
    out = str(tmp_path / "inst")
    assert main(["generate", "--family", "C", "--k", "3", "--m", "20",
                 "--out", out]) == 0
    path = os.path.join(out, "S1.tsv")
    with open(path, "a") as f:
        f.write("1\t2\t3\n")
    capsys.readouterr()
    assert main(["run", "--family", "C", "--k", "3", "--indir", out,
                 "--alg", "triangle", "--p", "8"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: %s: tuple arity mismatch in S1 (a line has other than 2 fields)"
        % path]
