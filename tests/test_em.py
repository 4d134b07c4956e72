import pytest

from mpcjoin.em import (EMConfig, IOReport, MemoryOverflow, choose_po,
                        replay_io, simulate_em)
from mpcjoin.datagen import gen_matching, gen_single_heavy
from mpcjoin.query import canonical_query
from mpcjoin.sim import LoadReport, oracle_join


def triangle():
    return canonical_query("C", 3)


def test_config_validation():
    EMConfig(10, 10)
    with pytest.raises(ValueError):
        EMConfig(10, 11)
    with pytest.raises(ValueError):
        EMConfig(10, 0)


def test_everything_fits_single_scan():
    db = gen_matching(triangle(), 100, 1)
    out, io = simulate_em(db, W=1000, B=10)
    assert out == oracle_join(db)
    assert io.p_o == 1
    # 300 input tuples in blocks of 10: one scan
    assert io.io_blocks == 30
    assert io.phases["partition"] == 0 and io.phases["write"] == 0


def test_phases_sum_to_total():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    for W in (200, 800, 3200):
        _, io = simulate_em(db, W=W, B=20, alg="triangle")
        assert io.io_blocks == sum(io.phases.values())
        assert io.r >= 1 and io.p_o >= 1


def test_memory_residency_respected():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    _, io = simulate_em(db, W=300, B=10, alg="triangle")
    assert io.max_resident <= 300


def test_output_equals_oracle_across_w():
    db = gen_single_heavy(triangle(), 300, "x2", 4)
    want = oracle_join(db)
    for W in (150, 600, 2400):
        out, io = simulate_em(db, W=W, B=10, alg="triangle")
        assert out == want


def test_more_memory_never_costs_more():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    cache = {}
    prev = None
    for W in (200, 400, 800, 1600, 3200):
        _, io = simulate_em(db, W=W, B=20, alg="triangle", cache=cache)
        if prev is not None:
            assert io.io_blocks <= prev
        prev = io.io_blocks


def test_choose_po_minimal_power_of_two():
    loads = {1: 100, 2: 60, 4: 30, 8: 18, 16: 9, 32: 5, 64: 3, 128: 2,
             256: 1, 512: 1, 1024: 1}

    def measure(p):
        return 2, loads.get(p, 1)

    assert choose_po(measure, W=200) == 1       # 2*100 <= 200
    assert choose_po(measure, W=100) == 4       # 2*30 <= 100 < 2*60
    assert choose_po(measure, W=19) == 16


def test_choose_po_gives_up_at_cap():
    with pytest.raises(MemoryOverflow):
        choose_po(lambda p: (1, 10 ** 9), W=10, p_cap=1 << 10)


def test_choose_po_probes_every_power_up_to_cap():
    # fits first at 2^20; the cap is 2^24
    def measure(p):
        return 1, 1 if p >= 1 << 20 else 10 ** 9

    assert choose_po(measure, W=10) == 1 << 20


def test_choose_po_never_probes_past_answer():
    seen = []

    def measure(p):
        seen.append(p)
        return 1, 1 if p >= 32 else 100

    p_o = choose_po(measure, W=10)
    assert p_o == 32
    assert max(seen) == p_o
    assert seen == [1, 2, 4, 8, 16, 32]


def test_dry_run_cache_keyed_by_algorithm_and_instance():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    cache = {}
    simulate_em(db, W=200, B=20, alg="triangle", seed=1,
                compute_output=False, cache=cache)
    for alg, seed in (("hc", 1), ("triangle", 2)):
        _, shared = simulate_em(db, W=200, B=20, alg=alg, seed=seed,
                                compute_output=False, cache=cache)
        _, own = simulate_em(db, W=200, B=20, alg=alg, seed=seed,
                             compute_output=False)
        assert (shared.p_o, shared.r, shared.io_blocks) == \
            (own.p_o, own.r, own.io_blocks)
    other = gen_single_heavy(triangle(), 800, "x1", 3)
    with pytest.raises(ValueError):
        simulate_em(other, W=200, B=20, alg="triangle", seed=1, cache=cache)


def test_replay_flags_overflow():
    rep = LoadReport({"R": 8}, [{(0, "R"): 50}, {(0, "R"): 60}])
    with pytest.raises(MemoryOverflow):
        replay_io(rep, 100, EMConfig(100, 10), p_o=2)


def test_warnings_when_fanout_exceeds_memory():
    rep = LoadReport({"R": 8}, [{(s, "R"): 1 for s in range(64)}])
    io = replay_io(rep, 64, EMConfig(32, 8), p_o=64)
    assert any("p_o" in w for w in io.warnings)


def test_io_report_csv(tmp_path):
    io = IOReport(12, {"init": 2, "partition": 4, "load": 3, "write": 3},
                  p_o=4, r=2, max_resident=9)
    path = str(tmp_path / "io.csv")
    io.write_csv(path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "phase,blocks"
    assert lines[-1] == "total,12"
