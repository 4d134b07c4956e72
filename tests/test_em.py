import pytest

from mpcjoin.algorithms import run_algorithm
from mpcjoin.em import MemoryOverflow, choose_po, replay_io, simulate_em
from mpcjoin.datagen import (DatabaseInstance, RelationInstance, gen_matching,
                             gen_single_heavy)
from mpcjoin.query import canonical_query
from mpcjoin.sim import LoadReport, oracle_join


def triangle():
    return canonical_query("C", 3)


def test_config_validation():
    # 1 <= B <= W is checked for every W before any dry run.
    db = gen_matching(triangle(), 10, 1)
    assert len(simulate_em(db, [10], 10)) == 1
    for Ws, B in (([10, 9], 10), ([10], 0)):
        with pytest.raises(ValueError, match="need 1 <= B <= W"):
            simulate_em(db, Ws, B, alg="no_such_strategy")


def test_everything_fits_single_scan():
    db = gen_matching(triangle(), 100, 1)
    io, = simulate_em(db, [1000], 10)
    assert run_algorithm("auto", db, io.p_o, 0).output == oracle_join(db)
    assert io.p_o == 1
    # 300 input tuples in blocks of 10: one scan
    assert io.io_blocks == 30
    assert io.phases["partition"] == 0 and io.phases["write"] == 0


def test_empty_instance_runs_on_one_server():
    # no input tuples: p = 1 is still probed, and nothing moves
    q = triangle()
    db = DatabaseInstance(q, {a.relation: RelationInstance(a.relation, 2, (), 5)
                              for a in q.atoms}, 0)
    io, = simulate_em(db, [100], 10, alg="triangle")
    assert io.p_o == 1
    assert io.io_blocks == 0


def test_phases_sum_to_total():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    for io in simulate_em(db, [200, 800, 3200], 20, alg="triangle"):
        assert io.io_blocks == sum(io.phases.values())
        assert io.r >= 1 and io.p_o >= 1


def test_memory_residency_respected():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    io, = simulate_em(db, [300], 10, alg="triangle")
    assert io.max_resident <= 300


def test_output_equals_oracle_across_w():
    db = gen_single_heavy(triangle(), 300, "x2", 4)
    want = oracle_join(db)
    for io in simulate_em(db, [150, 600, 2400], 10, alg="triangle"):
        assert run_algorithm("triangle", db, io.p_o, 0).output == want


def test_more_memory_never_costs_more():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    prev = None
    for io in simulate_em(db, [200, 400, 800, 1600, 3200], 20, alg="triangle"):
        if prev is not None:
            assert io.io_blocks <= prev
        prev = io.io_blocks


def test_choose_po_minimal_power_of_two():
    loads = {1: 100, 2: 60, 4: 30, 8: 18, 16: 9, 32: 5, 64: 3, 128: 2,
             256: 1, 512: 1, 1024: 1}

    def measure(p):
        return 2, loads.get(p, 1)

    assert choose_po(measure, W=200, p_max=1024) == 1   # 2*100 <= 200
    assert choose_po(measure, W=100, p_max=1024) == 4   # 2*30 <= 100 < 2*60
    assert choose_po(measure, W=19, p_max=1024) == 16


def test_choose_po_gives_up_at_cap():
    # the cap p_max need not be a power of two: the last probe is the
    # largest power of two up to it
    for p_max, last in ((1 << 10, 1 << 10), (1500, 1 << 10), (1, 1)):
        seen = []

        def measure(p):
            seen.append(p)
            return 1, 10 ** 9

        with pytest.raises(MemoryOverflow, match="up to %d fits" % p_max):
            choose_po(measure, W=10, p_max=p_max)
        assert max(seen) == last


def test_choose_po_probes_every_power_up_to_cap():
    # fits first at 2^20, which is also the cap
    def measure(p):
        return 1, 1 if p >= 1 << 20 else 10 ** 9

    assert choose_po(measure, W=10, p_max=1 << 20) == 1 << 20


def test_choose_po_never_probes_past_answer():
    seen = []

    def measure(p):
        seen.append(p)
        return 1, 1 if p >= 32 else 100

    p_o = choose_po(measure, W=10, p_max=1 << 24)
    assert p_o == 32
    assert max(seen) == p_o
    assert seen == [1, 2, 4, 8, 16, 32]


def test_one_sweep_equals_one_call_per_w():
    db = gen_single_heavy(triangle(), 800, "x1", 2)
    Ws = [3200, 200, 800]
    for alg, seed in (("triangle", 1), ("hc", 1), ("triangle", 2)):
        swept = simulate_em(db, Ws, 20, alg=alg, seed=seed)
        alone = [simulate_em(db, [W], 20, alg=alg, seed=seed)[0] for W in Ws]
        assert swept == alone


def test_replay_flags_overflow():
    rep = LoadReport({"R": 8}, [{(0, "R"): 50}, {(0, "R"): 60}])
    with pytest.raises(MemoryOverflow):
        replay_io(rep, 100, 100, 10, p_o=2)


def test_replay_flags_overflow_on_one_server():
    rep = LoadReport({"R": 8}, [{(0, "R"): 100}])
    with pytest.raises(MemoryOverflow, match="p_o=1 run holds 100 words > W=50"):
        replay_io(rep, 100, 50, 10, p_o=1)


def test_warnings_when_fanout_exceeds_memory():
    rep = LoadReport({"R": 8}, [{(s, "R"): 1 for s in range(64)}])
    io = replay_io(rep, 64, 32, 8, p_o=64)
    assert any("p_o" in w for w in io.warnings)
