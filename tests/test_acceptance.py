"""End-to-end acceptance suite: eight numbered criteria, each printing a
single PASS/FAIL verdict line (echoed again in the terminal summary)."""

import math
from fractions import Fraction

from conftest import rebuilt, record, recorded_runs

from mpcjoin.algorithms import run_algorithm
from mpcjoin.analyzer import (psi_star, psi_star_recursive, rho_star,
                              share_lp, tau_star)
from mpcjoin.datagen import (DatabaseInstance, RelationInstance, gen_agm_worst,
                             gen_coin_flip, gen_matching, gen_single_heavy)
from mpcjoin.em import simulate_em
from mpcjoin.query import Atom, Query, canonical_query, parse_query, residual_query
from mpcjoin.rng import Stream
from mpcjoin.sim import oracle_join

F = Fraction


def ceil_frac(a, b):
    return -(-a // b)


def random_query(seed):
    """Seeded random full query: k <= 6 variables, <= 8 atoms, arity <= 3."""
    st = Stream(seed, "hypergraph")
    k = 1 + st.below(6)
    ell = 1 + st.below(8)
    vs = ["v%d" % i for i in range(k)]
    atoms = []
    for j in range(ell):
        arity = 1 + st.below(min(3, k))
        pool = list(vs)
        st.shuffle(pool)
        atoms.append(Atom("S%d" % j, tuple(pool[:arity])))
    used = [v for v in vs if any(v in a.vars for a in atoms)]
    return Query("q", tuple(used), tuple(atoms))


def all_ones(q):
    rels = {a.relation: RelationInstance(a.relation, a.arity,
                                         (tuple(1 for _ in a.vars),), 1)
            for a in q.atoms}
    return DatabaseInstance(q, rels, 0, {"generator": "all_ones"})


# -- criterion 1: closed-form table of LP quantities -----------------------

def expected_quantities(fam, k):
    if fam == "T":
        return F(1), F(k), F(k)
    if fam == "SP":
        return F(k), F(k + 1), F(k + 1)
    if fam == "K":
        return F(k, 2), F(k, 2), F(k - 1)
    if fam == "W":
        return F(k), F(1), F(k)
    if fam == "L":
        return F(ceil_frac(k, 2)), F(ceil_frac(k + 1, 2)), F(ceil_frac(2 * k, 3))
    if fam == "Lstar":
        return (F(ceil_frac(k + 1, 2)), F(ceil_frac(k + 1, 2)),
                F(ceil_frac(2 * k + 1, 3)))
    if fam == "Ldagger":
        return (F(ceil_frac(k, 2) + 1), F(ceil_frac(k + 1, 2)),
                F(ceil_frac(2 * k + 2, 3)))
    if fam == "C":
        return F(k, 2), F(k, 2), F(ceil_frac(2 * (k - 1), 3))
    if fam == "LW":
        return F(k, k - 1), F(k, k - 1), F(2)
    raise KeyError(fam)


def test_criterion_1_closed_form_table():
    bad = []
    n = 0
    for fam in ("T", "SP", "K", "W", "L", "Lstar", "Ldagger", "C", "LW"):
        lo = 3 if fam in ("C", "LW") else 2
        for k in range(lo, 7):
            q = canonical_query(fam, k)
            want = expected_quantities(fam, k)
            got = (tau_star(q)[0], rho_star(q)[0], psi_star(q)[0])
            n += 1
            if got != want:
                bad.append((fam, k, got, want))
    ok = record(1, not bad,
                "tau*/rho*/psi* closed forms, %d family members, "
                "exact rational equality%s" % (n, "" if not bad else "; first "
                                               "mismatch %s" % (bad[0],)))
    assert ok, bad


# -- criterion 2: quasi-packing dominance and recursion --------------------

def test_criterion_2_quasi_packing_dominance():
    bad = []
    for s in range(200):
        q = random_query(s)
        t = tau_star(q)[0]
        r = rho_star(q)[0]
        psi, w = psi_star(q)
        w.check(q)
        # the LP reference: tau* of every residual q_X, X strictly inside vars
        ref = max(tau_star(residual_query(q, [v for i, v in enumerate(q.variables)
                                              if m >> i & 1]))[0]
                  for m in range((1 << q.k) - 1))
        if not (psi >= t and psi >= r and psi == psi_star_recursive(q) == ref):
            bad.append(s)
    ok = record(2, not bad,
                "psi* >= max(tau*, rho*) and enumeration == recursion == "
                "max of tau*(q_X) by LP on 200 random hypergraphs, zero tolerance")
    assert ok, bad


# -- criterion 3: oracle equality for every strategy -----------------------

def _skewed_pair(m, seed):
    """Two-atom instance with one massively skewed key value in S2."""
    q = parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)")
    st = Stream(seed, "skewpair")
    s1 = {(st.below(m) + 1, st.below(20) + 1) for _ in range(m)}
    s2 = {(1, y) for y in range(1, m // 2 + 1)}
    s2 |= {(st.below(20) + 1, st.below(m) + 1) for _ in range(m // 2)}
    n = max(max(v for t in s1 | s2 for v in t), 1)
    return DatabaseInstance(q, {
        "S1": RelationInstance("S1", 2, tuple(sorted(s1)), n),
        "S2": RelationInstance("S2", 2, tuple(sorted(s2)), n),
    }, seed, {"generator": "skewed_pair"})


def _keyed_pair(m, seed):
    """Key-set + wide relation instance for the semi-join strategy."""
    q = parse_query("Q(z,y) :- R(z), S(z,y)")
    st = Stream(seed, "keyed")
    s = {(st.below(m // 4) + 1, st.below(m) + 1) for _ in range(m)}
    s |= {(1, y) for y in range(1, m // 3 + 1)}
    r = {(z,) for z in range(1, m // 4 + 1) if st.coin()}
    r = r or {(1,)}
    n = max(m, 1)
    return DatabaseInstance(q, {
        "R": RelationInstance("R", 1, tuple(sorted(r)), n),
        "S": RelationInstance("S", 2, tuple(sorted(s)), n),
    }, seed, {"generator": "keyed_pair"})


def _criterion3_instances(alg):
    """20 seeded instances per strategy, m <= 2000."""
    out = []

    def std(q, seeds=range(5), heavy=None, coin_m=None):
        for s in seeds:
            out.append(gen_matching(q, 40 + 7 * s, s))
            if heavy:
                out.append(gen_single_heavy(q, 40 + 7 * s, heavy, s))
            if coin_m:
                out.append(gen_coin_flip(q, coin_m, s))

    if alg == "hc":
        for fam, k in [("C", 3), ("L", 3), ("T", 3), ("K", 3), ("W", 3)]:
            std(canonical_query(fam, k), seeds=range(4))
    elif alg == "one_round_skew":
        for fam, k in [("C", 3), ("C", 4), ("L", 4), ("T", 3)]:
            q = canonical_query(fam, k)
            std(q, seeds=range(2), heavy="x1", coin_m=64)
    elif alg == "join_one_sided_skew":
        q = parse_query("Q(x,z,y) :- S1(x,z), S2(z,y)")
        std(q, seeds=range(4), heavy="z", coin_m=100)
        out.extend(_skewed_pair(200, s) for s in range(8))
    elif alg == "semi_join":
        out.extend(_keyed_pair(120, s) for s in range(20))
    elif alg == "triangle":
        q = canonical_query("C", 3)
        std(q, seeds=range(3), heavy="x1", coin_m=125)
        out.append(gen_single_heavy(q, 90, "x2", 7))
        out.extend(gen_agm_worst(q, 400, s) for s in range(5))
        out.extend(gen_coin_flip(q, 216, 10 + s) for s in range(5))
    elif alg == "line":
        for k in (2, 3, 4, 5, 6):
            q = canonical_query("L", k)
            std(q, seeds=range(1), heavy="x%d" % (k // 2), coin_m=81)
            out.append(all_ones(q))
    elif alg == "cycle":
        for k in (3, 4, 5, 6):
            q = canonical_query("C", k)
            std(q, seeds=range(1), heavy="x1", coin_m=3 ** min(k, 4))
            out.append(all_ones(q))
        out.append(gen_single_heavy(canonical_query("C", 4), 80, "x3", 9))
        out.extend(gen_coin_flip(canonical_query("C", 3), 125, 30 + s)
                   for s in range(3))
    elif alg == "lw":
        for k in (3, 4):
            q = canonical_query("LW", k)
            std(q, seeds=range(2), heavy="x1", coin_m=3 ** k)
            out.append(all_ones(q))
        out.extend(gen_coin_flip(canonical_query("LW", 3), 64, 20 + s)
                   for s in range(6))
    elif alg == "clique":
        for k in (3, 4):
            q = canonical_query("K", k)
            std(q, seeds=range(2), heavy="x1", coin_m=2 ** (2 * k - 2))
            out.append(all_ones(q))
        out.extend(gen_coin_flip(canonical_query("K", 3), 64, 20 + s)
                   for s in range(6))
    elif alg == "covering":
        for k in (2, 3, 4):
            q = canonical_query("W", k)
            std(q, seeds=range(3), coin_m=3 ** k)
            out.append(all_ones(q))
        out.append(gen_coin_flip(canonical_query("W", 3), 27, 9))
        out.append(gen_matching(canonical_query("W", 2), 100, 17))
    return out[:20]


def test_criterion_3_oracle_equality():
    p_grid = (8, 27, 64)
    algs = ("hc", "one_round_skew", "join_one_sided_skew", "semi_join",
            "triangle", "line", "cycle", "lw", "clique", "covering")
    bad = []
    total = 0
    for alg in algs:
        instances = _criterion3_instances(alg)
        assert len(instances) == 20, alg
        for i, db in enumerate(instances):
            p = p_grid[i % 3]
            total += 1
            with recorded_runs() as runs:
                res = run_algorithm(alg, db, p, seed=3)
            want = oracle_join(db)
            if res.output != want:
                bad.append((alg, i, p))
            # the output rebuilt from what the servers hold
            if rebuilt(res, runs[-1]) != want:
                bad.append((alg, i, p, "held"))
    ok = record(3, not bad,
                "exact oracle equality for 10 strategies x 20 instances "
                "(%d runs over p in {8,27,64}, each output also rebuilt "
                "from server holdings)%s"
                % (total, "" if not bad else "; failures %s" % bad[:3]))
    assert ok, bad


# -- criteria 4 & 5: one-round load bounds and 2-round separation ----------

def test_criterion_4_one_round_loads_and_5_separation():
    q = canonical_query("C", 3)
    m, p = 3 * 10 ** 4, 64
    slack = 1 + math.log(p)
    C = 16

    db_match = gen_matching(q, m, 11)
    db_heavy = gen_single_heavy(q, m, "x1", 12)

    r_match = run_algorithm("one_round_skew", db_match, p, 3)
    r_heavy = run_algorithm("one_round_skew", db_heavy, p, 3)
    load_match = r_match.report.max_tuples()
    load_heavy = r_heavy.report.max_tuples()
    bound_match = C * m / p ** (2 / 3) * slack
    bound_heavy = C * m / p ** 0.5 * slack
    ok4 = load_match <= bound_match and load_heavy <= bound_heavy
    record(4, ok4,
           "one-round loads: matching %d <= %.0f (m/p^(2/3) scale), "
           "skewed %d <= %.0f (m/p^(1/2) scale), C=%d"
           % (load_match, bound_match, load_heavy, bound_heavy, C))

    r_tri = run_algorithm("triangle", db_heavy, p, 3)
    load_tri = r_tri.report.max_tuples()
    bound_tri = C * m / p ** (2 / 3) * slack
    ok5 = load_tri <= bound_tri and load_tri < load_heavy / 2 \
        and r_tri.output == oracle_join(db_heavy)
    record(5, ok5,
           "2-round load %d <= %.0f and < half the 1-round load (%.0f)"
           % (load_tri, bound_tri, load_heavy / 2))
    assert ok4 and ok5


# -- criterion 6: round-count contracts ------------------------------------

def test_criterion_6_round_contracts():
    bad = []

    def runs(q, alg, db):
        res = run_algorithm(alg, db, 16, 3)
        if res.output != oracle_join(db):
            bad.append(("output", alg, q.name))
        return res.rounds

    for k in range(2, 7):
        q = canonical_query("L", k)
        declared = max(1, k // 2)
        for db in (gen_single_heavy(q, 30, "x1", 2), all_ones(q)):
            if runs(q, "line", db) > declared:
                bad.append(("L", k))
    for k in range(3, 7):
        q = canonical_query("C", k)
        declared = ceil_frac(k, 2)
        for db in (gen_single_heavy(q, 30, "x1", 2), all_ones(q)):
            if runs(q, "cycle", db) > declared:
                bad.append(("C", k))
    # exactly two rounds once skew forces the second phase
    for fam, k, alg in [("LW", 3, "lw"), ("LW", 4, "lw"), ("LW", 5, "lw"),
                        ("C", 3, "triangle"), ("W", 3, "covering"),
                        ("W", 4, "covering")]:
        q = canonical_query(fam, k)
        if runs(q, alg, all_ones(q)) != 2:
            bad.append((fam, k, alg))
    for k in (3, 4):
        q = canonical_query("K", k)
        for db in (gen_single_heavy(q, 30, "x1", 2), all_ones(q)):
            if runs(q, "clique", db) > k - 1:
                bad.append(("K", k))
    ok = record(6, not bad,
                "rounds <= floor(k/2) (paths), <= ceil(k/2) (cycles), == 2 "
                "(LW/triangle/covering), <= k-1 (cliques)%s"
                % ("" if not bad else "; failures %s" % bad[:4]))
    assert ok, bad


# -- criterion 7: block-I/O cost of the single-machine replay --------------

def test_criterion_7_external_memory_cost():
    q = canonical_query("C", 3)
    m, B, C = 10 ** 5, 100, 32
    db = gen_agm_worst(q, m, 1)
    bad = []
    stats = []
    Ws = (10 ** 3, 4 * 10 ** 3, 16 * 10 ** 3)
    for W, io in zip(Ws, simulate_em(db, Ws, B, alg="triangle", seed=3)):
        bound = C * m ** 1.5 / (B * math.sqrt(W))
        stats.append((W, io.p_o, io.io_blocks, io.io_blocks * B * math.sqrt(W) / m ** 1.5))
        if io.io_blocks > bound:
            bad.append((W, io.io_blocks, bound))
        if io.max_resident > W:
            bad.append(("resident", W, io.max_resident))

    small = gen_agm_worst(q, 10 ** 4, 1)
    io_small, = simulate_em(small, [4000], 100, alg="triangle", seed=3)
    if run_algorithm("triangle", small, io_small.p_o, 3).output != oracle_join(small):
        bad.append(("output", "replica"))
    ok = record(7, not bad,
                "io_blocks <= %d*m^1.5/(B*sqrt(W)) for W grid %s "
                "(measured constants %s); replica output exact"
                % (C, [s[0] for s in stats],
                   ["%.1f" % s[3] for s in stats]))
    assert ok, bad


# -- criterion 8: share LP optimum vs packing duality ----------------------

def test_criterion_8_share_lp_duality():
    bad = []
    checks = 0
    for s in range(50):
        q = random_query(1000 + s)
        st = Stream(s, "heavysets")
        subsets = [frozenset()]
        for _ in range(3):
            xs = frozenset(v for v in q.variables if st.coin())
            if len(xs) < q.k:
                subsets.append(xs)
        for p in (64, 1024):
            M = {a.relation: p * p for a in q.atoms}
            for X in subsets:
                qx = residual_query(q, X) if X else q
                if qx is None:
                    continue
                lam = share_lp(q, M, p, heavy=X).lam
                tx = tau_star(qx)[0]
                checks += 1
                if lam != 2 - F(1) / tx:
                    bad.append((s, sorted(X), p))
    ok = record(8, not bad,
                "share-LP optimum lambda == 2 - 1/tau*(residual) exactly on "
                "%d (query, X, p) combinations" % checks)
    assert ok, bad
