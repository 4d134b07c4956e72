import gc
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mpcjoin.analyzer as analyzer
from mpcjoin.analyzer import (FractionalWeighting, iroot, load_bound_packing,
                              load_bound_worstcase, log_base_p, pow_floor,
                              psi_star, psi_star_recursive, rho_star, share_lp,
                              tau_star)
from mpcjoin.lp import LPError
from mpcjoin.query import (FAMILIES, Atom, Query, QueryError, canonical_query,
                           parse_query, residual_query)

F = Fraction


def triangle():
    return canonical_query("C", 3)


def test_packing_bound_on_one_server():
    # p = 1: exponent 0, the largest relation's size, and all packing
    # weight on that relation.
    q = triangle()
    lb = load_bound_packing(q, {"S1": 100, "S2": 50, "S3": 50}, 1)
    assert (lb.exponent, lb.value) == (0, 100.0)
    assert lb.witness.weights == {"S1": 1, "S2": 0, "S3": 0}


def test_triangle_quantities():
    q = triangle()
    assert tau_star(q)[0] == F(3, 2)
    assert rho_star(q)[0] == F(3, 2)
    assert psi_star(q)[0] == F(2)


def test_star_quantities():
    q = canonical_query("T", 4)
    assert tau_star(q)[0] == 1
    assert rho_star(q)[0] == 4
    assert psi_star(q)[0] == 4


def test_single_atom_all_one():
    q = parse_query("q(x,y) :- S(x,y)")
    assert tau_star(q)[0] == 1
    assert rho_star(q)[0] == 1
    assert psi_star(q)[0] == 1


def test_witnesses_verify():
    for fam, k in [("C", 3), ("C", 5), ("L", 4), ("T", 3), ("K", 4), ("LW", 4)]:
        q = canonical_query(fam, k)
        t, tw = tau_star(q)
        tw.check(q)
        assert tw.total() == t
        r, rw = rho_star(q)
        rw.check(q)
        assert rw.total() == r
        s, sw = psi_star(q)
        sw.check(q)


def test_psi_enumeration_matches_recursion():
    for fam, k in [("C", 3), ("C", 6), ("L", 5), ("K", 4), ("LW", 4),
                   ("T", 3), ("SP", 2), ("W", 3), ("Lstar", 4), ("Ldagger", 3)]:
        q = canonical_query(fam, k)
        assert psi_star(q)[0] == psi_star_recursive(q)


def test_psi_witness_residual_for_star():
    q = canonical_query("T", 3)
    _, w = psi_star(q)
    assert w.residual_witness == frozenset({"z"})


def test_bad_witness_rejected():
    q = triangle()
    w = FractionalWeighting({"S1": F(1), "S2": F(1), "S3": F(1)}, "packing")
    with pytest.raises(ValueError):
        w.check(q)


@st.composite
def hypergraphs(draw, max_vars=7):
    """Queries of <= max_vars variables, <= 8 atoms and arity <= 3, with some
    atoms repeating or nesting inside another atom's variable set."""
    n = draw(st.integers(1, max_vars))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=6))
    for _ in range(draw(st.integers(1, 2))):
        e = draw(st.sampled_from(edges))
        # a prefix of full length duplicates e, a shorter one nests inside it
        edges.append(e[:draw(st.integers(1, len(e)))])
    edges = draw(st.permutations(edges))
    used = sorted({i for e in edges for i in e})
    return Query("H", tuple("x%d" % i for i in used),
                 tuple(Atom("R%d" % j, tuple("x%d" % i for i in e))
                       for j, e in enumerate(edges)))


@settings(deadline=None, max_examples=150)
@given(hypergraphs())
def test_psi_star_matches_full_lp(q):
    # psi* and X are the first maximizer in bitmask order of tau*(q_X) over
    # every X, by a full LP per residual
    best = None
    for mask in range((1 << q.k) - 1):
        x = frozenset(v for i, v in enumerate(q.variables) if mask >> i & 1)
        t = tau_star(residual_query(q, x))[0]
        if best is None or t > best[0]:
            best = (t, x)
    psi, w = psi_star(q)
    assert (psi, w.residual_witness) == best
    assert psi == psi_star_recursive(q)
    w.check(q)
    assert w.total() == psi


@settings(deadline=None, max_examples=150)
@given(hypergraphs())
def test_residual_tau_star_bounds(q):
    # tau*(q_X) <= |vars - X| and tau*(q_X) <= tau*(q_{X+v}) + 1 for v not
    # in X, with tau* of an empty residual 0
    values = {}
    for mask in range(1 << q.k):
        x = frozenset(v for i, v in enumerate(q.variables) if mask >> i & 1)
        qx = residual_query(q, x)
        values[x] = tau_star(qx)[0] if qx is not None else 0
    for x, t in values.items():
        assert t <= q.k - len(x)
        for v in q.variables:
            if v not in x:
                assert t <= values[x | {v}] + 1


@settings(deadline=None, max_examples=150)
@given(hypergraphs(6))
def test_singleton_lemma_by_lp(q):
    # the lemma psi* rests on, checked by a full LP per residual: (a) a
    # remaining vertex v that is no residual edge {v} can be removed
    # without lowering tau*; (b) when every remaining vertex is one,
    # tau*(q_X) = |vars - X|; and psi_star's two skip bounds, |vars - X|
    # over the smallest residual edge's size and the closure count, are
    # never below tau*(q_X)
    masks = analyzer._edge_masks(q)
    full = (1 << q.k) - 1
    tau = {}
    for mask in range(full):
        x = frozenset(v for i, v in enumerate(q.variables) if mask >> i & 1)
        t = tau[x] = tau_star(residual_query(q, x))[0]
        smallest = min(len(set(a.vars) - x) for a in q.atoms if set(a.vars) - x)
        assert t * smallest <= q.k - len(x)
        assert t <= analyzer._closure(masks, full ^ mask).bit_count()
    for x, t in tau.items():
        rest = set(q.variables) - x
        owners = {v for v in rest if any(set(a.vars) - x == {v} for a in q.atoms)}
        if owners == rest:
            assert t == len(rest)
        for v in rest - owners:
            assert t <= tau[x | {v}]


def counting(monkeypatch, name):
    """Wrap analyzer.<name> to append to the returned list at each call."""
    calls = []
    real = getattr(analyzer, name)

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)
    monkeypatch.setattr(analyzer, name, counted)
    return calls


def test_psi_star_lp_counts_on_sp6(monkeypatch):
    solves = counting(monkeypatch, "lp_solve_exact")
    values = counting(monkeypatch, "tau_star")
    q = canonical_query("SP", 6)
    # psi* = 7 is counted without an LP; of the 8,191 residuals X = {}
    # and {z} fail the closure bound (it reads 6 for both), and the walk
    # evaluates {x1}, the first to reach 7
    p, w = psi_star(q)
    assert (p, w.residual_witness) == (7, {"x1"})
    assert (len(values), len(solves)) == (1, 1)
    values.clear()
    solves.clear()
    assert psi_star_recursive(q) == 7
    assert (len(values), len(solves)) == (0, 0)


def test_psi_star_lp_counts_on_lw10(monkeypatch):
    solves = counting(monkeypatch, "lp_solve_exact")
    values = counting(monkeypatch, "tau_star")
    q = canonical_query("LW", 10)
    # psi* = 2.  Each atom misses one variable, so a residual with
    # |vars - X| >= 3 owns no singleton edge and passes the closure bound
    # (1,013 X do), but its edges have at least |vars - X| - 1 variables,
    # so the smallest-edge bound passes only the 45 X with |vars - X| = 2;
    # the walk evaluates the first, X = {x1..x8}
    p, w = psi_star(q)
    assert (p, w.residual_witness) == (2, {"x%d" % i for i in range(1, 9)})
    assert (len(values), len(solves)) == (1, 1)


def test_psi_star_raises_when_no_residual_reaches_the_count(monkeypatch):
    q = canonical_query("SP", 3)
    real = analyzer._singleton_count
    monkeypatch.setattr(analyzer, "_singleton_count",
                        lambda masks, k: real(masks, k) + 1)
    with pytest.raises(LPError, match="reaches psi"):
        psi_star(q)


def test_psi_star_leaves_no_garbage():
    # every object either call allocates is freed by reference counting
    if sys.gettrace() is not None:
        pytest.skip("a line tracer's frames are garbage the collector counts")
    q = canonical_query("SP", 6)
    gc.disable()
    try:
        gc.collect()
        assert psi_star_recursive(q) == 7
        assert gc.collect() == 0
        assert psi_star(q)[0] == 7
        assert gc.collect() == 0
    finally:
        gc.enable()


def _singleton_count_by_scan(masks, k):
    # the reference: one _owned pass per non-empty K = vars - X, all 2^k - 1
    full = (1 << k) - 1
    best = 0
    for xmask in range(full):
        keep = full ^ xmask
        size = keep.bit_count()
        if size > best and analyzer._owned(masks, keep) == keep:
            best = size
    return best


@settings(deadline=None, max_examples=300)
@given(hypergraphs(12))
def test_singleton_count_matches_the_scan(q):
    masks = analyzer._edge_masks(q)
    assert analyzer._singleton_count(masks, q.k) == _singleton_count_by_scan(masks, q.k)


def test_singleton_count_matches_the_scan_on_families():
    members = 0
    for family in FAMILIES:
        for k in range(1, 14):
            try:
                q = canonical_query(family, k)
            except QueryError:
                continue
            if q.k <= 13:
                masks = analyzer._edge_masks(q)
                assert (analyzer._singleton_count(masks, q.k)
                        == _singleton_count_by_scan(masks, q.k)), q.name
                members += 1
    assert members == 101


def _ceil(a, b):
    return -(-a // b)


@pytest.mark.parametrize("family, ks, closed_form", [
    ("SP", range(1, 10), lambda k: k + 1),
    ("K", range(2, 13), lambda k: k - 1),
    ("L", range(1, 17), lambda k: _ceil(2 * k, 3)),
    ("Ldagger", range(1, 13), lambda k: _ceil(2 * k + 2, 3)),
    ("C", range(3, 17), lambda k: _ceil(2 * (k - 1), 3)),
], ids=["SP", "K", "L", "Ldagger", "C"])
def test_psi_star_recursive_meets_the_closed_forms(family, ks, closed_form):
    for k in ks:
        assert psi_star_recursive(canonical_query(family, k)) == closed_form(k), k


def test_psi_star_recursive_owned_calls_on_sp(monkeypatch):
    # the branch and bound makes 96 _owned calls on SP6 and 768 on SP9;
    # a scan of every K = vars - X makes 2,387 and 169,776
    owned = counting(monkeypatch, "_owned")
    assert psi_star_recursive(canonical_query("SP", 6)) == 7
    assert len(owned) <= 100
    owned.clear()
    assert psi_star_recursive(canonical_query("SP", 9)) == 10
    assert len(owned) <= 800


# -- share allocation ------------------------------------------------------

def test_triangle_shares_uniform():
    q = triangle()
    p = 64
    M = {a.relation: p * p for a in q.atoms}
    alloc = share_lp(q, M, p)
    assert alloc.lam == F(4, 3)
    assert all(alloc.exponents[v] == F(1, 3) for v in q.variables)
    assert alloc.shares == {"x1": 4, "x2": 4, "x3": 4}
    assert alloc.grid_size() <= p


def test_triangle_shares_with_heavy_variable():
    q = triangle()
    p = 64
    M = {a.relation: p * p for a in q.atoms}
    alloc = share_lp(q, M, p, heavy=frozenset({"x1"}))
    assert alloc.lam == F(3, 2)
    assert alloc.shares["x1"] == 1
    assert alloc.shares["x2"] == 8 and alloc.shares["x3"] == 8


def test_all_heavy_no_shares():
    q = triangle()
    alloc = share_lp(q, {a.relation: 64 for a in q.atoms}, 64,
                     heavy=frozenset(q.variables))
    assert alloc.lam == 0
    assert set(alloc.shares.values()) == {1}


def test_share_product_never_exceeds_p():
    q = canonical_query("L", 5)
    for p in (2, 7, 27, 64, 100, 1024):
        alloc = share_lp(q, {a.relation: 10 ** 6 for a in q.atoms}, p)
        assert alloc.grid_size() <= p


def test_k8_share_lp_at_large_p_and_m():
    # The largest LP of the analyze batch: mu = log_1024 10**6 is
    # 1351462/678051, so the tableau's entries have large denominators.
    q = canonical_query("K", 8)
    alloc = share_lp(q, {a.relation: 10 ** 6 for a in q.atoms}, 1024)
    assert alloc.lam == F(4727797, 2712204)
    assert alloc.exponents == {v: F(1, 8) for v in q.variables}
    assert [alloc.shares["x%d" % i] for i in range(1, 9)] == [3, 3, 3, 2, 2, 2, 2, 2]


def test_unequal_sizes_shift_shares():
    # a tiny relation should not attract large shares on its private vars
    q = parse_query("q(x,y,z) :- S(x,y), T(y,z)")
    p = 64
    alloc = share_lp(q, {"S": 2, "T": p * p}, p)
    assert alloc.shares["z"] >= alloc.shares["x"]


# -- numeric helpers -------------------------------------------------------

def test_log_base_p_exact_powers():
    assert log_base_p(64, 8) == 2
    assert log_base_p(8, 64) == F(1, 2)
    assert log_base_p(4096, 64) == 2


def _log_base_p_search(M, p):
    """The reference log_p(M): search b <= 64 for p^a == M^b, else the
    controlled rational approximation."""
    if M < 1 or p < 2:
        raise ValueError("need M >= 1 and p >= 2")
    if M == 1:
        return F(0)
    approx = math.log(M) / math.log(p)
    for b in range(1, 65):
        a = round(approx * b)
        if a >= 0 and p ** a == M ** b:
            return F(a, b)
    return F(approx).limit_denominator(analyzer.LOG_APPROX_DENOM)


@pytest.mark.parametrize("M, p, expect", [
    (2 ** 63, 2 ** 64, F(63, 64)),      # exact, reduced denominator 64
    (2 ** 10, 2 ** 4, F(5, 2)),
    (2, 2 ** 65, None),                 # exact 1/65: above 64, approximated
    (4, 8, F(2, 3)),                    # common base 2, neither primitive
    (8, 4, F(3, 2)),
    (6 ** 5, 6 ** 3, F(5, 3)),
    (1, 64, F(0)),
    (10 ** 6, 1024, None),              # not powers of one base
    (900000, 64, None),
    (10 ** 400, 10, F(400)),
])
def test_log_base_p_matches_the_search(M, p, expect):
    got = log_base_p(M, p)
    assert got == _log_base_p_search(M, p)
    if expect is not None:
        assert got == expect
    else:
        assert got.denominator > 64 and abs(float(got) - math.log(M) / math.log(p)) < 1e-6


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.integers(0, 70), st.integers(1, 70),
       st.integers(-3, 3))
def test_log_base_p_matches_the_search_on_powers(r, t, s, nudge):
    # M = r^t and p = r^s share a base; a nudge of M makes most pairs
    # powers of no common base
    M, p = max(1, r ** t + nudge), r ** s
    if p >= 2:
        assert log_base_p(M, p) == _log_base_p_search(M, p)


@pytest.mark.parametrize("M, p", [(0, 8), (-1, 8), (8, 1), (8, 0)])
def test_log_base_p_rejects_bad_arguments(M, p):
    with pytest.raises(ValueError, match="need M >= 1 and p >= 2"):
        log_base_p(M, p)


def test_iroot():
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(1, 5) == 1
    assert iroot(10 ** 18, 2) == 10 ** 9


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 10 ** 9), st.integers(1, 20))
def test_iroot_bounds(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(1, 12))
def test_iroot_exact_up_to_400_bits(data, k):
    # Newton's iteration alone stops at the root, next to perfect powers too
    b = data.draw(st.integers(1, 1 << 400 // k))
    n = data.draw(st.one_of(st.integers(0, 1 << 400),
                            st.sampled_from([b ** k - 1, b ** k, b ** k + 1])))
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    assert iroot(n, 2) == math.isqrt(n)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 10 ** 6), st.fractions(min_value=0, max_value=3))
def test_pow_floor_close(p, e):
    got = pow_floor(p, e)
    true = p ** float(e)
    assert got <= true * (1 + 1e-9) + 1
    assert got >= true * (1 - 1e-6) - 1


# -- load bounds -----------------------------------------------------------

def test_triangle_load_exponents():
    q = triangle()
    p = 64
    M = {a.relation: p ** 3 for a in q.atoms}
    lb = load_bound_packing(q, M, p)
    # equal sizes: bound is M / p^(1/tau*) = p^3 / p^(2/3)
    assert lb.exponent == F(3) - F(2, 3)
    wc = load_bound_worstcase(q, M, p)
    # worst case dominated by a single-heavy residual: M / p^(1/2)
    assert wc.exponent == F(3) - F(1, 2)
    assert wc.witness.residual_witness and len(wc.witness.residual_witness) == 1


def test_worstcase_at_least_packing():
    for fam, k in [("C", 4), ("L", 3), ("T", 2), ("K", 3)]:
        q = canonical_query(fam, k)
        M = {a.relation: 4096 for a in q.atoms}
        assert load_bound_worstcase(q, M, 64).exponent >= \
            load_bound_packing(q, M, 64).exponent


def _worstcase_by_enumeration(q, M, p):
    """The reference bound: one packing LP per heavy set X, in bitmask
    order, keeping the first maximizer."""
    best = None
    for mask in range(1 << q.k):
        x = frozenset(v for i, v in enumerate(q.variables) if mask >> i & 1)
        qx = residual_query(q, x) if x else q
        if qx is None:
            continue
        lb = load_bound_packing(qx, M, p)
        if best is None or lb.exponent > best.exponent:
            lb.witness.residual_witness = x
            best = lb
    return best


@settings(deadline=None, max_examples=150)
@given(hypergraphs(), st.data())
def test_worstcase_matches_full_enumeration(q, data):
    # equal sizes take psi*'s closed form, unequal ones the maximum over
    # the X under (b); both agree with one LP per X
    p = data.draw(st.sampled_from([1, 2, 64]))
    size = st.sampled_from([1, 7, 64, 4096, 10 ** 6]) | st.integers(1, 10 ** 6)
    rels = [a.relation for a in q.atoms]
    if data.draw(st.booleans()):
        M = dict.fromkeys(rels, data.draw(size))
    else:
        M = dict(zip(rels, data.draw(st.lists(size, min_size=len(rels),
                                              max_size=len(rels), unique=True))))
    got = load_bound_worstcase(q, M, p)
    ref = _worstcase_by_enumeration(q, M, p)
    assert (got.exponent, got.value, got.witness.residual_witness) == \
        (ref.exponent, ref.value, ref.witness.residual_witness)
    got.witness.check(q)


@pytest.mark.parametrize("family, k", [("C", 3), ("C", 4), ("L", 4), ("LW", 4),
                                       ("K", 4), ("SP", 3), ("Ldagger", 4)])
def test_worstcase_matches_full_enumeration_at_unequal_sizes(family, k):
    # on C4, L4 and SP3 the first maximizer in bitmask order is not its
    # own closure, so the walk after the class-(b) maximum must find it
    q = canonical_query(family, k)
    M = {a.relation: 1000 + 37 * i for i, a in enumerate(q.atoms)}
    got = load_bound_worstcase(q, M, 64)
    ref = _worstcase_by_enumeration(q, M, 64)
    assert (got.exponent, got.value, got.witness.residual_witness) == \
        (ref.exponent, ref.value, ref.witness.residual_witness)


@pytest.mark.parametrize("family, k, exponent, heavy", [
    ("SP", 6, F(2178150, 685153), {"x1"}),
    ("L", 10, F(2178150, 685153), {"x1", "x4", "x7"}),
    ("C", 10, F(1853003, 587274), {"x1", "x4"}),
    ("K", 8, F(2178150, 685153), {"x1"}),
])
def test_worstcase_lp_counts_at_equal_sizes(monkeypatch, family, k, exponent, heavy):
    # equal sizes need no LP beyond psi_star's: SP6's 8,191 residuals
    # once cost one packing LP each
    solves = counting(monkeypatch, "lp_solve_exact")
    q = canonical_query(family, k)
    psi_star(q)
    psi_solves = len(solves)
    solves.clear()
    lb = load_bound_worstcase(q, {a.relation: 10 ** 6 for a in q.atoms}, 64)
    assert len(solves) == psi_solves
    assert (lb.exponent, lb.witness.residual_witness) == (exponent, heavy)
