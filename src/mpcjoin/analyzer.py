"""Hypergraph LP quantities: packing/cover/quasi-packing numbers, share
allocations, and the one-round load-bound formulas.

Everything is exact: weights and exponents are Fractions returned by the
integer-tableau simplex in :mod:`mpcjoin.lp`.  Relation sizes enter the load
formulas through their base-p logarithm; sizes that are exact rational
powers of p keep the whole computation rational, anything else is
approximated by a controlled rational (denominator <= 10^6).

psi* = max over X of tau*(q_X), X strictly inside vars, needs no LP.
Let V = vars - X; the edges of q_X are the non-empty sets a.vars - X.

(a) If some v in V is no residual edge {v}, then removing v empties no
    edge and leaves every other vertex's constraint as it was, so every
    packing of q_X is a packing of q_{X+v}: tau*(q_X) <= tau*(q_{X+v}).
(b) If every v in V is a residual edge {v} of its own, then
    tau*(q_X) = |V|: weight 1 on one such edge per vertex is a packing,
    and sum_e w_e <= sum_e w_e |e| = sum_v sum_{e ∋ v} w_e <= |V|
    because every edge is non-empty.

Every variable lies in some atom, so a lone remaining vertex owns a
singleton edge: case (a) needs |V| >= 2, and X+v stays strictly inside
vars.  An inclusion-maximal X among the maximizers is not under (a),
since X+v would be a larger maximizer; so it is under (b), and psi* =
max |vars - X| over the X whose every remaining vertex owns a singleton
edge.  `_singleton_count` finds that integer by extending K = vars - X
one variable at a time, which two facts make exact:

(c) Heredity.  If e ∩ K = {v}, then e ∩ K' = {v} for every K' ⊆ K that
    contains v.  So every non-empty subset of a qualifying K qualifies,
    and adding K's variables in increasing order reaches K through
    qualifying prefixes only.
(d) The candidate bound.  u can join K only if some edge e ∋ u misses
    K, because e ∩ (K + u) must be {u}.  The edges that miss K only
    shrink as K grows, so every variable that a qualifying extension of
    K adds lies in an edge that misses K, and |K| plus the number of
    such variables bounds the extension's size.

`psi_star` also names the first maximizing X in bitmask order with its
witness, and that X need not fall under (b) (C4's is X = {}, tau* = 2).
It evaluates tau*(q_X) by one packing LP on the residual query, in
order, and stops at the first X that reaches psi*.  It skips every X
for which one of two upper bounds on tau*(q_X) falls below psi*:

- Smallest edge.  With s the size of the smallest residual edge,
  s * sum_e w_e <= sum_e w_e |e| <= |V| as above, so tau*(q_X) <=
  |V| / s, and an X with |V| < psi* * s cannot reach psi*.
- Closure (`_closure`).  While some remaining vertex owns no singleton
  edge, move the lowest such vertex into X.  Each move falls under (a)
  and does not lower tau*, and the walk ends at an X' under (b), so
  tau*(q_X) <= tau*(q_X') = |vars - X'|.

Every X that reaches psi* passes both, so the first one is never
skipped.  SP6's 8,191 residuals cost `psi_star` 1 LP, and
`psi_star_recursive` none.

The worst-case one-round load bound carries the lemma over.  Let
mu_j = log_p M_j and L_X = max over packings u of q_X of
(sum_j u_j mu_j - 1) / sum_j u_j, the exponent of q_X's packing bound;
`load_bound_worstcase` is the maximum of L_X over X strictly inside vars.

(a') If some v in V owns no singleton edge of q_X, then q_{X+v} has the
     same atoms as q_X (removing v empties none), every packing of q_X is
     one of q_{X+v} as in (a), and the objective reads the atoms, not the
     vertices: L_X <= L_{X+v}.  So L_X is at most L of X's closure, which
     falls under (b), and the maximum is reached on an X under (b).
(b') With equal sizes, every mu_j = mu and the objective is
     mu - 1/sum_j u_j, largest at sum_j u_j = tau*(q_X): L_X =
     mu - 1/tau*(q_X).  The maximum is mu - 1/psi*, its first maximizer
     in bitmask order is the first maximizer of tau*(q_X), which is
     `psi_star`'s X, and `psi_star`'s packing is a maximizing u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .lp import OPTIMAL, LPError, lp_solve_exact
from .query import Query, residual_query

LOG_APPROX_DENOM = 10 ** 6


def _common_log(M: int, p: int) -> Optional[Fraction]:
    """log_p(M) when M > 1 and p > 1 are powers of one integer base, else None.

    Euclid's step on the pair: the larger number must be divisible by the
    smaller and is replaced by the quotient, until the two are equal.  If
    M = r^t and p = r^s, the exponents of r run through Euclid's algorithm
    on (t, s) and end equal; if the walk ends at x == y, undoing its
    divisions writes M and p as powers of x.  Each number is carried with
    its exponents over (M, p); at the end x and y name one number by two
    exponent vectors, and their difference (a, b) != 0 (every step is
    unimodular) has M^a p^b = 1, so log_p(M) = -b/a.
    """
    x, y = (M, 1, 0), (p, 0, 1)
    while x[0] != y[0]:
        if x[0] > y[0]:
            x, y = y, x
        if y[0] % x[0]:
            return None
        y = (y[0] // x[0], y[1] - x[1], y[2] - x[2])
    return Fraction(y[2] - x[2], x[1] - y[1])


def log_base_p(M: int, p: int) -> Fraction:
    """log_p(M) as a Fraction; exact when M is a rational power of p.

    M is a rational power of p exactly when M and p are powers of one
    base, which :func:`_common_log` decides by Euclid's step; it then
    gives log_p(M) = t/s in lowest terms, returned when s <= 64.  Every
    other pair gets the controlled rational approximation (denominator
    <= 10^6) of the float estimate.
    """
    if M < 1 or p < 2:
        raise ValueError("need M >= 1 and p >= 2")
    if M == 1:
        return Fraction(0)
    exact = _common_log(M, p)
    if exact is not None and exact.denominator <= 64:
        return exact
    return Fraction(math.log(M) / math.log(p)).limit_denominator(LOG_APPROX_DENOM)


def _logs(sizes, p: int) -> dict:
    """size -> log_base_p(size, p) for each distinct size in sizes."""
    return {M: log_base_p(M, p) for M in set(sizes)}


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for non-negative integer n, by integer Newton
    iteration, which stops exactly there.  Let s = floor(n ** (1/k)) and
    f(r) = ((k-1) r + n / r^(k-1)) / k.  One step gives nxt = floor(f(r)),
    since floor((a + floor(b)) / k) = floor((a + b) / k) for integers a, k.
    By AM-GM over k-1 copies of r and one n / r^(k-1), f(r) >= n^(1/k), so
    nxt >= s.  If r > s, then r^k > n, so f(r) < r and nxt < r.  The start
    2^ceil(bits/k) exceeds n^(1/k), so r falls strictly to s and no lower,
    and at r = s the step gives nxt >= r, which ends the loop."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def pow_floor(p: int, e: Fraction) -> int:
    """floor(p ** e) for a non-negative rational exponent.

    Exact for small denominators; falls back to floats for the rational
    log approximations, whose denominators make integer powers infeasible.
    """
    if e < 0:
        raise ValueError("negative exponent")
    if e.denominator <= 64 and e.numerator <= 4096:
        return iroot(p ** e.numerator, e.denominator)
    return int(math.exp(float(e) * math.log(p)) * (1 + 1e-12))


@dataclass
class FractionalWeighting:
    """Per-atom rational weights: a packing, cover, or quasi-packing."""
    weights: dict                      # relation name -> Fraction
    kind: str                          # "packing" | "cover" | "quasi-packing"
    residual_witness: Optional[frozenset] = None   # X for quasi-packings

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def check(self, q: Query) -> None:
        """Re-verify the defining constraint system exactly."""
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("negative weight")
        base = q
        if self.kind == "quasi-packing":
            x = self.residual_witness or frozenset()
            for a in q.atoms:
                if set(a.vars) <= x and self.weights.get(a.relation, Fraction(0)) != 0:
                    raise ValueError("X-internal atom %s has nonzero weight" % a.relation)
            base = residual_query(q, x) if x else q
            if base is None:
                raise ValueError("empty residual as witness")
        for v in base.variables:
            s = sum((self.weights.get(a.relation, Fraction(0))
                     for a in base.atoms_with(v)), Fraction(0))
            if self.kind == "cover":
                if s < 1:
                    raise ValueError("variable %s covered by %s < 1" % (v, s))
            else:
                if s > 1:
                    raise ValueError("variable %s packed with %s > 1" % (v, s))


def _unit_lp(vertices, edges, rel: str, maximize: bool, what: str):
    """Optimize the total edge weight subject to sum_{e ∋ v} w_e (rel) 1."""
    A = [[1 if v in e else 0 for e in edges] for v in vertices]
    res = lp_solve_exact([1] * len(edges), A, [rel] * len(A), [1] * len(A),
                         maximize=maximize)
    if res.status != OPTIMAL:
        raise LPError("%s LP not optimal: %s" % (what, res.status))
    return res


def tau_star(q: Query):
    """Fractional edge packing number with a witness packing."""
    res = _unit_lp(q.variables, [a.vars for a in q.atoms], "<=", True, "packing")
    w = FractionalWeighting(dict(zip((a.relation for a in q.atoms), res.x)), "packing")
    return res.value, w


def rho_star(q: Query):
    """Fractional edge cover number with a witness cover."""
    res = _unit_lp(q.variables, [a.vars for a in q.atoms], ">=", False, "cover")
    w = FractionalWeighting(dict(zip((a.relation for a in q.atoms), res.x)), "cover")
    return res.value, w


def _edge_masks(q: Query):
    """Each atom's variables as a bitmask over `q.variables`, in atom order."""
    bit = {v: 1 << i for i, v in enumerate(q.variables)}
    return [sum(bit[v] for v in a.vars) for a in q.atoms]


def _owned(masks, keep: int) -> int:
    """The vertices of `keep` that are a residual edge {v} of their own,
    as a mask: a residual edge m & keep is a singleton when it is
    non-zero with one bit set."""
    owned = 0
    for m in masks:
        r = m & keep
        if not r & (r - 1):
            owned |= r
    return owned


def _singleton_count(masks, k: int) -> int:
    """max |K| over the non-empty K = vars - X whose every vertex v is a
    residual edge {v} of its own: psi* by the module's lemma.

    A depth-first branch and bound over such K, as in Carraghan and
    Pardalos's maximum-clique search.  A branch holds K and its
    candidates, the variables that may still join it: at first K is
    empty and every variable is a candidate.  The lowest candidate u
    leaves the branch's candidates; K + u is entered when it qualifies,
    with the remaining candidates that lie in some edge that misses
    K + u, and the branch then goes on without u.  A branch is cut when
    |K| plus its candidates cannot beat the count so far.  By (c) and
    (d), every qualifying K is reached through its increasing prefixes
    unless a cut shows it is no larger than the count.  The branches
    wait on an explicit stack, and nothing outlives the call.
    """
    best = 0
    stack = [(0, (1 << k) - 1)]
    while stack:
        keep, cands = stack.pop()
        while (keep | cands).bit_count() > best:
            u = cands & -cands
            cands ^= u
            grown = keep | u
            if _owned(masks, grown) == grown:
                stack.append((keep, cands))
                missed = 0
                for m in masks:
                    if not m & grown:
                        missed |= m
                keep, cands = grown, cands & missed
                best = max(best, keep.bit_count())
    return best


def _closure(masks, keep: int) -> int:
    """The closure of X, keep = vars - X, as the mask of vars it keeps.

    The lowest remaining vertex that owns no singleton edge joins X, one
    at a time, until every remaining vertex owns one.  The count left is
    tau* of the closure by (b), an upper bound on tau*(q_X) by (a), and
    L of the closure bounds L_X by (a').
    """
    while True:
        lone = keep & ~_owned(masks, keep)
        if not lone:
            return keep
        keep ^= lone & -lone


def psi_star(q: Query):
    """Edge quasi-packing number with the first maximizing X as witness.

    psi* is the LP-free count of :func:`_singleton_count`.  The masks of
    X strictly inside vars(q) are then walked in bitmask order over the
    canonical variable order.  An X is skipped when either upper bound
    of the module docstring, the smallest-edge bound or
    :func:`_closure`, falls below psi*; the first other X whose
    tau*(q_X), by :func:`tau_star` on the residual query, equals psi*
    is the first maximizer, so the result is deterministic.  Its witness
    is that LP's packing, with weight 0 on the atoms inside X.  A walk
    that finds no such X contradicts the lemma and raises LPError.
    """
    masks = _edge_masks(q)
    psi = _singleton_count(masks, q.k)
    full = (1 << q.k) - 1
    for xmask in range(full):
        keep = full ^ xmask
        size = keep.bit_count()
        smallest = min((m & keep).bit_count() for m in masks if m & keep)
        if size < psi * smallest or _closure(masks, keep).bit_count() < psi:
            continue
        x = frozenset(v for i, v in enumerate(q.variables) if xmask >> i & 1)
        value, w = tau_star(residual_query(q, x))
        if value == psi:
            weights = dict.fromkeys((a.relation for a in q.atoms), Fraction(0))
            weights.update(w.weights)
            return value, FractionalWeighting(weights, "quasi-packing", x)
    raise LPError("no residual of %s reaches psi* = %d" % (q.name, psi))


def psi_star_recursive(q: Query) -> Fraction:
    """`_singleton_count`'s count for q, as a Fraction: psi*(q), the max
    of tau*(q_X) over X strictly inside vars(q), which is what the residual
    recursion psi*(q) = max(tau*(q), max_x psi*(q_x)) defines.  Nothing
    recurses, no residual is evaluated and no LP is solved."""
    return Fraction(_singleton_count(_edge_masks(q), q.k))


@dataclass
class ShareAllocation:
    """HyperCube share exponents and their integer realization."""
    exponents: dict          # variable -> Fraction, sum <= 1
    shares: dict             # variable -> int, product <= p
    lam: Fraction            # optimal LP objective (load is p**lam)
    p: int
    heavy_set: frozenset = field(default_factory=frozenset)

    def grid_size(self) -> int:
        return math.prod(self.shares.values())


def _round_shares(q: Query, exponents: dict, p: int) -> dict:
    """floor(p**e_i) per variable, then greedily hand the leftover factor to
    the variables with the largest fractional deficit while keeping the
    product <= p."""
    shares = {}
    for v in q.variables:
        e = exponents[v]
        shares[v] = max(1, pow_floor(p, e)) if e > 0 else 1
    while True:
        prod = 1
        for s in shares.values():
            prod *= s
        cand = []
        for v in q.variables:
            e = exponents[v]
            if e <= 0:
                continue
            s = shares[v]
            if prod // s * (s + 1) > p:
                continue
            # deficit: how far below the real-valued share p**e we sit
            deficit = float(e) * math.log(p) - math.log(s)
            if deficit > 1e-12:
                cand.append((deficit, v))
        if not cand:
            return shares
        cand.sort(key=lambda t: (-t[0], q.variables.index(t[1])))
        shares[cand[0][1]] += 1


def share_lp(q: Query, M: dict, p: int, heavy: frozenset = frozenset()) -> ShareAllocation:
    """Solve the skew-aware share LP for heavy-variable set X = heavy.

    Variables in X get exponent 0 and share 1; the remaining exponents
    minimize the worst per-atom exponent gap lambda, where relation sizes
    enter as mu_j = log_p(M_j).  Exponents are then rounded to integer
    shares with product <= p.
    """
    heavy = frozenset(heavy)
    unknown = heavy - set(q.variables)
    if unknown:
        raise ValueError("unknown heavy variables: %s" % sorted(unknown))
    zero = {v: Fraction(0) for v in q.variables}
    if p == 1:
        return ShareAllocation(zero, {v: 1 for v in q.variables}, Fraction(0), p, heavy)
    qx = residual_query(q, heavy) if heavy else q
    if qx is None:
        return ShareAllocation(zero, {v: 1 for v in q.variables}, Fraction(0), p, heavy)

    free = [v for v in q.variables if v not in heavy]
    logs = _logs((M[a.relation] for a in qx.atoms), p)
    mu = {a.relation: logs[M[a.relation]] for a in qx.atoms}
    # columns: e_i for free vars, then lambda; minimize lambda
    n = len(free) + 1
    c = [0] * len(free) + [1]
    A = [[1] * len(free) + [0]]
    rel = ["<="]
    b = [1]
    for a in qx.atoms:
        row = [1 if v in a.vars else 0 for v in free] + [1]
        A.append(row)
        rel.append(">=")
        b.append(mu[a.relation])
    res = lp_solve_exact(c, A, rel, b, maximize=False)
    if res.status != OPTIMAL:
        raise LPError("share LP not optimal: %s" % res.status)
    exponents = dict(zero)
    for i, v in enumerate(free):
        exponents[v] = res.x[i]
    lam = res.x[len(free)]
    shares = _round_shares(q, exponents, p)
    return ShareAllocation(exponents, shares, lam, p, heavy)


@dataclass
class LoadBound:
    """A one-round load bound value = p**exponent, in the unit of the sizes."""
    exponent: Fraction       # log_p of the bound
    value: float
    witness: FractionalWeighting
    heavy_set: Optional[frozenset] = None


def _packing_exponent(q: Query, sizes: dict, p: int):
    """max over packings u of log_p L(u, sizes, p), with the maximizing u.

    Linear-fractional objective (sum_j u_j mu_j - 1)/(sum_j u_j), solved via
    the Charnes-Cooper substitution y = u/sum(u), t = 1/sum(u).
    """
    rels = [a.relation for a in q.atoms]
    logs = _logs((sizes[r] for r in rels), p)
    mu = [logs[sizes[r]] for r in rels]
    n = len(rels)
    # columns: y_1..y_n, t
    c = mu + [Fraction(-1)]
    A = []
    rel = []
    b = []
    for v in q.variables:
        A.append([1 if v in a.vars else 0 for a in q.atoms] + [-1])
        rel.append("<=")
        b.append(0)
    A.append([1] * n + [0])
    rel.append("==")
    b.append(1)
    res = lp_solve_exact(c, A, rel, b, maximize=True)
    if res.status != OPTIMAL:
        raise LPError("load LP not optimal: %s" % res.status)
    t = res.x[n]
    if t <= 0:
        raise LPError("degenerate load LP: t = 0")
    u = {r: res.x[i] / t for i, r in enumerate(rels)}
    return res.value, FractionalWeighting(u, "packing")


def load_bound_packing(q: Query, M: dict, p: int) -> LoadBound:
    """L^(q)(M, p): the worst load over fractional edge packings, in the
    unit of the sizes M (tuples or bits)."""
    if p == 1:
        # Only one server: every packing gives the geometric mean of sizes,
        # maximized by concentrating weight on the largest relation.
        big = max(q.atoms, key=lambda a: (M[a.relation], a.relation))
        w = FractionalWeighting({a.relation: Fraction(1 if a is big else 0)
                                 for a in q.atoms}, "packing")
        return LoadBound(Fraction(0), float(M[big.relation]), w)
    exp, w = _packing_exponent(q, M, p)
    return LoadBound(exp, float(p) ** float(exp), w)


def _residual_bound(q: Query, M: dict, p: int, x: frozenset) -> LoadBound:
    """L^(q_X)(M, p) with X as its heavy set and quasi-packing witness."""
    lb = load_bound_packing(residual_query(q, x) if x else q, M, p)
    lb.heavy_set = x
    lb.witness.kind = "quasi-packing"
    lb.witness.residual_witness = x
    for a in q.atoms:
        lb.witness.weights.setdefault(a.relation, Fraction(0))
    return lb


def load_bound_worstcase(q: Query, M: dict, p: int) -> LoadBound:
    """Worst-case one-round bound: max over heavy sets X of L^(q_X)(M, p),
    with the first maximizing X in bitmask order as `heavy_set`.

    On one server every X gives exponent 0, and X = {} is returned.  With
    equal sizes the bound is M / p^(1/psi*) at `psi_star`'s X and
    witness, by (b') of the module docstring: no LP beyond `psi_star`'s.
    Otherwise the maximum is taken over the X under (b), one packing LP
    each, by (a').  The X are then walked in bitmask order, and an X
    whose closure's exponent, an upper bound by (a'), falls below the
    maximum is skipped; the first other X that reaches it is returned.
    """
    if p == 1:
        return _residual_bound(q, M, p, frozenset())
    sizes = {M[a.relation] for a in q.atoms}
    if len(sizes) == 1:
        psi, w = psi_star(q)
        exp = log_base_p(sizes.pop(), p) - 1 / psi
        return LoadBound(exp, float(p) ** float(exp), w, w.residual_witness)

    def heavy(keep):
        return frozenset(v for i, v in enumerate(q.variables) if not keep >> i & 1)

    masks = _edge_masks(q)
    full = (1 << q.k) - 1
    closed = {keep: _residual_bound(q, M, p, heavy(keep))
              for keep in range(1, full + 1) if _owned(masks, keep) == keep}
    top = max(lb.exponent for lb in closed.values())
    for xmask in range(full):
        keep = full ^ xmask
        c = _closure(masks, keep)
        if closed[c].exponent < top:
            continue
        lb = closed[c] if c == keep else _residual_bound(q, M, p, heavy(keep))
        if lb.exponent == top:
            return lb
