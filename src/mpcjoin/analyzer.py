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
edge: an integer that bitmask tests find (`_singleton_count`).

`psi_star` also names the first maximizing X in bitmask order with its
witness, and that X need not fall under (b) (C4's is X = {}, tau* = 2).
It evaluates tau*(q_X) only for the X with |vars - X| >= psi*, in order,
and stops at the first that reaches psi*.  Each evaluation takes one
packing LP per connected component of the residual's minimal edges
(duplicate edges and edges that contain another edge leave tau*
unchanged), cached for the call by the component's edges relabelled onto
bits 0..n-1 in order, so components that differ only in which variables
they use share an LP.  SP6's 8,191 residuals cost `psi_star` 3
evaluations and 3 LPs, and `psi_star_recursive` none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .lp import OPTIMAL, LPError, lp_solve_exact
from .query import Query, residual_query

LOG_APPROX_DENOM = 10 ** 6


def log_base_p(M: int, p: int) -> Fraction:
    """log_p(M) as a Fraction; exact when M is a rational power of p."""
    if M < 1 or p < 2:
        raise ValueError("need M >= 1 and p >= 2")
    if M == 1:
        return Fraction(0)
    approx = math.log(M) / math.log(p)
    for b in range(1, 65):
        a = round(approx * b)
        if a >= 0 and p ** a == M ** b:
            return Fraction(a, b)
    return Fraction(approx).limit_denominator(LOG_APPROX_DENOM)


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for non-negative integer n."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0 or k == 1:
        return n
    # integer Newton iteration, safe for arbitrarily large n
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r > 0 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


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


def _subsets(vs):
    n = len(vs)
    for mask in range(1 << n):
        yield frozenset(vs[i] for i in range(n) if mask >> i & 1)


def _edge_masks(q: Query):
    """Each atom's variables as a bitmask over `q.variables`, in atom order."""
    bit = {v: 1 << i for i, v in enumerate(q.variables)}
    return [sum(bit[v] for v in a.vars) for a in q.atoms]


def _components(masks, xmask: int):
    """The minimal edges of q_X as connected components, each a (vertex
    mask, [edge masks]) pair.

    Edges are the atoms' masks minus X; duplicates collapse, and an edge
    that strictly contains another is dropped.  A strict subset is a
    smaller mask, so in sorted order it comes first.
    """
    keep = ~xmask
    minimal, components = [], []
    for e in sorted({m & keep for m in masks}):
        if not e:
            continue
        for f in minimal:
            if f & e == f:
                break
        else:
            minimal.append(e)
            vmask, edges, rest = e, [e], []
            for c in components:
                if c[0] & e:
                    vmask |= c[0]
                    edges += c[1]
                else:
                    rest.append(c)
            rest.append((vmask, edges))
            components = rest
    return components


def _component_lp(vmask: int, edges, cache: dict):
    """(key, (num, den, x)) of the packing LP of one component.

    The edges are sorted and relabelled onto bits 0..n-1 in increasing bit
    order.  The relabel is monotone, so it keeps the order of the vertices
    and of the sorted edges: the LP is the same matrix, with the same value
    and the same x.  The entry is cached under both the original and the
    relabelled key, which name the same LP.
    """
    key = tuple(sorted(edges))
    entry = cache.get(key)
    if entry is None:
        bits = [1 << i for i in range(vmask.bit_length()) if vmask >> i & 1]
        rkey = tuple(sum(1 << i for i, b in enumerate(bits) if e & b) for e in key)
        entry = cache.get(rkey)
        if entry is None:
            vertices = range(len(bits))
            res = _unit_lp(vertices, [[i for i in vertices if e >> i & 1] for e in rkey],
                           "<=", True, "packing")
            entry = (res.value.numerator, res.value.denominator, res.x)
            cache[rkey] = entry
        cache[key] = entry
    return key, entry


def _residual_value(masks, xmask: int, cache: dict):
    """tau*(q_X) as an unreduced integer pair (num, den); no witness."""
    num, den = 0, 1
    for vmask, edges in _components(masks, xmask):
        _, (n, d, _) = _component_lp(vmask, edges, cache)
        num, den = num * d + n * den, den * d
    return num, den


def residual_tau_star(q: Query, x, cache: dict):
    """tau*(q_X) with a quasi-packing witness, one packing LP per component.

    Two exact facts keep the LPs small.  Moving an edge's weight onto an
    edge it contains never breaks a packing, so only the minimal edges of
    q_X matter: a duplicate edge is kept at its first atom in atom order,
    and an edge that strictly contains another is dropped.  The packing LP
    of the minimal edges then splits into its connected components.  Each
    component's LP is keyed by its edges relabelled onto bits 0..n-1, so
    `cache` serves every residual, of any X, with a component that has the
    same relabelled edges.  The witness has weight 0 on every atom that is
    dropped, inside X or not.
    """
    x = frozenset(x)
    masks = _edge_masks(q)
    xmask = sum(1 << q.variables.index(v) for v in x)
    first = {}                                  # residual edge -> relation
    for a, m in zip(q.atoms, masks):
        first.setdefault(m & ~xmask, a.relation)
    weights = dict.fromkeys((a.relation for a in q.atoms), Fraction(0))
    total = Fraction(0)
    for vmask, edges in _components(masks, xmask):
        key, (n, d, ws) = _component_lp(vmask, edges, cache)
        total += Fraction(n, d)
        for e, w in zip(key, ws):
            weights[first[e]] = w
    return total, FractionalWeighting(weights, "quasi-packing", x)


def _singleton_count(masks, k: int) -> int:
    """max |vars - X| over the X whose every remaining vertex v is a
    residual edge {v} of its own: psi* by the module's lemma.

    A residual edge is a singleton when it is non-zero with one bit set,
    so X qualifies when those edges cover vars - X.  One scan of the
    masks skips every X that cannot beat the count so far.
    """
    full = (1 << k) - 1
    best = 0
    for xmask in range(full):
        keep = full ^ xmask
        size = keep.bit_count()
        if size <= best:
            continue
        owned = 0
        for m in masks:
            r = m & keep
            if not r & (r - 1):
                owned |= r
        if owned == keep:
            best = size
    return best


def psi_star(q: Query):
    """Edge quasi-packing number with the first maximizing X as witness.

    psi* is the LP-free count of :func:`_singleton_count`.  The masks of
    X strictly inside vars(q) are then walked in bitmask order over the
    canonical variable order; an X with |vars - X| < psi* has tau*(q_X) <
    psi* and is skipped, and the first X whose tau*(q_X), by
    :func:`_residual_value`, equals psi* is the first maximizer, so the
    result is deterministic.  Its witness comes from
    :func:`residual_tau_star`, with one component cache for the whole
    call; atoms swallowed by X, duplicate atoms and atoms containing
    another atom's residual edge carry weight 0 in it.  A walk that
    finds no such X contradicts the lemma and raises LPError.
    """
    masks = _edge_masks(q)
    psi = _singleton_count(masks, q.k)
    cache = {}
    for xmask in range((1 << q.k) - 1):
        if q.k - xmask.bit_count() >= psi:
            n, d = _residual_value(masks, xmask, cache)
            if n == psi * d:
                x = [v for i, v in enumerate(q.variables) if xmask >> i & 1]
                return residual_tau_star(q, x, cache)
    raise LPError("no residual of %s reaches psi* = %d" % (q.name, psi))


def psi_star_recursive(q: Query) -> Fraction:
    """psi* of the residual recursion psi*(q) = max(tau*(q), max_x
    psi*(q_x)), which is the max of tau*(q_X) over X strictly inside
    vars(q): the LP-free count of :func:`_singleton_count`, as a
    Fraction.  No residual is evaluated and no LP is solved."""
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
    mu = {a.relation: log_base_p(M[a.relation], p) for a in qx.atoms}
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
    mu = [log_base_p(sizes[r], p) for r in rels]
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


def load_bound_worstcase(q: Query, M: dict, p: int) -> LoadBound:
    """Worst-case one-round bound: max over heavy sets X of L^(q_X)(M, p)."""
    best = None
    for x in _subsets(q.variables):
        qx = residual_query(q, x) if x else q
        if qx is None:
            continue
        lb = load_bound_packing(qx, M, p)
        if best is None or lb.exponent > best.exponent:
            lb.heavy_set = x
            lb.witness.kind = "quasi-packing"
            lb.witness.residual_witness = x
            for a in q.atoms:
                lb.witness.weights.setdefault(a.relation, Fraction(0))
            best = lb
    return best
