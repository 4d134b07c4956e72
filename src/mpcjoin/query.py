"""Full conjunctive queries as named hypergraphs.

A query is a head over all its variables plus a list of atoms; variables are
nodes and atom variable-sets are hyperedges.  Only full queries without
self-joins are representable: construction validates that the head and body
variable sets coincide, relation names are distinct, and no atom repeats a
variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


class QueryError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    relation: str
    vars: tuple

    @property
    def arity(self) -> int:
        return len(self.vars)

    def render(self) -> str:
        return "%s(%s)" % (self.relation, ",".join(self.vars))


@dataclass(frozen=True)
class Query:
    name: str
    variables: tuple          # canonical order, fixed at construction
    atoms: tuple              # of Atom, order preserved

    def __post_init__(self):
        if not self.variables:
            raise QueryError("query must have at least one variable")
        if not self.atoms:
            raise QueryError("query must have at least one atom")
        seen = set()
        body_vars = set()
        for a in self.atoms:
            if a.relation in seen:
                raise QueryError("self-join: relation %r appears twice" % a.relation)
            seen.add(a.relation)
            if len(set(a.vars)) != len(a.vars):
                raise QueryError("repeated variable in atom %s" % a.render())
            if not a.vars:
                raise QueryError("arity-0 atom %r" % a.relation)
            body_vars.update(a.vars)
        head = set(self.variables)
        if len(head) != len(self.variables):
            raise QueryError("repeated variable in head")
        if head != body_vars:
            raise QueryError(
                "not full: head vars %s != body vars %s"
                % (sorted(head), sorted(body_vars)))

    @property
    def k(self) -> int:
        return len(self.variables)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def atom(self, relation: str) -> Atom:
        for a in self.atoms:
            if a.relation == relation:
                return a
        raise KeyError(relation)

    def atoms_with(self, var: str) -> list:
        return [a for a in self.atoms if var in a.vars]

    def render(self) -> str:
        body = ", ".join(a.render() for a in self.atoms)
        return "%s(%s) :- %s" % (self.name, ",".join(self.variables), body)


_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN = re.compile(r"\s*(%s|[(),]|:-)" % _IDENT)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise QueryError("syntax error at position %d: %r" % (pos, text[pos:pos + 10]))
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def expect(self, tok=None, ident=False):
        if self.i >= len(self.toks):
            raise QueryError("syntax error: unexpected end of input (position %d)" % len(self.text))
        got, pos = self.toks[self.i]
        if tok is not None and got != tok:
            raise QueryError("syntax error at position %d: expected %r, got %r" % (pos, tok, got))
        if ident and not re.fullmatch(_IDENT, got):
            raise QueryError("syntax error at position %d: expected identifier, got %r" % (pos, got))
        self.i += 1
        return got

    def var_list(self):
        self.expect("(")
        vs = [self.expect(ident=True)]
        while self.peek() == ",":
            self.expect(",")
            vs.append(self.expect(ident=True))
        self.expect(")")
        return tuple(vs)

    def parse(self) -> Query:
        name = self.expect(ident=True)
        head = self.var_list()
        self.expect(":-")
        atoms = [Atom(self.expect(ident=True), self.var_list())]
        while self.peek() == ",":
            self.expect(",")
            atoms.append(Atom(self.expect(ident=True), self.var_list()))
        if self.i != len(self.toks):
            raise QueryError("syntax error at position %d: trailing input" % self.toks[self.i][1])
        return Query(name, head, tuple(atoms))


def parse_query(text: str) -> Query:
    """Parse `NAME(vars) :- atom, atom, ...` into a validated Query."""
    return _Parser(text).parse()


def residual_query(q: Query, removed) -> Optional[Query]:
    """Remove the variables in `removed` from every atom.

    Atoms whose arity drops to zero are dropped from the body.  Returns None
    when every variable was removed (the empty residual, which is not an
    error); otherwise some atom keeps a surviving variable.
    """
    removed = frozenset(removed)
    unknown = removed - set(q.variables)
    if unknown:
        raise QueryError("unknown variable(s): %s" % sorted(unknown))
    if removed == set(q.variables):
        return None
    atoms = []
    for a in q.atoms:
        kept = tuple(v for v in a.vars if v not in removed)
        if kept:
            atoms.append(Atom(a.relation, kept))
    head = tuple(v for v in q.variables if v not in removed)
    return Query(q.name, head, tuple(atoms))


FAMILIES = ("T", "SP", "K", "W", "L", "Lstar", "Ldagger", "C", "LW")


def canonical_query(family: str, k: int) -> Query:
    """Construct the k-th member of a named query family.

    Naming is stable: variables are x1..xk (plus z/y/x0 where the family
    needs them) and relations are S1..Sk (R/T for the unary decorations,
    Si_j for cliques).
    """
    if k < 1:
        raise QueryError("invalid k for family %s: %d" % (family, k))
    if family == "T":
        vs = ("z",) + tuple("x%d" % i for i in range(1, k + 1))
        atoms = tuple(Atom("S%d" % j, ("z", "x%d" % j)) for j in range(1, k + 1))
        return Query("T%d" % k, vs, atoms)
    if family == "SP":
        vs = ("z",) + tuple("x%d" % i for i in range(1, k + 1)) \
            + tuple("y%d" % i for i in range(1, k + 1))
        atoms = tuple(Atom("R%d" % j, ("z", "x%d" % j)) for j in range(1, k + 1)) \
            + tuple(Atom("S%d" % j, ("x%d" % j, "y%d" % j)) for j in range(1, k + 1))
        return Query("SP%d" % k, vs, atoms)
    if family == "K":
        if k < 2:
            raise QueryError("invalid k for family K: %d (need k >= 2)" % k)
        vs = tuple("x%d" % i for i in range(1, k + 1))
        atoms = tuple(Atom("S%d_%d" % (i, j), ("x%d" % i, "x%d" % j))
                      for i in range(1, k + 1) for j in range(i + 1, k + 1))
        return Query("K%d" % k, vs, atoms)
    if family == "W":
        vs = tuple("x%d" % i for i in range(1, k + 1))
        atoms = (Atom("R", vs),) + tuple(Atom("S%d" % j, ("x%d" % j,))
                                         for j in range(1, k + 1))
        return Query("W%d" % k, vs, atoms)
    if family in ("L", "Lstar", "Ldagger"):
        vs = tuple("x%d" % i for i in range(0, k + 1))
        line = tuple(Atom("S%d" % j, ("x%d" % (j - 1), "x%d" % j))
                     for j in range(1, k + 1))
        if family == "L":
            return Query("L%d" % k, vs, line)
        if family == "Lstar":
            return Query("Lstar%d" % k, vs, (Atom("R", ("x0",)),) + line)
        return Query("Ldagger%d" % k, vs,
                     (Atom("R", ("x0",)),) + line + (Atom("T", ("x%d" % k,)),))
    if family == "C":
        if k < 3:
            raise QueryError("invalid k for family C: %d (need k >= 3)" % k)
        vs = tuple("x%d" % i for i in range(1, k + 1))
        atoms = tuple(Atom("S%d" % j, ("x%d" % j, "x%d" % ((j % k) + 1)))
                      for j in range(1, k + 1))
        return Query("C%d" % k, vs, atoms)
    if family == "LW":
        if k < 3:
            raise QueryError("invalid k for family LW: %d (need k >= 3)" % k)
        vs = tuple("x%d" % i for i in range(1, k + 1))
        atoms = tuple(Atom("S%d" % j, tuple("x%d" % i for i in range(1, k + 1) if i != j))
                      for j in range(1, k + 1))
        return Query("LW%d" % k, vs, atoms)
    raise QueryError("unknown family %r (one of %s)" % (family, "/".join(FAMILIES)))
