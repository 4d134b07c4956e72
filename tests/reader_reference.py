"""A frozen reference for `mpcjoin.datagen.read_instance`: the reader as it
stood before it checked each file's grammar.

It strips every line, drops blank ones, splits the rest on tabs and reads
each field with `int`, so it also takes signs, leading zeros, `_` inside
digits, non-ASCII digits, spaces around a field, `\\r\\n` line ends and blank
lines.  On every file in the documented grammar it must return what
`read_instance` returns; tests/test_datagen.py checks that.  Do not change
it to follow the package: it is the baseline the package is held to.
"""

from __future__ import annotations

import json
import os
from itertools import repeat

from mpcjoin.datagen import DatabaseInstance, RelationInstance
from mpcjoin.query import Query, parse_query


def _fields(path: str, relation: str, arity: int) -> list:
    """The fields of the non-blank lines of one relation's file, in order;
    raises ValueError when a line has other than arity fields.  The lines
    die on return, before the fields are read as ints."""
    with open(path) as f:
        lines = list(filter(None, map(str.strip, f.read().split("\n"))))
    if lines and set(map(str.count, lines, repeat("\t"))) != {arity - 1}:
        raise ValueError("%s: tuple arity mismatch in %s (a line has other "
                         "than %d fields)" % (path, relation, arity))
    return "\t".join(lines).split("\t") if lines else []


def read_instance(q: Query, indir: str) -> DatabaseInstance:
    """Read an instance written by `write_instance`; raises ValueError when
    the manifest is not a JSON object with an integer seed and an object
    of relations, when its query has other atoms than q, when it gives no
    domain size n for one of q's relations, when a non-blank line of a
    relation has other than arity tab-separated integer fields, or when a
    value lies outside the relation's domain [1, n].

    Each file is read whole: its non-blank lines are split into fields
    once, every field is read with int, and the tuples are cut from the
    flat value list and sorted, so the lines may come in any order.  Values
    are shared: one dict over all of the instance's relations keeps the
    first int object read for each value, and every tuple holds that one."""
    mpath = os.path.join(indir, "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("seed"), int) \
            or not isinstance(manifest.get("relations", {}), dict):
        raise ValueError("%s: not a JSON object with an integer seed and an "
                         "object of relations" % mpath)
    written = parse_query(str(manifest.get("query", "")))
    if {(a.relation, a.vars) for a in written.atoms} != \
            {(a.relation, a.vars) for a in q.atoms}:
        raise ValueError("%s: instance was written for %s, not for %s"
                         % (indir, written.render(), q.render()))
    rels = {}
    canon = {}                          # value -> its one int object
    for a in q.atoms:
        entry = manifest.get("relations", {}).get(a.relation)
        if not isinstance(entry, dict) or not isinstance(entry.get("n"), int):
            raise ValueError("%s: manifest has no domain size n for relation %s"
                             % (indir, a.relation))
        n = entry["n"]
        path = os.path.join(indir, "%s.tsv" % a.relation)
        vals = list(map(int, _fields(path, a.relation, a.arity)))
        if vals and (min(vals) < 1 or max(vals) > n):
            raise ValueError("%s: a value lies outside the domain [1, %d]"
                             % (path, n))
        vals = list(map(canon.setdefault, vals, vals))
        rels[a.relation] = RelationInstance(
            a.relation, a.arity, tuple(sorted(zip(*[iter(vals)] * a.arity))), n)
    return DatabaseInstance(q, rels, manifest["seed"], manifest.get("meta", {}))
