"""Outside-in layer spans for the traced benchmark run.

The hooks wrap each layer's public callables where another layer calls
them, by replacing the module attribute the caller looks up.  Nothing in
the package is edited: the table below names the calling module, the
attribute and the span name.  A hook point that no longer exists (renamed
or removed by a refactor) is recorded as absent and skipped.

Spans stay in memory as parallel arrays (session, parent, name, start,
end) and are written out once, after the traced passes.  A span's self
time is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import time
from array import array

# (calling module, attribute path, span name).  The reductions' f_mem/f_eq
# live on the pairs the factories return, so those hooks wrap the factory.
HOOKS = (
    ("mvdlearn.cli", "main", "cli"),
    ("mvdlearn.cli", "LearnerSession.run", "learner"),
    ("mvdlearn.cli", "MvdfInterpretationTeacher.membership_answer", "oracles.mem"),
    ("mvdlearn.cli", "MvdfInterpretationTeacher.equivalence_answer", "oracles.eq"),
    ("mvdlearn.cli", "EntailmentTeacher.membership_answer", "oracles.mem"),
    ("mvdlearn.cli", "EntailmentTeacher.equivalence_answer", "oracles.eq"),
    ("mvdlearn.cli", "RelationTeacher.membership_answer", "oracles.mem"),
    ("mvdlearn.cli", "RelationTeacher.equivalence_answer", "oracles.eq"),
    ("mvdlearn.cli", "relation_reduction", "reductions.pair"),
    ("mvdlearn.cli", "horn_entailment_reduction", "reductions.pair"),
    ("mvdlearn.cli", "quasi2_reduction", "reductions.pair"),
    ("mvdlearn.cli", "mvdf_to_horn", "reductions.extract"),
    ("mvdlearn.cli", "horn_envelope", "reductions.extract"),
    ("mvdlearn.cli", "parse_formula", "core.parse_formula"),
    ("mvdlearn.cli", "format_formula", "core.format_formula"),
    ("mvdlearn.oracles", "model_bitset", "core.model_bitset"),
    ("mvdlearn.reductions", "model_bitset", "core.model_bitset"),
    ("mvdlearn.core", "model_bitset", "core.model_bitset"),
    ("mvdlearn.oracles", "entails", "core.entails"),
    ("mvdlearn.reductions", "entails", "core.entails"),
    ("mvdlearn.cli", "read_csv", "relations.read_csv"),
    ("mvdlearn.cli", "find_violating_pair", "relations.check"),
    ("mvdlearn.oracles", "mvd_holds", "relations.check"),
    ("mvdlearn.reductions", "mvd_holds", "relations.check"),
)

# Span names whose first argument is a relation: its row count is tallied
# so that rows per check can be reported.
_ROW_COUNTED = {"relations.check"}


def _resolve(module_name, path):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Install the hooks, collect spans, restore the originals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.names = []
        self._name_ids = {}
        self.session = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.rows = {}
        self.absent = []
        self.installed = set()
        self.current_session = -1
        self._stack = [-1]
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """``fn`` wrapped so that every call records one span."""
        if name == "reductions.pair":
            return self._wrap_factory(fn)
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        count_rows = name in _ROW_COUNTED
        if count_rows:
            self.rows.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.session.append(self.current_session)
            self.parent.append(stack[-1])
            self.name.append(nid)
            self.end.append(0)
            if count_rows and args:
                self.rows[name] += len(args[0])
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()

        return traced

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            pair = factory(*args, **kwargs)
            if not (dataclasses.is_dataclass(pair)
                    and hasattr(pair, "f_mem") and hasattr(pair, "f_eq")):
                return pair  # the pair changed shape: nothing to hook
            return dataclasses.replace(
                pair,
                f_mem=self.wrap("reductions.f_mem", pair.f_mem),
                f_eq=self.wrap("reductions.f_eq", pair.f_eq),
            )

        return traced_factory

    def install(self):
        """Wrap every present hook point; remember the absent ones.

        ``installed`` collects the span names that at least one present
        hook point can record.
        """
        for module_name, path, name in self.hooks:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, attr, original = found
            # a class attribute is read raw so that the restore puts back
            # the very object that was there
            raw = vars(owner).get(attr, original) if isinstance(owner, type) else original
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self.wrap(name, original))
            if name == "reductions.pair":
                self.installed.update(("reductions.f_mem", "reductions.f_eq"))
            else:
                self.installed.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path, sessions):
        """Write the spans of the given session ids as gzip-compressed CSV."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,session,parent,name,start_ns,end_ns\n")
            for i, session in enumerate(self.session):
                if session in sessions:
                    fh.write(f"{i},{session},{self.parent[i]},{names[self.name[i]]},"
                             f"{self.start[i]},{self.end[i]}\n")


def self_times(parent, start, end):
    """Self time of every span: its duration minus its children's.

    Spans are given as parallel sequences; parent -1 marks a root.  Each
    child's interval is clipped to its parent's before it is subtracted.
    Siblings never overlap, because one thread records them on a stack.
    """
    own = [e - s for s, e in zip(start, end)]
    for child, p in enumerate(parent):
        if p >= 0:
            covered = min(end[child], end[p]) - max(start[child], start[p])
            own[p] -= max(0, covered)
    return own


def aggregate(names, session, name, start, end, own, group_of):
    """Per group and span name: [calls, total ns, self ns].

    ``group_of(session id)`` returns the span's group (a pass), or None to
    leave the span out.
    """
    table = {}
    for i, sid in enumerate(session):
        group = group_of(sid)
        if group is None:
            continue
        entry = table.setdefault(group, {}).setdefault(names[name[i]], [0, 0, 0])
        entry[0] += 1
        entry[1] += end[i] - start[i]
        entry[2] += own[i]
    return table
