"""In-memory span tracer that wraps the package's public functions.

Instrumentation happens from outside the program: each public function of
a layer module is replaced by a wrapper in every ``kubota_meta`` module
that holds a reference to it (``from .local_field import class_key``
copies the name, so the rebinding has to reach each importer).  Methods
are replaced on their class.  The program's files are not changed.

Each wrapper counts calls and accumulates self time, the span's duration
minus the time covered by its child spans.  Spans (name, start, end,
parent) are kept in memory for the first SPAN_CAP calls of each name
and written out by :meth:`Tracer.write`; counts and self times cover every
call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

_clock = time.perf_counter
SPAN_CAP = 2000


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, spans kept]
        self.stats: dict = {}
        self.groups: dict = {}  # group -> list of names
        self.spans: list = []  # (id, name, start, end, parent id)
        self.extra: dict = {}  # name -> value, filled by custom hooks
        self._stack: list = [[0, 0.0]]  # frames [span id, child seconds]
        self._next_id = [1]
        self._undo: list = []  # (owner, attribute, original)

    def replace(self, owner, attr: str, value) -> None:
        """setattr(owner, attr, value), undone by :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, group: str, name: str, fn, after=None):
        """A traced stand-in for fn; ``after(result, args)`` runs on return."""
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        self.groups.setdefault(group, []).append(name)
        stack, spans, next_id = self._stack, self.spans, self._next_id

        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[1]
                parent = stack[-1]
                parent[1] += dur
                if stat[2] < SPAN_CAP:
                    stat[2] += 1
                    spans.append((sid, name, t0, t1, parent[0]))
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def calls(self, group: str) -> int:
        return sum(self.stats[n][0] for n in self.groups.get(group, ()))

    def self_s(self, group: str) -> float:
        return sum(self.stats[n][1] for n in self.groups.get(group, ()))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                    for s in self.spans
                ],
                "counts": {n: s[0] for n, s in self.stats.items()},
                "self_s": {n: s[1] for n, s in self.stats.items()},
                "extra": self.extra,
            }, fh)


def rebind(tracer: Tracer, package: str, original, replacement) -> None:
    """Replace every module-level reference to ``original`` in the package."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                tracer.replace(mod, attr, replacement)


def public_functions(module) -> list:
    """Names of the public functions defined (not imported) in module."""
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]
