"""In-memory span recording around calls into the askeycg modules.

A `Tracer` replaces public functions and methods of the program with timing
wrappers and puts the originals back on `restore()`. A function is replaced in
every `askeycg` namespace that bound it by name (a module that did
`from .families import poly_value` holds its own reference), so calls are
caught whichever module makes them. Nothing inside the program is edited.

Each span records its name, start, end, the span that was open when it began
(its parent) and the op it belongs to. Spans live in flat integer arrays until
the run ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

__all__ = ["Tracer", "NullTracer"]

PACKAGE = "askeycg"


class NullTracer:
    """Stand-in used for untraced passes: every hook does nothing."""

    op_id = -1

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self._stack = [-1]
        self._active: dict[int, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.arg_keys: dict[str, set] = {}
        self.arg_calls: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.outer.append(self._active[nid] == 0)
        self.end.append(0)
        self._active[nid] += 1
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()
        self._active[nid] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self._nid(name)
        i = self._open(nid)
        try:
            yield
        finally:
            self._close(i, nid)

    def _wrap(self, name: str, fn, count_args: bool):
        nid = self._nid(name)
        tracer = self
        keys = self.arg_keys.setdefault(name, set()) if count_args else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_args:
                # the first argument is an object, identified by address;
                # the remaining ones are small hashable values
                keys.add((id(args[0]),) + args[1:] + tuple(sorted(kwargs.items())))
                tracer.arg_calls[name] += 1
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i, nid)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _namespaces(self):
        return [mod for key, mod in list(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def wrap_function(self, name: str, module: str, attr: str,
                      count_args: bool = False) -> None:
        """Replace `module.attr` in every package namespace that holds it."""
        original = getattr(sys.modules[module], attr)
        wrapped = self._wrap(name, original, count_args)
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    setattr(ns, key, wrapped)

    def wrap_method(self, name: str, module: str, cls_name: str, attr: str) -> None:
        """Replace a method (plain or static) on its class."""
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(name, raw.__func__, False))
        else:
            replacement = self._wrap(name, raw, False)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans only),
        self seconds (duration minus direct children), and inclusive seconds
        split by op id."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            rec = out.get(name)
            if rec is None:
                rec = out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "by_op": defaultdict(float)}
            dur = (self.end[i] - self.start[i]) / 1e9
            rec["calls"] += 1
            rec["self_s"] += dur - child[i] / 1e9
            if self.outer[i]:
                rec["s"] += dur
                rec["by_op"][self.op[i]] += dur
        return out

    def distinct_ratio(self, name: str) -> float:
        calls = self.arg_calls.get(name, 0)
        return len(self.arg_keys.get(name, ())) / calls if calls else 0.0

    def write(self, path, extra: dict) -> None:
        doc = {"names": self.names,
               "columns": {"name": list(self.name), "start_ns": list(self.start),
                           "end_ns": list(self.end), "parent": list(self.parent),
                           "op": list(self.op)},
               **extra}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
