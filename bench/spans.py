"""In-memory span tracer for the benchmark's traced run.

The tracer lives entirely in the benchmark: `Tracer.installed()` replaces
the public functions of the given modules (and a few named methods) with
wrappers that record one span per call -- name, start, end, parent -- and
restores every original binding on exit.  Nothing is patched while no
tracer is installed, so untraced runs execute the program unchanged.

Spans are kept in flat arrays and derived into per-function numbers once
the run ends:

* ``calls``   -- number of spans of the function;
* ``total_s`` -- summed duration of the outermost spans of the function
  (a recursive call inside a call of the same function is not counted
  twice);
* ``self_s``  -- summed duration minus the part of each span's interval
  covered by its child spans;
* ``raised``  -- spans that ended with an exception.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def short_name(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def method_label(module, cls_name: str, attr: str) -> str:
    """``polynomials.MultiPoly.mul`` for ``MultiPoly.__mul__``."""
    return f"{short_name(module.__name__)}.{cls_name}.{attr.strip('_')}"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, modules: Iterable, methods: Iterable[Tuple[object, str, str]] = (),
                 counted: Iterable[Tuple[object, str, str, str]] = (),
                 call_hooks: Optional[Dict[str, Callable]] = None,
                 result_hooks: Optional[Dict[str, Callable]] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.modules = list(modules)
        self.methods = list(methods)      # (module, class name, attribute)
        self.counted = list(counted)      # (module, class name, attribute, label)
        self.call_hooks = dict(call_hooks or {})
        self.result_hooks = dict(result_hooks or {})
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.raised = array("b")
        self._stack: List[int] = []
        self._depth: Dict[int, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self._count_cells: Dict[str, List[int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> Tuple[int, int]:
        idx = len(self.name)
        depth = self._depth[nid]
        self._depth[nid] = depth + 1
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(depth == 0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx, depth

    def _close(self, idx: int, nid: int, depth: int):
        self.end[idx] = self.clock()
        self._stack.pop()
        self._depth[nid] = depth

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        idx, depth = self._open(nid)
        try:
            yield
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self._close(idx, nid, depth)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` with one span recorded per call."""
        nid = self._name_id(name)
        on_call = self.call_hooks.get(name)
        on_result = self.result_hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            idx, depth = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx, nid, depth)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def _counting(self, label: str, fn: Callable) -> Callable:
        cell = self._count_cells.setdefault(label, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def targets(self) -> List[Tuple[str, object]]:
        """(label, original function) for every public module function."""
        out = []
        for mod in self.modules:
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue  # imported from elsewhere: wrapped under its home module
                out.append((f"{short_name(mod.__name__)}.{attr}", value))
        return out

    def _patch_everywhere(self, original, replacement):
        """Rebind every module-level name that refers to `original`."""
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_class(self, cls, original, replacement):
        """Rebind every class attribute that refers to `original`
        (``__rmul__ = __mul__`` aliases included)."""
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, attr, original))
                setattr(cls, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for label, fn in self.targets():
            self._patch_everywhere(fn, self.wrap(label, fn))
        for mod, cls_name, attr in self.methods:
            cls = getattr(mod, cls_name)
            fn = vars(cls)[attr]
            self._patch_class(cls, fn, self.wrap(method_label(mod, cls_name, attr), fn))
        for mod, cls_name, attr, label in self.counted:
            cls = getattr(mod, cls_name)
            fn = vars(cls)[attr]
            self._patch_class(cls, fn, self._counting(label, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for label, cell in self._count_cells.items():
            self.counters[label] += cell[0]
            cell[0] = 0

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derivation -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> List[float]:
        """Duration of each span minus the union of its children's intervals."""
        n = len(self.name)
        children: Dict[int, List[int]] = defaultdict(list)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p].append(i)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            cur_a = cur_b = None
            for k in sorted(kids, key=lambda j: self.start[j]):
                a, b = max(self.start[k], lo), min(self.end[k], hi)
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out[p] -= covered
        return out

    def summary(self, selfs: Optional[List[float]] = None) -> Dict[str, Dict[str, float]]:
        """Per-function calls, total_s, self_s and raised over all spans;
        `selfs` is `self_times()` when the caller already has it."""
        selfs = self.self_times() if selfs is None else selfs
        out: Dict[str, Dict[str, float]] = {}
        for i in range(len(self.name)):
            row = out.setdefault(self.names[self.name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["raised"] += self.raised[i]
            if self.outer[i]:
                row["total_s"] += self.end[i] - self.start[i]
        return out

    def root_time(self, first: int = 0, last: Optional[int] = None) -> float:
        """Summed duration of the spans in [first, last) that have no parent."""
        last = len(self.name) if last is None else last
        return sum(self.end[i] - self.start[i] for i in range(first, last)
                   if self.parent[i] < 0)

    def write(self, path: Path):
        """Write the spans as JSON lines: a header, then one array per span
        (name, parent index, start, end, raised)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counters": dict(self.counters),
                                 "maxima": dict(self.maxima)}) + "\n")
            for i in range(len(self.name)):
                fh.write("[%d,%d,%.9f,%.9f,%d]\n" % (self.name[i], self.parent[i],
                                                     self.start[i], self.end[i],
                                                     self.raised[i]))
