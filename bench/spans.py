"""Spans around the program's public functions, recorded from outside.

``install`` replaces each traced function in every ``vizing`` module
namespace that holds it (so ``vizing.engine.vizing_chain`` and
``vizing.audit.max_fan`` are wrapped as well as their home modules), and
the heavy methods of ``Multigraph`` and ``Colouring``; ``uninstall`` puts
the originals back.  A span records its name, start, end and parent.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the time of its child spans.

``superb_scan`` is a generator: its wrapper opens one span per ``next()``
(and per ``close()``), so the scan's time is counted where it is spent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import vizing
from vizing import audit, chains, cli, colouring, engine, iterated, multigraph

MODULES = {
    "multigraph": multigraph,
    "colouring": colouring,
    "chains": chains,
    "iterated": iterated,
    "engine": engine,
    "audit": audit,
}
NAMESPACES = [vizing, cli, *MODULES.values()]
METHODS = {
    "multigraph": (multigraph.Multigraph, ("from_text", "to_text")),
    "colouring": (
        colouring.Colouring,
        ("from_dump", "from_assignment", "to_text", "copy", "shift_in_place", "apply_undo"),
    ),
}
CLI_COMMANDS = ("colour", "schedule", "audit", "orient")


class Tracer:
    """Spans kept in flat arrays, with self time, total time and call
    counts aggregated per name as spans close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._open: list[int] = []
        self._child: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.names))
        self._child.append(0.0)
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(perf_counter())

    def exit(self) -> None:
        end = perf_counter()
        sid = self._open.pop()
        child = self._child.pop()
        self.ends[sid] = end
        duration = end - self.starts[sid]
        name = self.names[sid]
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._child:
            self._child[-1] += duration

    def write_spans(self, path: str) -> None:
        """One ``id parent name start end`` line per span (times in s from
        the first span), gzip-compressed."""
        base = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid}\t{self.parents[sid]}\t{name}\t{self.starts[sid] - base:.9f}\t{self.ends[sid] - base:.9f}\n")


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(result)
        return result

    return traced


class _TracedScan:
    """A ``superb_scan`` generator whose every step is a span."""

    def __init__(self, tracer: Tracer, name: str, gen) -> None:
        self._tracer, self._name, self._gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.enter(self._name)
        try:
            entry = next(self._gen)
        finally:
            self._tracer.exit()
        self._tracer.counts["iterated.scan_entries"] += 1
        self._tracer.counts["iterated.superb_entries"] += bool(entry.superb)
        return entry

    def close(self) -> None:
        self._tracer.enter(self._name)
        try:
            self._gen.close()
        finally:
            self._tracer.exit()


def _on_result(tracer: Tracer, name: str):
    """Counts read off a traced call's result."""
    if name == "chains.alternating_path":
        def count(path):
            tracer.counts["chains.walk_edges"] += len(path.edges)
        return count
    if name == "engine.build_schedule":
        def count(schedule):
            tracer.counts["engine.schedule_classes"] += len(schedule)
            tracer.counts["engine.largest_class"] = max(
                tracer.counts["engine.largest_class"], max(map(len, schedule), default=0)
            )
        return count
    return None


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function and method; returns the undo list for
    :func:`uninstall`."""
    undo: list[tuple[object, str, object]] = []
    wrapped: dict[int, object] = {}
    for short, module in MODULES.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            name = f"{short}.{attr}"
            if inspect.isgeneratorfunction(fn):
                def scan(*args, _fn=fn, _name=name, **kwargs):
                    tracer.calls[_name] += 1
                    return _TracedScan(tracer, _name, _fn(*args, **kwargs))
                wrapped[id(fn)] = functools.wraps(fn)(scan)
            else:
                wrapped[id(fn)] = _wrap(tracer, name, fn, _on_result(tracer, name))
    for command in CLI_COMMANDS:
        fn = getattr(cli, f"cmd_{command}")
        wrapped[id(fn)] = _wrap(tracer, f"cli.{command}", fn)
    for ns in NAMESPACES:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                undo.append((ns, attr, value))
                setattr(ns, attr, wrapped[id(value)])
    for short, (cls, attrs) in METHODS.items():
        for attr in attrs:
            raw = cls.__dict__[attr]
            name = f"{short}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(tracer, name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                new = _wrap(tracer, name, raw)
            undo.append((cls, attr, raw))
            setattr(cls, attr, new)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
