"""Spans recorded from outside the library.

A :class:`Tracer` replaces public functions of the ``trimformer`` modules
with timing wrappers at every place a caller looks them up: the module that
defines the function, every module that imported it by name, and class
attributes for methods. Nothing in the library changes; uninstalling puts
the original objects back.

Each span is ``[name, start, end, parent, flag]`` in ``time.perf_counter``
seconds, kept in memory until the run ends. ``flag`` is only used by
``model.forward``: bit 0 says no gradient tape was active, bit 1 says the
model was the teacher the workload registered.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = (
    "data", "model", "autodiff", "distill", "importance",
    "pruning", "search", "checkpoint", "cli",
)
# Public methods wrapped on their class, as "<module>.<Class>.<method>".
METHODS = (
    "data.TokenDataset.load",
    "data.TokenDataset.save",
    "distill.TrainState.adam_update",
    "importance.ImportanceReport.load",
    "importance.ImportanceReport.save",
    "search.CandidateSet.load",
    "search.CandidateSet.save",
)
# Accessors called inside every primitive; a span on them would only
# measure the tracer.
SKIP = {"autodiff.active_tape", "autodiff.nodes_recorded_total"}
NO_GRAD = 1
TEACHER = 2


def _span_name(module: str, fname: str) -> str:
    if module == "cli" and fname.startswith("cmd_"):
        return "cli." + fname[4:]
    return f"{module}.{fname}"


def public_functions() -> dict:
    """``span name -> function`` for every public function defined in one
    of :data:`MODULES`."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"trimformer.{short}")
        for fname, obj in vars(mod).items():
            if (
                not fname.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                name = _span_name(short, fname)
                if name not in SKIP:
                    found[name] = obj
    return found


class Tracer:
    """Records spans for the functions named in ``only`` (every public
    function when ``only`` is None) while installed."""

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.spans: list[list] = []
        self.teacher = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if name == "model.forward":
            from trimformer import autodiff

            def flag_of(args):
                flag = NO_GRAD if autodiff.active_tape() is None else 0
                if args and args[0] is self.teacher:
                    flag |= TEACHER
                return flag
        else:
            def flag_of(args):
                return 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, flag_of(args)])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> "Tracer":
        targets = public_functions()
        wrappers = {}  # id(original function) -> wrapper
        for name, fn in targets.items():
            if self.only is None or name in self.only:
                wrappers[id(fn)] = self._wrap(name, fn)
        for short in MODULES:
            mod = importlib.import_module(f"trimformer.{short}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for name in METHODS:
            if self.only is not None and name not in self.only:
                continue
            short, cls_name, meth = name.split(".")
            cls = getattr(importlib.import_module(f"trimformer.{short}"), cls_name)
            raw = cls.__dict__[meth]
            self._restore.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(name, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def by_name(spans: list[list], name: str) -> list[list]:
    return [s for s in spans if s[0] == name]


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, total ``ms`` and ``self_ms`` (duration
    minus the time covered by direct child spans)."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ms[s[3]] += (s[2] - s[1]) * 1e3
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        ms = (s[2] - s[1]) * 1e3
        row = table.setdefault(s[0], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += ms
        row["self_ms"] += ms - child_ms[i]
    return table


def has_ancestor(spans: list[list], idx: int, prefix: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False
