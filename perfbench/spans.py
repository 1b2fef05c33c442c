"""Span recorder for the traced benchmark run.

Wraps public functions of the program from outside: every module attribute
bound to the original function object is replaced, so the wrapper sits at
the name each caller resolves (``pevit.gelu`` as well as ``tensor.gelu``,
``harness.rs_encrypt`` as well as ``cipher.rs_encrypt``). Spans stay in
memory as ``[name, start, end, parent, group]`` lists and are written out
once, when the run ends. The wrappers stay in place until the process exits.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.group = ""  # set by the workload, e.g. the puzzle size
        self._stack = []

    def wrap(self, fn, name, suffix=None):
        """``fn`` recording one span per call; ``suffix(args, kwargs)`` may
        extend the span name, e.g. with the key length of a ``gen_key`` call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name + suffix(args, kwargs) if suffix else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.group]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, modules, owner, attr, name, suffix=None):
        """Wrap ``owner.attr`` at every binding of it in ``modules``.

        ``owner`` is a module or a class; for a class only the class
        attribute is replaced, since a method is resolved through its class.
        """
        orig = getattr(owner, attr)
        traced = self.wrap(orig, name, suffix)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, traced)

    def stats(self) -> dict:
        """Per span name, and per ``name@group``: calls, inclusive and self
        seconds. Self time is a span's duration minus its direct children's;
        children never overlap, since the program runs on one thread."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, group) in enumerate(self.spans):
            for key in (name, f"{name}@{group}") if group else (name,):
                row = out.setdefault(key, {"calls": 0, "incl": 0.0, "self": 0.0})
                row["calls"] += 1
                row["incl"] += end - start
                row["self"] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "group"],
                       "spans": self.spans}, fh)
