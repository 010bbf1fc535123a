"""Spans and result capture around gridpaths' public functions.

Each hook replaces a function where its callers look it up: a module global
(``reduction.build_g1`` as ``reduce`` sees it), a name another module
imported (``mappers.check_edp_solution``) or a class attribute
(``EmbeddedDigraph.to_dot``).  Per-vertex helpers are never wrapped, so a
hook fires a handful of times per instance.

With tracing on, every call records a span (name, start, end, parent span,
instance id) and the observer of its hook may add to named counters.  With
tracing off, only hooks that capture results are installed; the benchmark
checks captured results after the timed call returns.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Hooks:
    """Installs wrappers, holds spans, counters and captured results."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []  # [name, start, end, parent index or -1, instance]
        self.counters: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)
        self.instance = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None, capture: bool = False) -> None:
        """Replace ``owner.attr`` by a hook named ``name``.

        ``observe(counters, result, exc)`` runs after each traced call;
        ``capture`` keeps every return value in ``captured[name]``.
        """
        if not (self.tracing or capture):
            return
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        hooks = self

        @functools.wraps(func)
        def hook(*args, **kwargs):
            if not hooks.tracing:
                result = func(*args, **kwargs)
                hooks.captured[name].append(result)
                return result
            idx = len(hooks.spans)
            hooks.spans.append([name, 0.0, 0.0, hooks._stack[-1] if hooks._stack else -1, hooks.instance])
            hooks._stack.append(idx)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(hooks.counters, None, exc)
                raise
            finally:
                end = time.perf_counter()
                hooks._stack.pop()
                hooks.spans[idx][1:3] = [start, end]
            if observe is not None:
                observe(hooks.counters, result, None)
            if capture:
                hooks.captured[name].append(result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, classmethod(hook) if is_classmethod else hook)

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def span_totals(self) -> tuple[dict, dict, float]:
        """(inclusive seconds per span name, self seconds per layer, top-level seconds).

        A span's self time is its duration minus its children's; spans run
        on one thread, so children never overlap.  The layer is the part of
        the name before the first dot.
        """
        inclusive: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            inclusive[name] += dur
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
        layer_self: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            layer_self[name.split(".", 1)[0]] += end - start - child[idx]
        return dict(inclusive), dict(layer_self), top

    def span_calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "instance": instance}) + "\n")
