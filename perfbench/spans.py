"""In-memory span recording around the program's public functions.

A :class:`Tracer` records one span per call at each layer boundary the
benchmark wraps: name, start, end, the span that was open when it began
(its parent), an optional request id and a few counts.  Spans stay in
memory and are written out once, when the run ends.  Nothing here is
imported by the program; the wrappers are installed from outside by the
benchmark's own child processes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# span tuple fields
NAME, START, END, PARENT, RID, ATTRS = range(6)


class Tracer:
    """Collects spans; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        # id(original) -> (original, wrapper)
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    # ------------------------------------------------------------------ #
    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: int | None = None,
        rid: str | None = None,
        **attrs: float,
    ) -> int:
        """Append a finished span with explicit bounds; returns its index."""
        self.spans.append([name, start_ns, end_ns, parent, rid, attrs])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, rid: str | None = None) -> Iterator[int]:
        """Record a span around a block; nested spans become its children."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, rid, {}])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][END] = time.perf_counter_ns()

    def wrap(
        self,
        fn: Callable,
        name: str,
        counts: Callable[..., dict] | None = None,
        rid: Callable[..., str | None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``counts(args, result)`` and ``rid(args, result)`` derive the
        span's counts and request id from the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if counts is not None:
                self.spans[index][ATTRS] = counts(args, result)
            if rid is not None:
                self.spans[index][RID] = rid(args, result)
            return result

        return traced

    def patch_method(self, owner: type, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (plain or static method) with a traced one."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, **kw)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **kw))

    def patch_function(self, fn: Callable, name: str, **kw) -> None:
        """Trace a module-level function wherever it has been imported."""
        self._originals[id(fn)] = (fn, self.wrap(fn, name, **kw))
        self.repatch()

    def repatch(self) -> None:
        """Rebind patched functions in every ``repro`` module loaded so far.

        Modules imported after :meth:`patch_function` still hold the
        original object under their own names; call this after imports.
        """
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])

    # ------------------------------------------------------------------ #
    def dump(self, path: Path) -> None:
        """Write every span as JSON (times in ns from an arbitrary origin)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                               "parent", "rid", "attrs"],
                                    "spans": self.spans}))


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``.

    Intervals are clipped to the window first, so a child that started
    before or ended after its parent counts only inside it, and children
    that overlap each other are not counted twice.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(i, []))
        for i, span in enumerate(spans)
    ]


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed counts."""
    table: dict[str, dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span[END] - span[START]) / 1e9
        row["self_s"] += self_ns / 1e9
        for key, value in span[ATTRS].items():
            row[key] = row.get(key, 0) + value
    return table
