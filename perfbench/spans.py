"""In-memory span recorder that wraps functions from outside their module.

A span is one call of a wrapped function or one ``with tracer.span()``
block: its name, start and end (``perf_counter`` seconds) and the index
of the span that was open when it began.  Spans stay in a list while
the run goes and are written out as JSONL only at the end.

A layer's self time is its span's duration minus what its direct child
spans cover, and minus the time the benchmark's own counting hooks took
on its behalf, so nesting (``_aggregate`` inside ``_insert`` inside
``event_kernel``) does not count the same second twice.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class LayerTime:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Records spans and counters; ``wrap`` installs, ``restore`` undoes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.missing: list[str] = []  # "owner.attr" names that were not there
        self.wrapped: set[str] = set()  # span names with at least one wrapper
        self._stack: list[int] = []
        self._hook_s: Counter = Counter()  # span index -> hook seconds inside it
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a function that records a span named
        ``name`` around each call.  ``before(args)`` runs ahead of the call
        and its result is passed to ``after(state, args, result)``; both
        run outside the span and their time is taken off the parent's self
        time.  When ``owner`` has no such attribute the name is recorded
        as missing instead."""
        if not hasattr(owner, attr):
            self.missing.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
            return
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        # the raw function for class attributes: the wrapper is bound instead
        fn = own[attr] if attr in own else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            state, hook = None, 0.0
            if before is not None:
                h0 = perf_counter()
                state = before(args)
                hook = perf_counter() - h0
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                h0 = perf_counter()
                after(state, args, result)
                hook += perf_counter() - h0
            if hook and self._stack:
                self._hook_s[self._stack[-1]] += hook
            return result

        setattr(owner, attr, wrapper)
        self.wrapped.add(name)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._undo:
            owner, attr, original, was_own = self._undo.pop()
            if was_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def layer_times(self) -> dict[str, LayerTime]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, LayerTime] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, LayerTime())
            t.calls += 1
            t.self_s += end - start - covered[i] - self._hook_s[i]
        return out

    def write_jsonl(self, path: Path, header: dict) -> None:
        """One header line, then one line per span with times relative to
        the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        run = json.dumps(self.run_id)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write('{"id":%d,"name":"%s","start":%.9f,"end":%.9f,"parent":%s,"run":%s}\n'
                         % (i, name, start - t0, end - t0,
                            "null" if parent < 0 else parent, run))
