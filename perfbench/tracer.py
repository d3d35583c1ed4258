"""A small in-process span tracer that wraps functions from the outside.

Each wrapped call opens a span.  When it closes, its busy time (wall time
between entry and exit) and self time (busy time minus the busy time of
the spans it directly caused) are added to an aggregate keyed by
``(span name, parent span name)``.  Aggregating on close keeps memory flat
however many calls an integration makes; the parent in the key is what
lets a caller-blind function such as an LU solve be split by caller.

Nothing here knows about pdint: :mod:`layers` says what to wrap.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = ""  # parent name of a span opened with no span open


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Profile:
    """Aggregated spans of one traced stretch of work."""

    # (name, parent name) -> totals
    spans: dict = field(default_factory=dict)
    # (parent name, child name) -> number of parent spans with >= 1 such child
    having: dict = field(default_factory=dict)
    # (name, exception class name) -> spans that raised it
    raised: dict = field(default_factory=dict)

    def total(self, name: str) -> SpanStats:
        """Totals of ``name`` over all its parents."""
        out = SpanStats()
        for (n, _parent), s in self.spans.items():
            if n == name:
                out.calls += s.calls
                out.busy_s += s.busy_s
                out.self_s += s.self_s
        return out

    def under(self, name: str, parents) -> SpanStats:
        """Totals of ``name`` over the given parent names only."""
        out = SpanStats()
        for parent in parents:
            s = self.spans.get((name, parent))
            if s is not None:
                out.calls += s.calls
                out.busy_s += s.busy_s
                out.self_s += s.self_s
        return out

    def merge(self, other: "Profile") -> None:
        for key, s in other.spans.items():
            mine = self.spans.setdefault(key, SpanStats())
            mine.calls += s.calls
            mine.busy_s += s.busy_s
            mine.self_s += s.self_s
        for table, theirs in ((self.having, other.having), (self.raised, other.raised)):
            for key, n in theirs.items():
                table[key] = table.get(key, 0) + n


class Tracer:
    """Opens spans around wrapped calls and aggregates them into a Profile."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.profile = Profile()
        # open spans, innermost last: [name, start, children busy, child names]
        self._stack: list = []

    def take(self) -> Profile:
        """Return the profile gathered so far and start a fresh one."""
        if self._stack:
            raise RuntimeError("cannot take a profile while spans are open")
        out, self.profile = self.profile, Profile()
        return out

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                raised = self.profile.raised
                raised[key] = raised.get(key, 0) + 1
                raise
            finally:
                busy = clock() - frame[1]
                stack.pop()
                profile = self.profile
                if stack:
                    parent = stack[-1]
                    parent[2] += busy
                    if parent[3] is None:
                        parent[3] = {name}
                        first = True
                    else:
                        first = name not in parent[3]
                        parent[3].add(name)
                    if first:
                        hkey = (parent[0], name)
                        profile.having[hkey] = profile.having.get(hkey, 0) + 1
                    pname = parent[0]
                else:
                    pname = ROOT
                s = profile.spans.get((name, pname))
                if s is None:
                    s = profile.spans[(name, pname)] = SpanStats()
                s.calls += 1
                s.busy_s += busy
                s.self_s += busy - frame[2]

        return traced


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``owner.attr`` for each ``(owner, attr, span name)`` in ``targets``.

    A target whose attribute does not exist is skipped, so its metrics are
    simply absent.  Yields the set of span names installed.  Every
    attribute is put back on exit, in reverse order, even on error.
    """
    saved = []
    installed = set()
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, tracer.wrap(name, original))
            saved.append((owner, attr, original))
            installed.add(name)
        yield installed
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
