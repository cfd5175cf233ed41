"""The traced run's span recorder.

The benchmark measures each layer from its own files: in a traced run
it replaces the public functions and methods of the program's modules
with thin wrappers that time every call, then puts the originals back.
The program's source is never edited.

Each call is a span (name, start, end, parent, request).  A layer's
self time is its span's duration minus the time its child spans cover.
Coarse spans — one per request and per top-level call into a layer —
are kept in memory and written out at the end; the fine-grained ones
(character-algebra operations, single DFA steps, union interning) are
millions per run, so they are folded into per-name aggregates (calls,
total, self time) instead of being stored one by one.
"""

import json
import time


class Tracer:
    def __init__(self):
        #: one entry per open span: [name, start, child_time, index]
        self._stack = []
        #: name -> [calls, total_s, self_s]
        self.totals = {}
        #: stored spans: [name, start, end, parent index, request]
        self.spans = []
        self.request = None
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name, record=True):
        index = None
        if record:
            parent = self._parent_index()
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.request])
            start = self.spans[index][1]
        else:
            start = time.perf_counter()
        self._stack.append([name, start, 0.0, index])

    def end(self):
        now = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = now - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index][2] = now
        return duration

    def _parent_index(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def span(self, name):
        """A recorded span around a ``with`` block."""
        return _Span(self, name)

    def add(self, name, start, end, parent=None, request=None):
        """Record an already-finished span (built from stamps another
        process took); returns its index for use as a parent."""
        self.spans.append([name, start, end, parent, request])
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration
        if parent is not None:
            parent_name = self.spans[parent][0]
            self.totals[parent_name][2] -= duration
        return len(self.spans) - 1

    # -- wrapping the program's functions ------------------------------------

    def wrap(self, owner, attr, name, record=False, observe=None):
        """Replace ``owner.attr`` (a module function or a class's
        method) by a timing wrapper until :meth:`restore`.
        ``observe``, when given, sees every return value."""
        own = attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            begin(name, record)
            try:
                value = original(*args, **kwargs)
            finally:
                end()
            if observe is not None:
                observe(value)
            return value

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original if own else None))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)    # it was inherited
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading it back -----------------------------------------------------

    def calls(self, name):
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    def self_time(self, prefix):
        """Summed self time of every span whose name starts with
        ``prefix`` (a layer name such as ``"alphabet."``)."""
        return sum(entry[2] for name, entry in self.totals.items()
                   if name.startswith(prefix))

    def total_time(self, name):
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def write(self, path):
        """Stored spans as JSON lines, then one aggregate line per
        span name."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
            for name in sorted(self.totals):
                calls, total, own = self.totals[name]
                handle.write(json.dumps({
                    "aggregate": name, "calls": calls, "total_s": total,
                    "self_s": own,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "duration")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.duration = None

    def __enter__(self):
        self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.duration = self.tracer.end()
        return False
