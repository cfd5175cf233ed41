"""Lazy DFA over derivative states, for *matching* (paper, §8.5).

Matching differs from solving: the next character is always known, so
no conditionals are needed — the matcher just evaluates the clean
conditional tree at each input character and caches the resulting
(state, character-class) -> state transitions, exactly like the
Symbolic Regex Matcher (SRM) caches Brzozowski derivative steps.

States are regexes (hash-consed, so equality is identity); per state
the engine's derivative tree induces a partition of the alphabet into
guard classes, and transitions are cached per class, not per character
— the symbolic analogue of SRM's minterm-indexed DFA cache, except the
classes come from the conditional tree for free instead of an up-front
mintermization pass.

In front of the rows sit two per-character tables, so a warm step is
one dictionary lookup instead of a domain check plus a guard scan:

* the *step table* maps a state uid to ``{char: successor}``;
* the *scan tables*, one per matcher root, map a union-of-restarts
  scan state to ``{char: union(step(state, char), root)}`` (see
  :meth:`RegexMatcher._earliest_end
  <repro.matcher.matcher.RegexMatcher._earliest_end>`).  They are keyed
  per root because the successor depends on the root re-injected.

Each entry is the successor's *node*, the pair ``(successor, its own
{char: ...} dict)``, one per state and shared by every entry leading
there, so a warm loop never looks a state up by uid.  Both tables fill on a miss through the exact row path and are dropped
wholesale by :meth:`LazyDfa.compact`.
"""

from repro.derivatives.condtree import DerivativeEngine


class LazyDfa:
    """Transition cache mapping (state-uid, guard-index) to states."""

    def __init__(self, builder, engine=None, state=None):
        self.builder = builder
        self.algebra = builder.algebra
        self.engine = engine or DerivativeEngine(builder)
        if state is not None:
            state.register_dfa(self)
        # state uid -> list of (guard, successor regex)
        self._rows = {}
        # state uid -> node (state, {char: successor's node})
        self._steps = {}
        # root uid -> {scan-state uid: node}, nodes as in _steps
        self._scans = {}
        #: cache statistics (exposed to the matching benchmarks)
        self.states_built = 0
        self.steps = 0
        #: row-cache hit/miss counters, one lookup per step: a hit is a
        #: step served from a table or from ``_rows``, a miss is a row
        #: built from the derivative engine (compaction turns former
        #: hits back into misses, which is exactly the rebuild cost the
        #: ratio is meant to surface)
        self.row_hits = 0
        self.row_misses = 0
        #: entries of the step table and of all scan tables (kept as
        #: counts so cache accounting stays O(1))
        self.step_entries = 0
        self.scan_entries = 0

    def row(self, state):
        """The transition row of ``state``: disjoint (guard, target)
        pairs whose guards partition the alphabet."""
        cached = self._rows.get(state.uid)
        if cached is not None:
            self.row_hits += 1
            return cached
        self.row_misses += 1
        row = [
            (guard, self.builder.union(list(leaves)))
            for guard, leaves in self.engine.transitions(state)
        ]
        self._rows[state.uid] = row
        self.states_built += 1
        return row

    def compact(self, live):
        """Drop transition rows of states not in ``live`` (uid ->
        regex), and both per-character tables: they rebuild lazily from
        the surviving rows, so a retired node is never served as a
        cached successor.  Returns the number of retired rows."""
        before = len(self._rows)
        self._rows = {
            uid: row for uid, row in self._rows.items() if uid in live
        }
        self._steps = {}
        self._scans = {}
        self.step_entries = self.scan_entries = 0
        return before - len(self._rows)

    def step(self, state, char):
        """One DFA step; returns the successor state (possibly bottom).

        Out-of-domain characters step to bottom — a clean non-match,
        never an algebra error — so a BMP-domain matcher scanning text
        with astral codepoints just rejects.
        """
        chars = _node(self._steps, state)[1]
        entry = chars.get(char)
        if entry is not None:
            self.steps += 1
            self.row_hits += 1
            return entry[0]
        target = self._row_step(state, char)
        chars[char] = _node(self._steps, target)
        self.step_entries += 1
        return target

    def _row_step(self, state, char):
        """One step through the guard rows (the exact path behind the
        tables)."""
        self.steps += 1
        if not self.algebra.in_domain(char):
            return self.builder.empty
        member = self.algebra.member
        for guard, target in self.row(state):
            if member(char, guard):
                return target
        return self.builder.empty

    def step_row(self, state):
        """``state``'s ``{char: successor's node}`` dict in the step
        table.  Matchers walk it inline, one lookup per character, and
        fill misses with :meth:`step`."""
        return _node(self._steps, state)[1]

    def scan_row(self, root, state):
        """``state``'s dict in ``root``'s scan table: ``{char: node of
        union(step(state, char), root)}``.  Fill misses with
        :meth:`restart`."""
        table = self._scans.get(root.uid)
        if table is None:
            table = self._scans[root.uid] = {}
        return _node(table, state)[1]

    def restart(self, root, state, char):
        """Fill ``root``'s scan table for ``state`` on ``char``: one
        counted step through the rows, then the union with a fresh copy
        of ``root``.  Returns the new scan state."""
        target = self.builder.union([self._row_step(state, char), root])
        table = self._scans[root.uid]
        _node(table, state)[1][char] = _node(table, target)
        self.scan_entries += 1
        return target

    def run(self, state, text, start=0):
        """Run from ``state`` over ``text[start:]``; yields the state
        *after* each character (for match-position scanning)."""
        current = state
        for i in range(start, len(text)):
            current = self.step(current, text[i])
            yield i, current
            if current is self.builder.empty:
                return


def _node(table, state):
    """``state``'s node in a step or scan table: the pair ``(state,
    {char: successor's node})``, made on first use.  Every entry that
    leads to a state shares its one node."""
    node = table.get(state.uid)
    if node is None:
        node = table[state.uid] = (state, {})
    return node
