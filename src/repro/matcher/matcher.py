"""Derivative-based regex matching (the SRM contrast, paper §8.5).

"In matching, the next concrete character is always known, whereas in
solving, the next character in the string may be unknown."  This
module is the matching side of that contrast: the same derivative
engine that powers the solver, driven by concrete characters through a
lazily built DFA cache.  It supports the full ERE class — intersection
and complement included — which classical backtracking matchers do not.
"""

from repro.matcher.dfa_cache import LazyDfa


class Match:
    """A located match: ``text[start:end]`` is in the language."""

    __slots__ = ("text", "start", "end")

    def __init__(self, text, start, end):
        self.text = text
        self.start = start
        self.end = end

    def group(self):
        return self.text[self.start:self.end]

    def span(self):
        return (self.start, self.end)

    def __repr__(self):
        return "Match(span=(%d, %d), group=%r)" % (
            self.start, self.end, self.group(),
        )


class RegexMatcher:
    """Compiled matcher for one ERE (full-match, search, scan)."""

    def __init__(self, builder, regex, dfa=None, state=None):
        self.builder = builder
        self.regex = regex
        self.dfa = dfa or LazyDfa(builder)
        self._sem = None
        if state is not None:
            # account/compact this matcher's DFA rows with the rest of
            # the engine state, and keep its regex across compactions
            state.register_dfa(self.dfa)
            state.pin(regex)

    def _semantics(self):
        """Positional reference matcher, for assertion-bearing regexes.

        Zero-width assertions are evaluated against the *whole* text,
        which the derivative DFA cannot express (and lookaround
        elimination would silently change ``search``: ``^a`` as a
        fullmatch language is just ``a``, but searching it inside
        ``"ba"`` must still fail).  Delegating keeps every entry point
        exact at the cost of the reference matcher's polynomial scan.
        """
        if self._sem is None:
            from repro.regex.semantics import Matcher

            self._sem = Matcher(self.builder.algebra)
        return self._sem

    # -- whole-string matching ------------------------------------------------

    def fullmatch(self, text):
        """True iff the entire ``text`` is in the language."""
        if self.regex.has_look:
            return self._semantics().matches(self.regex, text)
        state = self.regex
        for _, state in self.dfa.run(self.regex, text):
            if state is self.builder.empty:
                return False
        return state.nullable

    # -- substring search --------------------------------------------------------

    def _earliest_end(self, text, start):
        """Smallest ``end >= start`` such that some ``i`` in
        ``[start, end]`` has ``text[i:end]`` in the language.

        Uses the union-of-restarts scan: the state is the (hash-consed)
        union of the derivatives of every live start position, with a
        fresh copy of the regex injected at each step (a match may
        begin at position i+1).  The DFA memoizes each scan step per
        root, so a warm character is one table lookup; the hits are
        added to the DFA's step and row-hit counters once per call.
        """
        regex = self.regex
        if regex.nullable:
            return start
        dfa = self.dfa
        state = regex
        chars = dfa.scan_row(regex, state)
        hits = 0
        end = None
        for i in range(start, len(text)):
            char = text[i]
            entry = chars.get(char)
            if entry is None:
                state = dfa.restart(regex, state, char)
                chars = dfa.scan_row(regex, state)
            else:
                hits += 1
                state, chars = entry
            if state.nullable:
                # some started match just closed at i+1
                end = i + 1
                break
        dfa.steps += hits
        dfa.row_hits += hits
        return end

    def search(self, text, start=0):
        """Leftmost match (earliest start; among those, earliest end).

        Returns a :class:`Match` or None.  Empty matches are reported
        when the language is nullable.

        The union-of-restarts scan only bounds the search: it yields
        the earliest end over *all* start positions, which may belong
        to a later start than the leftmost one (``ab1|b`` on ``"ab1"``
        closes first at 2 via the ``b`` branch, but the leftmost match
        is ``ab1`` at 0).  Since the match closing at that earliest end
        begins at some position <= it, the leftmost viable start is
        also <= it, so we scan starts only up to that bound and take
        the first that yields any match.
        """
        if self.regex.has_look:
            span = self._semantics().search(self.regex, text, start)
            if span is None:
                return None
            return Match(text, span[0], span[1])
        if self.regex.nullable:
            return Match(text, start, start)
        bound = self._earliest_end(text, start)
        if bound is None:
            return None
        root = self.dfa.step_row(self.regex)
        for i in range(start, bound + 1):
            end = self._end_from(text, i, root)
            if end is not None:
                return Match(text, i, end)
        return None  # pragma: no cover - bound guarantees a match

    def _end_from(self, text, i, chars):
        """Earliest ``end`` with ``text[i:end]`` in the (non-nullable)
        language, or None once the state dies.  ``chars`` is the
        regex's step-table entry; steps are table lookups, with hits
        counted once per call as in :meth:`_earliest_end`."""
        state = self.regex
        dfa = self.dfa
        empty = self.builder.empty
        hits = 0
        end = None
        for j in range(i, len(text)):
            char = text[j]
            entry = chars.get(char)
            if entry is None:
                state = dfa.step(state, char)
                chars = dfa.step_row(state)
            else:
                hits += 1
                state, chars = entry
            if state.nullable:
                end = j + 1
                break
            if state is empty:
                break
        dfa.steps += hits
        dfa.row_hits += hits
        return end

    def is_match(self, text):
        """True iff some substring of ``text`` matches."""
        if self.regex.has_look:
            return self._semantics().search(self.regex, text) is not None
        return self._earliest_end(text, 0) is not None

    def finditer(self, text):
        """Non-overlapping matches, scanning left to right.

        Empty matches advance the scan position by one to guarantee
        progress (the usual regex-engine convention).
        """
        position = 0
        while position <= len(text):
            match = self.search(text, position)
            if match is None:
                return
            yield match
            position = match.end if match.end > position else position + 1

    def findall(self, text):
        """The matched substrings of :meth:`finditer`."""
        return [m.group() for m in self.finditer(text)]

    def count(self, text):
        """Number of non-overlapping matches."""
        return sum(1 for _ in self.finditer(text))


def compile_pattern(builder, pattern):
    """Parse and compile a pattern into a :class:`RegexMatcher`."""
    from repro.regex.parser import parse

    return RegexMatcher(builder, parse(builder, pattern))
