"""Memoized matcher stepping: the LazyDfa step table and the per-root
union-of-restarts scan tables, checked against the reference semantics.

Several matchers share one ``LazyDfa``, so their tables live side by
side, including roots that overlap (``r`` and ``r`` followed by more,
``ab|10`` and ``(ab|10)0``) and therefore share scan and step states.
Every answer is compared with :class:`repro.regex.semantics.Matcher`:

* ``fullmatch`` with ``Matcher.matches`` on the whole text;
* ``search`` with the leftmost start, then the earliest end, over
  ``Matcher.matches`` of substrings (a string with an out-of-domain
  character is in no language, so no match spans one);
* ``finditer`` with the same progression rule as the matcher.

Texts mix in-domain characters with out-of-domain and astral ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matcher import LazyDfa, RegexMatcher
from repro.regex import parse
from repro.regex.semantics import Matcher as Oracle
from repro.solver.lifecycle import CompactionPolicy, EngineState
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes

#: in-domain characters, an in-domain character of the interval
#: algebra that no drawn predicate names, an out-of-domain Latin-1
#: character and an astral one
TEXT_ALPHABET = ALPHABET + "cé\U0001F600"


def texts(max_size=7):
    return st.text(alphabet=TEXT_ALPHABET, max_size=max_size)


def reference_search(oracle, regex, text, start=0):
    """Leftmost start, then earliest end, by membership of substrings."""
    for i in range(start, len(text) + 1):
        for j in range(i, len(text) + 1):
            if oracle.matches(regex, text[i:j]):
                return (i, j)
    return None


def reference_finditer(oracle, regex, text):
    spans = []
    position = 0
    while position <= len(text):
        span = reference_search(oracle, regex, text, position)
        if span is None:
            break
        spans.append(span)
        position = span[1] if span[1] > position else position + 1
    return spans


def check_agreement(oracle, matcher, text):
    regex = matcher.regex
    assert matcher.fullmatch(text) == oracle.matches(regex, text)
    found = matcher.search(text)
    expected = reference_search(oracle, regex, text)
    assert (found.span() if found is not None else None) == expected
    if all(oracle.algebra.in_domain(c) for c in text):
        # on in-domain text the positional search agrees as well
        assert oracle.search(regex, text) == expected
    assert [m.span() for m in matcher.finditer(text)] == \
        reference_finditer(oracle, regex, text)
    assert matcher.is_match(text) == (expected is not None)


def overlapping_roots(builder, regexes):
    """The drawn regexes plus roots that share their states: ``r``
    followed by more, the union of the drawn ones, and ``r``'s own
    union-of-restarts scan states after ``a`` and after ``0`` (the
    start state of such a root is a scan state of ``r``'s matcher)."""
    probe = LazyDfa(builder)
    extra = [builder.concat([r, builder.char("a")]) for r in regexes]
    extra.append(builder.union(list(regexes)))
    extra.extend(builder.union([probe.step(r, c), r])
                 for r in regexes for c in "a0")
    return list(regexes) + extra


def test_shared_dfa_agrees_with_reference(bitset_builder):
    builder = bitset_builder
    oracle = Oracle(builder.algebra)
    dfa = LazyDfa(builder)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(extended_regexes(builder, max_leaves=5),
                    min_size=1, max_size=2),
           st.lists(texts(), min_size=1, max_size=3))
    def check(regexes, samples):
        matchers = [RegexMatcher(builder, r, dfa)
                    for r in overlapping_roots(builder, regexes)]
        # twice: the second pass runs on warm tables
        for _ in range(2):
            for text in samples:
                for matcher in matchers:
                    check_agreement(oracle, matcher, text)

    check()


def test_interval_algebra_domain_edges(ascii_builder):
    """ASCII domain: 'c' is in the domain but in no drawn predicate,
    'é' and the astral character are outside it."""
    builder = ascii_builder
    oracle = Oracle(builder.algebra)
    dfa = LazyDfa(builder)

    @settings(max_examples=40, deadline=None)
    @given(extended_regexes(builder, max_leaves=5),
           st.lists(texts(), min_size=1, max_size=3))
    def check(regex, samples):
        matchers = [RegexMatcher(builder, r, dfa)
                    for r in overlapping_roots(builder, [regex])]
        for _ in range(2):
            for text in samples:
                for matcher in matchers:
                    check_agreement(oracle, matcher, text)

    check()


def test_overlapping_literal_roots(ascii_builder):
    builder = ascii_builder
    oracle = Oracle(builder.algebra)
    dfa = LazyDfa(builder)
    # after "a" the scan of "ab" is in "b|ab", the start state of the
    # "b|ab" matcher: the two must not share that state's successors
    matchers = [RegexMatcher(builder, parse(builder, p), dfa)
                for p in ("ab|cd", "(ab|cd)x", "(ab|cd)x|cd", "ab",
                          "b|ab")]
    for text in ("xabcdx", "cdxab\U0001F600cdx", "abécdx", "abcd",
                 "zzcdxx", "cdx", "abab", "bab", "axb", "aaxbab"):
        for _ in range(2):
            for matcher in matchers:
                check_agreement(oracle, matcher, text)


def test_agreement_survives_compaction_between_scans(bitset_builder):
    """A compaction after every scan drops both tables; the matchers
    refill them from the surviving rows and keep agreeing."""
    builder = bitset_builder
    oracle = Oracle(builder.algebra)
    state = EngineState(builder,
                        policy=CompactionPolicy(max_entries=1,
                                                min_retained=0))
    dfa = LazyDfa(builder, state=state)

    @settings(max_examples=40, deadline=None)
    @given(extended_regexes(builder, max_leaves=5),
           st.lists(texts(), min_size=1, max_size=3))
    def check(regex, samples):
        matchers = [RegexMatcher(builder, r, dfa, state=state)
                    for r in overlapping_roots(builder, [regex])]
        for text in samples * 2:
            for matcher in matchers:
                check_agreement(oracle, matcher, text)
                assert state.end_query() is not None  # compacted
                assert dfa.step_entries == dfa.scan_entries == 0
        for matcher in matchers:
            state.unpin(matcher.regex)

    check()


def test_warm_scan_is_table_lookups_only(bitset_builder):
    """Once warm, a scan builds no row, tests no guard and interns no
    union: every character is a table hit."""
    builder = bitset_builder
    dfa = LazyDfa(builder)
    matchers = [RegexMatcher(builder, parse(builder, p), dfa)
                for p in ("ab|10", "(ab|10)0", "(0|1)+&~(.*01.*)")]
    text = "xab100b\U0001F600110a01"
    cold = [[m.span() for m in matcher.finditer(text)]
            for matcher in matchers]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("warm scan left the tables")

    dfa.row = forbidden
    builder.union = forbidden
    builder.algebra.member = forbidden
    builder.algebra.in_domain = forbidden
    warm = [[m.span() for m in matcher.finditer(text)]
            for matcher in matchers]
    assert warm == cold


def test_counters_count_characters_stepped(bitset_builder):
    """``steps`` counts characters whether a table or a row served
    them, and a warm rerun is all row hits."""
    builder = bitset_builder
    dfa = LazyDfa(builder)
    matcher = RegexMatcher(builder, parse(builder, "(ab|10)0"), dfa)
    text = "ab100ab1\U0001F600100"
    spans = [m.span() for m in matcher.finditer(text)]
    cold_steps = dfa.steps
    hits, misses = dfa.row_hits, dfa.row_misses
    assert misses == dfa.states_built > 0
    assert [m.span() for m in matcher.finditer(text)] == spans
    assert dfa.steps - cold_steps == cold_steps
    assert dfa.row_hits - hits == cold_steps
    assert dfa.row_misses == misses
