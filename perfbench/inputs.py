"""Seeded input generation for the three workloads.

Every input reaches the program as text: SMT-LIB scripts, or pattern
text for problems SMT-LIB cannot carry (lookarounds).  The seed drives
the repository's seeded suite generators, the heavy blowup tier, the
serving stream and the synthetic log; the same seed gives the same
inputs, byte for byte (see :func:`digest`).
"""

import hashlib
import random
from collections import namedtuple

from repro.bench.generators import (
    blowup, boolean_loops, dates, kaluza, lookarounds, norn, passwords,
    regexlib, slog, sygus,
)
from repro.bench.generators.patterns import PATTERN_NAMES, PATTERNS
from repro.bench.warm import DISTINCT_PATTERNS
from repro.regex.builder import RegexBuilder
from repro.regex.parser import parse
from repro.regex.printer import to_pattern
from repro.alphabet import IntervalAlgebra
from repro.smtlib.writer import script_text
from repro.solver import formula as F

#: One query as the program receives it.  ``kind`` is ``"smt2"`` or
#: ``"pattern"``; ``label`` is the verdict the generator built in
#: (``"sat"``/``"unsat"``) or None.
Query = namedtuple("Query", "name suite group kind text label")

#: The heavier blowup tier: ``(.*a.{k})&(.*b.{k})`` is unsat for every
#: k (the (k+1)-th character from the end cannot be both letters).
BLOWUP_KS = (16, 24, 32, 40, 48, 56, 64)


def derive_seed(seed, *parts):
    """A generator seed derived from the run seed and a label."""
    text = ":".join(str(part) for part in (seed,) + parts)
    return random.Random(text).randrange(1 << 30)


def _to_query(problem, algebra):
    if problem.suite == "lookarounds":
        # SMT-LIB has no lookarounds: send the pattern text instead
        return Query(problem.name, problem.suite, problem.group, "pattern",
                     to_pattern(problem.formula.regex, algebra),
                     problem.expected)
    return Query(problem.name, problem.suite, problem.group, "smt2",
                 script_text(problem.formula, algebra), problem.expected)


def paper_problems(seed, heavy=True):
    """Every problem of the paper-shaped suites (NB, B and H), with the
    seeded suites drawn from ``seed``, as text queries in generator
    order."""
    builder = RegexBuilder(IntervalAlgebra())
    s = lambda name: derive_seed(seed, name)
    problems = (
        kaluza.generate(builder, seed=s("kaluza"))
        + slog.generate(builder, seed=s("slog"))
        + norn.generate_nb(builder, seed=s("norn_nb"))
        + norn.generate_b(builder, seed=s("norn_b"))
        + sygus.generate(builder, seed=s("sygus"))
        + regexlib.generate_intersection(builder, seed=s("inter"))
        + regexlib.generate_subset(builder, seed=s("subset"))
        + dates.generate(builder)
        + passwords.generate(builder)
        + boolean_loops.generate(builder)
        + blowup.generate(builder)
        + lookarounds.generate(builder)
    )
    queries = [_to_query(p, builder.algebra) for p in problems]
    if heavy:
        for k in BLOWUP_KS:
            regex = parse(builder, r"(.*a.{%d})&(.*b.{%d})" % (k, k))
            queries.append(Query(
                "heavy_clash_k%d" % k, "blowup_heavy", "H", "smt2",
                script_text(F.InRe("s", regex), builder.algebra), "unsat",
            ))
    return queries


def solve_pass(seed, index):
    """One pass of the solve-cold workload: all problems, freshly
    generated for pass ``index`` and shuffled by the seed."""
    queries = paper_problems(derive_seed(seed, "pass", index))
    random.Random(derive_seed(seed, "order", index)).shuffle(queries)
    return queries


# -- the serving stream -------------------------------------------------------

#: Suites the serving pool draws from.  The blowup, password and subset
#: suites are left to solve-cold: their cold solves take up to 0.2 s,
#: which would make the serving figures depend on which of them a seed
#: happens to draw rather than on queueing and dispatch.
SERVE_SUITES = ("kaluza", "slog", "norn", "sygus", "regexlib_intersection",
                "date", "boolean_loops", "lookarounds")

#: Share of a serving stream's requests that are first-seen.
FIRST_SEEN_SHARE = 0.375


def serve_pool(seed, size):
    """``size`` distinct serving inputs: every pattern of
    :data:`repro.bench.warm.DISTINCT_PATTERNS` plus a seeded sample of
    the serving suites, in a seeded rank order (rank 0 is the most
    requested)."""
    rng = random.Random(derive_seed(seed, "serve-pool"))
    candidates = [q for q in paper_problems(seed, heavy=False)
                  if q.suite in SERVE_SUITES]
    distinct = [Query("distinct_%02d" % i, "distinct", "B", "pattern", text,
                      None)
                for i, text in enumerate(DISTINCT_PATTERNS)]
    seen = set(q.text for q in distinct)
    sample = []
    for query in rng.sample(candidates, len(candidates)):
        if query.text not in seen and len(sample) < size - len(distinct):
            seen.add(query.text)
            sample.append(query)
    pool = distinct + sample
    rng.shuffle(pool)
    return pool


def zipf_stream(pool, length, rng):
    """A stream of ``length`` pool indexes in which exactly
    ``len(pool)`` requests are first-seen: every item appears once, and
    the remaining requests repeat items with zipfian weight ``1/(rank
    + 1)``."""
    if length < len(pool):
        raise ValueError("stream shorter than its pool")
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    extra = rng.choices(range(len(pool)), weights=weights,
                        k=length - len(pool))
    stream = list(range(len(pool))) + extra
    rng.shuffle(stream)
    return stream


def serve_stream(seed, length):
    """The pool and the request stream (pool indexes) of one rung."""
    distinct = max(len(DISTINCT_PATTERNS) + 1,
                   round(FIRST_SEEN_SHARE * length))
    pool = serve_pool(seed, distinct)
    stream = zipf_stream(pool, length,
                         random.Random(derive_seed(seed, "stream", length)))
    return pool, stream


def schedule(rate, count):
    """Due times of ``count`` requests sent at a fixed ``rate``."""
    return [i / float(rate) for i in range(count)]


#: The geometric rate ladder: from 16 qps by x1.5 up to 615 qps.
LADDER_START, LADDER_FACTOR, LADDER_TOP = 16.0, 1.5, 615


def ladder():
    """The rates 16, 24, 36, 54, 81, ... up to :data:`LADDER_TOP`."""
    rates = []
    rate = LADDER_START
    while round(rate) <= LADDER_TOP:
        rates.append(round(rate))
        rate *= LADDER_FACTOR
    return rates


# -- the log ------------------------------------------------------------------

#: Extended patterns (intersection and complement) that Python ``re``
#: cannot express; matched alongside the RegExLib patterns.
EXTENDED_PATTERNS = {
    "int_not_ip": r"\d{3}&~((\d{1,3}\.){3}\d{1,3})",
    "word_not_error": r"[a-z]+&~(.*err.*)",
    "token_not_number": r"\w+&~(\d+)",
    "path_no_index": r"(/[a-z.]+)+&~(.*index.*)",
    "hex_not_digits": r"#[0-9a-f]{6}&~(#\d+)",
}

_LOG_WORDS = ["error", "ok", "10.0.0.1", "2024-05-01", "user@host.com",
              "GET", "/index.html", "500", "#deadbe", "x" * 8]


def log_patterns():
    """(name, pattern text, expressible in Python ``re``) triples."""
    out = [(name, PATTERNS[name], True) for name in PATTERN_NAMES]
    out.extend((name, EXTENDED_PATTERNS[name], False)
               for name in sorted(EXTENDED_PATTERNS))
    return out


def log_lines(seed, count):
    """A seeded synthetic log over the matching benchmark's vocabulary,
    plus seeded numbers, so lines differ between seeds."""
    rng = random.Random(derive_seed(seed, "log"))
    lines = []
    for _ in range(count):
        words = []
        for _ in range(rng.randint(6, 14)):
            if rng.random() < 0.15:
                words.append(str(rng.randrange(10 ** rng.randint(1, 6))))
            else:
                words.append(rng.choice(_LOG_WORDS))
        lines.append(" ".join(words))
    return lines


def digest(items):
    """A short content digest of a sequence of inputs."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]
